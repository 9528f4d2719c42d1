//! A CDCL (conflict-driven clause learning) propositional SAT solver.
//!
//! This is the propositional engine underneath the DPLL(T) loop in
//! [`crate::solver`]. It implements the standard MiniSat-style architecture:
//! two-literal watching, first-UIP conflict analysis with non-chronological
//! backjumping, VSIDS-like activity-based decision ordering, and phase saving.
//! Clause-database reduction and restarts are deliberately simple because the
//! formulas produced by the JMatch verifier are small (hundreds of clauses).
//!
//! ## Assertion scopes
//!
//! The solver supports incremental use through *assertion scopes*
//! ([`SatSolver::push`] / [`SatSolver::pop`]), implemented with the classic
//! selector-variable idiom: every scope owns a fresh selector variable `s`,
//! clauses added inside the scope via [`SatSolver::add_scoped_clause`] carry
//! the extra literal `~s`, and [`SatSolver::solve`] assumes `s` for every
//! active scope. Popping a scope permanently asserts `~s`, which disables the
//! scope's clauses while keeping the clause database — in particular all
//! learnt clauses, which mention `~s` whenever they were derived from the
//! scope's clauses — sound for later queries. This is what lets the SMT layer
//! keep one session (and its learned knowledge) alive across an entire
//! verification run instead of rebuilding a solver per query.
//!
//! ## Clause storage
//!
//! A session adds and retires hundreds of thousands of short clauses, so no
//! clause owns an allocation. Every clause's literals sit back to back in
//! one arena (a `Vec<Lit>`), and the clause itself is a `(start, len,
//! learnt)` header; a clause's index is its header's position, which is what
//! watch lists and reasons hold. Clauses are normalized in a reusable
//! scratch buffer before they are copied into the arena, and conflict
//! analysis reads the conflicting and reason clauses in place, marking
//! variables in a `seen` buffer that it leaves all-`false`.
//!
//! Clauses older than a scope's mark cannot mention its selector, so a
//! [`SatSolver::pop`] only scans the clauses added since the matching push:
//! it compacts that tail of the header table and of the arena in place,
//! keeping the survivors (learnt clauses that do not depend on the scope) in
//! their order. A variable left with no occurrence returns its two (empty)
//! watch-list buffers to a pool that [`SatSolver::new_var`] draws from.
//! [`SatSolver::check_invariants`] checks the store against its watch lists
//! and occurrence counts.
//!
//! ## Between solves
//!
//! Adding a clause backtracks to level 0, and every solve starts there, so
//! a clause addition never has to repair watches under a partial trail.
//! After [`SatOutcome::Sat`] the model stays on the trail until the next
//! clause addition, pop or solve; the DPLL(T) loop in
//! [`crate::solver`] reads it from there, and re-reads it instead of
//! solving again when it raises the expansion depth without having added a
//! clause.

use std::fmt;

/// A propositional variable, numbered from 0.
pub type PVar = u32;

/// A literal: a variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var` with the given polarity (`true` = positive).
    pub fn new(var: PVar, positive: bool) -> Lit {
        Lit(var * 2 + u32::from(!positive))
    }

    /// Creates a positive literal.
    pub fn pos(var: PVar) -> Lit {
        Lit::new(var, true)
    }

    /// Creates a negative literal.
    pub fn neg(var: PVar) -> Lit {
        Lit::new(var, false)
    }

    /// The variable of this literal.
    pub fn var(self) -> PVar {
        self.0 / 2
    }

    /// Whether this literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 % 2 == 0
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "~x{}", self.var())
        }
    }
}

/// Result of a propositional solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

/// Where a stored clause's literals sit in the solver's literal arena.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    /// Arena index of the first literal.
    start: u32,
    /// Number of literals.
    len: u32,
    learnt: bool,
}

impl ClauseHeader {
    /// The arena index range of the clause's literals.
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A clause index: a position in the header table, as held by watch lists
/// and reasons.
type ClauseIdx = u32;

const INVALID_CLAUSE: ClauseIdx = ClauseIdx::MAX;

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    /// One header per stored clause, in clause-index order.
    clauses: Vec<ClauseHeader>,
    /// The literals of every stored clause, back to back in clause order.
    arena: Vec<Lit>,
    watches: Vec<Vec<ClauseIdx>>,
    /// Empty watch-list buffers of variables that lost their last
    /// occurrence at a pop, for [`SatSolver::new_var`] to reuse.
    watch_pool: Vec<Vec<ClauseIdx>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<ClauseIdx>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    unsat: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    scope_selectors: Vec<PVar>,
    /// `clauses.len()` at each `push`: clauses older than a scope's mark
    /// cannot mention its selector, bounding the pop-time garbage scan.
    scope_clause_marks: Vec<usize>,
    /// Activity-ordered max-heap of (candidate) decision variables, MiniSat's
    /// order heap: every unassigned variable is in the heap; assigned
    /// variables are removed lazily when popped. Keeps each decision at
    /// `O(log n)` instead of an `O(n)` scan — essential for long-lived
    /// incremental sessions that accumulate many variables.
    heap: Vec<PVar>,
    /// Position of each variable in `heap` (`usize::MAX` when absent).
    heap_pos: Vec<usize>,
    /// Number of stored clauses each variable occurs in. Variables with no
    /// occurrences are skipped as decision candidates: they cannot affect any
    /// clause, and gating them keeps long-lived sessions from re-deciding
    /// every variable retired scopes left behind.
    occs: Vec<u32>,
    /// Where `add_clause` normalizes a clause before storing it.
    scratch: Vec<Lit>,
    /// Where `analyze` builds the learnt clause.
    learnt: Vec<Lit>,
    /// `analyze`'s per-variable marks, all `false` between conflicts.
    seen: Vec<bool>,
    /// The assumptions of the current solve: the scope selectors, then the
    /// caller's literals.
    assumed: Vec<Lit>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            var_inc: 1.0,
            ..Default::default()
        }
    }

    /// Allocates a fresh propositional variable.
    pub fn new_var(&mut self) -> PVar {
        let v = self.assign.len() as PVar;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(INVALID_CLAUSE);
        self.activity.push(0.0);
        self.phase.push(false);
        for _ in 0..2 {
            let list = self.watch_pool.pop().unwrap_or_default();
            self.watches.push(list);
        }
        self.seen.push(false);
        self.heap_pos.push(NOT_IN_HEAP);
        self.occs.push(0);
        self.heap_insert(v);
        v
    }

    // ------------------------------------------------------------------
    // Decision order heap
    // ------------------------------------------------------------------

    fn heap_less(&self, a: PVar, b: PVar) -> bool {
        // Ties break toward the lower variable index, matching the order the
        // previous linear scan produced (decision order strongly shapes which
        // candidate models the DPLL(T) loop enumerates first).
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i;
        self.heap_pos[self.heap[j] as usize] = j;
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut best = i;
            if left < self.heap.len() && self.heap_less(self.heap[left], self.heap[best]) {
                best = left;
            }
            if right < self.heap.len() && self.heap_less(self.heap[right], self.heap[best]) {
                best = right;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_insert(&mut self, v: PVar) {
        if self.heap_pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<PVar> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learnt (conflict-derived) clauses currently in the database.
    pub fn num_learnt(&self) -> usize {
        self.clauses.iter().filter(|c| c.learnt).count()
    }

    /// Number of conflicts seen so far (statistics).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far (statistics).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of unit propagations performed so far (statistics).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Current value of a variable in the last model (or current trail).
    pub fn value(&self, var: PVar) -> Option<bool> {
        self.assign[var as usize]
    }

    /// The literals of stored clause `ci`.
    fn lits(&self, ci: ClauseIdx) -> &[Lit] {
        &self.arena[self.clauses[ci as usize].range()]
    }

    /// Checks the clause store against the watch lists and occurrence
    /// counts, panicking on the first violation:
    ///
    /// * every stored clause has at least two literals and is watched by
    ///   exactly its first two, once each (a padded unit `[l, l]` twice on
    ///   `l`'s list), and no watch list holds anything else;
    /// * the arena holds exactly the stored clauses' literals, back to back;
    /// * each variable's occurrence count is the number of its literal
    ///   occurrences in the arena.
    pub fn check_invariants(&self) {
        let mut start = 0;
        for (ci, h) in self.clauses.iter().enumerate() {
            assert_eq!(h.start, start, "clause {ci} is not packed");
            assert!(h.len >= 2, "clause {ci} has {} literals", h.len);
            start += h.len;
        }
        assert_eq!(start as usize, self.arena.len(), "arena length");
        let mut watched = vec![0u32; self.clauses.len()];
        for (w, list) in self.watches.iter().enumerate() {
            for &ci in list {
                let lits = self.lits(ci);
                assert!(
                    lits[0].negate().index() == w || lits[1].negate().index() == w,
                    "clause {ci} {lits:?} is watched on list {w}"
                );
                watched[ci as usize] += 1;
            }
        }
        for (ci, &n) in watched.iter().enumerate() {
            assert_eq!(n, 2, "clause {ci} has {n} watch entries");
            let lits = self.lits(ci as ClauseIdx);
            for &w in &lits[..2] {
                let on_list = self.watches[w.negate().index()]
                    .iter()
                    .filter(|&&c| c as usize == ci)
                    .count();
                let want = if lits[0] == lits[1] { 2 } else { 1 };
                assert_eq!(on_list, want, "clause {ci} {lits:?} watch on {w}");
            }
        }
        let mut occs = vec![0u32; self.num_vars()];
        for &l in &self.arena {
            occs[l.var() as usize] += 1;
        }
        assert_eq!(occs, self.occs, "occurrence counts");
    }

    /// Opens a new assertion scope: clauses added with
    /// [`SatSolver::add_scoped_clause`] from now on live until the matching
    /// [`SatSolver::pop`].
    pub fn push(&mut self) {
        let selector = self.new_var();
        self.scope_selectors.push(selector);
        self.scope_clause_marks.push(self.clauses.len());
    }

    /// Closes the innermost assertion scope, retiring its clauses.
    ///
    /// Learnt clauses survive the pop (they are tagged with the scope's
    /// selector wherever they depended on scoped clauses), so knowledge
    /// gained inside the scope keeps accelerating later queries.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let selector = self
            .scope_selectors
            .pop()
            .expect("SatSolver::pop without a matching push");
        let mark = self
            .scope_clause_marks
            .pop()
            .expect("clause marks track scopes");
        // Physically delete the scope's clauses — and every learnt clause
        // derived from them, recognizable by the `~selector` literal conflict
        // analysis leaves behind — so long sessions do not drag a growing
        // tail of dead clauses through their watch lists.
        self.collect_garbage(Lit::neg(selector), mark);
        // Record `~selector` as a level-0 fact (no clause needed: nothing
        // mentions the selector any more), keeping it out of future decisions.
        self.add_clause(&[Lit::neg(selector)]);
    }

    /// Removes every clause at index `from` or later that contains
    /// `dead_lit` and compacts the tail of the header table and the arena
    /// in place. Clauses older than `from` cannot mention the popped
    /// scope's selector (it did not exist yet), so the pop cost is
    /// proportional to what the scope added — not to the session's whole
    /// clause database.
    fn collect_garbage(&mut self, dead_lit: Lit, from: usize) {
        if self.unsat || from >= self.clauses.len() {
            return;
        }
        self.cancel_until(0);
        // Purge the tail's watch entries. Watch lists may interleave entries
        // for older clauses, which keep their indices and stay put.
        for i in from..self.clauses.len() {
            let start = self.clauses[i].start as usize;
            for k in 0..2 {
                let w = self.arena[start + k].negate().index();
                self.watches[w].retain(|&ci| (ci as usize) < from);
            }
        }
        // Drop dead tail clauses; survivors (e.g. learnt clauses that do not
        // depend on the scope) slide down, keeping their order, and are
        // re-attached at their new indices.
        let mut kept = from;
        let mut end = self.clauses[from].start as usize;
        for i in from..self.clauses.len() {
            let header = self.clauses[i];
            let range = header.range();
            if self.arena[range.clone()].contains(&dead_lit) {
                for k in range {
                    let v = self.arena[k].var() as usize;
                    self.occs[v] -= 1;
                    if self.occs[v] == 0 {
                        self.pool_watches(v);
                    }
                }
            } else {
                let len = header.len as usize;
                self.arena.copy_within(range, end);
                // Survivors only move down, so indices still fit in u32.
                self.clauses[kept] = ClauseHeader {
                    start: end as u32,
                    ..header
                };
                self.watches[self.arena[end].negate().index()].push(kept as ClauseIdx);
                self.watches[self.arena[end + 1].negate().index()].push(kept as ClauseIdx);
                kept += 1;
                end += len;
            }
        }
        self.clauses.truncate(kept);
        self.arena.truncate(end);
        // Tail indices moved; stale reasons would be unsound to resolve on.
        // Only trail variables can hold one (everything else was reset when
        // it was unassigned), they all sit at level 0 now, and conflict
        // analysis never resolves at level 0 — so drop them.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var() as usize] = INVALID_CLAUSE;
        }
    }

    /// Moves variable `v`'s watch-list buffers to the pool. No clause
    /// mentions `v`, so both lists are empty.
    fn pool_watches(&mut self, v: usize) {
        for w in [2 * v, 2 * v + 1] {
            debug_assert!(self.watches[w].is_empty());
            if self.watches[w].capacity() > 0 {
                let list = std::mem::take(&mut self.watches[w]);
                self.watch_pool.push(list);
            }
        }
    }

    /// Number of currently open assertion scopes.
    pub fn scope_depth(&self) -> usize {
        self.scope_selectors.len()
    }

    /// Adds a clause that lives only as long as the innermost open scope.
    ///
    /// Outside any scope this is identical to [`SatSolver::add_clause`].
    /// Returns `false` if the clause set became trivially unsatisfiable.
    pub fn add_scoped_clause(&mut self, lits: &[Lit]) -> bool {
        let guard = self.scope_selectors.last().map(|&s| Lit::neg(s));
        self.add_to_scratch(lits, guard)
    }

    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var() as usize].map(|v| v == lit.is_positive())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the clause set became trivially
    /// unsatisfiable (an empty clause was derived at level 0).
    ///
    /// Clauses may be added between calls to [`SatSolver::solve`]; the solver
    /// backtracks to decision level zero first.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_to_scratch(lits, None)
    }

    /// Copies `lits` and `extra` into the scratch buffer and adds them as
    /// one clause.
    fn add_to_scratch(&mut self, lits: &[Lit], extra: Option<Lit>) -> bool {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend_from_slice(lits);
        buf.extend(extra);
        let ok = self.add_normalized(&mut buf);
        self.scratch = buf;
        ok
    }

    /// Normalizes the clause in `ls` in place and stores what is left.
    fn add_normalized(&mut self, ls: &mut Vec<Lit>) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        // Normalize: sort, dedup, drop tautologies and false literals at level 0.
        ls.sort();
        ls.dedup();
        // After sorting, `l` and `~l` are neighbours.
        let tautology = ls.windows(2).any(|w| w[1] == w[0].negate());
        if tautology || ls.iter().any(|&l| self.lit_value(l) == Some(true)) {
            return true; // contains l and ~l, or already satisfied at level 0
        }
        ls.retain(|&l| self.lit_value(l).is_none());
        match ls.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(ls[0], INVALID_CLAUSE);
                if self.propagate() != INVALID_CLAUSE {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(ls, false);
                true
            }
        }
    }

    /// Stores a clause of at least two literals, watched by its first two.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseIdx {
        let idx = ClauseIdx::try_from(self.clauses.len())
            .ok()
            .filter(|&i| i != INVALID_CLAUSE)
            .expect("clause indices fit in u32");
        let end = u32::try_from(self.arena.len() + lits.len()).expect("arena indices fit in u32");
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        for &l in lits {
            self.occs[l.var() as usize] += 1;
            // A variable gaining its first occurrence becomes decidable again.
            if self.assign[l.var() as usize].is_none() {
                self.heap_insert(l.var());
            }
        }
        let len = lits.len() as u32; // at most `end`
        self.clauses.push(ClauseHeader {
            start: end - len,
            len,
            learnt,
        });
        self.arena.extend_from_slice(lits);
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseIdx) {
        debug_assert!(self.lit_value(lit).is_none());
        let v = lit.var() as usize;
        self.assign[v] = Some(lit.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = lit.is_positive();
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the index of a conflicting clause, or
    /// `INVALID_CLAUSE` if no conflict arose.
    fn propagate(&mut self) -> ClauseIdx {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            // Clauses watching ~p must find a new watch or propagate/conflict.
            let false_lit = p.negate();
            let watch_idx = p.index(); // watches[p] holds clauses where ~p is watched
            let mut i = 0;
            'clauses: while i < self.watches[watch_idx].len() {
                let ci = self.watches[watch_idx][i];
                let range = self.clauses[ci as usize].range();
                let base = range.start;
                // Make sure the false literal is at position 1.
                if self.arena[base] == false_lit {
                    self.arena.swap(base, base + 1);
                }
                debug_assert_eq!(self.arena[base + 1], false_lit);
                let first = self.arena[base];
                if self.lit_value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in base + 2..range.end {
                    let lk = self.arena[k];
                    if self.lit_value(lk) != Some(false) {
                        self.arena.swap(base + 1, k);
                        self.watches[watch_idx].swap_remove(i);
                        self.watches[lk.negate().index()].push(ci);
                        continue 'clauses;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == Some(false) {
                    self.qhead = self.trail.len();
                    return ci;
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        INVALID_CLAUSE
    }

    fn bump_var(&mut self, v: PVar) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            // Rescaling preserves the relative order, so the heap stays valid.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v as usize];
        if pos != NOT_IN_HEAP {
            self.heap_sift_up(pos);
        }
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backjump level.
    fn analyze(&mut self, confl: ClauseIdx) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::pos(0)); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut trail_idx = self.trail.len();

        loop {
            debug_assert_ne!(confl, INVALID_CLAUSE);
            let range = self.clauses[confl as usize].range();
            let skip = usize::from(p.is_some());
            for k in range.start + skip..range.end {
                let q = self.arena[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var() as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var() as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pv];
        }
        self.learnt[0] = p.unwrap().negate();
        // The current level's marks were cleared as they were resolved; the
        // learnt clause's lower-level literals hold the rest.
        for i in 1..self.learnt.len() {
            self.seen[self.learnt[i].var() as usize] = false;
        }

        // Compute the backjump level: the second-highest level in the clause.
        if self.learnt.len() == 1 {
            0
        } else {
            let learnt = &mut self.learnt;
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        }
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        while self.trail.len() > lim {
            let l = self.trail.pop().unwrap();
            let v = l.var() as usize;
            self.assign[v] = None;
            self.reason[v] = INVALID_CLAUSE;
            self.heap_insert(l.var());
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<PVar> {
        // Lazy deletion: assigned variables may linger in the heap; skip
        // them, as well as variables no stored clause mentions (they cannot
        // affect satisfiability, and `attach_clause` re-inserts them should
        // they gain an occurrence later).
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize].is_none() && self.occs[v as usize] > 0 {
                return Some(v);
            }
        }
        None
    }

    /// Solves the current clause set under all active assertion scopes.
    ///
    /// After [`SatOutcome::Sat`], every variable occurring in a stored
    /// clause has a value retrievable via [`SatSolver::value`]. Variables no
    /// clause mentions may remain unassigned (`None`): they are
    /// unconstrained, so any value completes the model.
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals (in addition to the
    /// selectors of all active assertion scopes).
    ///
    /// Returns `Sat` if the clause set together with the assumptions is
    /// satisfiable. Unlike incremental SAT solvers this implementation does
    /// not produce a final conflict clause over the assumptions.
    /// [`SatSolver::solve`] is this with no extra assumptions; besides it,
    /// only tests call it.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatOutcome {
        let mut all = std::mem::take(&mut self.assumed);
        all.clear();
        all.extend(self.scope_selectors.iter().map(|&v| Lit::pos(v)));
        all.extend_from_slice(assumptions);
        let outcome = self.solve_under(&all);
        self.assumed = all;
        outcome
    }

    /// The one CDCL loop. With no assumptions a conflict at level 0 makes
    /// the clause set permanently unsatisfiable; under assumptions it only
    /// refutes them.
    fn solve_under(&mut self, assumptions: &[Lit]) -> SatOutcome {
        if self.unsat {
            return SatOutcome::Unsat;
        }
        self.cancel_until(0);
        if self.propagate() != INVALID_CLAUSE {
            self.unsat = true;
            return SatOutcome::Unsat;
        }
        // Enqueue assumptions as decisions.
        for &a in assumptions {
            match self.lit_value(a) {
                Some(true) => continue,
                Some(false) => {
                    self.cancel_until(0);
                    return SatOutcome::Unsat;
                }
                None => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, INVALID_CLAUSE);
                    if self.propagate() != INVALID_CLAUSE {
                        self.cancel_until(0);
                        return SatOutcome::Unsat;
                    }
                }
            }
        }
        let assumption_level = self.decision_level();
        loop {
            let confl = self.propagate();
            if confl != INVALID_CLAUSE {
                self.conflicts += 1;
                if self.decision_level() <= assumption_level {
                    if assumptions.is_empty() {
                        self.unsat = true;
                    }
                    self.cancel_until(0);
                    return SatOutcome::Unsat;
                }
                let backjump = self.analyze(confl).max(assumption_level);
                self.cancel_until(backjump);
                let learnt = std::mem::take(&mut self.learnt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if self.decision_level() == 0 {
                        self.enqueue(asserting, INVALID_CLAUSE);
                    } else if self.lit_value(asserting).is_none() {
                        // A learnt unit under assumptions cannot be watched
                        // twice; pad it with a duplicate literal.
                        let ci = self.attach_clause(&[asserting, asserting], true);
                        self.enqueue(asserting, ci);
                    } else if self.lit_value(asserting) == Some(false) {
                        self.learnt = learnt;
                        self.cancel_until(0);
                        return SatOutcome::Unsat;
                    }
                } else {
                    let ci = self.attach_clause(&learnt, true);
                    if self.lit_value(asserting).is_none() {
                        self.enqueue(asserting, ci);
                    }
                }
                self.learnt = learnt;
                self.decay_activity();
            } else {
                match self.pick_branch_var() {
                    None => return SatOutcome::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v as usize];
                        self.enqueue(Lit::new(v, phase), INVALID_CLAUSE);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: PVar, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    #[test]
    fn literal_encoding_roundtrips() {
        let l = Lit::pos(7);
        assert_eq!(l.var(), 7);
        assert!(l.is_positive());
        assert_eq!(l.negate().var(), 7);
        assert!(!l.negate().is_positive());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn chain_of_implications() {
        // a, a->b, b->c, c->d  =>  d must be true.
        let mut s = SatSolver::new();
        let vars: Vec<PVar> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[lit(vars[0], true)]);
        for w in vars.windows(2) {
            s.add_clause(&[lit(w[0], false), lit(w[1], true)]);
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_unsat() {
        // p1 in hole, p2 in hole, not both.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(b, true)]);
        s.add_clause(&[lit(a, false), lit(b, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index-style loops mirror the PHP encoding
    fn pigeonhole_php_3_2_unsat() {
        // 3 pigeons, 2 holes: unsatisfiable. Exercises conflict analysis.
        let mut s = SatSolver::new();
        // x[p][h] = pigeon p in hole h
        let mut x = [[0; 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause(&[lit(x[p][0], true), lit(x[p][1], true)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause(&[lit(x[p1][h], false), lit(x[p2][h], false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn satisfiable_random_looking_instance() {
        let mut s = SatSolver::new();
        let v: Vec<PVar> = (0..6).map(|_| s.new_var()).collect();
        s.add_clause(&[lit(v[0], true), lit(v[1], true), lit(v[2], false)]);
        s.add_clause(&[lit(v[2], true), lit(v[3], false)]);
        s.add_clause(&[lit(v[3], true), lit(v[4], true)]);
        s.add_clause(&[lit(v[4], false), lit(v[5], false)]);
        s.add_clause(&[lit(v[0], false), lit(v[5], true)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        // Check the model satisfies each clause.
        let model: Vec<bool> = v.iter().map(|&x| s.value(x).unwrap()).collect();
        assert!(model[0] || model[1] || !model[2]);
        assert!(model[2] || !model[3]);
        assert!(model[3] || model[4]);
        assert!(!model[4] || !model[5]);
        assert!(!model[0] || model[5]);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause(&[lit(b, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn assumptions_are_respected() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, false), lit(b, true)]);
        assert_eq!(s.solve_with_assumptions(&[lit(a, true)]), SatOutcome::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(a, true), lit(b, false)]),
            SatOutcome::Unsat
        );
        // Solver remains usable afterwards.
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn scoped_clause_dies_with_its_scope() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.push();
        s.add_scoped_clause(&[lit(a, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
        s.pop();
        // The contradiction retired with the scope.
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn nested_scopes_pop_innermost_first() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.push();
        s.add_scoped_clause(&[lit(a, true)]);
        s.push();
        s.add_scoped_clause(&[lit(b, true)]);
        s.add_scoped_clause(&[lit(a, false), lit(b, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
        s.pop();
        // Only the outer scope (a must be true) is left.
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        s.pop();
        assert_eq!(s.scope_depth(), 0);
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn reasserting_after_pop_matches_a_fresh_solver() {
        // The same clause set must give the same outcome whether solved by a
        // fresh solver or by a session that asserted, popped, and re-asserted.
        let clause_sets: [&[&[(PVar, bool)]]; 3] = [
            &[&[(0, true)], &[(0, false)]],
            &[&[(0, true), (1, true)], &[(0, false)], &[(1, false)]],
            &[&[(0, true), (1, false)], &[(1, true)]],
        ];
        for clauses in clause_sets {
            // Variables are allocated up front so scope selectors (which are
            // ordinary solver variables) cannot collide with them.
            let solve_in = |s: &mut SatSolver, vars: &[PVar]| {
                for c in clauses {
                    let lits: Vec<Lit> = c.iter().map(|&(v, p)| lit(vars[v as usize], p)).collect();
                    s.add_scoped_clause(&lits);
                }
                s.solve()
            };
            let mut fresh = SatSolver::new();
            let fresh_vars = [fresh.new_var(), fresh.new_var()];
            let expected = solve_in(&mut fresh, &fresh_vars);

            let mut session = SatSolver::new();
            let session_vars = [session.new_var(), session.new_var()];
            session.push();
            let first = solve_in(&mut session, &session_vars);
            assert_eq!(first, expected);
            session.pop();
            // After the pop the session is unconstrained again.
            assert_eq!(session.solve(), SatOutcome::Sat);
            session.push();
            let again = solve_in(&mut session, &session_vars);
            assert_eq!(again, expected, "re-assertion disagreed with fresh solve");
            session.pop();
        }
    }

    #[test]
    fn permanent_clauses_survive_scopes() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.push();
        // Permanent clause added while a scope is open.
        s.add_clause(&[lit(a, false), lit(b, true)]);
        s.add_scoped_clause(&[lit(a, true)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(b), Some(true));
        s.pop();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(b, false)]);
        // a -> b is still in force after the pop.
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn all_solutions_of_xor_like_instance() {
        // (a or b) and (~a or ~b): exactly one of a, b.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        s.add_clause(&[lit(a, false), lit(b, false)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        let m1 = (s.value(a).unwrap(), s.value(b).unwrap());
        assert_ne!(m1.0, m1.1);
        // Block and resolve again: the other model.
        s.add_clause(&[lit(a, !m1.0), lit(b, !m1.1)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        let m2 = (s.value(a).unwrap(), s.value(b).unwrap());
        assert_ne!(m2.0, m2.1);
        assert_ne!(m1, m2);
        // Block again: unsat.
        s.add_clause(&[lit(a, !m2.0), lit(b, !m2.1)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }
}
