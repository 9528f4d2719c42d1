//! The DPLL(T) solver: SAT core + theories + lazy expansion.
//!
//! The solving loop is the "offline" (model-driven) integration of the
//! propositional core with the theory solvers:
//!
//! 1. the boolean abstraction of the asserted formulas is solved by the CDCL
//!    core ([`crate::sat`]);
//! 2. the resulting atom assignment is checked against linear integer
//!    arithmetic ([`crate::lia`]) and congruence closure ([`crate::euf`]);
//!    inconsistencies are turned into (greedily minimized) blocking clauses;
//! 3. uninterpreted predicate atoms are offered to the [`LazyExpander`]
//!    plugin, which may assert new lemmas (the unrolling of JMatch invariants
//!    and `matches`/`ensures` clauses); expansion depth is bounded and the
//!    bound is raised by the iterative-deepening driver
//!    [`Solver::check_with_expander`];
//! 4. when neither theories nor the plugin object to a candidate model, it is
//!    returned as [`SatResult::Sat`].
//!
//! The loop terminates because each blocking clause eliminates at least one
//! assignment of the (finite) atom vocabulary, the plugin is called at most
//! once per (atom, polarity, depth), and a round budget backstops everything.
//!
//! ## Sessions: `push` / `pop` and persistent learning
//!
//! A [`Solver`] is an incremental *session*, mirroring how the paper keeps a
//! single Z3 process alive across all verification conditions. Between
//! queries (delimited with [`Solver::push`] / [`Solver::pop`]), the state
//! that persists is exactly the state later queries can profit from:
//!
//! * the caller's **term store** and the **atom encodings** (theory atoms
//!   keep their propositional variables for the whole session, so models and
//!   blocking clauses stay meaningful),
//! * theory **blocking clauses** (an atom set found LIA/EUF-inconsistent
//!   stays blocked forever — theory conflicts are valid in every context),
//!   along with any CDCL clauses learned from scope-independent clauses,
//! * the expansion **lemma cache**: lemmas are recorded guarded by the
//!   polarity that triggered them (`guard ⇒ lemma` / `¬guard ⇒ lemma`) —
//!   globally valid facts — and later queries *replay* them directly instead
//!   of re-running the (expensive) plugin derivation.
//!
//! Query-local state retires with the query's scope: its assertions, the
//! Tseitin definitions of its (typically one-off) composite formulas, its
//! lemma instantiations, and CDCL clauses learned from any of those — the
//! selector literal that conflict analysis threads through them lets the pop
//! garbage-collect the lot. The SAT core therefore only ever carries the
//! clauses of the query at hand, while decisions are further gated to
//! variables that still occur in live clauses. This is what makes a
//! long-lived session strictly cheaper than rebuilding a solver per query,
//! instead of drowning in its own history.
//!
//! Each query theory-checks and expands only the atoms reachable from its own
//! active assertions (closed over the lemmas previously attached to them), so
//! atoms left over from unrelated queries can neither produce spurious
//! `Unknown`s nor slow down theory checks.
//!
//! Because encodings are cached by [`TermId`], a session must always be used
//! with the **same** [`TermStore`], and — since expansion state persists —
//! with expanders that agree on the meaning of the interpreted predicates
//! (e.g. one `JMatchExpander` per compiled program).

use crate::cnf::Encoder;
use crate::euf::{self, EufResult};
use crate::lia::{self, LiaResult};
use crate::model::Model;
use crate::plugin::{Expansion, LazyExpander, NoExpansion};
use crate::sat::{Lit, SatOutcome, SatSolver};
use crate::sorts::Sort;
use crate::term::{TermData, TermId, TermStore};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Result of an SMT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; the payload is a model of the asserted formulas.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver gave up (expansion-depth or budget exhaustion). The JMatch
    /// verifier reports this as "could not find a counterexample, but there
    /// might be one".
    Unknown,
}

impl SatResult {
    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Tuning knobs for the solving loop.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum lazy-expansion depth reached by iterative deepening.
    pub max_expansion_depth: u32,
    /// Maximum number of SAT-model/theory-check rounds per depth.
    pub max_rounds: u64,
    /// Whether theory conflicts are greedily minimized before blocking.
    pub minimize_conflicts: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_expansion_depth: 3,
            max_rounds: 20_000,
            minimize_conflicts: true,
        }
    }
}

/// Statistics of the most recent `check` call.
///
/// The counters are deterministic: the same query against the same session
/// state reproduces them exactly. The `*_ns` fields are wall-clock time
/// spent in each layer of the loop and vary from run to run; they never
/// influence the search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of candidate boolean models examined.
    pub rounds: u64,
    /// Number of theory conflicts (blocking clauses added).
    pub theory_conflicts: u64,
    /// Number of plugin lemmas asserted.
    pub lemmas: u64,
    /// Of the asserted lemmas, how many came from the session's replay cache
    /// instead of a plugin call (cross-query expansion reuse).
    pub lemmas_replayed: u64,
    /// Deepest expansion level reached.
    pub max_depth_reached: u32,
    /// Wall-clock nanoseconds in the CDCL core's `solve`.
    pub sat_ns: u64,
    /// Wall-clock nanoseconds in linear-arithmetic checks, conflict
    /// minimization included.
    pub lia_ns: u64,
    /// Wall-clock nanoseconds in congruence-closure checks, conflict
    /// minimization and model classes included.
    pub euf_ns: u64,
    /// Wall-clock nanoseconds in lazy expansion: plugin calls, lemma replay,
    /// and encoding the lemmas into the SAT core.
    pub expand_ns: u64,
}

/// An incremental SMT solver session.
///
/// Formulas are built in a caller-owned [`TermStore`] and asserted with
/// [`Solver::assert_formula`]; [`Solver::check`] then decides satisfiability
/// of their conjunction. Queries can be delimited with [`Solver::push`] /
/// [`Solver::pop`]: popped assertions retire, while learned clauses, the
/// Tseitin encoding, and expansion lemmas persist and accelerate later
/// queries (see the [module documentation](self) for the session model).
#[derive(Debug)]
pub struct Solver {
    assertions: Vec<TermId>,
    /// Watermarks into `assertions`, one per open scope.
    scopes: Vec<usize>,
    config: SolverConfig,
    stats: SolverStats,
    sat: SatSolver,
    encoder: Encoder,
    /// Polarity-guarded lemmas previously derived for each `(atom, polarity)`
    /// pair. Later queries replay these directly instead of calling the
    /// expander again — the session's semantic learning.
    lemma_cache: HashMap<(TermId, bool), Vec<TermId>>,
    /// Iterative-deepening depth at which each atom first appeared (0 for
    /// atoms of directly asserted formulas).
    atom_depth: HashMap<TermId, u32>,
    /// For each expanded guard atom, the atoms its lemmas introduced — used
    /// to close each query's set of theory-relevant atoms.
    lemma_atoms: HashMap<TermId, Vec<TermId>>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            assertions: Vec::new(),
            scopes: Vec::new(),
            config,
            stats: SolverStats::default(),
            sat: SatSolver::new(),
            encoder: Encoder::new(),
            lemma_cache: HashMap::new(),
            atom_depth: HashMap::new(),
            lemma_atoms: HashMap::new(),
        }
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Mutable access to the configuration (before calling `check`).
    pub fn config_mut(&mut self) -> &mut SolverConfig {
        &mut self.config
    }

    /// Statistics from the most recent `check` call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Cumulative counters of the underlying CDCL core over the whole
    /// session: `(conflicts, decisions, propagations)`.
    pub fn sat_counters(&self) -> (u64, u64, u64) {
        (
            self.sat.conflicts(),
            self.sat.decisions(),
            self.sat.propagations(),
        )
    }

    /// Asserts a boolean formula in the innermost open scope.
    ///
    /// The formula is encoded into the persistent SAT core immediately, so
    /// the term must come from the same [`TermStore`] on every call.
    ///
    /// # Panics
    ///
    /// Panics if the term is not boolean-sorted.
    pub fn assert_formula(&mut self, store: &TermStore, f: TermId) {
        assert!(
            store.sort(f).is_bool(),
            "assert_formula: {} is not a formula",
            store.display(f)
        );
        self.encoder.assert_scoped_formula(store, &mut self.sat, f);
        for a in store.atoms(f) {
            self.atom_depth.insert(a, 0);
        }
        self.assertions.push(f);
    }

    /// All currently active assertions (those of open scopes, oldest first).
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Opens an assertion scope: assertions made until the matching
    /// [`Solver::pop`] retire with it.
    pub fn push(&mut self) {
        self.scopes.push(self.assertions.len());
        self.sat.push();
        self.encoder.push_scope();
    }

    /// Closes the innermost assertion scope, retiring its assertions while
    /// keeping everything the session learned from them.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let mark = self
            .scopes
            .pop()
            .expect("Solver::pop without a matching push");
        self.assertions.truncate(mark);
        self.encoder.pop_scope();
        self.sat.pop();
    }

    /// Number of currently open assertion scopes.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Discards the entire session state (assertions, scopes, learned
    /// clauses, encodings, expansion lemmas), keeping the configuration.
    pub fn reset(&mut self) {
        *self = Solver::with_config(self.config.clone());
    }

    /// Decides satisfiability without lazy expansion.
    pub fn check(&mut self, store: &mut TermStore) -> SatResult {
        let mut no_expansion = NoExpansion;
        self.check_with_expander(store, &mut no_expansion)
    }

    /// Decides satisfiability with a lazy-expansion plugin, using iterative
    /// deepening on the expansion depth (§6.2 of the paper).
    pub fn check_with_expander(
        &mut self,
        store: &mut TermStore,
        expander: &mut dyn LazyExpander,
    ) -> SatResult {
        self.stats = SolverStats::default();
        // Guard atoms whose lemmas were asserted during this check. Lemma
        // assertions are scoped, so the set is per-check: a later check in
        // the same session re-asserts them (cheaply, via the replay cache).
        let mut expanded: HashSet<(TermId, bool)> = HashSet::new();
        let mut last = SatResult::Unknown;
        for depth in 1..=self.config.max_expansion_depth.max(1) {
            last = self.solve_round(store, expander, &mut expanded, depth);
            match last {
                SatResult::Sat(_) | SatResult::Unsat => return last,
                SatResult::Unknown => continue,
            }
        }
        last
    }

    /// One run of the DPLL(T) loop with a fixed expansion-depth bound,
    /// against the persistent session state.
    fn solve_round(
        &mut self,
        store: &mut TermStore,
        expander: &mut dyn LazyExpander,
        expanded: &mut HashSet<(TermId, bool)>,
        max_depth: u32,
    ) -> SatResult {
        // The atoms this query is about: those of the active assertions,
        // closed over the lemmas previously attached to them. Only these are
        // theory-checked and offered for expansion, so leftover atoms from
        // other queries in the same session cannot influence the verdict.
        let mut relevant: HashSet<TermId> = HashSet::new();
        let mut seed: Vec<TermId> = Vec::new();
        for &f in &self.assertions {
            for a in store.atoms(f) {
                if relevant.insert(a) {
                    seed.push(a);
                }
            }
        }
        close_over_lemmas(&self.lemma_atoms, &mut relevant, seed);
        // Deterministically ordered view of `relevant`, so theory checks and
        // conflict minimization see a stable atom order regardless of hash
        // iteration order.
        let mut rel_sorted: Vec<TermId> = relevant.iter().copied().collect();
        rel_sorted.sort_unstable();

        let mut rounds = 0u64;
        loop {
            rounds += 1;
            self.stats.rounds += 1;
            if rounds > self.config.max_rounds {
                return SatResult::Unknown;
            }
            let clock = Instant::now();
            let outcome = self.sat.solve();
            self.stats.sat_ns += elapsed_ns(clock);
            if let SatOutcome::Unsat = outcome {
                return SatResult::Unsat;
            }

            // Gather the relevant part of the atom assignment chosen by the
            // SAT core.
            let assignment: Vec<(TermId, bool)> = rel_sorted
                .iter()
                .filter_map(|&t| {
                    let v = self.encoder.var_for_atom(t)?;
                    self.sat.value(v).map(|b| (t, b))
                })
                .collect();

            let arith: Vec<(TermId, bool)> = assignment
                .iter()
                .copied()
                .filter(|&(t, _)| is_arith_atom(store, t))
                .collect();
            let equality: Vec<(TermId, bool)> = assignment
                .iter()
                .copied()
                .filter(|&(t, _)| is_euf_atom(store, t))
                .collect();

            // Linear integer arithmetic.
            let clock = Instant::now();
            let mut lia_unknown = false;
            let mut lia_model: HashMap<TermId, i64> = HashMap::new();
            match lia::check(store, &arith) {
                LiaResult::Infeasible(_) => {
                    self.stats.theory_conflicts += 1;
                    let core = self.minimize(store, &arith, |s, sub| {
                        matches!(lia::check(s, sub), LiaResult::Infeasible(_))
                    });
                    self.block(store, &core);
                    self.stats.lia_ns += elapsed_ns(clock);
                    continue;
                }
                LiaResult::Unknown => lia_unknown = true,
                LiaResult::Feasible(m) => lia_model = m,
            }
            self.stats.lia_ns += elapsed_ns(clock);

            // Equality and uninterpreted functions.
            let clock = Instant::now();
            match euf::check(store, &equality) {
                EufResult::Inconsistent(_) => {
                    self.stats.theory_conflicts += 1;
                    let core = self.minimize(store, &equality, |s, sub| {
                        matches!(euf::check(s, sub), EufResult::Inconsistent(_))
                    });
                    self.block(store, &core);
                    self.stats.euf_ns += elapsed_ns(clock);
                    continue;
                }
                EufResult::Consistent => {}
            }
            self.stats.euf_ns += elapsed_ns(clock);

            // Lazy expansion of interpreted predicates. Guards already seen
            // by this session replay their cached lemmas without consulting
            // the plugin; new guards are expanded and their (polarity-
            // guarded) lemmas cached for the rest of the session.
            let clock = Instant::now();
            let mut new_lemmas: Vec<(TermId, TermId, u32, bool)> = Vec::new();
            let mut beyond_depth = false;
            for &(atom, value) in &assignment {
                if !matches!(store.data(atom), TermData::App(_, _, Sort::Bool)) {
                    continue;
                }
                if expanded.contains(&(atom, value)) {
                    continue;
                }
                let cached = self.lemma_cache.contains_key(&(atom, value));
                if !cached && !expander.can_expand(store, atom, value) {
                    continue;
                }
                let depth = self.atom_depth.get(&atom).copied().unwrap_or(0);
                if depth >= max_depth {
                    beyond_depth = true;
                    continue;
                }
                if cached {
                    expanded.insert((atom, value));
                    self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth + 1);
                    for &g in &self.lemma_cache[&(atom, value)] {
                        new_lemmas.push((atom, g, depth + 1, true));
                    }
                    continue;
                }
                match expander.expand(store, atom, value, depth) {
                    Expansion::NotApplicable => {}
                    Expansion::Lemmas(lemmas) => {
                        expanded.insert((atom, value));
                        self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth + 1);
                        // Guard each lemma with the polarity that triggered
                        // it: the plugin contract is "when `atom` has value
                        // `value`, the lemma holds", so the guarded
                        // implication is a valid fact in every context and
                        // can be replayed by any later query.
                        let antecedent = if value { atom } else { store.not(atom) };
                        let guarded: Vec<TermId> = lemmas
                            .into_iter()
                            .map(|l| store.implies(antecedent, l))
                            .collect();
                        for &g in &guarded {
                            new_lemmas.push((atom, g, depth + 1, false));
                        }
                        self.lemma_cache.insert((atom, value), guarded);
                    }
                }
            }
            if !new_lemmas.is_empty() {
                for (guard, guarded, depth, replayed) in new_lemmas {
                    self.stats.lemmas += 1;
                    if replayed {
                        self.stats.lemmas_replayed += 1;
                    }
                    // Lemma instantiations are scoped: they retire with the
                    // query and are re-asserted from the cache when a later
                    // query needs them, so the SAT core only ever carries the
                    // clauses of the query at hand.
                    self.encoder
                        .assert_scoped_formula(store, &mut self.sat, guarded);
                    let introduced = store.atoms(guarded);
                    let mut newly: Vec<TermId> = Vec::new();
                    for &a in &introduced {
                        self.atom_depth
                            .entry(a)
                            .and_modify(|d| *d = (*d).min(depth))
                            .or_insert(depth);
                        if relevant.insert(a) {
                            newly.push(a);
                        }
                    }
                    close_over_lemmas(&self.lemma_atoms, &mut relevant, newly);
                    if !replayed {
                        self.lemma_atoms
                            .entry(guard)
                            .or_default()
                            .extend(introduced);
                    }
                }
                // Lemmas may have introduced new relevant atoms.
                if rel_sorted.len() != relevant.len() {
                    rel_sorted = relevant.iter().copied().collect();
                    rel_sorted.sort_unstable();
                }
                self.stats.expand_ns += elapsed_ns(clock);
                continue;
            }
            self.stats.expand_ns += elapsed_ns(clock);

            if beyond_depth || lia_unknown {
                // Some fact could not be expanded within the depth budget (or
                // arithmetic gave up): the candidate model may be spurious.
                return SatResult::Unknown;
            }

            // Consistent and fully expanded: build the model.
            let mut model = Model::new();
            for &(t, v) in &assignment {
                model.bools.insert(t, v);
            }
            model.ints = lia_model;
            let clock = Instant::now();
            model.object_classes = euf::classes(store, &equality);
            self.stats.euf_ns += elapsed_ns(clock);
            return SatResult::Sat(model);
        }
    }

    /// Greedy deletion-based minimization of a theory conflict.
    fn minimize(
        &self,
        store: &TermStore,
        assignments: &[(TermId, bool)],
        still_conflicting: impl Fn(&TermStore, &[(TermId, bool)]) -> bool,
    ) -> Vec<(TermId, bool)> {
        let mut core: Vec<(TermId, bool)> = assignments.to_vec();
        if !self.config.minimize_conflicts {
            return core;
        }
        let mut i = 0;
        while i < core.len() {
            if core.len() <= 1 {
                break;
            }
            let mut candidate = core.clone();
            candidate.remove(i);
            if still_conflicting(store, &candidate) {
                core = candidate;
            } else {
                i += 1;
            }
        }
        core
    }

    /// Adds a permanent blocking clause ruling out the given theory-
    /// inconsistent partial atom assignment (valid in every context, so it
    /// survives scope pops).
    fn block(&mut self, store: &TermStore, core: &[(TermId, bool)]) {
        let clause: Vec<Lit> = core
            .iter()
            .map(|&(atom, value)| {
                let lit = self.encoder.encode(store, &mut self.sat, atom);
                if value {
                    lit.negate()
                } else {
                    lit
                }
            })
            .collect();
        self.sat.add_clause(&clause);
    }
}

/// Nanoseconds since `clock`, saturated to `u64`.
fn elapsed_ns(clock: Instant) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Extends `relevant` with every atom reachable from `frontier` through the
/// recorded guard-atom → lemma-atoms edges.
fn close_over_lemmas(
    lemma_atoms: &HashMap<TermId, Vec<TermId>>,
    relevant: &mut HashSet<TermId>,
    mut frontier: Vec<TermId>,
) {
    while let Some(a) = frontier.pop() {
        if let Some(children) = lemma_atoms.get(&a) {
            for &b in children {
                if relevant.insert(b) {
                    frontier.push(b);
                }
            }
        }
    }
}

fn is_arith_atom(store: &TermStore, t: TermId) -> bool {
    match store.data(t) {
        TermData::Le(..) | TermData::Lt(..) => true,
        TermData::Eq(a, _) => store.sort(*a).is_int(),
        _ => false,
    }
}

fn is_euf_atom(store: &TermStore, t: TermId) -> bool {
    match store.data(t) {
        TermData::Eq(a, _) => !store.sort(*a).is_bool(),
        TermData::App(_, _, Sort::Bool) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propositional_only() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let imp = store.implies(p, q);
        solver.assert_formula(&store, p);
        solver.assert_formula(&store, imp);
        let nq = store.not(q);
        solver.assert_formula(&store, nq);
        assert_eq!(solver.check(&mut store), SatResult::Unsat);
    }

    #[test]
    fn arithmetic_conflict_detected() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let a1 = store.lt(x, zero);
        let a2 = store.ge(x, zero);
        solver.assert_formula(&store, a1);
        solver.assert_formula(&store, a2);
        assert_eq!(solver.check(&mut store), SatResult::Unsat);
    }

    #[test]
    fn arithmetic_model_produced() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let y = store.var("y", Sort::Int);
        let one = store.int(1);
        let xp1 = store.add(x, one);
        let a1 = store.eq(y, xp1);
        let five = store.int(5);
        let a2 = store.ge(x, five);
        solver.assert_formula(&store, a1);
        solver.assert_formula(&store, a2);
        match solver.check(&mut store) {
            SatResult::Sat(m) => {
                let xv = m.eval_int(&store, x);
                let yv = m.eval_int(&store, y);
                assert!(xv >= 5);
                assert_eq!(yv, xv + 1);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn disjunction_over_theories() {
        // (x <= 0 or x >= 10) and 3 <= x <= 7 is unsat.
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let ten = store.int(10);
        let three = store.int(3);
        let seven = store.int(7);
        let low = store.le(x, zero);
        let high = store.ge(x, ten);
        let disj = store.or2(low, high);
        let lo = store.ge(x, three);
        let hi = store.le(x, seven);
        solver.assert_formula(&store, disj);
        solver.assert_formula(&store, lo);
        solver.assert_formula(&store, hi);
        assert_eq!(solver.check(&mut store), SatResult::Unsat);
    }

    #[test]
    fn euf_and_arithmetic_together() {
        // o1 = o2 and zero(o1) and !zero(o2) is unsat (predicate congruence).
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let nat = store.symbol("Nat");
        let o1 = store.var("o1", Sort::Obj(nat));
        let o2 = store.var("o2", Sort::Obj(nat));
        let z1 = store.app("zero", vec![o1], Sort::Bool);
        let z2 = store.app("zero", vec![o2], Sort::Bool);
        let eq = store.eq(o1, o2);
        solver.assert_formula(&store, eq);
        solver.assert_formula(&store, z1);
        let nz2 = store.not(z2);
        solver.assert_formula(&store, nz2);
        assert_eq!(solver.check(&mut store), SatResult::Unsat);
    }

    #[test]
    fn model_respects_object_equalities() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let nat = store.symbol("Nat");
        let o1 = store.var("o1", Sort::Obj(nat));
        let o2 = store.var("o2", Sort::Obj(nat));
        let o3 = store.var("o3", Sort::Obj(nat));
        let e12 = store.eq(o1, o2);
        let e13 = store.eq(o1, o3);
        let ne13 = store.not(e13);
        solver.assert_formula(&store, e12);
        solver.assert_formula(&store, ne13);
        match solver.check(&mut store) {
            SatResult::Sat(m) => {
                assert_eq!(m.object_classes[&o1], m.object_classes[&o2]);
                assert_ne!(m.object_classes[&o1], m.object_classes[&o3]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// A plugin that expands the predicate `even(x)` into the lemma
    /// `even(x) => x >= 0` (a deliberately weak fact, enough to test the
    /// expansion loop).
    struct EvenExpander;
    impl LazyExpander for EvenExpander {
        fn can_expand(&mut self, store: &TermStore, atom: TermId, _value: bool) -> bool {
            match store.data(atom) {
                TermData::App(sym, _, _) => store.symbol_name(*sym) == "even",
                _ => false,
            }
        }
        fn expand(
            &mut self,
            store: &mut TermStore,
            atom: TermId,
            value: bool,
            _depth: u32,
        ) -> Expansion {
            let arg = match store.data(atom) {
                TermData::App(_, args, _) => args[0],
                _ => return Expansion::NotApplicable,
            };
            if value {
                let zero = store.int(0);
                let fact = store.ge(arg, zero);
                Expansion::Lemmas(vec![fact])
            } else {
                Expansion::Lemmas(vec![])
            }
        }
    }

    #[test]
    fn lazy_expansion_makes_problem_unsat() {
        // even(x) and x < 0 becomes unsat once the lemma even(x) => x >= 0
        // is asserted by the plugin.
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let even = store.app("even", vec![x], Sort::Bool);
        let zero = store.int(0);
        let neg = store.lt(x, zero);
        solver.assert_formula(&store, even);
        solver.assert_formula(&store, neg);
        let mut plugin = EvenExpander;
        assert_eq!(
            solver.check_with_expander(&mut store, &mut plugin),
            SatResult::Unsat
        );
        assert!(solver.stats().lemmas >= 1);
    }

    #[test]
    fn lazy_expansion_still_sat_when_consistent() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let even = store.app("even", vec![x], Sort::Bool);
        let five = store.int(5);
        let big = store.ge(x, five);
        solver.assert_formula(&store, even);
        solver.assert_formula(&store, big);
        let mut plugin = EvenExpander;
        match solver.check_with_expander(&mut store, &mut plugin) {
            SatResult::Sat(m) => assert!(m.eval_int(&store, x) >= 5),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_problem_is_sat() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let t = store.tt();
        solver.assert_formula(&store, t);
        assert!(solver.check(&mut store).is_sat());
    }

    #[test]
    fn contradictory_constants() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let f = store.ff();
        solver.assert_formula(&store, f);
        assert!(solver.check(&mut store).is_unsat());
    }

    // ------------------------------------------------------------------
    // Session (push/pop) semantics
    // ------------------------------------------------------------------

    #[test]
    fn popped_assertions_retire() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let pos = store.gt(x, zero);
        let neg = store.lt(x, zero);
        solver.assert_formula(&store, pos);
        solver.push();
        solver.assert_formula(&store, neg);
        assert_eq!(solver.assertions().len(), 2);
        assert_eq!(solver.check(&mut store), SatResult::Unsat);
        solver.pop();
        assert_eq!(solver.assertions(), &[pos]);
        // Only x > 0 is left; the session must be satisfiable again.
        match solver.check(&mut store) {
            SatResult::Sat(m) => assert!(m.eval_int(&store, x) > 0),
            other => panic!("expected sat after pop, got {other:?}"),
        }
    }

    #[test]
    fn push_pop_reassert_matches_fresh_solver() {
        // Asserting, popping, and re-asserting must give the same SatResult
        // as a fresh solver on the same formulas — for both polarities of
        // outcome, across a session that interleaves unrelated queries.
        let build = |store: &mut TermStore| {
            let x = store.var("x", Sort::Int);
            let y = store.var("y", Sort::Int);
            let zero = store.int(0);
            let ten = store.int(10);
            let f_sat = vec![store.ge(x, zero), store.le(x, ten), store.eq(y, x)];
            let lt = store.lt(x, zero);
            let ge = store.ge(x, zero);
            let f_unsat = vec![lt, ge];
            (f_sat, f_unsat)
        };

        // Fresh-solver verdicts.
        let mut fresh_store = TermStore::new();
        let (f_sat, f_unsat) = build(&mut fresh_store);
        let fresh_verdict = |fs: &[TermId], store: &mut TermStore| {
            let mut s = Solver::new();
            for &f in fs {
                s.assert_formula(store, f);
            }
            s.check(store)
        };
        assert!(fresh_verdict(&f_sat, &mut fresh_store).is_sat());
        assert!(fresh_verdict(&f_unsat, &mut fresh_store).is_unsat());

        // One session, same formulas, exercised twice with a pop in between.
        let mut store = TermStore::new();
        let (f_sat, f_unsat) = build(&mut store);
        let mut session = Solver::new();
        for round in 0..2 {
            session.push();
            for &f in &f_unsat {
                session.assert_formula(&store, f);
            }
            assert!(
                session.check(&mut store).is_unsat(),
                "round {round}: unsat query flipped"
            );
            session.pop();

            session.push();
            for &f in &f_sat {
                session.assert_formula(&store, f);
            }
            assert!(
                session.check(&mut store).is_sat(),
                "round {round}: sat query flipped"
            );
            session.pop();
        }
        assert_eq!(session.scope_depth(), 0);
    }

    #[test]
    fn expansion_lemmas_replay_across_queries() {
        // The first query expands even(x) through the plugin; the second
        // query over the same atom must reach the same verdict by replaying
        // the cached lemma, without calling the plugin again.
        struct CountingEven(u32);
        impl LazyExpander for CountingEven {
            fn can_expand(&mut self, store: &TermStore, atom: TermId, value: bool) -> bool {
                EvenExpander.can_expand(store, atom, value)
            }
            fn expand(
                &mut self,
                store: &mut TermStore,
                atom: TermId,
                value: bool,
                depth: u32,
            ) -> Expansion {
                self.0 += 1;
                EvenExpander.expand(store, atom, value, depth)
            }
        }

        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let even = store.app("even", vec![x], Sort::Bool);
        let zero = store.int(0);
        let neg = store.lt(x, zero);
        let mut plugin = CountingEven(0);

        solver.push();
        solver.assert_formula(&store, even);
        solver.assert_formula(&store, neg);
        assert_eq!(
            solver.check_with_expander(&mut store, &mut plugin),
            SatResult::Unsat
        );
        assert!(solver.stats().lemmas >= 1, "first query must expand");
        assert_eq!(solver.stats().lemmas_replayed, 0);
        let calls_after_first = plugin.0;
        assert!(calls_after_first >= 1);
        solver.pop();

        solver.push();
        solver.assert_formula(&store, even);
        solver.assert_formula(&store, neg);
        assert_eq!(
            solver.check_with_expander(&mut store, &mut plugin),
            SatResult::Unsat
        );
        assert!(
            solver.stats().lemmas_replayed >= 1,
            "second query must replay cached lemmas"
        );
        assert_eq!(
            plugin.0, calls_after_first,
            "the plugin must not be consulted again"
        );
        solver.pop();
    }

    #[test]
    fn expansion_lemmas_do_not_leak_unconditionally() {
        // Query 1 expands even(x) into x >= 0. Query 2 asserts only x < 0:
        // the lemma must stay guarded by even(x) and the query must be Sat.
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let x = store.var("x", Sort::Int);
        let even = store.app("even", vec![x], Sort::Bool);
        let zero = store.int(0);
        let neg = store.lt(x, zero);
        let mut plugin = EvenExpander;

        solver.push();
        solver.assert_formula(&store, even);
        assert!(solver.check_with_expander(&mut store, &mut plugin).is_sat());
        solver.pop();

        solver.push();
        solver.assert_formula(&store, neg);
        match solver.check_with_expander(&mut store, &mut plugin) {
            SatResult::Sat(m) => assert!(m.eval_int(&store, x) < 0),
            other => panic!("x < 0 alone must be sat, got {other:?}"),
        }
        solver.pop();
    }

    #[test]
    fn reset_clears_the_session() {
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let f = store.ff();
        solver.assert_formula(&store, f);
        assert!(solver.check(&mut store).is_unsat());
        solver.reset();
        assert!(solver.assertions().is_empty());
        let t = store.tt();
        solver.assert_formula(&store, t);
        assert!(solver.check(&mut store).is_sat());
    }
}
