//! Congruence closure for equality and uninterpreted functions (EUF).
//!
//! JMatch verification conditions use uninterpreted object sorts for every
//! reference type and uninterpreted functions for method results that the
//! verifier treats abstractly. This module checks a set of equality and
//! predicate-application assignments for consistency with one closure type,
//! [`Closure`]:
//!
//! * every subterm of the assigned atoms is numbered densely, and asserted
//!   equalities are merged with union-find over the numbers,
//! * congruence (`x = y  ⟹  f(x) = f(y)`) is closed with a *signature
//!   table* keyed by `(symbol, [class of each argument])` plus a *use list*
//!   per class: merging two classes re-hashes only the applications on the
//!   shorter of their use lists, so closure is one worklist pass, not a
//!   fixed point over every application (Nieuwenhuis & Oliveras, *Fast
//!   congruence closure and extensions*, 2007),
//! * asserted disequalities must not end up in one class, and no class may
//!   hold two distinct integer constants (one constant slot per class),
//! * congruent predicate applications share a class after closure, so one
//!   class assigned both truth values is a conflict.
//!
//! The work to build a closure is `O(n log n)` in the number of subterms of
//! the assigned atoms: an application is re-hashed only when its class is
//! on the shorter use list of a merge.
//!
//! ## Reuse across DPLL(T) rounds
//!
//! The closure remembers the sorted assignment it was built from (its
//! *base*). A later [`Closure::check`] whose assignment holds every base
//! atom with the same value, and only adds atoms, keeps the closure: it
//! numbers the new subterms, queues the new equalities and keeps closing.
//! Any other assignment clears the closure (keeping its capacity) and
//! rebuilds it. Closure is confluent, so both paths reach the same
//! partition. The disequality, constant and predicate checks run over the
//! full assignment on every call, and an `Inconsistent` answer drops the
//! base. The solver owns one closure for its whole session, and a second
//! one for conflict minimization, which runs [`Closure::check_fresh`] (the
//! answer of [`check`], a fresh closure) per candidate subset.
//!
//! The tables are keyed by solver-assigned ids and use [`IdMap`]. A
//! signature keeps up to four argument classes inline, and a
//! check's scratch vectors live in the closure, so a round allocates only
//! when a table outgrows its capacity.

use crate::hash::IdMap;
use crate::sym::Symbol;
use crate::term::{TermData, TermId, TermStore};
use std::collections::HashMap;

/// Result of an EUF consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EufResult {
    /// The assignments are consistent with the theory of equality.
    Consistent,
    /// The assignments are inconsistent; the payload lists the atoms involved.
    Inconsistent(Vec<TermId>),
}

/// An assignment of a truth value to an equality or predicate atom.
pub type AtomAssignment = (TermId, bool);

/// Arguments a [`Signature`] holds inline; longer applications spill to
/// the heap.
const INLINE_ARGS: usize = 4;

/// A congruence signature: function symbol and the class of each argument.
/// Up to [`INLINE_ARGS`] classes are stored inline (unused slots stay 0), so
/// building and hashing the signature of a typical application allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Signature {
    Inline(Symbol, u8, [u32; INLINE_ARGS]),
    Heap(Symbol, Box<[u32]>),
}

impl Signature {
    /// The argument classes.
    fn classes(&self) -> &[u32] {
        match self {
            Signature::Inline(_, arity, classes) => &classes[..usize::from(*arity)],
            Signature::Heap(_, classes) => classes,
        }
    }
}

/// What the closure needs to know about a numbered subterm.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// An application: its symbol, and the start and length of its
    /// arguments' numbers in `Closure::args`.
    App(Symbol, u32, u32),
    /// An integer constant.
    Const(i64),
    /// Anything else.
    Other,
}

/// A congruence closure over the subterms of an atom assignment, kept
/// across checks whose assignments extend the one it was built from (see
/// the [module documentation](self)). Like a solver session, one closure
/// must always be used with the same [`TermStore`].
#[derive(Debug, Default)]
pub struct Closure {
    /// Dense number of every collected subterm.
    index: IdMap<TermId, u32>,
    /// The subterm behind each number, and its kind.
    nodes: Vec<(TermId, Kind)>,
    /// Argument numbers of the applications, back to back.
    args: Vec<u32>,
    parent: Vec<u32>,
    /// `uses[c]`: the applications with an argument in class `c` (valid at
    /// roots). Only the first `nodes.len()` entries are live; the rest keep
    /// their capacity for the next rebuild.
    uses: Vec<Vec<u32>>,
    /// One application per signature.
    table: IdMap<Signature, u32>,
    /// Merges not yet closed.
    pending: Vec<(u32, u32)>,
    /// The sorted, deduplicated assignment the closure was built from.
    base: Vec<AtomAssignment>,
    /// The base's disequalities and predicate literals, numbered.
    disequalities: Vec<(u32, u32)>,
    predicates: Vec<(u32, bool)>,
    /// Scratch buffers of one check: the sorted assignment (the next base),
    /// its atoms beyond the base, and the constant and truth value of each
    /// class.
    sorted: Vec<AtomAssignment>,
    added: Vec<AtomAssignment>,
    constant: Vec<Option<i64>>,
    truth: Vec<Option<bool>>,
    /// Whether the last check extended a non-empty base.
    reused: bool,
}

impl Closure {
    /// Creates an empty closure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks consistency of equality/predicate assignments, extending the
    /// closure when `assignments` extends its base and rebuilding it
    /// otherwise.
    ///
    /// `assignments` should contain:
    /// * `Eq` atoms (of any sort) with their truth values, and
    /// * boolean `App` atoms (uninterpreted predicates) with their truth values.
    ///
    /// Other atoms are ignored so the caller can pass its full atom
    /// assignment.
    pub fn check(&mut self, store: &TermStore, assignments: &[AtomAssignment]) -> EufResult {
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.clear();
        sorted.extend(
            assignments.iter().copied().filter(|&(atom, _)| {
                matches!(store.data(atom), TermData::Eq(..) | TermData::App(..))
            }),
        );
        sorted.sort_unstable();
        sorted.dedup();
        let extends = self.added_to_base(&sorted);
        self.reused = extends && !self.base.is_empty();
        if !extends {
            self.clear();
        }
        let first_new = self.nodes.len();
        let added = std::mem::take(&mut self.added);
        for &(atom, value) in if extends { &added } else { &sorted } {
            match store.data(atom) {
                TermData::Eq(a, b) => {
                    let pair = (self.collect(store, *a), self.collect(store, *b));
                    if value {
                        self.pending.push(pair);
                    } else {
                        self.disequalities.push(pair);
                    }
                }
                _ => {
                    let p = self.collect(store, atom);
                    self.predicates.push((p, value));
                }
            }
        }
        self.added = added;
        for app in first_new as u32..self.nodes.len() as u32 {
            let Some(sig) = self.signature(app) else {
                continue;
            };
            for &c in sig.classes() {
                self.uses[c as usize].push(app);
            }
            if let Some(&other) = self.table.get(&sig) {
                self.pending.push((app, other));
            } else {
                self.table.insert(sig, app);
            }
        }
        self.close();
        self.sorted = std::mem::replace(&mut self.base, sorted);

        if self.consistent() {
            EufResult::Consistent
        } else {
            self.clear();
            EufResult::Inconsistent(assignments.iter().map(|&(a, _)| a).collect())
        }
    }

    /// [`Closure::check`] on a cleared closure: the answer of a fresh
    /// closure, reusing this one's allocations. Conflict minimization runs
    /// one such check per candidate subset.
    pub fn check_fresh(&mut self, store: &TermStore, assignments: &[AtomAssignment]) -> EufResult {
        self.clear();
        self.check(store, assignments)
    }

    /// Whether the last [`Closure::check`] extended the closure of an
    /// earlier assignment instead of building one from scratch.
    pub fn reused(&self) -> bool {
        self.reused
    }

    /// Equivalence-class numbers of the object-sorted terms of the last
    /// (consistent) check, numbered in order of each class's smallest term.
    /// Used for model building.
    pub fn classes(&mut self, store: &TermStore) -> HashMap<TermId, u32> {
        let mut sorted: Vec<(TermId, u32)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, &(t, _))| store.sort(t).is_obj())
            .map(|(i, &(t, _))| (t, i as u32))
            .collect();
        sorted.sort_unstable();
        let mut number: IdMap<u32, u32> = IdMap::default();
        let mut reps: HashMap<TermId, u32> = HashMap::with_capacity(sorted.len());
        for (t, i) in sorted {
            let next = number.len() as u32;
            let class = *number.entry(self.find(i)).or_insert(next);
            reps.insert(t, class);
        }
        reps
    }

    /// Forgets every subterm and the base, keeping the allocations.
    fn clear(&mut self) {
        for uses in &mut self.uses[..self.nodes.len()] {
            uses.clear();
        }
        self.index.clear();
        self.nodes.clear();
        self.args.clear();
        self.parent.clear();
        self.table.clear();
        self.pending.clear();
        self.base.clear();
        self.disequalities.clear();
        self.predicates.clear();
    }

    /// Whether `sorted` holds every base atom with its base value; if so,
    /// `self.added` holds the atoms of `sorted` beyond the base.
    fn added_to_base(&mut self, sorted: &[AtomAssignment]) -> bool {
        let mut matched = 0;
        self.added.clear();
        for &a in sorted {
            if self.base.get(matched) == Some(&a) {
                matched += 1;
            } else {
                self.added.push(a);
            }
        }
        matched == self.base.len()
    }

    /// Numbers `t` and, transitively, its subterms (children first);
    /// returns `t`'s number.
    fn collect(&mut self, store: &TermStore, t: TermId) -> u32 {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let kind = match store.data(t) {
            TermData::App(sym, xs, _) => {
                for &a in xs {
                    self.collect(store, a);
                }
                let start = self.args.len() as u32;
                for a in xs {
                    self.args.push(self.index[a]);
                }
                Kind::App(*sym, start, xs.len() as u32)
            }
            TermData::IntConst(n) => Kind::Const(*n),
            TermData::Add(a, b)
            | TermData::Sub(a, b)
            | TermData::Le(a, b)
            | TermData::Lt(a, b)
            | TermData::Eq(a, b)
            | TermData::Implies(a, b)
            | TermData::Iff(a, b) => {
                self.collect(store, *a);
                self.collect(store, *b);
                Kind::Other
            }
            TermData::Neg(a) | TermData::MulConst(_, a) | TermData::Not(a) => {
                self.collect(store, *a);
                Kind::Other
            }
            TermData::And(xs) | TermData::Or(xs) => {
                for &x in xs {
                    self.collect(store, x);
                }
                Kind::Other
            }
            TermData::BoolConst(_) | TermData::Var(..) => Kind::Other,
        };
        let i = self.nodes.len() as u32;
        self.index.insert(t, i);
        self.nodes.push((t, kind));
        self.parent.push(i);
        if self.uses.len() == i as usize {
            self.uses.push(Vec::new());
        }
        i
    }

    fn find(&mut self, mut x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        while self.parent[x as usize] != root {
            let next = self.parent[x as usize];
            self.parent[x as usize] = root;
            x = next;
        }
        root
    }

    /// The signature of application `app` under the current classes.
    fn signature(&mut self, app: u32) -> Option<Signature> {
        let Kind::App(sym, start, arity) = self.nodes[app as usize].1 else {
            return None;
        };
        let args = start as usize..(start + arity) as usize;
        if args.len() <= INLINE_ARGS {
            let mut classes = [0; INLINE_ARGS];
            for (slot, i) in classes.iter_mut().zip(args) {
                *slot = self.find(self.args[i]);
            }
            return Some(Signature::Inline(sym, arity as u8, classes));
        }
        let classes = args.map(|i| self.find(self.args[i])).collect();
        Some(Signature::Heap(sym, classes))
    }

    /// Closes the pending merges under congruence.
    fn close(&mut self) {
        while let Some((a, b)) = self.pending.pop() {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                continue;
            }
            // Only the applications using the absorbed class change
            // signature, so the class with the shorter use list is the one
            // absorbed.
            let (absorbed, survivor) =
                if self.uses[ra as usize].len() <= self.uses[rb as usize].len() {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
            self.parent[absorbed as usize] = survivor;
            let moved = std::mem::take(&mut self.uses[absorbed as usize]);
            for &app in &moved {
                let sig = self.signature(app).expect("use lists hold applications");
                match self.table.get(&sig) {
                    Some(&other) => {
                        if self.find(other) != self.find(app) {
                            self.pending.push((app, other));
                        }
                    }
                    None => {
                        self.table.insert(sig, app);
                    }
                }
            }
            self.uses[survivor as usize].extend(moved);
        }
    }

    /// The disequality, constant and predicate checks of the whole base
    /// against the closed classes.
    fn consistent(&mut self) -> bool {
        for i in 0..self.disequalities.len() {
            let (a, b) = self.disequalities[i];
            if self.find(a) == self.find(b) {
                return false;
            }
        }
        let n = self.nodes.len();
        // Distinct integer constants are never equal: at most one per class.
        self.constant.clear();
        self.constant.resize(n, None);
        for i in 0..n as u32 {
            if let Kind::Const(c) = self.nodes[i as usize].1 {
                let root = self.find(i) as usize;
                if *self.constant[root].get_or_insert(c) != c {
                    return false;
                }
            }
        }
        // Congruent predicate applications share a class and must not
        // carry opposite truth values.
        self.truth.clear();
        self.truth.resize(n, None);
        for i in 0..self.predicates.len() {
            let (p, value) = self.predicates[i];
            let root = self.find(p) as usize;
            if *self.truth[root].get_or_insert(value) != value {
                return false;
            }
        }
        true
    }
}

/// Checks consistency of equality/predicate assignments with a fresh
/// [`Closure`] (see [`Closure::check`]).
pub fn check(store: &TermStore, assignments: &[AtomAssignment]) -> EufResult {
    Closure::new().check(store, assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;

    fn obj_sort(store: &mut TermStore) -> Sort {
        let s = store.symbol("Nat");
        Sort::Obj(s)
    }

    #[test]
    fn transitivity_of_equality() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let a = s.var("a", so);
        let b = s.var("b", so);
        let c = s.var("c", so);
        let e1 = s.eq(a, b);
        let e2 = s.eq(b, c);
        let e3 = s.eq(a, c);
        // a=b, b=c, a!=c is inconsistent
        let r = check(&s, &[(e1, true), (e2, true), (e3, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // a=b, b=c, a=c is consistent
        let r2 = check(&s, &[(e1, true), (e2, true), (e3, true)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn congruence_of_functions() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let fx = s.app("pred", vec![x], so);
        let fy = s.app("pred", vec![y], so);
        let exy = s.eq(x, y);
        let efxy = s.eq(fx, fy);
        // x=y and pred(x) != pred(y) is inconsistent
        let r = check(&s, &[(exy, true), (efxy, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // x!=y and pred(x) != pred(y) is consistent
        let r2 = check(&s, &[(exy, false), (efxy, false)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn distinct_int_constants_conflict_when_merged() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let one = s.int(1);
        let two = s.int(2);
        let e1 = s.eq(x, one);
        let e2 = s.eq(x, two);
        let r = check(&s, &[(e1, true), (e2, true)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
    }

    #[test]
    fn predicate_congruence() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let px = s.app("zero", vec![x], Sort::Bool);
        let py = s.app("zero", vec![y], Sort::Bool);
        let exy = s.eq(x, y);
        // x=y, zero(x), !zero(y) is inconsistent
        let r = check(&s, &[(exy, true), (px, true), (py, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
        // without x=y it is consistent
        let r2 = check(&s, &[(exy, false), (px, true), (py, false)]);
        assert_eq!(r2, EufResult::Consistent);
    }

    #[test]
    fn nested_congruence_propagates() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let fx = s.app("f", vec![x], so);
        let fy = s.app("f", vec![y], so);
        let gfx = s.app("g", vec![fx], so);
        let gfy = s.app("g", vec![fy], so);
        let exy = s.eq(x, y);
        let egg = s.eq(gfx, gfy);
        let r = check(&s, &[(exy, true), (egg, false)]);
        assert!(matches!(r, EufResult::Inconsistent(_)));
    }

    #[test]
    fn irrelevant_atoms_are_ignored() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let zero = s.int(0);
        let le = s.le(x, zero);
        let r = check(&s, &[(le, true)]);
        assert_eq!(r, EufResult::Consistent);
    }

    #[test]
    fn closure_extends_its_base_and_rebuilds_otherwise() {
        let mut s = TermStore::new();
        let so = obj_sort(&mut s);
        let x = s.var("x", so);
        let y = s.var("y", so);
        let z = s.var("z", so);
        let fx = s.app("f", vec![x], so);
        let fz = s.app("f", vec![z], so);
        let exy = s.eq(x, y);
        let eyz = s.eq(y, z);
        let efxz = s.eq(fx, fz);
        let mut c = Closure::new();
        assert_eq!(c.check(&s, &[(exy, true)]), EufResult::Consistent);
        assert!(!c.reused(), "the first check builds from scratch");
        // Adds y = z: the closure is extended, and congruence reaches f.
        assert_eq!(
            c.check(&s, &[(exy, true), (eyz, true), (efxz, false)]),
            check(&s, &[(exy, true), (eyz, true), (efxz, false)])
        );
        assert!(c.reused());
        // The inconsistent answer dropped the base.
        assert_eq!(
            c.check(&s, &[(exy, true), (eyz, false)]),
            EufResult::Consistent
        );
        assert!(!c.reused());
        // A flipped base atom forces a rebuild.
        let pfx = s.app("p", vec![fx], Sort::Bool);
        let pfz = s.app("p", vec![fz], Sort::Bool);
        let flipped = [(exy, true), (eyz, true), (pfx, true), (pfz, true)];
        assert_eq!(c.check(&s, &flipped), EufResult::Consistent);
        assert!(!c.reused());
        let classes = c.classes(&s);
        assert_eq!(classes[&x], classes[&z]);
        assert_eq!(classes[&fx], classes[&fz]);
        assert_ne!(classes[&x], classes[&fx]);
    }
}
