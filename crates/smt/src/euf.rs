//! Congruence closure for equality and uninterpreted functions (EUF).
//!
//! JMatch verification conditions use uninterpreted object sorts for every
//! reference type and uninterpreted functions for method results that the
//! verifier treats abstractly. This module checks a set of equality and
//! predicate-application assignments for consistency:
//!
//! * asserted equalities are merged with union-find,
//! * congruence (`x = y  ⟹  f(x) = f(y)`) is closed with a *signature
//!   table* keyed by `(symbol, [class of each argument])` plus a *use list*
//!   per class: merging two classes re-hashes only the applications on the
//!   shorter of their use lists, so closure is one worklist pass, not a
//!   fixed point over every application,
//! * asserted disequalities must not end up in one class, and no class may
//!   hold two distinct integer constants (one constant slot per class),
//! * predicate applications are looked up in a second signature table after
//!   closure: one signature assigned both truth values is a conflict.
//!
//! The work per check is `O(n log n)` in the number of subterms of the
//! assigned atoms: an application is re-hashed only when its class is on
//! the shorter use list of a merge.
//!
//! The check is used as a post-model filter in the DPLL(T) loop: a conflict
//! produces a blocking clause over the participating atoms.

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

/// A congruence signature: function symbol and the class of each argument.
type Signature = (Symbol, Vec<u32>);

/// The subterms of a set of atoms, numbered densely, with a union-find over
/// the numbers.
#[derive(Debug, Default)]
struct Classes {
    /// Dense number of every collected subterm.
    index: HashMap<TermId, u32>,
    /// The subterm behind each number.
    terms: Vec<TermId>,
    parent: Vec<u32>,
}

impl Classes {
    /// Numbers `t` and, transitively, its subterms; returns `t`'s number.
    fn collect(&mut self, store: &TermStore, t: TermId) -> u32 {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let i = self.terms.len() as u32;
        self.index.insert(t, i);
        self.terms.push(t);
        self.parent.push(i);
        match store.data(t) {
            TermData::App(_, args, _) => {
                for &a in args {
                    self.collect(store, a);
                }
            }
            TermData::Add(a, b)
            | TermData::Sub(a, b)
            | TermData::Le(a, b)
            | TermData::Lt(a, b)
            | TermData::Eq(a, b)
            | TermData::Implies(a, b)
            | TermData::Iff(a, b) => {
                self.collect(store, *a);
                self.collect(store, *b);
            }
            TermData::Neg(a) | TermData::MulConst(_, a) | TermData::Not(a) => {
                self.collect(store, *a);
            }
            TermData::And(xs) | TermData::Or(xs) => {
                for &x in xs {
                    self.collect(store, x);
                }
            }
            TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(..) => {}
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

    /// Merges the classes of `a` and `b`.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra as usize] = rb;
    }

    /// The signature of application `app` under the current classes.
    fn signature(&mut self, store: &TermStore, app: u32) -> Option<Signature> {
        let TermData::App(sym, args, _) = store.data(self.terms[app as usize]) else {
            return None;
        };
        let mut classes: Vec<u32> = args.iter().map(|a| self.index[a]).collect();
        for c in &mut classes {
            *c = self.find(*c);
        }
        Some((*sym, classes))
    }
}

/// Closes the asserted `equalities` under congruence over every
/// application among `classes`' terms.
fn close(store: &TermStore, classes: &mut Classes, equalities: &[(u32, u32)]) {
    let n = classes.terms.len();
    // `uses[c]`: the applications with an argument in class `c` (valid at
    // roots); `table`: one application per signature.
    let mut uses: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut table: HashMap<Signature, u32> = HashMap::new();
    let mut pending: Vec<(u32, u32)> = equalities.to_vec();
    for app in 0..n as u32 {
        let Some(sig) = classes.signature(store, app) else {
            continue;
        };
        for &c in &sig.1 {
            uses[c as usize].push(app);
        }
        if let Some(&other) = table.get(&sig) {
            pending.push((app, other));
        } else {
            table.insert(sig, app);
        }
    }
    while let Some((a, b)) = pending.pop() {
        let (ra, rb) = (classes.find(a), classes.find(b));
        if ra == rb {
            continue;
        }
        // Only the applications using the absorbed class change signature,
        // so the class with the shorter use list is the one absorbed.
        let (absorbed, survivor) = if uses[ra as usize].len() <= uses[rb as usize].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        classes.parent[absorbed as usize] = survivor;
        let moved = std::mem::take(&mut uses[absorbed as usize]);
        for &app in &moved {
            let sig = classes
                .signature(store, app)
                .expect("use lists hold applications");
            match table.get(&sig) {
                Some(&other) => {
                    if classes.find(other) != classes.find(app) {
                        pending.push((app, other));
                    }
                }
                None => {
                    table.insert(sig, app);
                }
            }
        }
        uses[survivor as usize].extend(moved);
    }
}

/// Checks consistency of equality/predicate assignments.
///
/// `assignments` should contain:
/// * `Eq` atoms (of any sort) with their truth values, and
/// * boolean `App` atoms (uninterpreted predicates) with their truth values.
///
/// Other atoms are ignored so the caller can pass its full atom assignment.
pub fn check(store: &TermStore, assignments: &[AtomAssignment]) -> EufResult {
    let mut classes = Classes::default();
    let mut equalities: Vec<(u32, u32)> = Vec::new();
    let mut disequalities: Vec<(u32, u32)> = Vec::new();
    let mut predicates: Vec<(u32, bool)> = Vec::new();
    for &(atom, value) in assignments {
        match store.data(atom) {
            TermData::Eq(a, b) => {
                let pair = (classes.collect(store, *a), classes.collect(store, *b));
                if value {
                    equalities.push(pair);
                } else {
                    disequalities.push(pair);
                }
            }
            TermData::App(..) => predicates.push((classes.collect(store, atom), value)),
            _ => {}
        }
    }
    close(store, &mut classes, &equalities);

    let inconsistent = || EufResult::Inconsistent(assignments.iter().map(|&(a, _)| a).collect());
    for (a, b) in disequalities {
        if classes.find(a) == classes.find(b) {
            return inconsistent();
        }
    }
    // Distinct integer constants are never equal: at most one per class.
    let mut constant: Vec<Option<i64>> = vec![None; classes.terms.len()];
    for i in 0..classes.terms.len() as u32 {
        if let TermData::IntConst(n) = store.data(classes.terms[i as usize]) {
            let slot = &mut constant[classes.find(i) as usize];
            match *slot {
                Some(m) if m != *n => return inconsistent(),
                _ => *slot = Some(*n),
            }
        }
    }
    // Congruent predicate applications must not carry opposite truth values.
    let mut truth: HashMap<Signature, bool> = HashMap::new();
    for (p, value) in predicates {
        let sig = classes
            .signature(store, p)
            .expect("predicates are applications");
        if *truth.entry(sig).or_insert(value) != value {
            return inconsistent();
        }
    }
    EufResult::Consistent
}

/// Computes equivalence-class representatives for the object-sorted terms
/// mentioned by a *consistent* set of assignments. Used for model building.
pub fn classes(store: &TermStore, assignments: &[AtomAssignment]) -> HashMap<TermId, u32> {
    let mut classes = Classes::default();
    for &(atom, value) in assignments {
        match store.data(atom) {
            TermData::Eq(a, b) => {
                let (a, b) = (classes.collect(store, *a), classes.collect(store, *b));
                if value {
                    classes.union(a, b);
                }
            }
            TermData::App(..) => {
                classes.collect(store, atom);
            }
            _ => {}
        }
    }
    // Number the classes in order of their smallest object-sorted term.
    let mut sorted: Vec<(TermId, u32)> = classes
        .terms
        .iter()
        .enumerate()
        .filter(|(_, &t)| store.sort(t).is_obj())
        .map(|(i, &t)| (t, i as u32))
        .collect();
    sorted.sort_unstable();
    let mut number: HashMap<u32, u32> = HashMap::new();
    let mut reps: HashMap<TermId, u32> = HashMap::with_capacity(sorted.len());
    for (t, i) in sorted {
        let next = number.len() as u32;
        let class = *number.entry(classes.find(i)).or_insert(next);
        reps.insert(t, class);
    }
    reps
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
}
