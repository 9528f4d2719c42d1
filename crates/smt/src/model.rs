//! Models (satisfying assignments) returned by the solver.
//!
//! A model gives a truth value to every encoded theory atom, an integer value
//! to every atomic integer term the arithmetic theory saw, and an equivalence
//! class representative to object-sorted terms. The JMatch verifier turns
//! models into user-facing counterexamples ("this `switch` does not cover
//! `n = succ(succ(_))`", "the matches clause fails for `n = -1`").

use crate::term::{TermData, TermId, TermStore};
use std::collections::HashMap;

/// A satisfying assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// Truth values of boolean atoms (comparisons, equalities, predicates).
    pub bools: HashMap<TermId, bool>,
    /// Integer values of atomic integer terms (variables and applications).
    pub ints: HashMap<TermId, i64>,
    /// Equivalence-class representative for object-sorted terms.
    pub object_classes: HashMap<TermId, u32>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates an integer term under the model (missing atoms default to 0).
    pub fn eval_int(&self, store: &TermStore, t: TermId) -> i64 {
        match store.data(t) {
            TermData::IntConst(n) => *n,
            TermData::Var(..) | TermData::App(..) => self.ints.get(&t).copied().unwrap_or(0),
            TermData::Add(a, b) => self.eval_int(store, *a) + self.eval_int(store, *b),
            TermData::Sub(a, b) => self.eval_int(store, *a) - self.eval_int(store, *b),
            TermData::Neg(a) => -self.eval_int(store, *a),
            TermData::MulConst(c, a) => c * self.eval_int(store, *a),
            other => panic!("eval_int on non-integer term {other:?}"),
        }
    }

    /// Evaluates a boolean term under the model.
    ///
    /// Atoms not constrained by the model evaluate to `false`.
    pub fn eval_bool(&self, store: &TermStore, t: TermId) -> bool {
        match store.data(t) {
            TermData::BoolConst(b) => *b,
            TermData::Var(..) | TermData::App(..) => self.bools.get(&t).copied().unwrap_or(false),
            TermData::Le(a, b) => self.eval_int(store, *a) <= self.eval_int(store, *b),
            TermData::Lt(a, b) => self.eval_int(store, *a) < self.eval_int(store, *b),
            TermData::Eq(a, b) => {
                if store.sort(*a).is_int() {
                    self.eval_int(store, *a) == self.eval_int(store, *b)
                } else if store.sort(*a).is_bool() {
                    self.eval_bool(store, *a) == self.eval_bool(store, *b)
                } else {
                    match self.bools.get(&t) {
                        Some(v) => *v,
                        None => {
                            let ca = self.object_classes.get(a);
                            let cb = self.object_classes.get(b);
                            match (ca, cb) {
                                (Some(x), Some(y)) => x == y,
                                _ => a == b,
                            }
                        }
                    }
                }
            }
            TermData::Not(a) => !self.eval_bool(store, *a),
            TermData::And(xs) => xs.iter().all(|&x| self.eval_bool(store, x)),
            TermData::Or(xs) => xs.iter().any(|&x| self.eval_bool(store, x)),
            TermData::Implies(a, b) => !self.eval_bool(store, *a) || self.eval_bool(store, *b),
            TermData::Iff(a, b) => self.eval_bool(store, *a) == self.eval_bool(store, *b),
            other => panic!("eval_bool on non-boolean term {other:?}"),
        }
    }

    /// Renders the model restricted to the given terms, for diagnostics.
    pub fn display_for(&self, store: &TermStore, terms: &[TermId]) -> String {
        let mut parts = Vec::new();
        for &t in terms {
            if let Some(v) = self.ints.get(&t) {
                parts.push(format!("{} = {}", store.display(t), v));
            } else if let Some(v) = self.bools.get(&t) {
                parts.push(format!("{} = {}", store.display(t), v));
            } else if let Some(c) = self.object_classes.get(&t) {
                parts.push(format!("{} = obj#{}", store.display(t), c));
            }
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;

    #[test]
    fn eval_arithmetic() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let mut m = Model::new();
        m.ints.insert(x, 3);
        m.ints.insert(y, 4);
        let sum = s.add(x, y);
        let seven = s.int(7);
        let atom = s.eq(sum, seven);
        assert_eq!(m.eval_int(&s, sum), 7);
        assert!(m.eval_bool(&s, atom));
        let lt = s.lt(sum, seven);
        assert!(!m.eval_bool(&s, lt));
    }

    #[test]
    fn eval_boolean_structure() {
        let mut s = TermStore::new();
        let p = s.var("p", Sort::Bool);
        let q = s.var("q", Sort::Bool);
        let mut m = Model::new();
        m.bools.insert(p, true);
        m.bools.insert(q, false);
        let and = s.and2(p, q);
        let or = s.or2(p, q);
        let imp = s.implies(p, q);
        assert!(!m.eval_bool(&s, and));
        assert!(m.eval_bool(&s, or));
        assert!(!m.eval_bool(&s, imp));
    }

    #[test]
    fn display_for_selected_terms() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let mut m = Model::new();
        m.ints.insert(x, 42);
        let text = m.display_for(&s, &[x]);
        assert_eq!(text, "x = 42");
    }
}
