//! Lazy theory expansion, the stand-in for Z3's external theory plugin.
//!
//! The JMatch 2.0 verifier (§6.2 of the paper) does not unroll recursive
//! `matches`/`ensures` clauses and type invariants eagerly. Instead it
//! registers *interpreted theory predicates* with the solver; when the solver
//! assigns such a predicate a truth value, the plugin asserts the
//! corresponding fact — the `ensures` clause when the predicate is true, the
//! negated `matches` clause when it is false, the invariant body for type
//! predicates — as an implication guarded by the predicate. Iterative
//! deepening bounds the unrolling.
//!
//! [`LazyExpander`] is the trait the verifier implements; the solver calls it
//! from its DPLL(T) loop whenever a guard atom is assigned in a candidate
//! model and has not been expanded yet.

use crate::term::{TermId, TermStore};

/// Outcome of asking a plugin about one guard atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expansion {
    /// The atom is not an interpreted predicate of this plugin.
    NotApplicable,
    /// The atom was expanded into the given lemmas (formulas to assert).
    ///
    /// An empty lemma list is allowed and means "applicable, but nothing new
    /// to add"; the solver records the atom as expanded either way.
    Lemmas(Vec<TermId>),
}

/// A lazy axiom expander driven by the DPLL(T) loop.
pub trait LazyExpander {
    /// Whether `atom` (a boolean application) is an interpreted predicate this
    /// plugin knows how to expand when it is assigned `value`. The receiver
    /// is mutable so a plugin can memoize the answer.
    fn can_expand(&mut self, store: &TermStore, atom: TermId, value: bool) -> bool;

    /// Expands `atom` assigned `value` at unrolling depth `depth`.
    ///
    /// `depth` is zero for atoms appearing in the original assertion and grows
    /// by one for predicates introduced inside lemmas. The solver guarantees
    /// `depth < max_expansion_depth` when it calls this method.
    fn expand(&mut self, store: &mut TermStore, atom: TermId, value: bool, depth: u32)
        -> Expansion;
}

/// A plugin that never expands anything; plain QF_LIA + EUF solving.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExpansion;

impl LazyExpander for NoExpansion {
    fn can_expand(&mut self, _store: &TermStore, _atom: TermId, _value: bool) -> bool {
        false
    }

    fn expand(
        &mut self,
        _store: &mut TermStore,
        _atom: TermId,
        _value: bool,
        _depth: u32,
    ) -> Expansion {
        Expansion::NotApplicable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_expansion_is_inert() {
        let mut store = TermStore::new();
        let p = store.app("p", vec![], crate::Sort::Bool);
        let mut plugin = NoExpansion;
        assert!(!plugin.can_expand(&store, p, true));
        assert_eq!(
            plugin.expand(&mut store, p, true, 0),
            Expansion::NotApplicable
        );
    }
}
