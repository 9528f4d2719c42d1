//! Tseitin transformation from term-level formulas to CNF clauses.
//!
//! The encoder is persistent: it caches the propositional literal chosen for
//! every subformula (hash-consing in [`crate::TermStore`] makes structurally
//! equal formulas share the same [`crate::TermId`]), so lemmas added lazily by
//! theory plugins reuse the atom variables introduced earlier. This is what
//! lets the DPLL(T) loop add blocking clauses and expansion lemmas
//! incrementally without re-encoding the whole problem.
//!
//! ## Scoped encodings
//!
//! Theory **atoms** (variables, applications, comparisons, equalities) have
//! no defining clauses; their propositional variables are allocated once and
//! cached forever, which keeps atom identity stable across an entire solver
//! session (blocking clauses and models keep referring to the same
//! variables).
//!
//! **Composite** formulas need Tseitin definition clauses. When encoded
//! while an assertion scope is open ([`Encoder::push_scope`]), those clauses
//! are added scoped — they retire with the scope, and the cache entry is
//! dropped at [`Encoder::pop_scope`] so a later use re-encodes the formula.
//! Queries in a long-lived session therefore pay only for their own boolean
//! structure instead of dragging every previous query's definitions through
//! the SAT core. Encoded outside any scope, definitions are permanent,
//! matching the classic one-shot behavior.
//!
//! ## Tables
//!
//! Term ids and propositional variables are dense, so the literal cache and
//! the atom-of-variable map are plain vectors indexed by [`TermId`] and
//! [`PVar`] rather than hash maps, and the encoder reads each formula's
//! operands in place instead of cloning them. The literals of an n-ary
//! conjunction or disjunction are encoded onto one reusable operand stack,
//! and its defining clauses are passed to the SAT core as slices of it, so
//! encoding a formula allocates nothing beyond the clauses the SAT core
//! stores.

use crate::sat::{Lit, PVar, SatSolver};
use crate::term::{TermData, TermId, TermStore};

/// Persistent Tseitin encoder.
///
/// A cache entry's lifetime is tracked by `scope_log` alone: composite
/// formulas encoded inside a scope are logged there and purged on
/// [`Encoder::pop_scope`]; everything else (atoms, constants, composites
/// encoded outside any scope) stays cached forever.
#[derive(Debug, Default)]
pub struct Encoder {
    /// Cached literal of each encoded term, indexed by [`TermId`].
    lit_of: Vec<Option<Lit>>,
    /// The atom behind each propositional variable, indexed by [`PVar`].
    atom_of_var: Vec<Option<TermId>>,
    true_lit: Option<Lit>,
    /// Composite formulas encoded per open scope (for cache purging).
    scope_log: Vec<Vec<TermId>>,
    /// The operand literals of the n-ary connectives being encoded, one
    /// segment per connective, innermost last.
    operands: Vec<Lit>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an encoding scope: definition clauses of composite formulas
    /// encoded from now on live until the matching [`Encoder::pop_scope`].
    /// Must be kept in lockstep with [`SatSolver::push`].
    pub fn push_scope(&mut self) {
        self.scope_log.push(Vec::new());
    }

    /// Closes the innermost encoding scope, forgetting the cached literals
    /// whose definitions retire with it.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop_scope(&mut self) {
        let retired = self
            .scope_log
            .pop()
            .expect("Encoder::pop_scope without a matching push_scope");
        for t in retired {
            self.lit_of[t.index()] = None;
        }
    }

    fn in_scope(&self) -> bool {
        !self.scope_log.is_empty()
    }

    fn cached(&self, t: TermId) -> Option<Lit> {
        self.lit_of.get(t.index()).copied().flatten()
    }

    fn cache(&mut self, t: TermId, lit: Lit) {
        if self.lit_of.len() <= t.index() {
            self.lit_of.resize(t.index() + 1, None);
        }
        self.lit_of[t.index()] = Some(lit);
    }

    /// Caches `lit` for `t`; inside a scope the entry is logged for purging
    /// at the matching `pop_scope`.
    fn remember(&mut self, t: TermId, lit: Lit) -> Lit {
        self.cache(t, lit);
        if let Some(log) = self.scope_log.last_mut() {
            log.push(t);
        }
        lit
    }

    /// The literal that is constrained to be true (used for boolean constants).
    fn true_literal(&mut self, sat: &mut SatSolver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = sat.new_var();
        let l = Lit::pos(v);
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// Returns the propositional variable standing for a theory atom, if the
    /// atom has been encoded.
    pub fn var_for_atom(&self, atom: TermId) -> Option<PVar> {
        self.cached(atom).map(|l| l.var())
    }

    /// Returns the theory atom corresponding to a propositional variable, if
    /// that variable encodes an atom (rather than an internal Tseitin node).
    pub fn atom_for_var(&self, var: PVar) -> Option<TermId> {
        self.atom_of_var.get(var as usize).copied().flatten()
    }

    /// Iterates over all `(atom, var)` pairs encoded so far, in variable
    /// order.
    pub fn atom_vars(&self) -> impl Iterator<Item = (TermId, PVar)> + '_ {
        self.atom_of_var
            .iter()
            .enumerate()
            .filter_map(|(v, t)| t.map(|t| (t, v as PVar)))
    }

    /// Adds a definition clause with the lifetime of the current mode.
    fn def_clause(&self, sat: &mut SatSolver, lits: &[Lit]) {
        if self.in_scope() {
            sat.add_scoped_clause(lits);
        } else {
            sat.add_clause(lits);
        }
    }

    /// Encodes `t` and returns a literal that is equivalent to it (within the
    /// current scope, if one is open).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean-sorted.
    pub fn encode(&mut self, store: &TermStore, sat: &mut SatSolver, t: TermId) -> Lit {
        assert!(
            store.sort(t).is_bool(),
            "cannot encode non-boolean term {}",
            store.display(t)
        );
        if let Some(l) = self.cached(t) {
            return l;
        }
        match store.data(t) {
            TermData::BoolConst(true) => self.true_literal(sat),
            TermData::BoolConst(false) => self.true_literal(sat).negate(),
            TermData::Not(inner) => {
                // No clauses of its own: do not cache, so the lifetime is
                // exactly the inner encoding's.
                self.encode(store, sat, *inner).negate()
            }
            TermData::Var(..)
            | TermData::App(..)
            | TermData::Le(..)
            | TermData::Lt(..)
            | TermData::Eq(..) => {
                // Theory atoms have no defining clauses; their variables are
                // allocated once and stay valid for the whole session.
                let v = sat.new_var();
                if self.atom_of_var.len() <= v as usize {
                    self.atom_of_var.resize(v as usize + 1, None);
                }
                self.atom_of_var[v as usize] = Some(t);
                let lit = Lit::pos(v);
                self.cache(t, lit);
                lit
            }
            TermData::And(xs) => {
                let start = self.encode_all(store, sat, xs);
                let p = Lit::pos(sat.new_var());
                // p -> each x
                for i in start..self.operands.len() {
                    self.def_clause(sat, &[p.negate(), self.operands[i]]);
                }
                // all x -> p
                for l in &mut self.operands[start..] {
                    *l = l.negate();
                }
                self.operands.push(p);
                self.def_clause(sat, &self.operands[start..]);
                self.operands.truncate(start);
                self.remember(t, p)
            }
            TermData::Or(xs) => {
                let start = self.encode_all(store, sat, xs);
                let p = Lit::pos(sat.new_var());
                // each x -> p
                for i in start..self.operands.len() {
                    self.def_clause(sat, &[self.operands[i].negate(), p]);
                }
                // p -> some x
                self.operands.push(p.negate());
                self.def_clause(sat, &self.operands[start..]);
                self.operands.truncate(start);
                self.remember(t, p)
            }
            TermData::Implies(a, b) => {
                let la = self.encode(store, sat, *a);
                let lb = self.encode(store, sat, *b);
                let p = Lit::pos(sat.new_var());
                // p -> (a -> b)
                self.def_clause(sat, &[p.negate(), la.negate(), lb]);
                // (a -> b) -> p, i.e. (~a -> p) and (b -> p)
                self.def_clause(sat, &[la, p]);
                self.def_clause(sat, &[lb.negate(), p]);
                self.remember(t, p)
            }
            TermData::Iff(a, b) => {
                let la = self.encode(store, sat, *a);
                let lb = self.encode(store, sat, *b);
                let p = Lit::pos(sat.new_var());
                self.def_clause(sat, &[p.negate(), la.negate(), lb]);
                self.def_clause(sat, &[p.negate(), la, lb.negate()]);
                self.def_clause(sat, &[p, la, lb]);
                self.def_clause(sat, &[p, la.negate(), lb.negate()]);
                self.remember(t, p)
            }
            other => panic!(
                "non-boolean construct reached the encoder: {:?} in {}",
                other,
                store.display(t)
            ),
        }
    }

    /// Encodes every operand of an n-ary connective onto the end of
    /// `operands` and returns where they start. A nested connective's
    /// operands are pushed and truncated above them, so the buffer is a
    /// stack that the caller truncates back to the returned start.
    fn encode_all(&mut self, store: &TermStore, sat: &mut SatSolver, xs: &[TermId]) -> usize {
        let start = self.operands.len();
        for &x in xs {
            let l = self.encode(store, sat, x);
            self.operands.push(l);
        }
        start
    }

    /// Encodes `t` and asserts it as a permanent unit clause. Outside any
    /// scope, definitions are permanent too (the classic one-shot behavior).
    pub fn assert_formula(&mut self, store: &TermStore, sat: &mut SatSolver, t: TermId) {
        let l = self.encode(store, sat, t);
        sat.add_clause(&[l]);
    }

    /// Encodes `t` and asserts it as a unit clause scoped to the innermost
    /// open assertion scope (see [`SatSolver::add_scoped_clause`]): the
    /// assertion — and the definitions encoded inside the scope — retires
    /// when that scope pops, while atom variables (and any clauses the solver
    /// learned that do not depend on the scope) survive for later queries.
    pub fn assert_scoped_formula(&mut self, store: &TermStore, sat: &mut SatSolver, t: TermId) {
        let l = self.encode(store, sat, t);
        sat.add_scoped_clause(&[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;
    use crate::sorts::Sort;

    fn setup() -> (TermStore, SatSolver, Encoder) {
        (TermStore::new(), SatSolver::new(), Encoder::new())
    }

    #[test]
    fn encode_and_or_not() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let np = store.not(p);
        let f = store.and2(np, q);
        enc.assert_formula(&store, &mut sat, f);
        assert_eq!(sat.solve(), SatOutcome::Sat);
        let vp = enc.var_for_atom(p).unwrap();
        let vq = enc.var_for_atom(q).unwrap();
        assert_eq!(sat.value(vp), Some(false));
        assert_eq!(sat.value(vq), Some(true));
    }

    #[test]
    fn encode_unsat_conjunction() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let np = store.not(p);
        let f = store.and2(p, np);
        enc.assert_formula(&store, &mut sat, f);
        assert_eq!(sat.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn encode_implication_chain() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let r = store.var("r", Sort::Bool);
        let i1 = store.implies(p, q);
        let i2 = store.implies(q, r);
        let nr = store.not(r);
        let f = store.and(vec![p, i1, i2, nr]);
        enc.assert_formula(&store, &mut sat, f);
        assert_eq!(sat.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn encode_iff() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let f = store.iff(p, q);
        let np = store.not(p);
        let g = store.and(vec![f, np, q]);
        enc.assert_formula(&store, &mut sat, g);
        assert_eq!(sat.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn constants_encode_correctly() {
        let (mut store, mut sat, mut enc) = setup();
        let t = store.tt();
        let p = store.var("p", Sort::Bool);
        let f = store.implies(t, p);
        enc.assert_formula(&store, &mut sat, f);
        assert_eq!(sat.solve(), SatOutcome::Sat);
        let vp = enc.var_for_atom(p).unwrap();
        assert_eq!(sat.value(vp), Some(true));
    }

    #[test]
    fn atoms_are_registered_in_reverse_map() {
        let (mut store, mut sat, mut enc) = setup();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let atom = store.le(zero, x);
        enc.assert_formula(&store, &mut sat, atom);
        let v = enc.var_for_atom(atom).unwrap();
        assert_eq!(enc.atom_for_var(v), Some(atom));
        assert_eq!(enc.atom_vars().count(), 1);
    }

    #[test]
    fn incremental_encoding_reuses_literals() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let f = store.or2(p, q);
        let l1 = enc.encode(&store, &mut sat, f);
        let l2 = enc.encode(&store, &mut sat, f);
        assert_eq!(l1, l2);
    }

    #[test]
    fn scoped_definitions_are_purged_and_reencoded() {
        let (mut store, mut sat, mut enc) = setup();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let f = store.and2(p, q);

        sat.push();
        enc.push_scope();
        let l1 = enc.encode(&store, &mut sat, f);
        enc.assert_scoped_formula(&store, &mut sat, f);
        assert_eq!(sat.solve(), SatOutcome::Sat);
        enc.pop_scope();
        sat.pop();

        // The composite's cache entry retired with the scope; atoms did not.
        let vp = enc.var_for_atom(p).unwrap();
        sat.push();
        enc.push_scope();
        let l2 = enc.encode(&store, &mut sat, f);
        assert_ne!(l1, l2, "scoped composite must be re-encoded");
        assert_eq!(enc.var_for_atom(p), Some(vp), "atom variables are stable");
        enc.assert_scoped_formula(&store, &mut sat, f);
        let nq = store.not(q);
        enc.assert_scoped_formula(&store, &mut sat, nq);
        assert_eq!(sat.solve(), SatOutcome::Unsat);
        enc.pop_scope();
        sat.pop();
        assert_eq!(sat.solve(), SatOutcome::Sat);
    }

    #[test]
    fn atoms_stay_permanent_across_scopes() {
        let (mut store, mut sat, mut enc) = setup();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let atom = store.le(zero, x);
        sat.push();
        enc.push_scope();
        let l1 = enc.encode(&store, &mut sat, atom);
        enc.pop_scope();
        sat.pop();
        let l2 = enc.encode(&store, &mut sat, atom);
        assert_eq!(l1, l2);
    }
}
