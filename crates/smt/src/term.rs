//! Hash-consed terms and formulas.
//!
//! The solver works over a single arena of terms ([`TermStore`]). Boolean
//! structure (conjunction, disjunction, negation, implication) and theory
//! atoms (integer comparisons, equalities, uninterpreted predicate
//! applications) all live in the same arena; a *formula* is simply a term of
//! sort [`Sort::Bool`].

use crate::hash::{IdMap, IdSet};
use crate::sorts::Sort;
use crate::sym::{Interner, Symbol};
use std::collections::hash_map::{Entry, RandomState};
use std::fmt;
use std::hash::BuildHasher;

/// Handle to a term inside a [`TermStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermData {
    /// Boolean constant.
    BoolConst(bool),
    /// Integer constant.
    IntConst(i64),
    /// A free variable with an explicit sort.
    Var(Symbol, Sort),
    /// Application of an uninterpreted function or predicate.
    ///
    /// The result sort is stored explicitly; a `Bool`-sorted application is an
    /// uninterpreted predicate (these are the hooks used for lazy expansion of
    /// JMatch invariants and `matches`/`ensures` clauses).
    App(Symbol, Vec<TermId>, Sort),
    /// Integer addition.
    Add(TermId, TermId),
    /// Integer subtraction.
    Sub(TermId, TermId),
    /// Integer negation.
    Neg(TermId),
    /// Multiplication by an integer constant (the only multiplication the
    /// linear fragment admits).
    MulConst(i64, TermId),
    /// `lhs <= rhs` over integers.
    Le(TermId, TermId),
    /// `lhs < rhs` over integers.
    Lt(TermId, TermId),
    /// Equality. Polymorphic: both sides must share a sort.
    Eq(TermId, TermId),
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
    /// Implication.
    Implies(TermId, TermId),
    /// Bi-implication.
    Iff(TermId, TermId),
}

/// Arena of hash-consed terms plus the symbol interner.
///
/// Hash-consing keeps each term's data once, in the arena: the table maps
/// the std-keyed (`RandomState`) hash of a term's data to the newest term
/// with that hash, older terms with the same hash are chained behind it,
/// and a lookup compares data only along that chain.
#[derive(Debug, Default, Clone)]
pub struct TermStore {
    data: Vec<TermData>,
    sorts: Vec<Sort>,
    hasher: RandomState,
    cons: IdMap<u64, TermId>,
    /// The next older term whose data has the same hash.
    same_hash: Vec<Option<TermId>>,
    interner: Interner,
    fresh_counter: u64,
    /// Every variable [`TermStore::fresh_var`] created, oldest first.
    fresh: Vec<TermId>,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a symbol name.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Resolves a symbol back to its name.
    pub fn symbol_name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no terms.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the data of a term.
    pub fn data(&self, t: TermId) -> &TermData {
        &self.data[t.index()]
    }

    /// Returns the sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    fn mk(&mut self, data: TermData, sort: Sort) -> TermId {
        let id = TermId(self.data.len() as u32);
        let older = match self.cons.entry(self.hasher.hash_one(&data)) {
            Entry::Occupied(mut e) => {
                let mut next = Some(*e.get());
                while let Some(t) = next {
                    if self.data[t.index()] == data {
                        return t;
                    }
                    next = self.same_hash[t.index()];
                }
                Some(e.insert(id))
            }
            Entry::Vacant(e) => {
                e.insert(id);
                None
            }
        };
        self.same_hash.push(older);
        self.data.push(data);
        self.sorts.push(sort);
        id
    }

    // ----- leaf builders -----

    /// The boolean constant `true`.
    pub fn tt(&mut self) -> TermId {
        self.mk(TermData::BoolConst(true), Sort::Bool)
    }

    /// The boolean constant `false`.
    pub fn ff(&mut self) -> TermId {
        self.mk(TermData::BoolConst(false), Sort::Bool)
    }

    /// An integer constant.
    pub fn int(&mut self, n: i64) -> TermId {
        self.mk(TermData::IntConst(n), Sort::Int)
    }

    /// A named free variable of the given sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        let sym = self.interner.intern(name);
        self.mk(TermData::Var(sym, sort), sort)
    }

    /// A fresh variable whose name starts with `prefix`, guaranteed not to
    /// collide with any previously created variable of this store.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        loop {
            self.fresh_counter += 1;
            let sym = self
                .interner
                .intern_fmt(format_args!("{prefix}!{}", self.fresh_counter));
            let before = self.data.len();
            let t = self.mk(TermData::Var(sym, sort), sort);
            if self.data.len() > before {
                self.fresh.push(t);
                return t;
            }
        }
    }

    /// Every variable [`TermStore::fresh_var`] has created, oldest first.
    /// A caller that notes the length before a computation finds the fresh
    /// variables it created in the tail.
    pub fn fresh_vars(&self) -> &[TermId] {
        &self.fresh
    }

    /// Application of an uninterpreted function (or predicate if `sort` is
    /// [`Sort::Bool`]).
    pub fn app(&mut self, name: &str, args: Vec<TermId>, sort: Sort) -> TermId {
        let sym = self.interner.intern(name);
        self.mk(TermData::App(sym, args, sort), sort)
    }

    // ----- arithmetic builders -----

    /// `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not integer-sorted.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_int(a, "add");
        self.expect_int(b, "add");
        self.mk(TermData::Add(a, b), Sort::Int)
    }

    /// `a - b`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not integer-sorted.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_int(a, "sub");
        self.expect_int(b, "sub");
        self.mk(TermData::Sub(a, b), Sort::Int)
    }

    /// `-a`.
    ///
    /// # Panics
    ///
    /// Panics if the argument is not integer-sorted.
    pub fn neg(&mut self, a: TermId) -> TermId {
        self.expect_int(a, "neg");
        self.mk(TermData::Neg(a), Sort::Int)
    }

    /// `c * a` for a constant `c`.
    ///
    /// # Panics
    ///
    /// Panics if the argument is not integer-sorted.
    pub fn mul_const(&mut self, c: i64, a: TermId) -> TermId {
        self.expect_int(a, "mul_const");
        self.mk(TermData::MulConst(c, a), Sort::Int)
    }

    // ----- atom builders -----

    /// `a <= b`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not integer-sorted.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_int(a, "le");
        self.expect_int(b, "le");
        self.mk(TermData::Le(a, b), Sort::Bool)
    }

    /// `a < b`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not integer-sorted.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_int(a, "lt");
        self.expect_int(b, "lt");
        self.mk(TermData::Lt(a, b), Sort::Bool)
    }

    /// `a >= b` (encoded as `b <= a`).
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a > b` (encoded as `b < a`).
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// Equality between two terms of the same sort.
    ///
    /// # Panics
    ///
    /// Panics if the argument sorts differ.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(
            self.sort(a),
            self.sort(b),
            "eq between terms of different sorts: {} vs {}",
            self.display(a),
            self.display(b)
        );
        if a == b {
            return self.tt();
        }
        // Order the operands for better hash-consing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermData::Eq(a, b), Sort::Bool)
    }

    /// Disequality (`not (a = b)`).
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    // ----- boolean builders -----

    /// Logical negation, with double negation collapsed.
    ///
    /// # Panics
    ///
    /// Panics if the argument is not boolean-sorted.
    pub fn not(&mut self, a: TermId) -> TermId {
        self.expect_bool(a, "not");
        match self.data(a) {
            TermData::BoolConst(b) => {
                let v = !*b;
                self.mk(TermData::BoolConst(v), Sort::Bool)
            }
            TermData::Not(inner) => *inner,
            _ => self.mk(TermData::Not(a), Sort::Bool),
        }
    }

    /// N-ary conjunction with constant folding.
    ///
    /// # Panics
    ///
    /// Panics if any conjunct is not boolean-sorted.
    pub fn and(&mut self, conjuncts: Vec<TermId>) -> TermId {
        let mut flat = Vec::new();
        for c in conjuncts {
            self.expect_bool(c, "and");
            match self.data(c) {
                TermData::BoolConst(true) => {}
                TermData::BoolConst(false) => return self.ff(),
                TermData::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.dedup();
        match flat.len() {
            0 => self.tt(),
            1 => flat[0],
            _ => self.mk(TermData::And(flat), Sort::Bool),
        }
    }

    /// Binary conjunction convenience.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(vec![a, b])
    }

    /// N-ary disjunction with constant folding.
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is not boolean-sorted.
    pub fn or(&mut self, disjuncts: Vec<TermId>) -> TermId {
        let mut flat = Vec::new();
        for d in disjuncts {
            self.expect_bool(d, "or");
            match self.data(d) {
                TermData::BoolConst(false) => {}
                TermData::BoolConst(true) => return self.tt(),
                TermData::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(d),
            }
        }
        flat.dedup();
        match flat.len() {
            0 => self.ff(),
            1 => flat[0],
            _ => self.mk(TermData::Or(flat), Sort::Bool),
        }
    }

    /// Binary disjunction convenience.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(vec![a, b])
    }

    /// Implication `a => b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a, "implies");
        self.expect_bool(b, "implies");
        self.mk(TermData::Implies(a, b), Sort::Bool)
    }

    /// Bi-implication `a <=> b`.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a, "iff");
        self.expect_bool(b, "iff");
        if a == b {
            return self.tt();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermData::Iff(a, b), Sort::Bool)
    }

    // ----- queries -----

    /// Whether a boolean term is a *theory atom*: an integer comparison, an
    /// equality, an uninterpreted predicate application, a boolean variable, or
    /// a boolean constant.
    pub fn is_atom(&self, t: TermId) -> bool {
        matches!(
            self.data(t),
            TermData::Le(..)
                | TermData::Lt(..)
                | TermData::Eq(..)
                | TermData::App(_, _, Sort::Bool)
                | TermData::Var(_, Sort::Bool)
                | TermData::BoolConst(_)
        )
    }

    /// Collects the free variables of a term (transitively).
    pub fn free_vars(&self, t: TermId) -> Vec<TermId> {
        let mut seen = IdSet::default();
        let mut out = Vec::new();
        self.walk(t, &mut seen, &mut |store, id| {
            if matches!(store.data(id), TermData::Var(..)) && !out.contains(&id) {
                out.push(id);
            }
        });
        out
    }

    /// Collects all theory atoms appearing in a formula.
    pub fn atoms(&self, t: TermId) -> Vec<TermId> {
        let mut seen = IdSet::default();
        let mut out = Vec::new();
        self.collect_atoms(t, &mut seen, &mut out);
        out
    }

    fn collect_atoms(&self, t: TermId, seen: &mut IdSet<TermId>, out: &mut Vec<TermId>) {
        if !seen.insert(t) {
            return;
        }
        if self.is_atom(t) {
            if !matches!(self.data(t), TermData::BoolConst(_)) {
                out.push(t);
            }
            return;
        }
        match self.data(t) {
            TermData::Not(a) => self.collect_atoms(*a, seen, out),
            TermData::And(xs) | TermData::Or(xs) => {
                for &x in xs {
                    self.collect_atoms(x, seen, out);
                }
            }
            TermData::Implies(a, b) | TermData::Iff(a, b) => {
                self.collect_atoms(*a, seen, out);
                self.collect_atoms(*b, seen, out);
            }
            _ => {}
        }
    }

    fn walk(&self, t: TermId, seen: &mut IdSet<TermId>, f: &mut impl FnMut(&TermStore, TermId)) {
        if !seen.insert(t) {
            return;
        }
        f(self, t);
        match self.data(t) {
            TermData::App(_, args, _) => {
                for &a in args {
                    self.walk(a, seen, f);
                }
            }
            TermData::Add(a, b)
            | TermData::Sub(a, b)
            | TermData::Le(a, b)
            | TermData::Lt(a, b)
            | TermData::Eq(a, b)
            | TermData::Implies(a, b)
            | TermData::Iff(a, b) => {
                self.walk(*a, seen, f);
                self.walk(*b, seen, f);
            }
            TermData::Neg(a) | TermData::MulConst(_, a) | TermData::Not(a) => {
                self.walk(*a, seen, f)
            }
            TermData::And(xs) | TermData::Or(xs) => {
                for &x in xs {
                    self.walk(x, seen, f);
                }
            }
            TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(..) => {}
        }
    }

    /// Substitutes terms for variables: every occurrence of a key of `map`
    /// (which must be a `Var`) is replaced by its value, and the result is
    /// rebuilt through the builders, so it folds as if built directly.
    ///
    /// The substitution is memoized in place: `map` gains the image of every
    /// subterm visited, so a node shared within `t`, or with the terms of
    /// earlier calls on the same map, is visited once. A subterm whose
    /// children are all unchanged is its own image.
    pub fn substitute(&mut self, t: TermId, map: &mut IdMap<TermId, TermId>) -> TermId {
        if let Some(&r) = map.get(&t) {
            return r;
        }
        let r = match self.data(t) {
            TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(..) => t,
            TermData::App(sym, args, sort) => {
                let (sym, sort) = (*sym, *sort);
                let old = args.clone();
                let args: Vec<_> = old.iter().map(|&a| self.substitute(a, map)).collect();
                if args == old {
                    t
                } else {
                    self.mk(TermData::App(sym, args, sort), sort)
                }
            }
            TermData::And(xs) | TermData::Or(xs) => {
                let is_and = matches!(self.data(t), TermData::And(_));
                let old = xs.clone();
                let xs: Vec<_> = old.iter().map(|&x| self.substitute(x, map)).collect();
                if xs == old {
                    t
                } else if is_and {
                    self.and(xs)
                } else {
                    self.or(xs)
                }
            }
            &TermData::Neg(a) => self.substitute1(t, a, map, Self::neg),
            &TermData::Not(a) => self.substitute1(t, a, map, Self::not),
            &TermData::MulConst(c, a) => self.substitute1(t, a, map, |s, a| s.mul_const(c, a)),
            &TermData::Add(a, b) => self.substitute2(t, a, b, map, Self::add),
            &TermData::Sub(a, b) => self.substitute2(t, a, b, map, Self::sub),
            &TermData::Le(a, b) => self.substitute2(t, a, b, map, Self::le),
            &TermData::Lt(a, b) => self.substitute2(t, a, b, map, Self::lt),
            &TermData::Eq(a, b) => self.substitute2(t, a, b, map, Self::eq),
            &TermData::Implies(a, b) => self.substitute2(t, a, b, map, Self::implies),
            &TermData::Iff(a, b) => self.substitute2(t, a, b, map, Self::iff),
        };
        map.insert(t, r);
        r
    }

    /// [`TermStore::substitute`] at a node `t` with one child `a`.
    fn substitute1(
        &mut self,
        t: TermId,
        a: TermId,
        map: &mut IdMap<TermId, TermId>,
        build: impl FnOnce(&mut Self, TermId) -> TermId,
    ) -> TermId {
        let x = self.substitute(a, map);
        if x == a {
            t
        } else {
            build(self, x)
        }
    }

    /// [`TermStore::substitute`] at a node `t` with children `a` and `b`.
    fn substitute2(
        &mut self,
        t: TermId,
        a: TermId,
        b: TermId,
        map: &mut IdMap<TermId, TermId>,
        build: fn(&mut Self, TermId, TermId) -> TermId,
    ) -> TermId {
        let (x, y) = (self.substitute(a, map), self.substitute(b, map));
        if (x, y) == (a, b) {
            t
        } else {
            build(self, x, y)
        }
    }

    /// Human-readable rendering of a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        match self.data(t) {
            TermData::BoolConst(b) => b.to_string(),
            TermData::IntConst(n) => n.to_string(),
            TermData::Var(sym, _) => self.symbol_name(*sym).to_owned(),
            TermData::App(sym, args, _) => {
                let args: Vec<_> = args.iter().map(|a| self.display(*a)).collect();
                format!("{}({})", self.symbol_name(*sym), args.join(", "))
            }
            TermData::Add(a, b) => format!("({} + {})", self.display(*a), self.display(*b)),
            TermData::Sub(a, b) => format!("({} - {})", self.display(*a), self.display(*b)),
            TermData::Neg(a) => format!("(- {})", self.display(*a)),
            TermData::MulConst(c, a) => format!("({} * {})", c, self.display(*a)),
            TermData::Le(a, b) => format!("({} <= {})", self.display(*a), self.display(*b)),
            TermData::Lt(a, b) => format!("({} < {})", self.display(*a), self.display(*b)),
            TermData::Eq(a, b) => format!("({} = {})", self.display(*a), self.display(*b)),
            TermData::Not(a) => format!("!{}", self.display(*a)),
            TermData::And(xs) => {
                let xs: Vec<_> = xs.iter().map(|x| self.display(*x)).collect();
                format!("({})", xs.join(" && "))
            }
            TermData::Or(xs) => {
                let xs: Vec<_> = xs.iter().map(|x| self.display(*x)).collect();
                format!("({})", xs.join(" || "))
            }
            TermData::Implies(a, b) => {
                format!("({} => {})", self.display(*a), self.display(*b))
            }
            TermData::Iff(a, b) => format!("({} <=> {})", self.display(*a), self.display(*b)),
        }
    }

    fn expect_int(&self, t: TermId, op: &str) {
        assert!(
            self.sort(t).is_int(),
            "{op}: expected Int-sorted operand, got {} : {}",
            self.display(t),
            self.sort(t)
        );
    }

    fn expect_bool(&self, t: TermId, op: &str) {
        assert!(
            self.sort(t).is_bool(),
            "{op}: expected Bool-sorted operand, got {} : {}",
            self.display(t),
            self.sort(t)
        );
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut s = TermStore::new();
        let x1 = s.var("x", Sort::Int);
        let x2 = s.var("x", Sort::Int);
        assert_eq!(x1, x2);
        let one = s.int(1);
        let a = s.add(x1, one);
        let b = s.add(x2, one);
        assert_eq!(a, b);
    }

    #[test]
    fn hash_collisions_fall_back_to_comparing_data() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        // Pretend `x` also has the hash of `y`'s data.
        let y_data = TermData::Var(s.symbol("y"), Sort::Int);
        let y_hash = s.hasher.hash_one(&y_data);
        s.cons.insert(y_hash, x);
        let y = s.var("y", Sort::Int);
        assert_ne!(x, y);
        assert_eq!(s.same_hash[y.index()], Some(x));
        assert_eq!(s.var("y", Sort::Int), y);
        assert_eq!(s.var("x", Sort::Int), x);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn folding_in_boolean_builders() {
        let mut s = TermStore::new();
        let t = s.tt();
        let f = s.ff();
        let x = s.var("p", Sort::Bool);
        assert_eq!(s.and(vec![t, x]), x);
        assert_eq!(s.and(vec![f, x]), f);
        assert_eq!(s.or(vec![f, x]), x);
        assert_eq!(s.or(vec![t, x]), t);
        let nx = s.not(x);
        assert_eq!(s.not(nx), x);
        assert_eq!(s.not(t), f);
    }

    #[test]
    fn eq_is_reflexive_true_and_symmetric() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let t = s.tt();
        assert_eq!(s.eq(x, x), t);
        assert_eq!(s.eq(x, y), s.eq(y, x));
    }

    #[test]
    #[should_panic(expected = "eq between terms of different sorts")]
    fn eq_sort_mismatch_panics() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let p = s.var("p", Sort::Bool);
        s.eq(x, p);
    }

    #[test]
    fn free_vars_and_atoms() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let zero = s.int(0);
        let a1 = s.le(zero, x);
        let a2 = s.lt(x, y);
        let f = s.and2(a1, a2);
        let vars = s.free_vars(f);
        assert!(vars.contains(&x) && vars.contains(&y));
        let atoms = s.atoms(f);
        assert_eq!(atoms.len(), 2);
        assert!(atoms.contains(&a1) && atoms.contains(&a2));
    }

    #[test]
    fn substitution_replaces_vars() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let zero = s.int(0);
        let f = s.le(zero, x);
        let mut map = IdMap::default();
        map.insert(x, y);
        let g = s.substitute(f, &mut map);
        let expected = s.le(zero, y);
        assert_eq!(g, expected);
    }

    #[test]
    fn substitution_visits_shared_nodes_once() {
        // Level i is `f(d, d)` over level i-1 `d`: 60 nodes, but 2^60 paths
        // from the root, so only a memoized walk finishes. The substituted
        // DAG must be the one built directly over the replacement.
        let mut s = TermStore::new();
        let obj = Sort::Obj(s.symbol("O"));
        let x = s.var("x", obj);
        let y = s.var("y", obj);
        let z = s.var("z", obj);
        let build = |s: &mut TermStore, leaf: TermId| {
            let mut d = leaf;
            for _ in 0..60 {
                d = s.app("f", vec![d, d], obj);
            }
            let p = s.app("p", vec![d, z], Sort::Bool);
            let q = s.eq(d, leaf);
            s.and2(p, q)
        };
        let over_x = build(&mut s, x);
        let over_y = build(&mut s, y);
        let mut map = IdMap::default();
        map.insert(x, y);
        assert_eq!(s.substitute(over_x, &mut map), over_y);
        // Every visited node is memoized (60 levels plus x, z, p, q and the
        // conjunction), and the untouched `z` maps to itself.
        assert_eq!(map.len(), 65);
        assert_eq!(map[&z], z);
        let len = s.len();
        assert_eq!(s.substitute(over_x, &mut map), over_y);
        assert_eq!(s.len(), len, "a repeated substitution builds nothing");
    }

    #[test]
    fn substitution_refolds_like_the_builders() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let y = s.var("y", Sort::Int);
        let p = s.var("p", Sort::Bool);
        let eq = s.eq(x, y);
        let ne = s.not(eq);
        let f = s.and2(ne, p);
        let mut map = IdMap::default();
        map.insert(y, x);
        // `x = x` folds to true, its negation to false, the conjunction to
        // false.
        let ff = s.ff();
        assert_eq!(s.substitute(f, &mut map), ff);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut s = TermStore::new();
        let a = s.fresh_var("k", Sort::Int);
        let b = s.fresh_var("k", Sort::Int);
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_readable() {
        let mut s = TermStore::new();
        let x = s.var("x", Sort::Int);
        let one = s.int(1);
        let sum = s.add(x, one);
        let f = s.le(sum, x);
        assert_eq!(s.display(f), "((x + 1) <= x)");
    }
}
