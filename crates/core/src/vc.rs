//! Verification-condition generation: the `F` intermediate language and the
//! translation of JMatch formulas and patterns into SMT terms (§5, Fig. 9–10).
//!
//! ## The `F` language
//!
//! [`F`] mirrors the paper's intermediate representation: quantifier-free
//! formulas extended with the right-associative *assume* operator `F₁ ▷ F₂`.
//! `F₁` records environment knowledge — bindings of solved unknowns, facts
//! from `ensures` clauses — and survives negation:
//! `negate(F₁ ▷ F₂) = F₁ ▷ negate(F₂)`.
//!
//! ## Abstraction of method calls
//!
//! A call (or constructor pattern) `m(p̄)` in mode `M` contributes two
//! uninterpreted predicates, the paper's "interpreted theory predicates"
//! (§6.2):
//!
//! * `ok$Owner$m$<mode>(knowns…)` — "the match/call succeeds". Asserted
//!   positively at the use site; the lazy expander asserts
//!   `¬ok ⇒ ¬ExtractM(matches)` when the solver sets it false.
//! * `ens$Owner$m(this?, result, args…)` — carries the `ensures` clause.
//!   Asserted behind `▷`; the expander asserts `ens ⇒ ⟦ensures⟧` when the
//!   solver sets it true.
//!
//! Type membership uses `is$T(x)` predicates whose positive expansion is the
//! conjunction of `T`'s visible invariants (plus supertype membership and
//! disjointness from unrelated concrete classes).

use crate::diag::CompileError;
use crate::table::{ClassTable, MethodInfo, Mode, ModeIndex};
use jmatch_smt::{Sort, TermId, TermStore};
use jmatch_syntax::ast::{BinOp, CmpOp, Expr, Formula, Type};
use std::collections::HashMap;
use std::sync::Arc;

/// The single uninterpreted sort used for every JMatch reference type.
/// Type membership is tracked by `is$T` predicates instead of SMT sorts so
/// that values of different static types can be compared for equality.
pub const OBJECT_SORT_NAME: &str = "JObject";

/// The paper's intermediate language `F` (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum F {
    /// Trivially true.
    True,
    /// Trivially false.
    False,
    /// An SMT-level fact.
    Smt(TermId),
    /// Conjunction.
    And(Vec<F>),
    /// Disjunction.
    Or(Vec<F>),
    /// Negation (introduced only by [`F::negate`]).
    Not(Box<F>),
    /// The assume operator `F₁ ▷ F₂`: `F₁` is environment knowledge and is
    /// never negated.
    Assume(Box<F>, Box<F>),
}

impl F {
    /// Conjunction smart constructor.
    pub fn and(items: Vec<F>) -> F {
        let mut flat = Vec::new();
        for i in items {
            match i {
                F::True => {}
                F::False => return F::False,
                F::And(xs) => flat.extend(xs),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => F::True,
            1 => flat.into_iter().next().unwrap(),
            _ => F::And(flat),
        }
    }

    /// Disjunction smart constructor.
    pub fn or(items: Vec<F>) -> F {
        let mut flat = Vec::new();
        for i in items {
            match i {
                F::False => {}
                F::True => return F::True,
                F::Or(xs) => flat.extend(xs),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => F::False,
            1 => flat.into_iter().next().unwrap(),
            _ => F::Or(flat),
        }
    }

    /// The paper's `negate`: pushes negation through the structure while
    /// leaving assume prefixes intact.
    pub fn negate(&self) -> F {
        match self {
            F::True => F::False,
            F::False => F::True,
            F::Smt(t) => F::Not(Box::new(F::Smt(*t))),
            F::And(xs) => F::or(xs.iter().map(|x| x.negate()).collect()),
            F::Or(xs) => F::and(xs.iter().map(|x| x.negate()).collect()),
            F::Not(inner) => (**inner).clone(),
            F::Assume(env, body) => F::Assume(env.clone(), Box::new(body.negate())),
        }
    }

    /// Lowers to a single SMT term (the assume operator becomes conjunction).
    pub fn lower(&self, store: &mut TermStore) -> TermId {
        match self {
            F::True => store.tt(),
            F::False => store.ff(),
            F::Smt(t) => *t,
            F::And(xs) => {
                let ts: Vec<TermId> = xs.iter().map(|x| x.lower(store)).collect();
                store.and(ts)
            }
            F::Or(xs) => {
                let ts: Vec<TermId> = xs.iter().map(|x| x.lower(store)).collect();
                store.or(ts)
            }
            F::Not(inner) => {
                let t = inner.lower(store);
                store.not(t)
            }
            F::Assume(env, body) => {
                let e = env.lower(store);
                let b = body.lower(store);
                store.and2(e, b)
            }
        }
    }
}

/// One step of a translation: either a fact subject to negation or an
/// environment fact.
#[derive(Debug, Clone)]
enum Item {
    Check(F),
    Assume(F),
}

/// An ordered sequence of translation steps, closed into an [`F`] around a
/// continuation. This realizes the paper's continuation-passing definitions
/// of `VF`/`VM`/`VP` without building closures.
#[derive(Debug, Clone, Default)]
pub struct Seq {
    items: Vec<Item>,
}

impl Seq {
    /// An empty sequence.
    pub fn new() -> Self {
        Seq::default()
    }

    fn check(&mut self, f: F) {
        self.items.push(Item::Check(f));
    }

    fn assume(&mut self, f: F) {
        self.items.push(Item::Assume(f));
    }

    /// Closes the sequence around a continuation.
    pub fn close(self, cont: F) -> F {
        let mut acc = cont;
        for item in self.items.into_iter().rev() {
            acc = match item {
                Item::Check(c) => F::and(vec![c, acc]),
                Item::Assume(a) => F::Assume(Box::new(a), Box::new(acc)),
            };
        }
        acc
    }
}

/// Variable environment for one translation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: HashMap<String, (TermId, Type)>,
    /// Names that are unknowns of the current mode: equations on them are
    /// *bindings* (assumes) rather than tests, so `negate` never blames them.
    unknowns: std::collections::HashSet<String>,
    /// The enclosing class, for resolving bare field references and
    /// receiver-less calls.
    pub self_class: Option<String>,
    /// The SMT term standing for `this`, if in scope.
    pub this_term: Option<TermId>,
    /// The SMT term standing for `result`, if in scope.
    pub result_term: Option<TermId>,
    /// Declared type of `result`, if known.
    pub result_type: Option<Type>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds a JMatch variable to an SMT term with its declared type.
    pub fn bind(&mut self, name: impl Into<String>, term: TermId, ty: Type) {
        self.vars.insert(name.into(), (term, ty));
    }

    /// Looks up a variable.
    pub fn lookup(&self, name: &str) -> Option<&(TermId, Type)> {
        self.vars.get(name)
    }

    /// Marks a name as an unknown of the current mode.
    pub fn mark_unknown(&mut self, name: impl Into<String>) {
        self.unknowns.insert(name.into());
    }

    /// Whether a name is an unknown of the current mode.
    pub fn is_unknown(&self, name: &str) -> bool {
        self.unknowns.contains(name)
    }

    /// All bound variable names.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.vars.keys()
    }
}

/// The verification-condition generator.
#[derive(Debug, Clone)]
pub struct VcGen {
    /// The resolved program.
    pub table: Arc<ClassTable>,
}

/// Result alias for translation functions.
pub type VcResult<T> = Result<T, CompileError>;

impl VcGen {
    /// Creates a generator over a class table.
    pub fn new(table: Arc<ClassTable>) -> Self {
        VcGen { table }
    }

    /// The SMT sort of a JMatch type.
    pub fn sort_of(&self, store: &mut TermStore, ty: &Type) -> Sort {
        match ty {
            Type::Int => Sort::Int,
            Type::Boolean => Sort::Bool,
            Type::Void => Sort::Bool,
            _ => Sort::Obj(store.symbol(OBJECT_SORT_NAME)),
        }
    }

    /// Creates a fresh SMT variable for a JMatch variable of the given type
    /// and binds it in the environment, together with its type-membership
    /// assumption when it is a reference type.
    pub fn declare_var(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        name: &str,
        ty: &Type,
    ) -> TermId {
        let sort = self.sort_of(store, ty);
        let term = store.fresh_var(name, sort);
        env.bind(name, term, ty.clone());
        if let Some(f) = self.type_membership(store, term, ty) {
            seq.assume(f);
        }
        term
    }

    /// The `is$T(x)` membership predicate, when `ty` is a reference type that
    /// exists in the table.
    pub fn type_membership(&self, store: &mut TermStore, term: TermId, ty: &Type) -> Option<F> {
        match ty {
            Type::Named(name) if self.table.type_info(name).is_some() => {
                let pred = store.app(&format!("is${name}"), vec![term], Sort::Bool);
                Some(F::Smt(pred))
            }
            _ => None,
        }
    }

    /// Pre-declares every variable declared inside a formula (`T x` patterns)
    /// so that bindings and uses may be translated in any order.
    pub fn declare_formula_vars(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        f: &Formula,
    ) {
        for (ty, name) in f.declared_vars() {
            if name != "_" && env.lookup(&name).is_none() {
                self.declare_var(store, env, seq, &name, &ty);
                env.mark_unknown(&name);
            }
        }
    }

    // ------------------------------------------------------------------
    // Formula translation (VF)
    // ------------------------------------------------------------------

    /// Translates a formula; facts are appended to `seq`.
    pub fn vf(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        f: &Formula,
    ) -> VcResult<()> {
        match f {
            Formula::Bool(true) => Ok(()),
            Formula::Bool(false) => {
                seq.check(F::False);
                Ok(())
            }
            Formula::And(a, b) => {
                self.vf(store, env, seq, a)?;
                self.vf(store, env, seq, b)
            }
            Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                let fa = self.vf_closed(store, env, a)?;
                let fb = self.vf_closed(store, env, b)?;
                seq.check(F::or(vec![fa, fb]));
                Ok(())
            }
            Formula::Not(inner) => {
                let fi = self.vf_closed(store, env, inner)?;
                seq.check(fi.negate());
                Ok(())
            }
            Formula::Cmp(op, lhs, rhs) => self.vf_cmp(store, env, seq, *op, lhs, rhs),
            Formula::Atom(e) => self.vf_atom(store, env, seq, e),
        }
    }

    /// Translates a formula into a self-contained `F` (its own sequence,
    /// closed with `true`). Used for disjunction branches and negation.
    pub fn vf_closed(&self, store: &mut TermStore, env: &mut Env, f: &Formula) -> VcResult<F> {
        let mut sub = Seq::new();
        let mut env2 = env.clone();
        self.declare_formula_vars(store, &mut env2, &mut sub, f);
        self.vf(store, &mut env2, &mut sub, f)?;
        // Bindings made in the branch remain visible to later formulas that
        // use the same names only through the shared pre-declared variables
        // of the caller; locally declared ones stay branch-local.
        Ok(sub.close(F::True))
    }

    fn vf_cmp(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> VcResult<()> {
        // Tuple equations decompose componentwise.
        if op == CmpOp::Eq {
            if let (Expr::Tuple(ls), Expr::Tuple(rs)) = (lhs, rhs) {
                if ls.len() == rs.len() {
                    for (l, r) in ls.iter().zip(rs.iter()) {
                        self.vf_cmp(store, env, seq, CmpOp::Eq, l, r)?;
                    }
                    return Ok(());
                }
            }
            // Distribute over pattern disjunction on either side.
            if let Expr::DisjointOr(a, b) | Expr::OrPat(a, b) = rhs {
                let fa = self.eq_closed(store, env, lhs, a)?;
                let fb = self.eq_closed(store, env, lhs, b)?;
                seq.check(F::or(vec![fa, fb]));
                return Ok(());
            }
            if let Expr::DisjointOr(a, b) | Expr::OrPat(a, b) = lhs {
                let fa = self.eq_closed(store, env, a, rhs)?;
                let fb = self.eq_closed(store, env, b, rhs)?;
                seq.check(F::or(vec![fa, fb]));
                return Ok(());
            }
        }
        match op {
            CmpOp::Eq => self.unify(store, env, seq, lhs, rhs),
            CmpOp::Ne => {
                let (l, _) = self.tr_value(store, env, seq, lhs)?;
                let (r, _) = self.tr_value(store, env, seq, rhs)?;
                let eq = self.safe_eq(store, l, r);
                let ne = store.not(eq);
                seq.check(F::Smt(ne));
                Ok(())
            }
            CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt => {
                let (l, _) = self.tr_value(store, env, seq, lhs)?;
                let (r, _) = self.tr_value(store, env, seq, rhs)?;
                // Ordering only exists on integers; if static typing could not
                // pin both sides down to Int, fall back to an uninterpreted
                // comparison atom instead of a malformed term.
                let atom = if store.sort(l).is_int() && store.sort(r).is_int() {
                    match op {
                        CmpOp::Le => store.le(l, r),
                        CmpOp::Lt => store.lt(l, r),
                        CmpOp::Ge => store.ge(l, r),
                        CmpOp::Gt => store.gt(l, r),
                        _ => unreachable!(),
                    }
                } else {
                    store.app(&format!("cmp${op:?}"), vec![l, r], Sort::Bool)
                };
                seq.check(F::Smt(atom));
                Ok(())
            }
        }
    }

    fn eq_closed(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        lhs: &Expr,
        rhs: &Expr,
    ) -> VcResult<F> {
        let mut sub = Seq::new();
        let mut env2 = env.clone();
        self.vf_cmp(store, &mut env2, &mut sub, CmpOp::Eq, lhs, rhs)?;
        Ok(sub.close(F::True))
    }

    /// Solves `lhs = rhs`. When one side is a binder (declaration pattern,
    /// `result`, or an unknown variable) it is bound to the other side's
    /// value via an assume; otherwise both sides are evaluated and equated.
    fn unify(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        lhs: &Expr,
        rhs: &Expr,
    ) -> VcResult<()> {
        // Prefer treating a constructor-like pattern as the *matcher* and the
        // other side as the value.
        let lhs_binder = self.is_binder(env, lhs);
        let rhs_binder = self.is_binder(env, rhs);
        match (lhs_binder, rhs_binder) {
            (true, false) => {
                let (v, ty) = self.tr_value(store, env, seq, rhs)?;
                self.tr_match(store, env, seq, lhs, v, &ty)
            }
            (false, true) => {
                let (v, ty) = self.tr_value(store, env, seq, lhs)?;
                self.tr_match(store, env, seq, rhs, v, &ty)
            }
            _ => {
                // Either both sides are fully known, or both bind: evaluate
                // both (binders become fresh values) and equate.
                if matches!(lhs, Expr::Call { .. }) && !matches!(rhs, Expr::Call { .. }) {
                    let (v, ty) = self.tr_value(store, env, seq, rhs)?;
                    return self.tr_match(store, env, seq, lhs, v, &ty);
                }
                if matches!(rhs, Expr::Call { .. }) && !matches!(lhs, Expr::Call { .. }) {
                    let (v, ty) = self.tr_value(store, env, seq, lhs)?;
                    return self.tr_match(store, env, seq, rhs, v, &ty);
                }
                let (l, _) = self.tr_value(store, env, seq, lhs)?;
                let (r, _) = self.tr_value(store, env, seq, rhs)?;
                let eq = self.safe_eq(store, l, r);
                seq.check(F::Smt(eq));
                Ok(())
            }
        }
    }

    /// Whether an expression is a pure binder (its match always succeeds by
    /// binding): a declaration pattern, wildcard, or `result` when `result`
    /// is an unknown of the current mode.
    fn is_binder(&self, env: &Env, e: &Expr) -> bool {
        match e {
            Expr::Decl(..) | Expr::Wildcard => true,
            Expr::Result => env.result_term.is_none(),
            Expr::Var(name) => {
                if env.is_unknown(name) {
                    return true;
                }
                if env.lookup(name).is_some() {
                    return false;
                }
                // A bare field of the enclosing class is a known value, not a
                // binder.
                if let Some(class) = &env.self_class {
                    if self.table.field_type(class, name).is_some() {
                        return false;
                    }
                }
                true
            }
            Expr::Tuple(xs) => xs.iter().any(|x| self.is_binder(env, x)),
            _ => false,
        }
    }

    fn vf_atom(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        e: &Expr,
    ) -> VcResult<()> {
        match e {
            // The opaque `notall` predicate: sound to treat as true (§4.5).
            Expr::Call {
                receiver: None,
                name,
                ..
            } if name == "notall" => Ok(()),
            Expr::Call { .. } => {
                let (value, _) = self.tr_value(store, env, seq, e)?;
                // A predicate-position call must produce `true`.
                if store.sort(value).is_bool() {
                    seq.check(F::Smt(value));
                }
                Ok(())
            }
            Expr::BoolLit(b) => {
                if !*b {
                    seq.check(F::False);
                }
                Ok(())
            }
            Expr::Decl(..) => {
                // An uninitialized declaration (`Nat n;`): the variable was
                // already pre-declared; nothing to check.
                Ok(())
            }
            other => {
                let (value, ty) = self.tr_value(store, env, seq, other)?;
                if matches!(ty, Type::Boolean) {
                    seq.check(F::Smt(value));
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Value translation (VP) and match translation (VM)
    // ------------------------------------------------------------------

    /// Translates an expression in value position, returning its SMT term and
    /// static type. Calls use their forward (construction) mode.
    pub fn tr_value(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        e: &Expr,
    ) -> VcResult<(TermId, Type)> {
        match e {
            Expr::IntLit(n) => Ok((store.int(*n), Type::Int)),
            Expr::BoolLit(b) => Ok((if *b { store.tt() } else { store.ff() }, Type::Boolean)),
            Expr::Null => {
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                Ok((store.var("null", sort), Type::Object))
            }
            Expr::StrLit(s) => {
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                Ok((store.var(&format!("str${s}"), sort), Type::Object))
            }
            Expr::This => match (env.this_term, env.self_class.clone()) {
                (Some(t), Some(c)) => Ok((t, Type::Named(c))),
                _ => Err(self.err(env, "`this` is not in scope")),
            },
            Expr::Result => match env.result_term {
                Some(t) => Ok((t, env.result_type.clone().unwrap_or(Type::Object))),
                None => {
                    // `result` used as an unknown: pre-declare it.
                    let ty = env.result_type.clone().unwrap_or(Type::Object);
                    let sort = self.sort_of(store, &ty);
                    let t = store.fresh_var("result", sort);
                    env.result_term = Some(t);
                    if let Some(f) = self.type_membership(store, t, &ty) {
                        seq.assume(f);
                    }
                    Ok((t, ty))
                }
            },
            Expr::Wildcard => {
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                Ok((store.fresh_var("wild", sort), Type::Object))
            }
            Expr::Var(name) => self.resolve_var(store, env, seq, name),
            Expr::Decl(ty, name) => {
                if name == "_" {
                    let sort = self.sort_of(store, ty);
                    let t = store.fresh_var("wild", sort);
                    if let Some(f) = self.type_membership(store, t, ty) {
                        seq.assume(f);
                    }
                    return Ok((t, ty.clone()));
                }
                match env.lookup(name) {
                    Some((t, tty)) => Ok((*t, tty.clone())),
                    None => {
                        let t = self.declare_var(store, env, seq, name, ty);
                        Ok((t, ty.clone()))
                    }
                }
            }
            Expr::Field(base, field) => {
                let (b, bty) = self.tr_value(store, env, seq, base)?;
                self.field_term(store, seq, b, &bty, field)
            }
            Expr::Binary(op, a, b) => {
                let (ta, _) = self.tr_value(store, env, seq, a)?;
                let (tb, _) = self.tr_value(store, env, seq, b)?;
                let t = self.arith(store, *op, ta, tb);
                Ok((t, Type::Int))
            }
            Expr::Neg(a) => {
                let (ta, _) = self.tr_value(store, env, seq, a)?;
                let t = if store.sort(ta).is_int() {
                    store.neg(ta)
                } else {
                    store.app("arith$Neg", vec![ta], Sort::Int)
                };
                Ok((t, Type::Int))
            }
            Expr::Index(base, idx) => {
                let (b, _) = self.tr_value(store, env, seq, base)?;
                let (i, _) = self.tr_value(store, env, seq, idx)?;
                // Arrays are abstracted as an uninterpreted select function.
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                Ok((store.app("select", vec![b, i], sort), Type::Object))
            }
            Expr::NewArray(ty, len) => {
                let (l, _) = self.tr_value(store, env, seq, len)?;
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                let arr = store.app("newarray", vec![l], sort);
                Ok((arr, Type::Array(Box::new(ty.clone()))))
            }
            Expr::Tuple(xs) => {
                // Tuples are not first-class; in value position they become an
                // uninterpreted tuple constructor (only compared componentwise
                // before reaching here).
                let mut parts = Vec::new();
                for x in xs {
                    parts.push(self.tr_value(store, env, seq, x)?.0);
                }
                let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                Ok((store.app("tuple", parts, sort), Type::Object))
            }
            Expr::As(a, b) => {
                let (va, ty) = self.tr_value(store, env, seq, a)?;
                self.tr_match(store, env, seq, b, va, &ty)?;
                Ok((va, ty))
            }
            Expr::OrPat(a, _) | Expr::DisjointOr(a, _) => {
                // In pure value position, over-approximate with the first arm
                // (the disjunction is handled where it matters: matching and
                // comparisons).
                self.tr_value(store, env, seq, a)
            }
            Expr::Where(p, f) => {
                let (v, ty) = self.tr_value(store, env, seq, p)?;
                self.vf(store, env, seq, f)?;
                Ok((v, ty))
            }
            Expr::Call { .. } => self.tr_call(store, env, seq, e, None),
        }
    }

    /// Matches a pattern against a known value (`VM`).
    pub fn tr_match(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        pattern: &Expr,
        value: TermId,
        value_ty: &Type,
    ) -> VcResult<()> {
        match pattern {
            Expr::Wildcard => Ok(()),
            Expr::Decl(ty, name) => {
                if name == "_" {
                    if let Some(f) = self.type_membership(store, value, ty) {
                        seq.check(f);
                    }
                    return Ok(());
                }
                let existing = env.lookup(name).cloned();
                match existing {
                    Some((t, _)) => {
                        let eq = self.safe_eq(store, t, value);
                        seq.assume(F::Smt(eq));
                    }
                    None => {
                        env.bind(name, value, ty.clone());
                    }
                }
                if let Some(f) = self.type_membership(store, value, ty) {
                    // A declaration pattern with a narrower type acts as a
                    // type test (instanceof) on the matched value.
                    if ty.name() != value_ty.name() {
                        seq.check(f);
                    } else {
                        seq.assume(f);
                    }
                }
                Ok(())
            }
            Expr::Var(name) => match env.lookup(name).cloned() {
                Some((t, _)) => {
                    let eq = self.safe_eq(store, t, value);
                    if env.is_unknown(name) {
                        seq.assume(F::Smt(eq));
                    } else {
                        seq.check(F::Smt(eq));
                    }
                    Ok(())
                }
                None => {
                    env.bind(name, value, value_ty.clone());
                    Ok(())
                }
            },
            Expr::Result => match env.result_term {
                Some(t) => {
                    let eq = self.safe_eq(store, t, value);
                    seq.check(F::Smt(eq));
                    Ok(())
                }
                None => {
                    env.result_term = Some(value);
                    Ok(())
                }
            },
            Expr::As(a, b) => {
                self.tr_match(store, env, seq, a, value, value_ty)?;
                self.tr_match(store, env, seq, b, value, value_ty)
            }
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                let fa = self.match_closed(store, env, a, value, value_ty)?;
                let fb = self.match_closed(store, env, b, value, value_ty)?;
                seq.check(F::or(vec![fa, fb]));
                Ok(())
            }
            Expr::Where(p, f) => {
                self.tr_match(store, env, seq, p, value, value_ty)?;
                self.vf(store, env, seq, f)
            }
            Expr::Tuple(xs) => {
                // Matching a tuple against a single value: abstract the value
                // as an uninterpreted tuple and match componentwise.
                for (i, x) in xs.iter().enumerate() {
                    let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
                    let proj = store.app(&format!("proj{i}"), vec![value], sort);
                    self.tr_match(store, env, seq, x, proj, &Type::Object)?;
                }
                Ok(())
            }
            Expr::Call { .. } => {
                self.tr_call(store, env, seq, pattern, Some((value, value_ty.clone())))?;
                Ok(())
            }
            // Any other expression form: evaluate and compare.
            other => {
                let (v, _) = self.tr_value(store, env, seq, other)?;
                let eq = self.safe_eq(store, v, value);
                seq.check(F::Smt(eq));
                Ok(())
            }
        }
    }

    fn match_closed(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        pattern: &Expr,
        value: TermId,
        value_ty: &Type,
    ) -> VcResult<F> {
        let mut sub = Seq::new();
        let mut env2 = env.clone();
        self.tr_match(store, &mut env2, &mut sub, pattern, value, value_ty)?;
        Ok(sub.close(F::True))
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Translates a call. `match_target` is `Some((value, type))` when the
    /// call is a pattern matched against a known value (backward mode);
    /// `None` when it constructs / computes a value (forward mode).
    ///
    /// Returns the term standing for the call's result.
    fn tr_call(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        call: &Expr,
        match_target: Option<(TermId, Type)>,
    ) -> VcResult<(TermId, Type)> {
        let Expr::Call {
            receiver,
            name,
            args,
        } = call
        else {
            return Err(self.err(env, "internal: tr_call on a non-call"));
        };

        // `freshVar` and other unresolvable helpers become uninterpreted.
        let resolved = self.resolve_call(env, receiver.as_deref(), name, &match_target);
        let Some((owner, minfo)) = resolved else {
            // Unknown method: model the result as an uninterpreted function of
            // the arguments (sound over-approximation).
            let mut arg_terms = Vec::new();
            if let Some(r) = receiver {
                arg_terms.push(self.tr_value(store, env, seq, r)?.0);
            }
            for a in args {
                arg_terms.push(self.tr_value(store, env, seq, a)?.0);
            }
            let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
            let t = store.app(&format!("fun${name}"), arg_terms, sort);
            return Ok((t, Type::Object));
        };

        let result_ty = minfo.result_type();

        // Work out which argument positions are outputs (contain binders) and
        // find a matching mode.
        let arg_is_output: Vec<bool> = args.iter().map(|a| self.is_output_arg(env, a)).collect();
        let unknown_params: Vec<String> = minfo
            .decl
            .params
            .iter()
            .zip(arg_is_output.iter())
            .filter(|(_, out)| **out)
            .map(|(p, _)| p.name.clone())
            .collect();
        let result_unknown = match_target.is_none();
        let mode_idx = minfo
            .find_mode(&unknown_params, result_unknown)
            .or_else(|| minfo.find_mode(&unknown_params, !result_unknown))
            .unwrap_or(0);
        let mode = &minfo.modes[mode_idx];

        // Receiver value. For named constructors the receiver *is* the value
        // being matched (or the constructed result).
        let receiver_term: Option<TermId> = match receiver.as_deref() {
            Some(Expr::Var(v)) if self.table.type_info(v).is_some() => None, // static call
            Some(r) => Some(self.tr_value(store, env, seq, r)?.0),
            None => None,
        };

        // The result / matched value.
        let (result_term, is_fresh_result) = match &match_target {
            Some((v, _)) => (*v, false),
            None => {
                let sort = self.sort_of(store, &result_ty);
                (store.fresh_var(&format!("{name}$res"), sort), true)
            }
        };
        if is_fresh_result {
            if let Some(f) = self.type_membership(store, result_term, &result_ty) {
                seq.assume(f);
            }
        } else if let Some(f) = self.type_membership(store, result_term, &result_ty) {
            // Matching against a value: membership in the constructor's owner
            // type is a requirement.
            seq.check(f);
        }

        // Named constructors invoked on an explicit object receiver act as
        // predicates on that receiver: the receiver is the matched value.
        let subject = if minfo.is_named_constructor() {
            match (receiver_term, &match_target) {
                (Some(r), None) => r,
                _ => match (&match_target, env.this_term) {
                    (Some((v, _)), _) => *v,
                    (None, _) => result_term,
                },
            }
        } else {
            result_term
        };
        // Receiverless named-constructor *predicates* (e.g. `zero()` inside an
        // invariant) default their subject to `this`.
        let subject = if minfo.is_named_constructor()
            && receiver_term.is_none()
            && match_target.is_none()
            && !self.call_constructs(receiver.as_deref())
        {
            env.this_term.unwrap_or(subject)
        } else {
            subject
        };

        // Translate arguments: known args are values; output args are matched
        // against fresh output variables afterwards.
        let mut known_args: Vec<(usize, TermId)> = Vec::new();
        let mut output_terms: Vec<(usize, TermId)> = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let param_ty = minfo
                .decl
                .params
                .get(i)
                .map(|p| p.ty.clone())
                .unwrap_or(Type::Object);
            if arg_is_output.get(i).copied().unwrap_or(false)
                && mode.unknown_params.contains(
                    &minfo
                        .decl
                        .params
                        .get(i)
                        .map(|p| p.name.clone())
                        .unwrap_or_default(),
                )
            {
                let sort = self.sort_of(store, &param_ty);
                let out = store.fresh_var(&format!("{name}$out{i}"), sort);
                if let Some(f) = self.type_membership(store, out, &param_ty) {
                    seq.assume(f);
                }
                output_terms.push((i, out));
            } else {
                let (t, _) = self.tr_value(store, env, seq, a)?;
                known_args.push((i, t));
            }
        }

        // ok$ predicate over the knowns of this mode.
        let ok_args = {
            let mut v = Vec::new();
            if !mode.result_unknown || match_target.is_some() {
                v.push(subject);
            }
            for (_, t) in &known_args {
                v.push(*t);
            }
            v
        };
        let ok_name = format!("ok${owner}${name}$m{mode_idx}");
        let ok_atom = store.app(&ok_name, ok_args, Sort::Bool);
        seq.check(F::Smt(ok_atom));

        // ens$ predicate over everything (result + all argument terms).
        let mut ens_args = vec![subject];
        for (i, _) in minfo.decl.params.iter().enumerate() {
            if let Some((_, t)) = known_args.iter().find(|(k, _)| *k == i) {
                ens_args.push(*t);
            } else if let Some((_, t)) = output_terms.iter().find(|(k, _)| *k == i) {
                ens_args.push(*t);
            }
        }
        let ens_name = format!("ens${owner}${name}");
        let ens_atom = store.app(&ens_name, ens_args, Sort::Bool);
        seq.assume(F::Smt(ens_atom));

        // Bind the output argument patterns against the fresh output values.
        for (i, out) in &output_terms {
            let param_ty = minfo
                .decl
                .params
                .get(*i)
                .map(|p| p.ty.clone())
                .unwrap_or(Type::Object);
            self.tr_match(store, env, seq, &args[*i], *out, &param_ty)?;
        }

        Ok((result_term, result_ty))
    }

    /// Whether a receiverless named-constructor call is a construction
    /// (`Class.name(...)` style is handled by the receiver being a type name
    /// and is always a construction).
    fn call_constructs(&self, receiver: Option<&Expr>) -> bool {
        matches!(receiver, Some(Expr::Var(v)) if self.table.type_info(v).is_some())
    }

    /// Whether an argument expression contains binders (so that the
    /// corresponding parameter is an output of the call).
    fn is_output_arg(&self, env: &Env, e: &Expr) -> bool {
        match e {
            Expr::Decl(..) => true,
            Expr::Wildcard => true,
            Expr::Var(name) => env.lookup(name).is_none() || env.is_unknown(name),
            Expr::Result => env.result_term.is_none(),
            Expr::Tuple(xs) => xs.iter().any(|x| self.is_output_arg(env, x)),
            Expr::As(a, b) => self.is_output_arg(env, a) || self.is_output_arg(env, b),
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                self.is_output_arg(env, a) && self.is_output_arg(env, b)
            }
            Expr::Where(p, _) => self.is_output_arg(env, p),
            Expr::Call { args, .. } => args.iter().any(|a| self.is_output_arg(env, a)),
            _ => false,
        }
    }

    /// Resolves a call to its owner type and method info.
    fn resolve_call(
        &self,
        env: &Env,
        receiver: Option<&Expr>,
        name: &str,
        match_target: &Option<(TermId, Type)>,
    ) -> Option<(String, &MethodInfo)> {
        // Static receiver: `Class.name(...)`.
        if let Some(Expr::Var(class)) = receiver {
            if self.table.type_info(class).is_some() {
                if let Some(m) = self.table.lookup_method(class, name) {
                    return Some((class.clone(), m));
                }
            }
        }
        // Instance receiver: resolve through its static type.
        if let Some(r) = receiver {
            if let Some(ty_name) = self.static_type_name(env, r) {
                if let Some(m) = self.table.lookup_method(&ty_name, name) {
                    return Some((ty_name, m));
                }
            }
        }
        // Matching a value: resolve through the value's static type.
        if let Some((_, Type::Named(ty_name))) = match_target {
            if let Some(m) = self.table.lookup_method(ty_name, name) {
                return Some((ty_name.clone(), m));
            }
        }
        // Class constructor: `ZNat(...)`.
        if self.table.type_info(name).is_some() {
            if let Some(m) = self.table.lookup_class_constructor(name) {
                return Some((name.to_owned(), m));
            }
        }
        // Enclosing class.
        if let Some(c) = &env.self_class {
            if let Some(m) = self.table.lookup_method(c, name) {
                return Some((m.owner.clone(), m));
            }
        }
        // Free-standing methods.
        if let Some(m) = self.table.lookup_free_method(name) {
            return Some(("<toplevel>".into(), m));
        }
        // Any type declaring it (last resort, keeps modularity of naming by
        // using the declaring owner).
        for t in self.table.types() {
            if let Some(m) = t.methods.iter().find(|m| m.decl.name == name) {
                return Some((m.owner.clone(), m));
            }
        }
        None
    }

    /// Static type of an expression when cheaply derivable (variables,
    /// `this`, fields).
    fn static_type_name(&self, env: &Env, e: &Expr) -> Option<String> {
        match e {
            Expr::This => env.self_class.clone(),
            Expr::Result => env.result_type.as_ref().and_then(|t| match t {
                Type::Named(n) => Some(n.clone()),
                _ => None,
            }),
            Expr::Var(name) | Expr::Decl(_, name) => match env.lookup(name) {
                Some((_, Type::Named(n))) => Some(n.clone()),
                _ => None,
            },
            Expr::Field(base, field) => {
                let base_ty = self.static_type_name(env, base)?;
                match self.table.field_type(&base_ty, field) {
                    Some(Type::Named(n)) => Some(n),
                    _ => None,
                }
            }
            Expr::Call { receiver, name, .. } => {
                let owner = if let Some(Expr::Var(class)) = receiver.as_deref() {
                    if self.table.type_info(class).is_some() {
                        Some(class.clone())
                    } else {
                        None
                    }
                } else {
                    receiver
                        .as_deref()
                        .and_then(|r| self.static_type_name(env, r))
                };
                let owner = owner.or_else(|| env.self_class.clone())?;
                match self.table.lookup_method(&owner, name)?.result_type() {
                    Type::Named(n) => Some(n),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn resolve_var(
        &self,
        store: &mut TermStore,
        env: &mut Env,
        seq: &mut Seq,
        name: &str,
    ) -> VcResult<(TermId, Type)> {
        if let Some((t, ty)) = env.lookup(name) {
            return Ok((*t, ty.clone()));
        }
        // A bare field reference inside the enclosing class.
        if let (Some(class), Some(this)) = (env.self_class.clone(), env.this_term) {
            if self.table.field_type(&class, name).is_some() {
                return self.field_term(store, seq, this, &Type::Named(class), name);
            }
        }
        // A class name used as a value (e.g. in `Class.method()` the receiver
        // is handled elsewhere; reaching here means it is used oddly).
        if self.table.type_info(name).is_some() {
            let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
            return Ok((store.var(&format!("class${name}"), sort), Type::Object));
        }
        // Unknown variable: introduce it as an unconstrained value so that
        // verification can proceed (the runtime would reject this program).
        let sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
        let t = store.fresh_var(name, sort);
        env.bind(name, t, Type::Object);
        Ok((t, Type::Object))
    }

    /// A field access as an uninterpreted function of the object.
    fn field_term(
        &self,
        store: &mut TermStore,
        seq: &mut Seq,
        base: TermId,
        base_ty: &Type,
        field: &str,
    ) -> VcResult<(TermId, Type)> {
        let owner = base_ty.name();
        let fty = self.table.field_type(&owner, field).unwrap_or(Type::Object);
        let sort = self.sort_of(store, &fty);
        let t = store.app(&format!("field${owner}${field}"), vec![base], sort);
        if let Some(f) = self.type_membership(store, t, &fty) {
            seq.assume(f);
        }
        Ok((t, fty))
    }

    /// Equality that tolerates sort mismatches (which can arise when static
    /// types cannot be tracked precisely): mismatched sorts become an
    /// uninterpreted equality atom instead of panicking.
    fn safe_eq(&self, store: &mut TermStore, a: TermId, b: TermId) -> TermId {
        if store.sort(a) == store.sort(b) {
            store.eq(a, b)
        } else {
            store.app("eq$mixed", vec![a, b], Sort::Bool)
        }
    }

    fn arith(&self, store: &mut TermStore, op: BinOp, a: TermId, b: TermId) -> TermId {
        use jmatch_smt::TermData;
        if !store.sort(a).is_int() || !store.sort(b).is_int() {
            // Arithmetic over something static typing could not resolve to an
            // integer: abstract it as an uninterpreted function.
            return store.app(&format!("arith${op:?}"), vec![a, b], Sort::Int);
        }
        match op {
            BinOp::Add => store.add(a, b),
            BinOp::Sub => store.sub(a, b),
            BinOp::Mul => {
                // Only multiplication by a constant stays linear.
                if let TermData::IntConst(c) = *store.data(a) {
                    store.mul_const(c, b)
                } else if let TermData::IntConst(c) = *store.data(b) {
                    store.mul_const(c, a)
                } else {
                    store.app("mul", vec![a, b], Sort::Int)
                }
            }
            BinOp::Div => store.app("div", vec![a, b], Sort::Int),
            BinOp::Rem => store.app("rem", vec![a, b], Sort::Int),
        }
    }

    fn err(&self, env: &Env, message: impl Into<String>) -> CompileError {
        CompileError {
            message: message.into(),
            context: env
                .self_class
                .clone()
                .unwrap_or_else(|| "<toplevel>".into()),
        }
    }

    // ------------------------------------------------------------------
    // Spec lookup helpers shared with the expander
    // ------------------------------------------------------------------

    /// The `matches` clause of a method, falling back to the declaration in a
    /// supertype (specification inheritance).
    pub fn matches_clause<'a>(&'a self, owner: &str, minfo: &'a MethodInfo) -> Option<&'a Formula> {
        minfo
            .decl
            .matches
            .as_ref()
            .or_else(|| self.inherited_spec(owner, &minfo.decl.name, |m| m.decl.matches.as_ref()))
    }

    /// The `ensures` clause of a method, falling back to a supertype.
    pub fn ensures_clause<'a>(&'a self, owner: &str, minfo: &'a MethodInfo) -> Option<&'a Formula> {
        minfo
            .decl
            .ensures
            .as_ref()
            .or_else(|| self.inherited_spec(owner, &minfo.decl.name, |m| m.decl.ensures.as_ref()))
    }

    fn inherited_spec<'a>(
        &'a self,
        owner: &str,
        name: &str,
        get: impl Fn(&'a MethodInfo) -> Option<&'a Formula> + Copy,
    ) -> Option<&'a Formula> {
        let info = self.table.type_info(owner)?;
        for sup in &info.supertypes {
            if let Some(m) = self.table.lookup_method(sup, name) {
                if let Some(f) = get(m) {
                    return Some(f);
                }
            }
            if let Some(f) = self.inherited_spec(sup, name, get) {
                return Some(f);
            }
        }
        None
    }

    /// The knowns (names) of a mode, in the canonical order used by the `ok$`
    /// predicate arguments: the subject (`result`) first when known, then the
    /// known parameters in declaration order.
    pub fn mode_knowns(&self, minfo: &MethodInfo, mode: &Mode, mode_idx: ModeIndex) -> Vec<String> {
        let _ = mode_idx;
        let mut out = Vec::new();
        if !mode.result_unknown {
            out.push("result".to_owned());
        }
        for p in &minfo.decl.params {
            if mode.param_is_known(&p.name) {
                out.push(p.name.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use jmatch_syntax::{parse_formula, parse_program};

    fn setup(src: &str) -> (VcGen, TermStore) {
        let program = parse_program(src).unwrap();
        let mut d = Diagnostics::new();
        let table = ClassTable::build(&program, &mut d);
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        (VcGen::new(table), TermStore::new())
    }

    const NAT_SRC: &str = r#"
        interface Nat {
            invariant(this = zero() | succ(_));
            constructor zero() returns();
            constructor succ(Nat n) returns(n);
        }
    "#;

    #[test]
    fn negate_keeps_assumes() {
        let mut store = TermStore::new();
        let x = store.var("x", Sort::Int);
        let zero = store.int(0);
        let bind = F::Smt(store.eq(x, zero));
        let check = F::Smt(store.le(zero, x));
        let f = F::Assume(Box::new(bind.clone()), Box::new(check.clone()));
        let neg = f.negate();
        match neg {
            F::Assume(env, body) => {
                assert_eq!(*env, bind);
                assert_eq!(*body, F::Not(Box::new(check)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn lower_conjunction_structure() {
        let mut store = TermStore::new();
        let p = store.var("p", Sort::Bool);
        let q = store.var("q", Sort::Bool);
        let f = F::and(vec![
            F::Smt(p),
            F::Assume(Box::new(F::Smt(q)), Box::new(F::True)),
        ]);
        let lowered = f.lower(&mut store);
        let expected = store.and2(p, q);
        assert_eq!(lowered, expected);
    }

    #[test]
    fn translating_nat_case_produces_ok_predicate() {
        let (gen, mut store) = setup(NAT_SRC);
        let mut env = Env::new();
        let mut seq = Seq::new();
        let n = gen.declare_var(
            &mut store,
            &mut env,
            &mut seq,
            "n",
            &Type::Named("Nat".into()),
        );
        // n = succ(Nat k)
        let f = parse_formula("n = succ(Nat k)").unwrap();
        gen.declare_formula_vars(&mut store, &mut env, &mut seq, &f);
        gen.vf(&mut store, &mut env, &mut seq, &f).unwrap();
        let lowered = seq.close(F::True).lower(&mut store);
        let text = store.display(lowered);
        assert!(text.contains("ok$Nat$succ$m1"), "{text}");
        assert!(text.contains("ens$Nat$succ"), "{text}");
        assert!(text.contains("is$Nat"), "{text}");
        let _ = n;
    }

    #[test]
    fn invariant_translation_is_disjunction_of_constructors() {
        let (gen, mut store) = setup(NAT_SRC);
        let nat = gen.table.type_info("Nat").unwrap();
        let inv = &nat.invariants[0].formula;
        let mut env = Env::new();
        let mut seq = Seq::new();
        let this_sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
        let this = store.var("self", this_sort);
        env.this_term = Some(this);
        env.self_class = Some("Nat".into());
        gen.vf(&mut store, &mut env, &mut seq, inv).unwrap();
        let lowered = seq.close(F::True).lower(&mut store);
        let text = store.display(lowered);
        assert!(text.contains("ok$Nat$zero"), "{text}");
        assert!(text.contains("ok$Nat$succ"), "{text}");
        assert!(text.contains("||"), "{text}");
    }

    #[test]
    fn comparisons_become_arithmetic_atoms() {
        let (gen, mut store) = setup("class C { int val; }");
        let mut env = Env::new();
        let mut seq = Seq::new();
        env.self_class = Some("C".into());
        let this_sort = Sort::Obj(store.symbol(OBJECT_SORT_NAME));
        let this = store.var("self", this_sort);
        env.this_term = Some(this);
        let f = parse_formula("val >= 1 && val - 1 <= 10").unwrap();
        gen.vf(&mut store, &mut env, &mut seq, &f).unwrap();
        let lowered = seq.close(F::True).lower(&mut store);
        let text = store.display(lowered);
        assert!(text.contains("field$C$val"), "{text}");
        assert!(text.contains("<="), "{text}");
    }

    #[test]
    fn binder_side_is_assumed_not_checked() {
        let (gen, mut store) = setup("");
        let mut env = Env::new();
        let mut seq = Seq::new();
        // y is known; `int x = y - 1` binds x.
        let y = store.var("y", Sort::Int);
        env.bind("y", y, Type::Int);
        let f = parse_formula("int x = y - 1 && x > 0").unwrap();
        gen.declare_formula_vars(&mut store, &mut env, &mut seq, &f);
        gen.vf(&mut store, &mut env, &mut seq, &f).unwrap();
        let closed = seq.close(F::True);
        // Negating the whole thing should leave the binding intact (the
        // binding is environment knowledge); only the test `x > 0` flips.
        let neg = closed.negate().lower(&mut store);
        let text = store.display(neg);
        assert!(text.contains("="), "{text}");
        assert!(text.contains('!'), "the check must be negated: {text}");
    }

    #[test]
    fn or_pattern_translates_to_disjunction() {
        let (gen, mut store) = setup("");
        let mut env = Env::new();
        let mut seq = Seq::new();
        let x = store.var("x", Sort::Int);
        env.bind("x", x, Type::Int);
        let f = parse_formula("x = 1 | 2").unwrap();
        gen.vf(&mut store, &mut env, &mut seq, &f).unwrap();
        let lowered = seq.close(F::True).lower(&mut store);
        let text = store.display(lowered);
        assert!(text.contains("||"), "{text}");
        assert!(
            text.contains("(x = 1)") || text.contains("(1 = x)"),
            "{text}"
        );
    }

    #[test]
    fn unknown_function_becomes_uninterpreted() {
        let (gen, mut store) = setup("");
        let mut env = Env::new();
        let mut seq = Seq::new();
        let f = parse_formula("Var k = freshVar(e)").unwrap();
        gen.declare_formula_vars(&mut store, &mut env, &mut seq, &f);
        gen.vf(&mut store, &mut env, &mut seq, &f).unwrap();
        let lowered = seq.close(F::True).lower(&mut store);
        let text = store.display(lowered);
        assert!(text.contains("fun$freshVar"), "{text}");
    }
}
