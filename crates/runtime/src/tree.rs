//! The legacy tree-walking interpreter.
//!
//! This is the original runtime of the reproduction: it re-discovers the
//! solving order of every declarative formula at every call by walking the
//! AST with cloned `HashMap` environments. Since the lowering layer
//! ([`jmatch_core::lower`]) landed, the bytecode-running plan engine is
//! the default; the walker is kept callable behind
//! [`Engine::TreeWalk`](crate::Engine::TreeWalk), which only
//! [`Program::with_engine`](crate::Program::with_engine) selects, as a
//! differential-testing oracle — its behavior (values, bindings,
//! enumeration order, failures) is the reference the plan engine is tested
//! against.

use crate::eval::check_stack;
use crate::{Bindings, Flow, Object, RtError, RtResult, Value};
use jmatch_core::table::{ClassTable, MethodInfo};
use jmatch_syntax::ast::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The tree-walking interpreter (the legacy engine).
#[derive(Debug)]
pub struct TreeWalker {
    table: Arc<ClassTable>,
    /// Safety valve against runaway recursion in declarative solving.
    max_depth: usize,
    /// Ceiling on the number of solver steps (`solve` recursions).
    max_steps: u64,
    /// Solver steps spent so far across this walker's queries.
    steps: AtomicU64,
}

impl TreeWalker {
    /// A walker with explicit depth / step ceilings (the [`crate::Limits`]
    /// of a [`crate::Query`]).
    pub(crate) fn with_limits(table: Arc<ClassTable>, max_depth: usize, max_steps: u64) -> Self {
        TreeWalker {
            table,
            max_depth,
            max_steps,
            steps: AtomicU64::new(0),
        }
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Invokes a named or class constructor of `class` in the forward mode.
    fn construct(&self, class: &str, ctor: &str, args: Vec<Value>) -> RtResult<Value> {
        let minfo = self
            .table
            .lookup_method(class, ctor)
            .or_else(|| self.table.lookup_class_constructor(class))
            .cloned()
            .ok_or_else(|| RtError::method_not_found(class, ctor))?;
        // Resolve to the concrete implementation declared on `class` itself if
        // the interface only declares the signature.
        let impl_info = if matches!(minfo.decl.body, MethodBody::Absent) {
            self.find_impl(class, ctor)
                .ok_or_else(|| RtError::new(format!("`{class}.{ctor}` has no implementation")))?
        } else {
            minfo
        };
        self.run_forward(&impl_info, None, args)
    }

    /// Calls a free-standing (top-level) method.
    fn call_free(&self, name: &str, args: Vec<Value>) -> RtResult<Value> {
        let minfo = self
            .table
            .lookup_free_method(name)
            .cloned()
            .ok_or_else(|| RtError::method_not_found("<toplevel>", name))?;
        self.run_forward(&minfo, None, args)
    }

    /// Calls an instance method in the forward mode.
    fn call_method(&self, receiver: &Value, name: &str, args: Vec<Value>) -> RtResult<Value> {
        let class = receiver
            .class()
            .ok_or_else(|| RtError::new("receiver is not an object"))?
            .to_owned();
        let minfo = self
            .find_impl(&class, name)
            .ok_or_else(|| RtError::method_not_found(&class, name))?;
        self.run_forward(&minfo, Some(receiver.clone()), args)
    }

    /// Every solution row of [`TreeWalker::deconstruct_each`], collected.
    fn deconstruct(&self, value: &Value, ctor: &str) -> RtResult<Vec<Vec<Value>>> {
        let mut solutions = Vec::new();
        self.deconstruct_each(value, ctor, &mut |row| {
            solutions.push(row.to_vec());
            true
        })?;
        Ok(solutions)
    }

    /// Enumerates the solutions of matching `value` against the named
    /// constructor `ctor` (the backward mode), feeding each solution row —
    /// the values bound to the constructor's parameters — to `each` as it
    /// is found; `each` returns `false` to stop early. This is what a
    /// deconstruction [`crate::Query`] on the walker drives.
    pub(crate) fn deconstruct_each(
        &self,
        value: &Value,
        ctor: &str,
        each: &mut dyn FnMut(&[Value]) -> bool,
    ) -> RtResult<()> {
        let class = value
            .class()
            .ok_or_else(|| RtError::new("can only deconstruct objects"))?
            .to_owned();
        let minfo = self
            .find_impl(&class, ctor)
            .ok_or_else(|| RtError::method_not_found(&class, ctor))?;
        let params: Vec<String> = minfo.decl.params.iter().map(|p| p.name.clone()).collect();
        let patterns: Vec<Expr> = minfo
            .decl
            .params
            .iter()
            .map(|p| Expr::Decl(p.ty.clone(), p.name.clone()))
            .collect();
        self.match_constructor(value, &minfo, &patterns, &Bindings::new(), 0, &mut |b| {
            let row: Vec<Value> = params
                .iter()
                .map(|p| b.get(p).cloned().unwrap_or(Value::Null))
                .collect();
            each(&row)
        })?;
        Ok(())
    }

    /// Enumerates solutions of a formula — keep-going variant used
    /// internally. Returns `Ok(false)` when `emit` asked to stop.
    fn solve_kg(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        f: &Formula,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        let spent = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if spent > self.max_steps {
            return Err(RtError::limit(
                "steps",
                self.max_steps,
                "solver step budget exceeded",
            ));
        }
        if depth > self.max_depth {
            return Err(RtError::limit(
                "depth",
                self.max_depth as u64,
                "solver recursion limit exceeded",
            ));
        }
        check_stack(self.max_depth)?;
        match f {
            Formula::Bool(true) => Ok(emit(env)),
            Formula::Bool(false) => Ok(true),
            Formula::And(..) => {
                let mut conjuncts = Vec::new();
                flatten_and(f, &mut conjuncts);
                self.solve_conjuncts(env, this, &conjuncts, depth, emit)
            }
            Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                if !self.solve_kg(env, this, a, depth + 1, emit)? {
                    return Ok(false);
                }
                self.solve_kg(env, this, b, depth + 1, emit)
            }
            Formula::Not(inner) => {
                let mut found = false;
                self.solve_kg(env, this, inner, depth + 1, &mut |_| {
                    found = true;
                    false
                })?;
                if !found {
                    Ok(emit(env))
                } else {
                    Ok(true)
                }
            }
            Formula::Cmp(op, lhs, rhs) => self.solve_cmp(env, this, *op, lhs, rhs, depth, emit),
            Formula::Atom(e) => self.solve_atom(env, this, e, depth, emit),
        }
    }

    /// Tests whether `value` matches the named constructor `ctor` (predicate
    /// use of a named constructor, e.g. `ZNat(0).zero()`).
    pub fn matches_constructor(&self, value: &Value, ctor: &str) -> RtResult<bool> {
        let mut found = false;
        self.deconstruct_each(value, ctor, &mut |_| {
            found = true;
            true
        })?;
        Ok(found)
    }

    /// Deep equality, using equality constructors (§3.2) across different
    /// implementations of the same abstraction.
    pub fn values_equal(&self, a: &Value, b: &Value) -> RtResult<bool> {
        match (a, b) {
            (Value::Obj(oa), Value::Obj(ob)) => {
                if Arc::ptr_eq(oa, ob) {
                    return Ok(true);
                }
                if Arc::ptr_eq(oa.layout(), ob.layout()) {
                    // Shared layout (same program): slot-wise comparison.
                    for (va, vb) in oa.fields().iter().zip(ob.fields()) {
                        if !self.values_equal(va, vb)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                }
                if oa.class() == ob.class() {
                    // Same-named class from a different program: its layout
                    // may order fields differently, so align by name.
                    if oa.fields().len() != ob.fields().len() {
                        return Ok(false);
                    }
                    for (name, va) in oa.layout().field_names().iter().zip(oa.fields()) {
                        let Some(vb) = ob.get(name) else {
                            return Ok(false);
                        };
                        if !self.values_equal(va, vb)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                }
                // Different classes: try an equality constructor on either side.
                for (lhs, rhs) in [(a, b), (b, a)] {
                    let class = lhs.class().unwrap_or_default().to_owned();
                    if let Some(eq) = self.find_impl(&class, "equals") {
                        if let MethodBody::Formula(f) = &eq.decl.body {
                            let mut env = Bindings::new();
                            if let Some(p) = eq.decl.params.first() {
                                env.insert(p.name.clone(), rhs.clone());
                            }
                            let mut found = false;
                            self.solve(&env, Some(lhs), f, 0, &mut |_| {
                                found = true;
                                false
                            })?;
                            return Ok(found);
                        }
                    }
                }
                Ok(false)
            }
            _ => Ok(a == b),
        }
    }

    // ------------------------------------------------------------------
    // Method execution
    // ------------------------------------------------------------------

    /// Finds the implementation of `name` starting from a concrete class
    /// (searching the class itself, then supertypes with bodies).
    fn find_impl(&self, class: &str, name: &str) -> Option<MethodInfo> {
        let info = self.table.type_info(class)?;
        if let Some(m) = info
            .methods
            .iter()
            .find(|m| m.decl.name == name && !matches!(m.decl.body, MethodBody::Absent))
        {
            return Some(m.clone());
        }
        for sup in &info.supertypes {
            if let Some(m) = self.find_impl(sup, name) {
                return Some(m);
            }
        }
        None
    }

    /// Runs a method in its forward mode: parameters bound to `args`.
    pub(crate) fn run_forward(
        &self,
        minfo: &MethodInfo,
        this: Option<Value>,
        args: Vec<Value>,
    ) -> RtResult<Value> {
        if args.len() != minfo.decl.params.len() {
            return Err(RtError::arity_mismatch(
                &minfo.qualified_name(),
                minfo.decl.params.len(),
                args.len(),
            ));
        }
        check_stack(self.max_depth)?;
        let mut env = Bindings::new();
        for (p, v) in minfo.decl.params.iter().zip(args) {
            env.insert(p.name.clone(), v);
        }
        match &minfo.decl.body {
            MethodBody::Absent => Err(RtError::new(format!(
                "{} has no implementation",
                minfo.qualified_name()
            ))),
            MethodBody::Formula(f) => {
                if minfo.constructs_owner() {
                    // Construction: the fields of the new object are unknowns
                    // solved by the body, read off into the owner's layout
                    // slots (layout order = field declaration order).
                    let layout = self.table.layout(&minfo.owner).cloned().ok_or_else(|| {
                        RtError::new(format!("unknown owner type {}", minfo.owner))
                    })?;
                    let mut result = None;
                    self.solve(&env, this.as_ref(), f, 0, &mut |b| {
                        // A `result = ...` equation (as in Figure 1) takes
                        // precedence over field solving.
                        result = Some(b.get("result").cloned().unwrap_or_else(|| {
                            let fields: Vec<Value> = layout
                                .field_names()
                                .iter()
                                .map(|fname| b.get(fname).cloned().unwrap_or(Value::Null))
                                .collect();
                            Value::Obj(Arc::new(Object::new(Arc::clone(&layout), fields)))
                        }));
                        false
                    })?;
                    result.ok_or_else(|| {
                        RtError::new(format!("{} failed to match", minfo.qualified_name()))
                    })
                } else {
                    // Ordinary method: solve for `result` (boolean methods
                    // default to "is the body satisfiable").
                    let mut result = None;
                    let mut any = false;
                    self.solve(&env, this.as_ref(), f, 0, &mut |b| {
                        any = true;
                        result = b.get("result").cloned();
                        false
                    })?;
                    match (&minfo.decl.return_type, result) {
                        (Some(Type::Boolean), r) => Ok(r.unwrap_or(Value::Bool(any))),
                        (_, Some(r)) => Ok(r),
                        (Some(Type::Void), None) => Ok(Value::Null),
                        (_, None) if any => Ok(Value::Bool(true)),
                        (_, None) => Err(RtError::new(format!(
                            "{} produced no result",
                            minfo.qualified_name()
                        ))),
                    }
                }
            }
            MethodBody::Block(stmts) => {
                let mut env = env;
                match self.exec_block(&mut env, this.as_ref(), stmts)? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Value::Null),
                }
            }
        }
    }

    /// Matches `value` against a constructor with argument patterns,
    /// enumerating solutions (the backward / iterative mode).
    fn match_constructor(
        &self,
        value: &Value,
        minfo: &MethodInfo,
        arg_patterns: &[Expr],
        outer: &Bindings,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        let MethodBody::Formula(body) = &minfo.decl.body else {
            return Err(RtError::mode_mismatch(
                &minfo.qualified_name(),
                "backward (pattern-matching)",
            ));
        };
        // Solve the body with `this` = the matched value and the parameters
        // unknown; then match each solution's parameter values against the
        // argument patterns.
        let env = Bindings::new();
        let params: Vec<Param> = minfo.decl.params.clone();
        let mut keep_going = true;
        self.solve(&env, Some(value), body, depth + 1, &mut |b| {
            // Values for the constructor parameters under this solution.
            let mut env2 = outer.clone();
            let mut ok = true;
            for (i, p) in params.iter().enumerate() {
                let Some(v) = b.get(&p.name).cloned() else {
                    ok = false;
                    break;
                };
                if let Some(pattern) = arg_patterns.get(i) {
                    match self.match_pattern_first(&env2, None, pattern, &v) {
                        Ok(Some(newenv)) => env2 = newenv,
                        Ok(None) => {
                            ok = false;
                            break;
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                keep_going = emit(&env2);
            }
            keep_going
        })?;
        Ok(keep_going)
    }

    // ------------------------------------------------------------------
    // Declarative solving
    // ------------------------------------------------------------------

    /// Enumerates solutions of a formula. `emit` returns `false` to stop.
    /// Returns `Ok(())`; enumeration state is carried by the callback.
    pub fn solve(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        f: &Formula,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<()> {
        self.solve_kg(env, this, f, depth, emit).map(|_| ())
    }

    /// Solves a conjunction, reordering so that conjuncts whose unknowns can
    /// be bound are solved first (the paper's left-to-right-as-possible
    /// solving order, §2.3).
    fn solve_conjuncts(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        conjuncts: &[Formula],
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        // A solution found at depth d returns here through d continuation
        // and constructor-match frames that `solve_kg` never sees, so the
        // stack is checked on this path too.
        check_stack(self.max_depth)?;
        if conjuncts.is_empty() {
            return Ok(emit(env));
        }
        let ready_idx = conjuncts
            .iter()
            .position(|c| self.conjunct_ready(env, this, c))
            .ok_or_else(|| {
                RtError::new(
                    "formula is not solvable: no conjunct can run with the current bindings",
                )
            })?;
        let chosen = &conjuncts[ready_idx];
        let rest: Vec<Formula> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ready_idx)
            .map(|(_, c)| c.clone())
            .collect();
        let mut err = None;
        let kg = self.solve_kg(
            env,
            this,
            chosen,
            depth + 1,
            &mut |e1| match self.solve_conjuncts(e1, this, &rest, depth + 1, emit) {
                Ok(kg) => kg,
                Err(e) => {
                    err = Some(e);
                    false
                }
            },
        )?;
        err.map_or(Ok(kg), Err)
    }

    /// Whether a conjunct can be solved with the current bindings.
    fn conjunct_ready(&self, env: &Bindings, this: Option<&Value>, f: &Formula) -> bool {
        match f {
            Formula::Bool(_) => true,
            Formula::Cmp(CmpOp::Eq, l, r) => {
                self.is_ground(env, this, l) || self.is_ground(env, this, r)
            }
            Formula::Cmp(_, l, r) => self.is_ground(env, this, l) && self.is_ground(env, this, r),
            Formula::Atom(Expr::Call { receiver, .. }) => match receiver {
                Some(r) => self.is_ground(env, this, r),
                None => true,
            },
            Formula::Atom(e) => self.is_ground(env, this, e),
            Formula::Not(inner) => self.conjunct_ready(env, this, inner),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                self.conjunct_ready(env, this, a) && self.conjunct_ready(env, this, b)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_cmp(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        if op == CmpOp::Eq {
            // Pattern disjunction distributes over the equation: `x = p1 # p2`
            // tries both alternatives (`|` behaves the same operationally, its
            // disjointness having been verified statically).
            if let Expr::OrPat(a, b) | Expr::DisjointOr(a, b) = rhs {
                if !self.solve_cmp(env, this, CmpOp::Eq, lhs, a, depth + 1, emit)? {
                    return Ok(false);
                }
                return self.solve_cmp(env, this, CmpOp::Eq, lhs, b, depth + 1, emit);
            }
            if let Expr::OrPat(a, b) | Expr::DisjointOr(a, b) = lhs {
                if !self.solve_cmp(env, this, CmpOp::Eq, a, rhs, depth + 1, emit)? {
                    return Ok(false);
                }
                return self.solve_cmp(env, this, CmpOp::Eq, b, rhs, depth + 1, emit);
            }
            // Tuple equations decompose componentwise.
            if let (Expr::Tuple(ls), Expr::Tuple(rs)) = (lhs, rhs) {
                if ls.len() == rs.len() {
                    let conj = ls
                        .iter()
                        .zip(rs.iter())
                        .map(|(l, r)| Formula::Cmp(CmpOp::Eq, l.clone(), r.clone()))
                        .reduce(Formula::and)
                        .unwrap_or(Formula::Bool(true));
                    return self.solve_kg(env, this, &conj, depth + 1, emit);
                }
            }
            let lhs_ground = self.is_ground(env, this, lhs);
            let rhs_ground = self.is_ground(env, this, rhs);
            return match (lhs_ground, rhs_ground) {
                (true, true) => {
                    let a = self.eval(env, this, lhs)?;
                    let b = self.eval(env, this, rhs)?;
                    if self.values_equal(&a, &b)? {
                        Ok(emit(env))
                    } else {
                        Ok(true)
                    }
                }
                (true, false) => {
                    let v = self.eval(env, this, lhs)?;
                    self.match_pattern(env, this, rhs, &v, depth, emit)
                }
                (false, true) => {
                    let v = self.eval(env, this, rhs)?;
                    self.match_pattern(env, this, lhs, &v, depth, emit)
                }
                (false, false) => Err(RtError::new(format!(
                    "equation with unknowns on both sides is not solvable: {lhs} = {rhs}"
                ))),
            };
        }
        // Ordering comparisons require both sides ground.
        let a = self.eval(env, this, lhs)?;
        let b = self.eval(env, this, rhs)?;
        let (x, y) = match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                if op == CmpOp::Ne {
                    if !self.values_equal(&a, &b)? {
                        return Ok(emit(env));
                    }
                    return Ok(true);
                }
                return Err(RtError::new("ordering comparison on non-integers"));
            }
        };
        let holds = match op {
            CmpOp::Le => x <= y,
            CmpOp::Lt => x < y,
            CmpOp::Ge => x >= y,
            CmpOp::Gt => x > y,
            CmpOp::Ne => x != y,
            CmpOp::Eq => x == y,
        };
        if holds {
            Ok(emit(env))
        } else {
            Ok(true)
        }
    }

    fn solve_atom(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        e: &Expr,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        match e {
            // A named-constructor predicate / pattern on the current receiver,
            // possibly binding unknown arguments: `succ(Nat y)`, `n.zero()`.
            Expr::Call {
                receiver,
                name,
                args,
            } => {
                let subject: Value = match receiver {
                    Some(r) if self.is_ground(env, this, r) => self.eval(env, this, r)?,
                    None => this
                        .cloned()
                        .ok_or_else(|| RtError::new("predicate call without a receiver"))?,
                    Some(_) => {
                        return Err(RtError::new("predicate receiver is not ground"));
                    }
                };
                match &subject {
                    Value::Obj(o) => {
                        let class = o.class().to_owned();
                        let Some(minfo) = self.find_impl(&class, name) else {
                            return Err(RtError::method_not_found(&class, name));
                        };
                        self.match_constructor(&subject, &minfo, args, env, depth, emit)
                    }
                    Value::Bool(b) => {
                        if *b {
                            Ok(emit(env))
                        } else {
                            Ok(true)
                        }
                    }
                    other => Err(RtError::new(format!(
                        "cannot use `{other}` as a predicate receiver"
                    ))),
                }
            }
            Expr::Decl(..) => {
                // An uninitialized declaration binds nothing useful at runtime.
                Ok(emit(env))
            }
            other => {
                let v = self.eval(env, this, other)?;
                if v.as_bool() == Some(true) {
                    Ok(emit(env))
                } else {
                    Ok(true)
                }
            }
        }
    }

    /// Matches a pattern against a known value, binding declared variables.
    fn match_pattern(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        pattern: &Expr,
        value: &Value,
        depth: usize,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> RtResult<bool> {
        match pattern {
            Expr::Wildcard => Ok(emit(env)),
            Expr::Decl(ty, name) => {
                if let Type::Named(t) = ty {
                    if let Some(class) = value.class() {
                        if !self.table.is_subtype(class, t) {
                            return Ok(true);
                        }
                    }
                }
                let mut e2 = env.clone();
                if name != "_" {
                    e2.insert(name.clone(), value.clone());
                }
                Ok(emit(&e2))
            }
            Expr::Var(name) => match env.get(name) {
                Some(bound) => {
                    if self.values_equal(bound, value)? {
                        Ok(emit(env))
                    } else {
                        Ok(true)
                    }
                }
                None => {
                    let mut e2 = env.clone();
                    e2.insert(name.clone(), value.clone());
                    Ok(emit(&e2))
                }
            },
            Expr::Result => match env.get("result") {
                Some(bound) => {
                    if self.values_equal(bound, value)? {
                        Ok(emit(env))
                    } else {
                        Ok(true)
                    }
                }
                None => {
                    let mut e2 = env.clone();
                    e2.insert("result".into(), value.clone());
                    Ok(emit(&e2))
                }
            },
            Expr::As(a, b) => {
                let mut err = None;
                let kg =
                    self.match_pattern(env, this, a, value, depth + 1, &mut |e1| match self
                        .match_pattern(e1, this, b, value, depth + 1, emit)
                    {
                        Ok(kg) => kg,
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    })?;
                err.map_or(Ok(kg), Err)
            }
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                if !self.match_pattern(env, this, a, value, depth + 1, emit)? {
                    return Ok(false);
                }
                self.match_pattern(env, this, b, value, depth + 1, emit)
            }
            Expr::Where(p, f) => {
                let mut err = None;
                let kg =
                    self.match_pattern(env, this, p, value, depth + 1, &mut |e1| match self
                        .solve_kg(e1, this, f, depth + 1, emit)
                    {
                        Ok(kg) => kg,
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    })?;
                err.map_or(Ok(kg), Err)
            }
            Expr::Call {
                receiver,
                name,
                args,
            } => {
                // Constructor pattern: dispatch on the matched value's class
                // (or the statically named class for `Class(...)` patterns).
                let class = match receiver {
                    Some(r) => match r.as_ref() {
                        Expr::Var(c) if self.table.type_info(c).is_some() => c.clone(),
                        _ => value.class().unwrap_or_default().to_owned(),
                    },
                    None => {
                        if self.table.type_info(name).is_some() {
                            name.clone()
                        } else {
                            value.class().unwrap_or_default().to_owned()
                        }
                    }
                };
                let target = value.clone();
                let Some(minfo) = self
                    .find_impl(&class, name)
                    .or_else(|| self.table.lookup_class_constructor(&class).cloned())
                else {
                    return Err(RtError::method_not_found(&class, name));
                };
                // If the runtime class differs and an equality constructor
                // exists, convert first.
                if let Some(vclass) = target.class() {
                    if !self.table.is_subtype(vclass, &class) {
                        if let Some(converted) = self.convert_via_equals(&class, &target)? {
                            return self
                                .match_constructor(&converted, &minfo, args, env, depth, emit);
                        }
                        return Ok(true);
                    }
                }
                self.match_constructor(&target, &minfo, args, env, depth, emit)
            }
            Expr::Binary(op, a, b) => {
                // Invertible integer arithmetic: exactly one non-ground side.
                let Some(target) = value.as_int() else {
                    return Ok(true);
                };
                let a_ground = self.is_ground(env, this, a);
                let b_ground = self.is_ground(env, this, b);
                match (op, a_ground, b_ground) {
                    (_, true, true) => {
                        let v = self.eval(env, this, pattern)?;
                        if self.values_equal(&v, value)? {
                            Ok(emit(env))
                        } else {
                            Ok(true)
                        }
                    }
                    (BinOp::Add, true, false) => {
                        let av = self.eval(env, this, a)?.as_int().unwrap_or(0);
                        self.match_pattern(env, this, b, &Value::Int(target - av), depth + 1, emit)
                    }
                    (BinOp::Add, false, true) => {
                        let bv = self.eval(env, this, b)?.as_int().unwrap_or(0);
                        self.match_pattern(env, this, a, &Value::Int(target - bv), depth + 1, emit)
                    }
                    (BinOp::Sub, false, true) => {
                        let bv = self.eval(env, this, b)?.as_int().unwrap_or(0);
                        self.match_pattern(env, this, a, &Value::Int(target + bv), depth + 1, emit)
                    }
                    (BinOp::Sub, true, false) => {
                        let av = self.eval(env, this, a)?.as_int().unwrap_or(0);
                        self.match_pattern(env, this, b, &Value::Int(av - target), depth + 1, emit)
                    }
                    _ => Err(RtError::new(
                        "cannot invert this arithmetic pattern at run time",
                    )),
                }
            }
            Expr::Neg(a) => {
                let Some(target) = value.as_int() else {
                    return Ok(true);
                };
                self.match_pattern(env, this, a, &Value::Int(-target), depth + 1, emit)
            }
            other => {
                let v = self.eval(env, this, other)?;
                if self.values_equal(&v, value)? {
                    Ok(emit(env))
                } else {
                    Ok(true)
                }
            }
        }
    }

    /// First solution of a pattern match, if any.
    fn match_pattern_first(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        pattern: &Expr,
        value: &Value,
    ) -> RtResult<Option<Bindings>> {
        let mut found = None;
        self.match_pattern(env, this, pattern, value, 0, &mut |b| {
            found = Some(b.clone());
            false
        })?;
        Ok(found)
    }

    /// Converts `value` into an instance of `class` using `class`'s equality
    /// constructor (operationally: find a `class` object equal to `value`).
    fn convert_via_equals(&self, class: &str, value: &Value) -> RtResult<Option<Value>> {
        let Some(eq) = self.find_impl(class, "equals") else {
            return Ok(None);
        };
        let MethodBody::Formula(body) = &eq.decl.body else {
            return Ok(None);
        };
        let mut env = Bindings::new();
        if let Some(p) = eq.decl.params.first() {
            env.insert(p.name.clone(), value.clone());
        }
        // Without full constraint solving over object fields we support the
        // common case: the equality constructor's body only uses named
        // constructors of `class` (e.g. `zero() && n.zero() | succ(y) && n.succ(y)`),
        // which we can run by matching on the argument and reconstructing.
        let mut result = None;
        self.try_equals_reconstruction(class, body, &env, &mut result)?;
        Ok(result)
    }

    /// Handles equality-constructor bodies of the shape used in the paper
    /// (Figure 4): a disjunction of `ctor_i(..) && n.ctor_i(..)` conjuncts.
    fn try_equals_reconstruction(
        &self,
        class: &str,
        body: &Formula,
        env: &Bindings,
        result: &mut Option<Value>,
    ) -> RtResult<()> {
        match body {
            Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                self.try_equals_reconstruction(class, a, env, result)?;
                if result.is_none() {
                    self.try_equals_reconstruction(class, b, env, result)?;
                }
                Ok(())
            }
            Formula::And(a, b) => {
                // Expect `ctor(args...) && n.ctor(args...)`.
                if let (Formula::Atom(own), Formula::Atom(other)) = (a.as_ref(), b.as_ref()) {
                    if let (
                        Expr::Call {
                            name: own_name,
                            args: own_args,
                            receiver: None,
                        },
                        Expr::Call {
                            name: other_name,
                            args: other_args,
                            receiver: Some(recv),
                        },
                    ) = (own, other)
                    {
                        if own_name == other_name {
                            if let Expr::Var(param) = recv.as_ref() {
                                if let Some(target) = env.get(param) {
                                    // Deconstruct the target with the shared
                                    // constructor, then rebuild in `class`.
                                    if let Ok(rows) = self.deconstruct(target, other_name) {
                                        if let Some(row) = rows.first() {
                                            let rebuilt =
                                                self.construct(class, own_name, row.clone())?;
                                            let _ = (own_args, other_args);
                                            *result = Some(rebuilt);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                Ok(())
            }
            Formula::Atom(Expr::Call {
                receiver: Some(recv),
                name,
                ..
            }) => {
                // `n.zero()` style: the whole body is a predicate on the other
                // object; rebuild the matching nullary constructor.
                if let Expr::Var(param) = recv.as_ref() {
                    if let Some(target) = env.get(param) {
                        if self.matches_constructor(target, name)? {
                            *result = Some(self.construct(class, name, Vec::new())?);
                        }
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Ground evaluation
    // ------------------------------------------------------------------

    /// Whether every variable mentioned by the expression is bound.
    fn is_ground(&self, env: &Bindings, this: Option<&Value>, e: &Expr) -> bool {
        match e {
            Expr::IntLit(_) | Expr::BoolLit(_) | Expr::StrLit(_) | Expr::Null => true,
            Expr::This => this.is_some(),
            Expr::Result => env.contains_key("result"),
            Expr::Wildcard | Expr::Decl(..) => false,
            Expr::Var(name) => {
                env.contains_key(name)
                    || this
                        .and_then(|t| t.class())
                        .map(|c| self.table.field_type(c, name).is_some())
                        .unwrap_or(false)
                    || self.table.type_info(name).is_some()
            }
            Expr::Field(b, _) => self.is_ground(env, this, b),
            Expr::Call { receiver, args, .. } => {
                receiver
                    .as_deref()
                    .map(|r| self.is_ground(env, this, r))
                    .unwrap_or(true)
                    && args.iter().all(|a| self.is_ground(env, this, a))
            }
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                self.is_ground(env, this, a) && self.is_ground(env, this, b)
            }
            Expr::NewArray(_, a) | Expr::Neg(a) => self.is_ground(env, this, a),
            Expr::Tuple(xs) => xs.iter().all(|x| self.is_ground(env, this, x)),
            Expr::As(a, b) | Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                self.is_ground(env, this, a) && self.is_ground(env, this, b)
            }
            Expr::Where(p, _) => self.is_ground(env, this, p),
        }
    }

    /// Evaluates a ground expression.
    pub fn eval(&self, env: &Bindings, this: Option<&Value>, e: &Expr) -> RtResult<Value> {
        match e {
            Expr::IntLit(n) => Ok(Value::Int(*n)),
            Expr::BoolLit(b) => Ok(Value::Bool(*b)),
            Expr::StrLit(s) => Ok(Value::Str(s.clone())),
            Expr::Null => Ok(Value::Null),
            Expr::This => this
                .cloned()
                .ok_or_else(|| RtError::new("`this` is not in scope")),
            Expr::Result => env
                .get("result")
                .cloned()
                .ok_or_else(|| RtError::new("`result` is not bound")),
            Expr::Var(name) => {
                if let Some(v) = env.get(name) {
                    return Ok(v.clone());
                }
                if let Some(Value::Obj(o)) = this {
                    if let Some(v) = o.get(name) {
                        return Ok(v.clone());
                    }
                }
                Err(RtError::new(format!("unbound variable `{name}`")))
            }
            Expr::Field(base, field) => {
                let b = self.eval(env, this, base)?;
                match b {
                    Value::Obj(o) => o
                        .get(field)
                        .cloned()
                        .ok_or_else(|| RtError::new(format!("no field `{field}`"))),
                    other => Err(RtError::new(format!("field access on non-object {other}"))),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = self
                    .eval(env, this, a)?
                    .as_int()
                    .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                let y = self
                    .eval(env, this, b)?
                    .as_int()
                    .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                let v = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0 {
                            return Err(RtError::new("division by zero"));
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(RtError::new("remainder by zero"));
                        }
                        x % y
                    }
                };
                Ok(Value::Int(v))
            }
            Expr::Neg(a) => {
                let x = self
                    .eval(env, this, a)?
                    .as_int()
                    .ok_or_else(|| RtError::new("negation of non-integer"))?;
                Ok(Value::Int(-x))
            }
            Expr::Call {
                receiver,
                name,
                args,
            } => {
                let arg_values: RtResult<Vec<Value>> =
                    args.iter().map(|a| self.eval(env, this, a)).collect();
                let arg_values = arg_values?;
                match receiver.as_deref() {
                    Some(Expr::Var(class)) if self.table.type_info(class).is_some() => {
                        self.construct(class, name, arg_values)
                    }
                    Some(r) => {
                        let recv = self.eval(env, this, r)?;
                        self.call_method(&recv, name, arg_values)
                    }
                    None => {
                        if self.table.type_info(name).is_some() {
                            // Class constructor `ZNat(2)`.
                            let ctor = self
                                .table
                                .lookup_class_constructor(name)
                                .cloned()
                                .ok_or_else(|| {
                                    RtError::new(format!("no class constructor for `{name}`"))
                                })?;
                            return self.run_forward(&ctor, None, arg_values);
                        }
                        if self.table.lookup_free_method(name).is_some() {
                            return self.call_free(name, arg_values);
                        }
                        if let Some(t) = this {
                            return self.call_method(t, name, arg_values);
                        }
                        Err(RtError::new(format!("cannot resolve call `{name}`")))
                    }
                }
            }
            Expr::Tuple(_) => Err(RtError::new("tuples are not first-class values")),
            other => Err(RtError::new(format!("cannot evaluate {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(
        &self,
        env: &mut Bindings,
        this: Option<&Value>,
        stmts: &[Stmt],
    ) -> RtResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(env, this, stmt)? {
                Flow::Normal => {}
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs a scoped body — an if-then branch, a `cond` arm, a matched
    /// `switch` case, a `foreach` iteration, a `{}` block — on `inner`,
    /// then writes back the variables `env` already had: updates to them
    /// persist, variables introduced inside are dropped.
    fn exec_scope(
        &self,
        env: &mut Bindings,
        this: Option<&Value>,
        mut inner: Bindings,
        body: &[Stmt],
    ) -> RtResult<Flow> {
        let flow = self.exec_block(&mut inner, this, body)?;
        for (k, v) in inner {
            if let Some(slot) = env.get_mut(&k) {
                *slot = v;
            }
        }
        Ok(flow)
    }

    /// The first solution of a statement formula.
    fn solve_once(
        &self,
        env: &Bindings,
        this: Option<&Value>,
        f: &Formula,
    ) -> RtResult<Option<Bindings>> {
        let mut solution = None;
        self.solve(env, this, f, 0, &mut |b| {
            solution = Some(b.clone());
            false
        })?;
        Ok(solution)
    }

    fn exec_stmt(&self, env: &mut Bindings, this: Option<&Value>, stmt: &Stmt) -> RtResult<Flow> {
        match stmt {
            Stmt::Let(f) => match self.solve_once(env, this, f)? {
                Some(b) => {
                    *env = b;
                    Ok(Flow::Normal)
                }
                None => Err(RtError::new("let statement failed to match")),
            },
            Stmt::Switch {
                scrutinees,
                cases,
                default,
            } => {
                let values: RtResult<Vec<Value>> =
                    scrutinees.iter().map(|s| self.eval(env, this, s)).collect();
                let values = values?;
                for (idx, case) in cases.iter().enumerate() {
                    let mut bound = Some(env.clone());
                    for (p, v) in case.patterns.iter().zip(values.iter()) {
                        bound = match bound {
                            Some(b) => self.match_pattern_first(&b, this, p, v)?,
                            None => None,
                        };
                    }
                    if let Some(b) = bound {
                        // Fall through to the first non-empty body.
                        let mut body_idx = idx;
                        while body_idx < cases.len() && cases[body_idx].body.is_empty() {
                            body_idx += 1;
                        }
                        let body: &[Stmt] = if body_idx < cases.len() {
                            &cases[body_idx].body
                        } else if let Some(d) = default {
                            d
                        } else {
                            return Err(RtError::new("switch fell off the end"));
                        };
                        return self.exec_scope(env, this, b, body);
                    }
                }
                if let Some(d) = default {
                    return self.exec_block(env, this, d);
                }
                Err(RtError::new("non-exhaustive switch at run time"))
            }
            Stmt::Cond { arms, else_arm } => {
                for (f, body) in arms {
                    if let Some(b) = self.solve_once(env, this, f)? {
                        return self.exec_scope(env, this, b, body);
                    }
                }
                if let Some(body) = else_arm {
                    return self.exec_block(env, this, body);
                }
                Err(RtError::new("non-exhaustive cond at run time"))
            }
            Stmt::If { cond, then, els } => match self.solve_once(env, this, cond)? {
                Some(b) => self.exec_scope(env, this, b, then),
                None => match els {
                    Some(e) => self.exec_block(env, this, e),
                    None => Ok(Flow::Normal),
                },
            },
            Stmt::Foreach { formula, body } => {
                let mut solutions = Vec::new();
                self.solve(env, this, formula, 0, &mut |b| {
                    solutions.push(b.clone());
                    true
                })?;
                for solution in solutions {
                    // The iteration sees the current values of the outer
                    // variables plus the solution's new bindings.
                    let mut b = env.clone();
                    for (k, v) in solution {
                        b.entry(k).or_insert(v);
                    }
                    if let Flow::Return(v) = self.exec_scope(env, this, b, body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                let mut guard = 0;
                loop {
                    guard += 1;
                    if guard > crate::MAX_WHILE_CONDITIONS {
                        return Err(RtError::new("while loop exceeded iteration budget"));
                    }
                    match self.solve_once(env, this, cond)? {
                        Some(b) => {
                            *env = b;
                            if let Flow::Return(v) = self.exec_block(env, this, body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                        None => return Ok(Flow::Normal),
                    }
                }
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(expr) => self.eval(env, this, expr)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Assign(lhs, rhs) => {
                let v = self.eval(env, this, rhs)?;
                match lhs {
                    Expr::Var(name) => {
                        env.insert(name.clone(), v);
                        Ok(Flow::Normal)
                    }
                    _ => Err(RtError::new("unsupported assignment target")),
                }
            }
            Stmt::ExprStmt(e) => {
                let _ = self.eval(env, this, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(stmts) => self.exec_scope(env, this, env.clone(), stmts),
        }
    }
}

/// Flattens nested conjunctions into a list of conjuncts.
fn flatten_and(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}
