//! The plan evaluator: executes the query plans produced by
//! [`jmatch_core::lower`], compiled to [`jmatch_core::bytecode`].
//!
//! Where the legacy tree-walker re-derives a solving order for every formula
//! at every call and clones a `HashMap` environment per emitted solution,
//! the evaluator runs a goal's threaded [`BcBody`] over a flat frame of
//! variable slots (`Vec<Option<Value>>`). Every goal runs this way — solved
//! forms, `where` refinements and statement goals alike:
//!
//! * **bindings** are slot writes, undone by scope when a choice point is
//!   exhausted (the moral equivalent of a trail in a WAM-style machine);
//! * **conjunctions** thread through the statically scheduled `next` pcs,
//!   falling back to run-time selection only for [`Instr::DynSeq`];
//! * **calls** resolve through the plan's precompiled dispatch indices
//!   instead of walking the supertype chain;
//! * **choice points** (disjunctions, constructor matches) are explored by
//!   enumerating each alternative against the continuation closure, so
//!   deeper frames stack explicitly per invocation rather than per cloned
//!   environment.
//!
//! Imperative bodies run as [`BcBlock`] register code; statements without a
//! register lowering go through the statement interpreter
//! ([`Ev::exec_stmt`]), whose goals are again bytecode.
//!
//! The observable behavior — values, bindings, enumeration order, and
//! failures — is kept identical to the tree-walker's; `tests/differential.rs`
//! runs every corpus program through both engines and asserts it.

use crate::{Bindings, Flow, Object, RtError, RtResult, Value};
use jmatch_core::bytecode::{BcBlock, BcBody, Const as BcConst, Instr, Pc, SInstr, UnifyMode};
use jmatch_core::intern::Sym;
use jmatch_core::lower::{
    BodyPlan, CallKind, CaseGuard, CaseTarget, ClassCheck, ClassRef, DispatchId, GoalPlan, PExpr,
    PlanId, ProgramPlan, ReadyCheck, SlotId, SolvedForm, StmtPlan,
};
use jmatch_core::table::ClassTable;
use jmatch_syntax::ast::{BinOp, CmpOp, Expr, Formula, MethodBody, Type};
use std::sync::Arc;

/// A frame of variable slots.
pub(crate) type Frame = Vec<Option<Value>>;

/// The continuation invoked per solution; returns `Ok(true)` to keep
/// enumerating.
type Emit<'a> = &'a mut dyn FnMut(&mut Ev<'_, '_>, &mut Frame) -> RtResult<bool>;

/// The work budget of one evaluation: a shared step counter plus the
/// depth / step ceilings, so every entry point (the recursive evaluator and
/// the resumable [`crate::Solutions`] machine) honors the same
/// [`crate::Limits`].
///
/// A budget is either **private** (the sequential case: the whole
/// `max_steps` allowance is granted up front, so `step()` is a plain
/// compare) or **shared** (the OR-parallel case of [`crate::par`]: every
/// worker draws batches of steps from one [`SharedBudget`] pool, so the
/// configured ceiling bounds the *combined* work of all workers exactly
/// like it bounds a sequential run).
#[derive(Debug, Clone)]
pub(crate) struct Budget {
    /// Steps spent so far (solver recursion plus machine steps).
    pub(crate) steps: u64,
    /// Ceiling on `steps` (the configured [`crate::Limits::max_steps`];
    /// with a shared pool this is the pool's combined ceiling, kept here
    /// for error messages).
    pub(crate) max_steps: u64,
    /// Ceiling on solver nesting depth.
    pub(crate) max_depth: usize,
    /// Steps this budget may spend before drawing on the shared pool
    /// again. Equals `max_steps` for a private budget.
    granted: u64,
    /// The shared step pool, when this budget belongs to a parallel
    /// worker.
    shared: Option<Arc<SharedBudget>>,
    /// An external interrupt token (cancellation / request deadline),
    /// polled every [`INTERRUPT_POLL_MASK`]+1 steps so a stuck run can be
    /// stopped from outside without per-step atomic traffic.
    interrupt: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl Budget {
    pub(crate) fn new(max_depth: usize, max_steps: u64) -> Self {
        Budget {
            steps: 0,
            max_steps,
            max_depth,
            granted: max_steps,
            shared: None,
            interrupt: None,
        }
    }

    /// A budget that debits a shared step pool in batches: nothing is
    /// granted up front, so the first `step()` draws the first batch.
    pub(crate) fn new_shared(max_depth: usize, shared: Arc<SharedBudget>) -> Self {
        Budget {
            steps: 0,
            max_steps: shared.ceiling,
            max_depth,
            granted: 0,
            shared: Some(shared),
            interrupt: None,
        }
    }

    /// Attaches an external interrupt token; a fired token surfaces as
    /// [`RtError::interrupted`] at the next poll boundary.
    pub(crate) fn set_interrupt(&mut self, token: Option<Arc<std::sync::atomic::AtomicBool>>) {
        self.interrupt = token;
    }

    /// One unit of solver work; errors when the step ceiling is hit or an
    /// attached interrupt token has fired.
    pub(crate) fn step(&mut self) -> RtResult<()> {
        self.steps += 1;
        if self.steps & INTERRUPT_POLL_MASK == 0 {
            if let Some(token) = &self.interrupt {
                if token.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(RtError::interrupted());
                }
            }
        }
        if self.steps > self.granted {
            return self.refill();
        }
        Ok(())
    }

    /// Draws the next batch from the shared pool (or fails: a private
    /// budget that outruns its grant has hit the configured ceiling).
    fn refill(&mut self) -> RtResult<()> {
        if let Some(pool) = &self.shared {
            let got = pool.take(SHARED_STEP_BATCH);
            if got > 0 {
                self.granted += got;
                return Ok(());
            }
        }
        Err(RtError::limit(
            "steps",
            self.max_steps,
            "solver step budget exceeded",
        ))
    }

    /// Returns the unspent part of the current grant to the shared pool,
    /// so a worker going idle does not strand steps other workers need.
    /// No-op on private budgets.
    pub(crate) fn release_unused(&mut self) {
        if let Some(pool) = &self.shared {
            // `steps` can be one past the grant when the last refill failed.
            pool.give(self.granted.saturating_sub(self.steps));
            self.granted = self.granted.min(self.steps);
        }
    }
}

/// How many steps a parallel worker reserves from the shared pool per
/// refill. Small enough that a near-exhausted pool still spreads across
/// workers, large enough that the atomic is off the per-step hot path.
const SHARED_STEP_BATCH: u64 = 64;

/// Interrupt tokens are polled when `steps & MASK == 0` — every 256 steps,
/// matching the fuel quantum of [`crate::par`] workers, so cancellation
/// latency stays bounded without putting an atomic load on every step.
const INTERRUPT_POLL_MASK: u64 = 0xFF;

/// An atomic step pool shared by the workers of one parallel enumeration:
/// [`Budget::new_shared`] budgets debit it in [`SHARED_STEP_BATCH`]-sized
/// reservations, so the configured [`crate::Limits::max_steps`] ceiling
/// bounds the combined work of the whole pool.
#[derive(Debug)]
pub(crate) struct SharedBudget {
    remaining: std::sync::atomic::AtomicU64,
    /// The configured ceiling, kept for error messages.
    ceiling: u64,
}

impl SharedBudget {
    pub(crate) fn new(ceiling: u64) -> Self {
        SharedBudget {
            remaining: std::sync::atomic::AtomicU64::new(ceiling),
            ceiling,
        }
    }

    /// Takes up to `want` steps from the pool; returns how many were
    /// actually granted (0 when the pool is empty).
    pub(crate) fn take(&self, want: u64) -> u64 {
        use std::sync::atomic::Ordering;
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                if r == 0 {
                    None
                } else {
                    Some(r - r.min(want))
                }
            })
            .map(|r| r.min(want))
            .unwrap_or(0)
    }

    /// Returns unspent steps to the pool.
    pub(crate) fn give(&self, n: u64) {
        if n > 0 {
            self.remaining
                .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Steps currently left in the pool (racy snapshot; exact only when no
    /// worker is drawing concurrently).
    pub(crate) fn remaining(&self) -> u64 {
        self.remaining.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The ceiling the pool was created with.
    pub(crate) fn ceiling(&self) -> u64 {
        self.ceiling
    }

    /// Resets the pool to `n` steps, clamped to the ceiling (the serve
    /// layer's per-tenant quota window refill, which discounts
    /// reservations still in flight so their later refunds cannot push
    /// the pool past its ceiling).
    pub(crate) fn refill_to(&self, n: u64) {
        self.remaining
            .store(n.min(self.ceiling), std::sync::atomic::Ordering::Relaxed);
    }
}

impl Default for Budget {
    /// Matches [`crate::Limits::default`]: see [`MAX_DEPTH`] for why the
    /// depth ceiling must stay well below native stack exhaustion.
    fn default() -> Self {
        Budget::new(MAX_DEPTH, u64::MAX)
    }
}

/// One evaluation session: borrows the plan and a work budget, and tracks
/// the recursion guard.
pub(crate) struct Ev<'p, 'b> {
    plan: &'p ProgramPlan,
    table: &'p ClassTable,
    depth: usize,
    budget: &'b mut Budget,
}

thread_local! {
    /// Recycled activation frames and register files. Thread-local rather
    /// than per-session: the API constructs a fresh [`Ev`] per call, so
    /// session-owned pools would start empty on every iteration of a hot
    /// caller loop and pay one heap allocation per call.
    static POOLS: std::cell::RefCell<(Vec<Frame>, Vec<Vec<Value>>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Default bound on the solver's nesting depth (goal recursion plus nested
/// invocations). Each level costs native stack, so the limit must trip well
/// before the stack itself is exhausted — ~0.5KB per level against the 2MB
/// stack of a Rust test thread puts exhaustion around depth 3–5k; 1_000
/// leaves a comfortable margin while staying far above what any corpus
/// program reaches.
pub(crate) const MAX_DEPTH: usize = 1_000;

impl<'p, 'b> Ev<'p, 'b> {
    /// Creates an evaluation session over a plan, drawing on `budget`.
    pub(crate) fn new(plan: &'p ProgramPlan, budget: &'b mut Budget) -> Self {
        Ev {
            plan,
            table: plan.table(),
            depth: 0,
            budget,
        }
    }

    /// A zeroed frame of `n` slots, reusing a recycled allocation when one
    /// is available.
    fn take_frame(&mut self, n: usize) -> Frame {
        match POOLS.with(|p| p.borrow_mut().0.pop()) {
            Some(mut f) => {
                f.clear();
                f.resize(n, None);
                f
            }
            None => vec![None; n],
        }
    }

    /// Returns a finished activation frame to the pool.
    fn recycle_frame(&mut self, mut f: Frame) {
        POOLS.with(|p| {
            let pool = &mut p.borrow_mut().0;
            if pool.len() < 64 {
                f.clear();
                pool.push(f);
            }
        });
    }

    /// A null-filled register file of `n` registers, reusing a recycled
    /// allocation when one is available.
    fn take_regs(&mut self, n: usize) -> Vec<Value> {
        match POOLS.with(|p| p.borrow_mut().1.pop()) {
            Some(mut r) => {
                r.clear();
                r.resize(n, Value::Null);
                r
            }
            None => vec![Value::Null; n],
        }
    }

    /// Returns a finished register file to the pool.
    fn recycle_regs(&mut self, mut r: Vec<Value>) {
        POOLS.with(|p| {
            let pool = &mut p.borrow_mut().1;
            if pool.len() < 64 {
                r.clear();
                pool.push(r);
            }
        });
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    pub(crate) fn construct(
        &mut self,
        class: &str,
        ctor: &str,
        args: Vec<Value>,
    ) -> RtResult<Value> {
        let declared = self
            .plan
            .lookup_declared(class, ctor)
            .or_else(|| self.plan.class_ctor(class))
            .ok_or_else(|| RtError::method_not_found(class, ctor))?;
        // Resolve to the concrete implementation declared on `class` itself
        // if the interface only declares the signature.
        let pid = if matches!(self.plan.method(declared).body, BodyPlan::Absent) {
            self.plan
                .lookup_impl(class, ctor)
                .ok_or_else(|| RtError::new(format!("`{class}.{ctor}` has no implementation")))?
        } else {
            declared
        };
        self.run_forward(pid, None, args)
    }

    /// Forward call dispatched on the receiver's runtime class, through the
    /// call site's dispatch table when one was lowered.
    fn dispatch_method(
        &mut self,
        receiver: &Value,
        name: &str,
        dispatch: Option<DispatchId>,
        args: Vec<Value>,
    ) -> RtResult<Value> {
        let Value::Obj(o) = receiver else {
            return Err(RtError::new("receiver is not an object"));
        };
        let pid = self
            .resolve_dispatch(dispatch, o, name)
            .ok_or_else(|| RtError::method_not_found(o.class(), name))?;
        self.run_forward(pid, Some(receiver.clone()), args)
    }

    pub(crate) fn deconstruct(&mut self, value: &Value, ctor: &str) -> RtResult<Vec<Vec<Value>>> {
        let class = value
            .class()
            .ok_or_else(|| RtError::new("can only deconstruct objects"))?
            .to_owned();
        let pid = self
            .plan
            .lookup_impl(&class, ctor)
            .ok_or_else(|| RtError::method_not_found(&class, ctor))?;
        if let Some(rows) = fast_deconstruct(self.plan, value, pid) {
            return Ok(rows);
        }
        let plan = self.plan;
        let table = self.table;
        let params = &plan.method(pid).info.decl.params;
        let mut solutions = Vec::new();
        self.each_constructor_solution(value, pid, &mut |_, row| {
            // Apply the declared parameter types as patterns, like matching
            // `T name` against each solution value.
            for (p, v) in params.iter().zip(row.iter()) {
                if let Type::Named(t) = &p.ty {
                    if let Some(class) = v.class() {
                        if !table.is_subtype(class, t) {
                            return Ok(true);
                        }
                    }
                }
            }
            solutions.push(row.to_vec());
            Ok(true)
        })?;
        Ok(solutions)
    }

    pub(crate) fn matches_constructor(&mut self, value: &Value, ctor: &str) -> RtResult<bool> {
        Ok(!self.deconstruct(value, ctor)?.is_empty() || {
            // Zero-parameter constructors produce an empty solution row set
            // only when they fail; re-check via a direct predicate solve.
            let class = value.class().unwrap_or_default().to_owned();
            if let Some(pid) = self.plan.lookup_impl(&class, ctor) {
                if self.plan.method(pid).info.decl.params.is_empty() {
                    let mut found = false;
                    self.each_constructor_solution(value, pid, &mut |_, _| {
                        found = true;
                        Ok(false)
                    })?;
                    found
                } else {
                    false
                }
            } else {
                false
            }
        })
    }

    /// The dense type index of an object's class in *this* plan's table.
    /// The common case is one pointer compare (the object's layout is the
    /// table's own); objects built by a different program resolve by name.
    pub(crate) fn obj_index(&self, o: &Object) -> Option<u32> {
        self.table.index_of_layout(o.layout())
    }

    /// Whether the object's layout is this plan's own. Interned symbols are
    /// only meaningful against the interner that produced them, so symbol
    /// reads must never touch a foreign program's layout.
    fn native_layout(&self, o: &Object) -> bool {
        let i = o.layout().type_index();
        (i as usize) < self.table.num_types() && Arc::ptr_eq(self.table.layout_at(i), o.layout())
    }

    /// Field read on an object: the interned-symbol slot scan for native
    /// layouts, the string-keyed lookup for objects built by a different
    /// program (whose interner assigns different symbols).
    fn obj_field<'f>(&self, o: &'f Object, sym: Option<Sym>, name: &str) -> Option<&'f Value> {
        if self.native_layout(o) {
            sym.and_then(|s| o.get_sym(s))
        } else {
            o.get(name)
        }
    }

    /// Resolves a dynamically dispatched `name` on an object through its
    /// dispatch table (one array load), falling back to the string-keyed
    /// walk for names lowered without a table or foreign-class objects.
    pub(crate) fn resolve_dispatch(
        &self,
        dispatch: Option<DispatchId>,
        o: &Object,
        name: &str,
    ) -> Option<PlanId> {
        if let (Some(d), Some(i)) = (dispatch, self.obj_index(o)) {
            return self.plan.dispatch_at(d, i);
        }
        self.plan.lookup_impl(o.class(), name)
    }

    /// Like [`Ev::resolve_dispatch`] with the class-constructor fallback of
    /// constructor-pattern positions (`lookup_impl(..).or(class_ctor(..))`).
    pub(crate) fn resolve_dispatch_or_ctor(
        &self,
        dispatch: Option<DispatchId>,
        o: &Object,
        name: &str,
    ) -> Option<PlanId> {
        if let (Some(d), Some(i)) = (dispatch, self.obj_index(o)) {
            return self
                .plan
                .dispatch_at(d, i)
                .or_else(|| self.plan.class_ctor_at(i));
        }
        self.plan
            .lookup_impl(o.class(), name)
            .or_else(|| self.plan.class_ctor(o.class()))
    }

    /// The statically classed side of a constructor-pattern resolution:
    /// `cr.match_pid` when the class is this table's, the string walk for a
    /// foreign plan's class name.
    pub(crate) fn resolve_static_match(&self, cr: &ClassRef, name: &str) -> Option<PlanId> {
        cr.match_pid.or_else(|| {
            self.plan
                .lookup_impl(&cr.name, name)
                .or_else(|| self.plan.class_ctor(&cr.name))
        })
    }

    pub(crate) fn values_equal(&mut self, a: &Value, b: &Value) -> RtResult<bool> {
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
                // Different classes: try an equality constructor on either
                // side, in its `this`-and-parameter-bound solved form. The
                // `equals` implementation resolves through its dispatch
                // table.
                let plan = self.plan;
                let equals_dispatch = plan.equals_dispatch();
                for (lhs, rhs) in [(a, b), (b, a)] {
                    let Value::Obj(o) = lhs else { continue };
                    if let Some(pid) = self.resolve_dispatch(equals_dispatch, o, "equals") {
                        if let BodyPlan::Formula {
                            equals_bound: Some(form),
                            ..
                        } = &plan.method(pid).body
                        {
                            let mut fr: Frame = vec![None; form.frame.len()];
                            if let Some(&ps) = form.param_slots.first() {
                                fr[ps as usize] = Some(rhs.clone());
                            }
                            let mut found = false;
                            self.solve_form(&mut fr, Some(lhs), form, &mut |_, _| {
                                found = true;
                                Ok(false)
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
    // Forward execution
    // ------------------------------------------------------------------

    pub(crate) fn run_forward(
        &mut self,
        pid: PlanId,
        this: Option<Value>,
        args: Vec<Value>,
    ) -> RtResult<Value> {
        let mp = {
            let plan = self.plan;
            plan.method(pid)
        };
        if args.len() != mp.info.decl.params.len() {
            return Err(RtError::arity_mismatch(
                &mp.info.qualified_name(),
                mp.info.decl.params.len(),
                args.len(),
            ));
        }
        match &mp.body {
            BodyPlan::Absent => Err(RtError::new(format!(
                "{} has no implementation",
                mp.info.qualified_name()
            ))),
            BodyPlan::Formula { forward, .. } => {
                if let Some(fc) = &mp.fast_ctor {
                    // Projection constructor: every field is a vetted
                    // expression over the (ground) arguments, so the layout
                    // fills directly — no frame, no solver.
                    let layout = mp.owner_layout.as_ref().ok_or_else(|| {
                        RtError::new(format!("unknown owner type {}", mp.info.owner))
                    })?;
                    let fields: Vec<Value> = fc
                        .fields
                        .iter()
                        .map(|e| fast_ctor_field(e, &fc.params, &args))
                        .collect::<RtResult<_>>()?;
                    return Ok(Value::Obj(Arc::new(Object::new(
                        Arc::clone(layout),
                        fields,
                    ))));
                }
                let mut fr = self.take_frame(forward.frame.len());
                for (&s, v) in forward.param_slots.iter().zip(args) {
                    fr[s as usize] = Some(v);
                }
                if mp.info.constructs_owner() {
                    // Construction: the fields of the new object are unknowns
                    // solved by the body, read off into the owner layout's
                    // slots (field_slots is in layout order by construction).
                    let layout = mp.owner_layout.as_ref().ok_or_else(|| {
                        RtError::new(format!("unknown owner type {}", mp.info.owner))
                    })?;
                    debug_assert_eq!(layout.num_fields(), forward.field_slots.len());
                    let field_slots = &forward.field_slots;
                    let result_slot = forward.result_slot;
                    let mut result = None;
                    self.solve_form(&mut fr, this.as_ref(), forward, &mut |_, fr| {
                        // A `result = ...` equation (as in Figure 1) takes
                        // precedence over field solving.
                        result = Some(fr[result_slot as usize].clone().unwrap_or_else(|| {
                            let fields: Vec<Value> = field_slots
                                .iter()
                                .map(|(_, s)| fr[*s as usize].clone().unwrap_or(Value::Null))
                                .collect();
                            Value::Obj(Arc::new(Object::new(Arc::clone(layout), fields)))
                        }));
                        Ok(false)
                    })?;
                    self.recycle_frame(fr);
                    result.ok_or_else(|| {
                        RtError::new(format!("{} failed to match", mp.info.qualified_name()))
                    })
                } else {
                    // Ordinary method: solve for `result` (boolean methods
                    // default to "is the body satisfiable").
                    let result_slot = forward.result_slot;
                    let mut result = None;
                    let mut any = false;
                    self.solve_form(&mut fr, this.as_ref(), forward, &mut |_, fr| {
                        any = true;
                        result = fr[result_slot as usize].clone();
                        Ok(false)
                    })?;
                    self.recycle_frame(fr);
                    match (&mp.info.decl.return_type, result) {
                        (Some(Type::Boolean), r) => Ok(r.unwrap_or(Value::Bool(any))),
                        (_, Some(r)) => Ok(r),
                        (Some(Type::Void), None) => Ok(Value::Null),
                        (_, None) if any => Ok(Value::Bool(true)),
                        (_, None) => Err(RtError::new(format!(
                            "{} produced no result",
                            mp.info.qualified_name()
                        ))),
                    }
                }
            }
            BodyPlan::Block(bp) => {
                let mut fr = self.take_frame(bp.frame.len());
                for (&s, v) in bp.param_slots.iter().zip(args) {
                    fr[s as usize] = Some(v);
                }
                let flow = self.exec_bc_block(&mut fr, this.as_ref(), bp.code())?;
                self.recycle_frame(fr);
                match flow {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Value::Null),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Constructor matching (backward / iterative modes)
    // ------------------------------------------------------------------

    /// Solves `pid`'s matching plan against `value` and feeds each
    /// solution's parameter-value row to `each`.
    fn each_constructor_solution(
        &mut self,
        value: &Value,
        pid: PlanId,
        each: &mut dyn FnMut(&mut Ev<'_, '_>, &[Value]) -> RtResult<bool>,
    ) -> RtResult<()> {
        let plan = self.plan;
        let mp = plan.method(pid);
        let BodyPlan::Formula { matching, .. } = &mp.body else {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "backward (pattern-matching)",
            ));
        };
        let param_slots = &matching.param_slots;
        let mut fr = self.take_frame(matching.frame.len());
        self.solve_form(&mut fr, Some(value), matching, &mut |ev, fr| {
            let mut row = Vec::with_capacity(param_slots.len());
            for &s in param_slots {
                match &fr[s as usize] {
                    Some(v) => row.push(v.clone()),
                    // A parameter the solution left unbound: skip it, like
                    // the tree-walker.
                    None => return Ok(true),
                }
            }
            each(ev, &row)
        })?;
        self.recycle_frame(fr);
        Ok(())
    }

    /// Matches `value` against the constructor plan `pid` with argument
    /// patterns in the caller's frame — the plan-level counterpart of the
    /// walker's `match_constructor`.
    fn match_constructor(
        &mut self,
        caller: &mut Frame,
        value: &Value,
        pid: PlanId,
        args: &[PExpr],
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        let plan = self.plan;
        let mp = plan.method(pid);
        let BodyPlan::Formula { matching, .. } = &mp.body else {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "backward (pattern-matching)",
            ));
        };
        let param_slots = &matching.param_slots;
        let mut fr = self.take_frame(matching.frame.len());
        let keep = self.solve_form(&mut fr, Some(value), matching, &mut |ev, fr| {
            let mut row = Vec::with_capacity(param_slots.len());
            for &s in param_slots {
                match &fr[s as usize] {
                    Some(v) => row.push(v.clone()),
                    None => return Ok(true),
                }
            }
            ev.match_args_then(caller, args, &row, emit)
        })?;
        self.recycle_frame(fr);
        Ok(keep)
    }

    /// Matches argument patterns against a solution row (first solution per
    /// pattern, accumulating bindings left to right), runs `k`, and lets
    /// the nested `bind_then` scopes undo the slot writes on the way out —
    /// trail-style, with no whole-frame clone. Pattern-match errors skip
    /// the row, like the tree-walker; errors raised by `k` propagate.
    fn match_args_then(
        &mut self,
        fr: &mut Frame,
        args: &[PExpr],
        values: &[Value],
        k: Emit<'_>,
    ) -> RtResult<bool> {
        self.match_args_from(fr, args, values, 0, k)
    }

    fn match_args_from(
        &mut self,
        fr: &mut Frame,
        args: &[PExpr],
        values: &[Value],
        i: usize,
        k: Emit<'_>,
    ) -> RtResult<bool> {
        let Some(v) = values.get(i) else {
            return k(self, fr);
        };
        let Some(pat) = args.get(i) else {
            return self.match_args_from(fr, args, values, i + 1, k);
        };
        let mut entered_rest = false;
        let mut keep_going = true;
        let r = self.match_pat(fr, None, pat, v, &mut |ev, fr| {
            entered_rest = true;
            keep_going = ev.match_args_from(fr, args, values, i + 1, &mut *k)?;
            // First solution per pattern only.
            Ok(false)
        });
        match r {
            // An error from matching this pattern itself skips the row; an
            // error from deeper work (the rest of the row or `k`) surfaces.
            Err(e) if entered_rest => Err(e),
            Err(_) => Ok(true),
            Ok(_) if !entered_rest => Ok(true),
            Ok(_) => Ok(keep_going),
        }
    }

    // ------------------------------------------------------------------
    // Bytecode execution (threaded formula code)
    // ------------------------------------------------------------------

    /// Enumerates the solutions of a solved form through its threaded
    /// bytecode.
    ///
    /// Forms the determinism analysis annotated `det` commit: after the
    /// first solution the remaining search is abandoned, which the
    /// analysis proved can neither emit nor error — so the observable
    /// transcript is identical to the full (oracle) search.
    pub(crate) fn solve_form(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        form: &SolvedForm,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        if form.det {
            let mut emitted = false;
            let mut keep = true;
            let mut det_emit = |ev: &mut Ev<'_, '_>, fr: &mut Frame| -> RtResult<bool> {
                emitted = true;
                keep = emit(ev, fr)?;
                Ok(false) // commit: the analysis proved no further solutions
            };
            self.solve_goal(fr, this, form.code(), &mut det_emit)?;
            return Ok(if emitted { keep } else { true });
        }
        self.solve_goal(fr, this, form.code(), emit)
    }

    /// Enumerates the solutions of a compiled goal from its entry.
    fn solve_goal(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBody,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        self.solve_bc(fr, this, bc, bc.entry, emit)
    }

    /// Runs threaded bytecode from `pc`: one budget step and one depth
    /// level per entry. Re-entered at continuation boundaries (choice
    /// alternatives, pattern-match and callee continuations); deterministic
    /// instructions thread through `next` pcs inline without recursing.
    pub(crate) fn solve_bc(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBody,
        pc: Pc,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        self.budget.step()?;
        self.depth += 1;
        if self.depth > self.budget.max_depth {
            self.depth -= 1;
            return Err(RtError::limit(
                "depth",
                self.budget.max_depth as u64,
                "solver recursion limit exceeded",
            ));
        }
        let r = self.solve_bc_inner(fr, this, bc, pc, emit);
        self.depth -= 1;
        r
    }

    fn solve_bc_inner(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBody,
        mut pc: Pc,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        // Right-to-left emission makes every `next` / alternative pc
        // strictly smaller than the pc of the instruction holding it, so
        // this loop always terminates.
        loop {
            match &bc.instrs[pc as usize] {
                Instr::Emit => return emit(self, fr),
                Instr::Fail => return Ok(true),
                Instr::Choice(alts) => {
                    for &alt in alts.iter() {
                        if !self.solve_bc(fr, this, bc, alt, &mut *emit)? {
                            return Ok(false);
                        }
                    }
                    return Ok(true);
                }
                Instr::Compare { op, lhs, rhs, next } => {
                    let a = self.eval(fr, this, &bc.exprs[*lhs as usize])?;
                    let b = self.eval(fr, this, &bc.exprs[*rhs as usize])?;
                    let (x, y) = match (a.as_int(), b.as_int()) {
                        (Some(x), Some(y)) => (x, y),
                        _ => {
                            if *op == CmpOp::Ne {
                                if !self.values_equal(&a, &b)? {
                                    pc = *next;
                                    continue;
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
                        pc = *next;
                        continue;
                    }
                    return Ok(true);
                }
                Instr::Test { expr, next } => {
                    let v = self.eval(fr, this, &bc.exprs[*expr as usize])?;
                    if v.as_bool() == Some(true) {
                        pc = *next;
                        continue;
                    }
                    return Ok(true);
                }
                Instr::Unify {
                    lhs,
                    rhs,
                    mode,
                    next,
                } => {
                    let l = &bc.exprs[*lhs as usize];
                    let r = &bc.exprs[*rhs as usize];
                    let next = *next;
                    let mode = match mode {
                        UnifyMode::Dynamic => {
                            match (self.ground(fr, this, l), self.ground(fr, this, r)) {
                                (true, true) => UnifyMode::EvalEval,
                                (true, false) => UnifyMode::EvalMatch,
                                (false, true) => UnifyMode::MatchEval,
                                (false, false) => {
                                    return Err(RtError::new(format!(
                                        "equation with unknowns on both sides is not solvable: \
                                         {l:?} = {r:?}"
                                    )))
                                }
                            }
                        }
                        m => *m,
                    };
                    match mode {
                        UnifyMode::EvalEval => {
                            let a = self.eval(fr, this, l)?;
                            let b = self.eval(fr, this, r)?;
                            if self.values_equal(&a, &b)? {
                                pc = next;
                                continue;
                            }
                            return Ok(true);
                        }
                        UnifyMode::EvalMatch => {
                            let v = self.eval(fr, this, l)?;
                            return self.match_pat(fr, this, r, &v, &mut |ev, fr| {
                                ev.solve_bc(fr, this, bc, next, &mut *emit)
                            });
                        }
                        UnifyMode::MatchEval => {
                            let v = self.eval(fr, this, r)?;
                            return self.match_pat(fr, this, l, &v, &mut |ev, fr| {
                                ev.solve_bc(fr, this, bc, next, &mut *emit)
                            });
                        }
                        UnifyMode::Dynamic => unreachable!("dynamic mode resolved above"),
                    }
                }
                Instr::Invoke {
                    receiver,
                    name,
                    args_start,
                    args_len,
                    dispatch,
                    next,
                } => {
                    let next = *next;
                    let subject: Value = match receiver {
                        Some(r) => {
                            let r = &bc.exprs[*r as usize];
                            if self.ground(fr, this, r) {
                                self.eval(fr, this, r)?
                            } else {
                                return Err(RtError::new("predicate receiver is not ground"));
                            }
                        }
                        None => this
                            .cloned()
                            .ok_or_else(|| RtError::new("predicate call without a receiver"))?,
                    };
                    match &subject {
                        Value::Obj(o) => {
                            let name = &bc.names[*name as usize];
                            let Some(pid) = self.resolve_dispatch(*dispatch, o, name) else {
                                return Err(RtError::method_not_found(o.class(), name));
                            };
                            let args = bc.args(*args_start, *args_len);
                            return self.match_constructor(
                                fr,
                                &subject,
                                pid,
                                args,
                                &mut |ev, fr| ev.solve_bc(fr, this, bc, next, &mut *emit),
                            );
                        }
                        Value::Bool(true) => {
                            pc = next;
                            continue;
                        }
                        Value::Bool(false) => return Ok(true),
                        other => {
                            return Err(RtError::new(format!(
                                "cannot use `{other}` as a predicate receiver"
                            )))
                        }
                    }
                }
                Instr::Not { inner, next } => {
                    let mut found = false;
                    self.solve_bc(fr, this, bc, *inner, &mut |_, _| {
                        found = true;
                        Ok(false)
                    })?;
                    if !found {
                        pc = *next;
                        continue;
                    }
                    return Ok(true);
                }
                Instr::DynSeq { items, next } => {
                    let remaining: Vec<usize> = (0..items.len()).collect();
                    return self.run_ready(fr, this, bc, items, &remaining, *next, emit);
                }
            }
        }
    }

    /// The run-time scheduling of an [`Instr::DynSeq`]: runs the first
    /// remaining item whose readiness check holds on the *current*
    /// bindings, re-selecting after every solution of it, and continues at
    /// `next` once no item remains — exactly the tree-walker's "first ready
    /// conjunct" rule.
    #[allow(clippy::too_many_arguments)]
    fn run_ready(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBody,
        items: &[(ReadyCheck, Pc)],
        remaining: &[usize],
        next: Pc,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        let Some(&chosen) = remaining
            .iter()
            .find(|&&i| self.check_ready(fr, this, &items[i].0))
        else {
            if remaining.is_empty() {
                return self.solve_bc(fr, this, bc, next, emit);
            }
            return Err(RtError::new(
                "formula is not solvable: no conjunct can run with the current bindings",
            ));
        };
        let rest: Vec<usize> = remaining.iter().copied().filter(|&i| i != chosen).collect();
        self.solve_bc(fr, this, bc, items[chosen].1, &mut |ev, fr| {
            ev.run_ready(fr, this, bc, items, &rest, next, emit)
        })
    }

    pub(crate) fn check_ready(&self, fr: &Frame, this: Option<&Value>, c: &ReadyCheck) -> bool {
        match c {
            ReadyCheck::Always => true,
            ReadyCheck::Never => false,
            ReadyCheck::Ground(e) => self.ground(fr, this, e),
            ReadyCheck::EitherGround(a, b) => self.ground(fr, this, a) || self.ground(fr, this, b),
            ReadyCheck::BothGround(a, b) => self.ground(fr, this, a) && self.ground(fr, this, b),
            ReadyCheck::All(cs) => cs.iter().all(|c| self.check_ready(fr, this, c)),
        }
    }

    // ------------------------------------------------------------------
    // Pattern matching
    // ------------------------------------------------------------------

    /// Whether a declaration pattern's class restriction admits `value`
    /// (non-objects are unrestricted, like the old string-keyed check).
    pub(crate) fn class_admits(&self, ty: &Type, check: &ClassCheck, value: &Value) -> bool {
        match check {
            ClassCheck::Any => true,
            ClassCheck::Subtype(i) => match value {
                Value::Obj(o) => match self.obj_index(o) {
                    Some(vi) => self.table.is_subtype_idx(vi, *i),
                    None => self
                        .table
                        .is_subtype(o.class(), self.table.layout_at(*i).name()),
                },
                _ => true,
            },
            ClassCheck::Dynamic => match (ty, value.class()) {
                (Type::Named(t), Some(class)) => self.table.is_subtype(class, t),
                _ => true,
            },
        }
    }

    /// Binds a slot around the continuation, restoring the old value after.
    fn bind_then(
        &mut self,
        fr: &mut Frame,
        slot: SlotId,
        value: Value,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        let old = fr[slot as usize].replace(value);
        let r = emit(self, fr);
        fr[slot as usize] = old;
        r
    }

    pub(crate) fn match_pat(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        pat: &PExpr,
        value: &Value,
        emit: Emit<'_>,
    ) -> RtResult<bool> {
        match pat {
            PExpr::Wildcard => emit(self, fr),
            PExpr::Decl(ty, slot, check) => {
                if !self.class_admits(ty, check, value) {
                    return Ok(true);
                }
                match slot {
                    Some(s) => self.bind_then(fr, *s, value.clone(), emit),
                    None => emit(self, fr),
                }
            }
            PExpr::Name { slot, .. } => match fr[*slot as usize].clone() {
                Some(bound) => {
                    if self.values_equal(&bound, value)? {
                        emit(self, fr)
                    } else {
                        Ok(true)
                    }
                }
                None => self.bind_then(fr, *slot, value.clone(), emit),
            },
            PExpr::Result(slot) => match fr[*slot as usize].clone() {
                Some(bound) => {
                    if self.values_equal(&bound, value)? {
                        emit(self, fr)
                    } else {
                        Ok(true)
                    }
                }
                None => self.bind_then(fr, *slot, value.clone(), emit),
            },
            PExpr::As(a, b) => self.match_pat(fr, this, a, value, &mut |ev, fr| {
                ev.match_pat(fr, this, b, value, emit)
            }),
            PExpr::OrPat(a, b) => {
                if !self.match_pat(fr, this, a, value, emit)? {
                    return Ok(false);
                }
                self.match_pat(fr, this, b, value, emit)
            }
            PExpr::Where(p, goal) => self.match_pat(fr, this, p, value, &mut |ev, fr| {
                ev.solve_goal(fr, this, goal.code(), emit)
            }),
            PExpr::Call {
                receiver,
                name,
                args,
                kind,
                dispatch,
            } => {
                // Constructor pattern: dispatch on the matched value's class
                // (or the statically named class), through the resolutions
                // precomputed at lowering time.
                match (kind, receiver) {
                    (CallKind::StaticConstruct(cr), _) | (CallKind::ClassCtor(cr), None) => {
                        let Some(pid) = self.resolve_static_match(cr, name) else {
                            return Err(RtError::method_not_found(&cr.name, name));
                        };
                        // If the runtime class differs and an equality
                        // constructor exists, convert first.
                        if let Some(vclass) = value.class() {
                            if !self.table.is_subtype(vclass, &cr.name) {
                                if let Some(converted) = self.convert_via_equals(&cr.name, value)? {
                                    return self.match_constructor(fr, &converted, pid, args, emit);
                                }
                                return Ok(true);
                            }
                        }
                        self.match_constructor(fr, value, pid, args, emit)
                    }
                    _ => {
                        // Dynamic: the value's own class (trivially a
                        // subtype of itself, so no conversion applies).
                        let pid = match value {
                            Value::Obj(o) => self.resolve_dispatch_or_ctor(*dispatch, o, name),
                            _ => None,
                        };
                        let Some(pid) = pid else {
                            return Err(RtError::method_not_found(
                                value.class().unwrap_or_default(),
                                name,
                            ));
                        };
                        self.match_constructor(fr, value, pid, args, emit)
                    }
                }
            }
            PExpr::Binary(op, a, b) => {
                // Invertible integer arithmetic: exactly one non-ground side.
                let Some(target) = value.as_int() else {
                    return Ok(true);
                };
                let a_ground = self.ground(fr, this, a);
                let b_ground = self.ground(fr, this, b);
                match (op, a_ground, b_ground) {
                    (_, true, true) => {
                        let v = self.eval(fr, this, pat)?;
                        if self.values_equal(&v, value)? {
                            emit(self, fr)
                        } else {
                            Ok(true)
                        }
                    }
                    (BinOp::Add, true, false) => {
                        let av = self.eval(fr, this, a)?.as_int().unwrap_or(0);
                        self.match_pat(fr, this, b, &Value::Int(target - av), emit)
                    }
                    (BinOp::Add, false, true) => {
                        let bv = self.eval(fr, this, b)?.as_int().unwrap_or(0);
                        self.match_pat(fr, this, a, &Value::Int(target - bv), emit)
                    }
                    (BinOp::Sub, false, true) => {
                        let bv = self.eval(fr, this, b)?.as_int().unwrap_or(0);
                        self.match_pat(fr, this, a, &Value::Int(target + bv), emit)
                    }
                    (BinOp::Sub, true, false) => {
                        let av = self.eval(fr, this, a)?.as_int().unwrap_or(0);
                        self.match_pat(fr, this, b, &Value::Int(av - target), emit)
                    }
                    _ => Err(RtError::new(
                        "cannot invert this arithmetic pattern at run time",
                    )),
                }
            }
            PExpr::Neg(a) => {
                let Some(target) = value.as_int() else {
                    return Ok(true);
                };
                self.match_pat(fr, this, a, &Value::Int(-target), emit)
            }
            other => {
                let v = self.eval(fr, this, other)?;
                if self.values_equal(&v, value)? {
                    emit(self, fr)
                } else {
                    Ok(true)
                }
            }
        }
    }

    /// Converts `value` into an instance of `class` using `class`'s equality
    /// constructor (operationally: find a `class` object equal to `value`).
    pub(crate) fn convert_via_equals(
        &mut self,
        class: &str,
        value: &Value,
    ) -> RtResult<Option<Value>> {
        let plan = self.plan;
        let Some(pid) = plan.lookup_impl(class, "equals") else {
            return Ok(None);
        };
        let decl = &plan.method(pid).info.decl;
        let MethodBody::Formula(body) = &decl.body else {
            return Ok(None);
        };
        let mut env = Bindings::new();
        if let Some(p) = decl.params.first() {
            env.insert(p.name.clone(), value.clone());
        }
        let mut result = None;
        self.try_equals_reconstruction(class, body, &env, &mut result)?;
        Ok(result)
    }

    /// Handles equality-constructor bodies of the shape used in the paper
    /// (Figure 4): a disjunction of `ctor_i(..) && n.ctor_i(..)` conjuncts.
    fn try_equals_reconstruction(
        &mut self,
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
                            receiver: None,
                            ..
                        },
                        Expr::Call {
                            name: other_name,
                            receiver: Some(recv),
                            ..
                        },
                    ) = (own, other)
                    {
                        if own_name == other_name {
                            if let Expr::Var(param) = recv.as_ref() {
                                if let Some(target) = env.get(param).cloned() {
                                    // Deconstruct the target with the shared
                                    // constructor, then rebuild in `class`.
                                    if let Ok(rows) = self.deconstruct(&target, other_name) {
                                        if let Some(row) = rows.first() {
                                            let rebuilt =
                                                self.construct(class, own_name, row.clone())?;
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
                // `n.zero()` style: the whole body is a predicate on the
                // other object; rebuild the matching nullary constructor.
                if let Expr::Var(param) = recv.as_ref() {
                    if let Some(target) = env.get(param).cloned() {
                        if self.matches_constructor(&target, name)? {
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
    pub(crate) fn ground(&self, fr: &Frame, this: Option<&Value>, e: &PExpr) -> bool {
        match e {
            PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
            PExpr::This => this.is_some(),
            PExpr::Result(s) => fr[*s as usize].is_some(),
            PExpr::Wildcard | PExpr::Decl(..) => false,
            PExpr::Name {
                slot,
                name,
                field_sym,
                class_ref,
            } => {
                fr[*slot as usize].is_some()
                    || match this {
                        // Fast path: the interned name hits a slot of the
                        // receiver's layout. Slow path: a field declared on
                        // a supertype (visible to groundness, absent from
                        // the layout, exactly like the old map-based check).
                        Some(Value::Obj(o)) => {
                            self.obj_field(o, *field_sym, name).is_some()
                                || self.table.field_type(o.class(), name).is_some()
                        }
                        _ => false,
                    }
                    || *class_ref
            }
            PExpr::Field(b, _, _) => self.ground(fr, this, b),
            PExpr::Call { receiver, args, .. } => {
                receiver
                    .as_deref()
                    .map(|r| self.ground(fr, this, r))
                    .unwrap_or(true)
                    && args.iter().all(|a| self.ground(fr, this, a))
            }
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) => {
                self.ground(fr, this, a) && self.ground(fr, this, b)
            }
            PExpr::NewArray(_, a) | PExpr::Neg(a) => self.ground(fr, this, a),
            PExpr::Tuple(xs) => xs.iter().all(|x| self.ground(fr, this, x)),
            PExpr::As(a, b) | PExpr::OrPat(a, b) => {
                self.ground(fr, this, a) && self.ground(fr, this, b)
            }
            PExpr::Where(p, _) => self.ground(fr, this, p),
        }
    }

    /// Borrowing evaluation of *place* expressions (bound slots, `this`,
    /// fields of `this`): returns a reference into the frame / receiver
    /// instead of cloning, or `None` when the expression is not a bound
    /// place (the caller falls back to [`Ev::eval`], preserving its error
    /// messages).
    fn eval_place<'f>(
        &self,
        fr: &'f Frame,
        this: Option<&'f Value>,
        e: &PExpr,
    ) -> Option<&'f Value> {
        match e {
            PExpr::This => this,
            PExpr::Result(s) => fr[*s as usize].as_ref(),
            PExpr::Name {
                slot,
                field_sym,
                name,
                ..
            } => match fr[*slot as usize].as_ref() {
                Some(v) => Some(v),
                None => match this {
                    Some(Value::Obj(o)) => self.obj_field(o, *field_sym, name),
                    _ => None,
                },
            },
            _ => None,
        }
    }

    /// Evaluates a ground expression.
    pub(crate) fn eval(&mut self, fr: &Frame, this: Option<&Value>, e: &PExpr) -> RtResult<Value> {
        match e {
            PExpr::Int(n) => Ok(Value::Int(*n)),
            PExpr::Bool(b) => Ok(Value::Bool(*b)),
            PExpr::Str(s) => Ok(Value::Str(s.clone())),
            PExpr::Null => Ok(Value::Null),
            PExpr::This => this
                .cloned()
                .ok_or_else(|| RtError::new("`this` is not in scope")),
            PExpr::Result(s) => fr[*s as usize]
                .clone()
                .ok_or_else(|| RtError::new("`result` is not bound")),
            PExpr::Name {
                slot,
                name,
                field_sym,
                ..
            } => {
                if let Some(v) = &fr[*slot as usize] {
                    return Ok(v.clone());
                }
                if let Some(Value::Obj(o)) = this {
                    if let Some(v) = self.obj_field(o, *field_sym, name) {
                        return Ok(v.clone());
                    }
                }
                Err(RtError::new(format!("unbound variable `{name}`")))
            }
            PExpr::Field(base, field, sym) => {
                // Borrowing fast path: a slot- or `this`-backed base needs
                // no Value clone — one slot scan, one field clone.
                match self.eval_place(fr, this, base) {
                    Some(Value::Obj(o)) => {
                        return self
                            .obj_field(o, *sym, field)
                            .cloned()
                            .ok_or_else(|| RtError::new(format!("no field `{field}`")));
                    }
                    Some(other) => {
                        return Err(RtError::new(format!("field access on non-object {other}")));
                    }
                    None => {}
                }
                let b = self.eval(fr, this, base)?;
                match &b {
                    Value::Obj(o) => self
                        .obj_field(o, *sym, field)
                        .cloned()
                        .ok_or_else(|| RtError::new(format!("no field `{field}`"))),
                    other => Err(RtError::new(format!("field access on non-object {other}"))),
                }
            }
            PExpr::Binary(op, a, b) => {
                let x = self
                    .eval(fr, this, a)?
                    .as_int()
                    .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                let y = self
                    .eval(fr, this, b)?
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
            PExpr::Neg(a) => {
                let x = self
                    .eval(fr, this, a)?
                    .as_int()
                    .ok_or_else(|| RtError::new("negation of non-integer"))?;
                Ok(Value::Int(-x))
            }
            PExpr::Call {
                receiver,
                name,
                args,
                kind,
                dispatch,
            } => {
                let arg_values: RtResult<Vec<Value>> =
                    args.iter().map(|a| self.eval(fr, this, a)).collect();
                let arg_values = arg_values?;
                match kind {
                    CallKind::StaticConstruct(cr) => match cr.construct_pid {
                        Some(pid) => self.run_forward(pid, None, arg_values),
                        // Unresolvable at compile time: the string path
                        // reproduces the original error.
                        None => self.construct(&cr.name, name, arg_values),
                    },
                    CallKind::Instance => {
                        let r = receiver
                            .as_deref()
                            .expect("instance call without a receiver");
                        let recv = self.eval(fr, this, r)?;
                        self.dispatch_method(&recv, name, *dispatch, arg_values)
                    }
                    CallKind::ClassCtor(cr) => {
                        let pid = cr.construct_pid.ok_or_else(|| {
                            RtError::new(format!("no class constructor for `{name}`"))
                        })?;
                        self.run_forward(pid, None, arg_values)
                    }
                    CallKind::Free(pid) => match pid {
                        Some(pid) => self.run_forward(*pid, None, arg_values),
                        None => Err(RtError::method_not_found("<toplevel>", name)),
                    },
                    CallKind::ThisMethod => match this {
                        Some(t) => {
                            let t = t.clone();
                            self.dispatch_method(&t, name, *dispatch, arg_values)
                        }
                        None => Err(RtError::new(format!("cannot resolve call `{name}`"))),
                    },
                    CallKind::Unresolved => {
                        Err(RtError::new(format!("cannot resolve call `{name}`")))
                    }
                }
            }
            PExpr::Tuple(_) => Err(RtError::new("tuples are not first-class values")),
            other => Err(RtError::new(format!("cannot evaluate {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        stmts: &[StmtPlan],
    ) -> RtResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(fr, this, stmt)? {
                Flow::Normal => {}
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    /// First solution of a statement goal, as a frame snapshot.
    fn first_solution(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        goal: &GoalPlan,
    ) -> RtResult<Option<Frame>> {
        let mut sol = None;
        self.solve_goal(fr, this, goal.code(), &mut |_, f| {
            sol = Some(f.clone());
            Ok(false)
        })?;
        Ok(sol)
    }

    /// Commits the first solution of a goal into `fr` (the `let` / `while`
    /// semantics), returning whether one existed. Goals whose bytecode
    /// binds nothing — comparisons, ground tests, negation — skip the frame
    /// snapshot entirely: the common `while (i < n)` shape costs no
    /// allocation.
    fn commit_first(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        goal: &GoalPlan,
    ) -> RtResult<bool> {
        if !goal.code().binds {
            let mut found = false;
            self.solve_goal(fr, this, goal.code(), &mut |_, _| {
                found = true;
                Ok(false)
            })?;
            return Ok(found);
        }
        match self.first_solution(fr, this, goal)? {
            Some(sol) => {
                *fr = sol;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Runs an imperative body through its register bytecode. Statement
    /// shapes without a register lowering delegate to [`Ev::exec_stmt`],
    /// so the observable semantics (solution-frame scoping, error order)
    /// are the statement interpreter's.
    fn exec_bc_block(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBlock,
    ) -> RtResult<Flow> {
        let mut regs = self.take_regs(bc.nregs as usize);
        let mut guards = vec![0u32; bc.nguards as usize];
        let r = self.exec_bc_code(fr, this, bc, &mut regs, &mut guards);
        self.recycle_regs(regs);
        r
    }

    fn exec_bc_code(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        bc: &BcBlock,
        regs: &mut [Value],
        guards: &mut [u32],
    ) -> RtResult<Flow> {
        let mut pc = 0usize;
        loop {
            match &bc.code[pc] {
                SInstr::Const { dst, k } => {
                    regs[*dst as usize] = match &bc.consts[*k as usize] {
                        BcConst::Int(i) => Value::Int(*i),
                        BcConst::Bool(b) => Value::Bool(*b),
                        BcConst::Str(s) => Value::Str(s.clone()),
                        BcConst::Null => Value::Null,
                    };
                }
                SInstr::LoadSlot {
                    dst,
                    slot,
                    name,
                    field_sym,
                } => {
                    let v = match &fr[*slot as usize] {
                        Some(v) => v.clone(),
                        None => {
                            let fallback = match this {
                                Some(Value::Obj(o)) => {
                                    self.obj_field(o, *field_sym, &bc.names[*name as usize])
                                }
                                _ => None,
                            };
                            match fallback {
                                Some(v) => v.clone(),
                                None => {
                                    return Err(RtError::new(format!(
                                        "unbound variable `{}`",
                                        bc.names[*name as usize]
                                    )))
                                }
                            }
                        }
                    };
                    regs[*dst as usize] = v;
                }
                SInstr::LoadThis { dst } => {
                    regs[*dst as usize] = this
                        .cloned()
                        .ok_or_else(|| RtError::new("`this` is not in scope"))?;
                }
                SInstr::LoadField {
                    dst,
                    base,
                    sym,
                    name,
                } => {
                    let v = match &regs[*base as usize] {
                        Value::Obj(o) => self
                            .obj_field(o, *sym, &bc.names[*name as usize])
                            .cloned()
                            .ok_or_else(|| {
                                RtError::new(format!("no field `{}`", bc.names[*name as usize]))
                            })?,
                        other => {
                            return Err(RtError::new(format!("field access on non-object {other}")))
                        }
                    };
                    regs[*dst as usize] = v;
                }
                SInstr::GuardSlot {
                    dst,
                    slot,
                    type_index,
                    if_false,
                } => {
                    // The specialized-statement guard: bound, native-layout,
                    // right class — or the generic compilation runs instead.
                    match &fr[*slot as usize] {
                        Some(v @ Value::Obj(o)) if self.obj_index(o) == Some(*type_index) => {
                            regs[*dst as usize] = v.clone();
                        }
                        _ => {
                            pc = *if_false as usize;
                            continue;
                        }
                    }
                }
                SInstr::LoadFieldIdx { dst, base, idx } => {
                    // Only reachable behind a `ClassIs` / `SwitchJump` guard
                    // that proved the register holds a native-layout object
                    // of the class whose layout assigned `idx`.
                    let Value::Obj(o) = &regs[*base as usize] else {
                        return Err(RtError::new("field access on non-object"));
                    };
                    regs[*dst as usize] = o.fields()[*idx as usize].clone();
                }
                SInstr::Move { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
                SInstr::Bin { dst, op, a, b } => {
                    let x = regs[*a as usize]
                        .as_int()
                        .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                    let y = regs[*b as usize]
                        .as_int()
                        .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                    regs[*dst as usize] = Value::Int(bin_int(*op, x, y)?);
                }
                SInstr::Neg { dst, a } => {
                    let x = regs[*a as usize]
                        .as_int()
                        .ok_or_else(|| RtError::new("negation of non-integer"))?;
                    regs[*dst as usize] = Value::Int(-x);
                }
                SInstr::EvalExpr { dst, expr } => {
                    regs[*dst as usize] = self.eval(fr, this, &bc.exprs[*expr as usize])?;
                }
                SInstr::CallStatic {
                    dst,
                    pid,
                    base,
                    argc,
                } => {
                    let args = regs[*base as usize..*base as usize + *argc as usize].to_vec();
                    regs[*dst as usize] = self.run_forward(*pid as PlanId, None, args)?;
                }
                SInstr::CallDyn {
                    dst,
                    recv,
                    name,
                    dispatch,
                    base,
                    argc,
                } => {
                    let args = regs[*base as usize..*base as usize + *argc as usize].to_vec();
                    let recv = regs[*recv as usize].clone();
                    regs[*dst as usize] =
                        self.dispatch_method(&recv, &bc.names[*name as usize], *dispatch, args)?;
                }
                SInstr::CallThis {
                    dst,
                    name,
                    dispatch,
                    base,
                    argc,
                } => {
                    let args = regs[*base as usize..*base as usize + *argc as usize].to_vec();
                    let name = &bc.names[*name as usize];
                    let t = this
                        .cloned()
                        .ok_or_else(|| RtError::new(format!("cannot resolve call `{name}`")))?;
                    regs[*dst as usize] = self.dispatch_method(&t, name, *dispatch, args)?;
                }
                SInstr::Store { slot, src } => {
                    fr[*slot as usize] = Some(regs[*src as usize].clone());
                }
                SInstr::Ret { src } => return Ok(Flow::Return(regs[*src as usize].clone())),
                SInstr::RetNull => return Ok(Flow::Return(Value::Null)),
                SInstr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                SInstr::ResetGuard { guard } => guards[*guard as usize] = 0,
                SInstr::LoopJump { target, guard } => {
                    guards[*guard as usize] += 1;
                    if guards[*guard as usize] > 1_000_000 {
                        return Err(RtError::new("while loop exceeded iteration budget"));
                    }
                    pc = *target as usize;
                    continue;
                }
                SInstr::CmpJump { op, a, b, if_false } => {
                    // Charges one budget step, like the condition solve it
                    // replaces.
                    self.budget.step()?;
                    let va = &regs[*a as usize];
                    let vb = &regs[*b as usize];
                    let holds = match (va.as_int(), vb.as_int()) {
                        (Some(x), Some(y)) => match op {
                            CmpOp::Le => x <= y,
                            CmpOp::Lt => x < y,
                            CmpOp::Ge => x >= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ne => x != y,
                            CmpOp::Eq => x == y,
                        },
                        _ => {
                            if *op == CmpOp::Ne {
                                let (va, vb) = (va.clone(), vb.clone());
                                !self.values_equal(&va, &vb)?
                            } else {
                                return Err(RtError::new("ordering comparison on non-integers"));
                            }
                        }
                    };
                    if !holds {
                        pc = *if_false as usize;
                        continue;
                    }
                }
                SInstr::TestJump { a, if_false } => {
                    self.budget.step()?;
                    if regs[*a as usize].as_bool() != Some(true) {
                        pc = *if_false as usize;
                        continue;
                    }
                }
                SInstr::ClassIs {
                    a,
                    type_index,
                    if_false,
                } => {
                    let hit = match &regs[*a as usize] {
                        Value::Obj(o) => self.obj_index(o) == Some(*type_index),
                        _ => false,
                    };
                    if !hit {
                        pc = *if_false as usize;
                        continue;
                    }
                }
                SInstr::SwitchJump { scrutinee, table } => {
                    let t = &bc.jumps[*table as usize];
                    pc = match &regs[*scrutinee as usize] {
                        Value::Obj(o) => match self.obj_index(o) {
                            Some(i) if (i as usize) < t.by_type.len() => {
                                t.by_type[i as usize] as usize
                            }
                            _ => t.other as usize,
                        },
                        _ => t.other as usize,
                    };
                    continue;
                }
                SInstr::Switch {
                    scrutinee,
                    table,
                    stmt,
                } => {
                    let StmtPlan::Switch {
                        cases,
                        bodies,
                        default,
                        ..
                    } = &bc.stmts[*stmt as usize]
                    else {
                        return Err(RtError::new("corrupt switch bytecode"));
                    };
                    let values = [regs[*scrutinee as usize].clone()];
                    let indices = [match &values[0] {
                        Value::Obj(o) => self.obj_index(o),
                        _ => None,
                    }];
                    let tbl = &bc.switches[*table as usize];
                    let cands: &[u16] = match indices[0] {
                        Some(i) if (i as usize) < tbl.by_type.len() => &tbl.by_type[i as usize],
                        _ => &tbl.other,
                    };
                    let mut done = None;
                    for &ci in cands {
                        let case = &cases[ci as usize];
                        let body: Option<&[StmtPlan]> = match case.target {
                            CaseTarget::Body(j) => Some(&bodies[j]),
                            CaseTarget::Default => Some(default.as_deref().unwrap_or(&[])),
                            CaseTarget::FellOff => None,
                        };
                        if let Some(flow) = self.exec_case(
                            fr,
                            this,
                            &case.patterns,
                            &case.guards,
                            &values,
                            &indices,
                            0,
                            body,
                        )? {
                            done = Some(flow);
                            break;
                        }
                    }
                    let flow = match done {
                        Some(f) => f,
                        None => match default {
                            Some(d) => self.exec_block(fr, this, d)?,
                            None => return Err(RtError::new("non-exhaustive switch at run time")),
                        },
                    };
                    if let Flow::Return(v) = flow {
                        return Ok(Flow::Return(v));
                    }
                }
                SInstr::ExecStmt { stmt } => {
                    if let Flow::Return(v) = self.exec_stmt(fr, this, &bc.stmts[*stmt as usize])? {
                        return Ok(Flow::Return(v));
                    }
                }
                SInstr::End => return Ok(Flow::Normal),
            }
            pc += 1;
        }
    }

    fn exec_stmt(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        stmt: &StmtPlan,
    ) -> RtResult<Flow> {
        match stmt {
            StmtPlan::Let(goal) => {
                if self.commit_first(fr, this, goal)? {
                    Ok(Flow::Normal)
                } else {
                    Err(RtError::new("let statement failed to match"))
                }
            }
            StmtPlan::Switch {
                scrutinees,
                cases,
                bodies,
                default,
            } => {
                let values: RtResult<Vec<Value>> =
                    scrutinees.iter().map(|s| self.eval(fr, this, s)).collect();
                let values = values?;
                // Resolve each scrutinee's class index once; the per-case
                // tag-dispatch guards test against these.
                let indices: Vec<Option<u32>> = values
                    .iter()
                    .map(|v| match v {
                        Value::Obj(o) => self.obj_index(o),
                        _ => None,
                    })
                    .collect();
                for case in cases {
                    let body: Option<&[StmtPlan]> = match case.target {
                        CaseTarget::Body(j) => Some(&bodies[j]),
                        CaseTarget::Default => Some(default.as_deref().unwrap_or(&[])),
                        CaseTarget::FellOff => None,
                    };
                    if let Some(flow) = self.exec_case(
                        fr,
                        this,
                        &case.patterns,
                        &case.guards,
                        &values,
                        &indices,
                        0,
                        body,
                    )? {
                        return Ok(flow);
                    }
                }
                if let Some(d) = default {
                    return self.exec_block(fr, this, d);
                }
                Err(RtError::new("non-exhaustive switch at run time"))
            }
            StmtPlan::Cond { arms, else_arm } => {
                for (goal, body) in arms {
                    if let Some(sol) = self.first_solution(fr, this, goal)? {
                        let save = std::mem::replace(fr, sol);
                        let flow = self.exec_block(fr, this, body);
                        *fr = save;
                        return flow;
                    }
                }
                if let Some(body) = else_arm {
                    return self.exec_block(fr, this, body);
                }
                Err(RtError::new("non-exhaustive cond at run time"))
            }
            StmtPlan::If { cond, then, els } => match self.first_solution(fr, this, cond)? {
                Some(sol) => {
                    let save = std::mem::replace(fr, sol);
                    let flow = self.exec_block(fr, this, then);
                    *fr = save;
                    flow
                }
                None => match els {
                    Some(e) => self.exec_block(fr, this, e),
                    None => Ok(Flow::Normal),
                },
            },
            StmtPlan::Foreach {
                goal,
                declared,
                body,
            } => {
                let mut solutions: Vec<Frame> = Vec::new();
                self.solve_goal(fr, this, goal.code(), &mut |_, f| {
                    solutions.push(f.clone());
                    Ok(true)
                })?;
                for mut b in solutions {
                    // The loop body sees the solution's bindings plus any
                    // updates made by earlier iterations to outer variables;
                    // outer updates win over stale solution copies, except
                    // for variables the formula declares.
                    for s in 0..fr.len() {
                        match (&fr[s], &b[s]) {
                            (Some(v), None) => b[s] = Some(v.clone()),
                            (Some(v), Some(w)) if w != v && !declared.contains(&(s as SlotId)) => {
                                b[s] = Some(v.clone())
                            }
                            _ => {}
                        }
                    }
                    let flow = self.exec_block(&mut b, this, body)?;
                    // Propagate updates to variables that already existed.
                    for s in 0..fr.len() {
                        if fr[s].is_some() {
                            fr[s] = b[s].clone();
                        }
                    }
                    if let Flow::Return(v) = flow {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            StmtPlan::While { cond, body } => {
                let mut guard = 0;
                loop {
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err(RtError::new("while loop exceeded iteration budget"));
                    }
                    if self.commit_first(fr, this, cond)? {
                        if let Flow::Return(v) = self.exec_block(fr, this, body)? {
                            return Ok(Flow::Return(v));
                        }
                    } else {
                        return Ok(Flow::Normal);
                    }
                }
            }
            StmtPlan::Return(e) => {
                let v = match e {
                    Some(expr) => self.eval(fr, this, expr)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            StmtPlan::Assign(slot, e) => {
                let v = self.eval(fr, this, e)?;
                fr[*slot as usize] = Some(v);
                Ok(Flow::Normal)
            }
            StmtPlan::AssignUnsupported(e) => {
                let _ = self.eval(fr, this, e)?;
                Err(RtError::new("unsupported assignment target"))
            }
            StmtPlan::Expr(e) => {
                let _ = self.eval(fr, this, e)?;
                Ok(Flow::Normal)
            }
            StmtPlan::Block(stmts) => {
                // Record which slots were unbound instead of cloning the
                // frame: inner-only bindings are dropped on exit, updates
                // to outer variables persist.
                let unbound: Vec<usize> = fr
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.is_none().then_some(i))
                    .collect();
                let flow = self.exec_block(fr, this, stmts)?;
                for s in unbound {
                    fr[s] = None;
                }
                Ok(flow)
            }
        }
    }

    /// Matches one `switch` case's patterns left to right against the
    /// scrutinee values (first solution per pattern, tag-dispatch guard
    /// consulted before each matcher runs), executes `body` under the
    /// accumulated bindings, and lets the nested `bind_then` scopes undo
    /// the slot writes on the way out — the trail-style replacement for
    /// the old whole-frame clone per tried case.
    ///
    /// Returns `Ok(None)` when the case does not match. `body` is `None`
    /// for [`CaseTarget::FellOff`], which errors only once every pattern
    /// matched (like the old code).
    #[allow(clippy::too_many_arguments)]
    fn exec_case(
        &mut self,
        fr: &mut Frame,
        this: Option<&Value>,
        patterns: &[PExpr],
        guards: &[CaseGuard],
        values: &[Value],
        indices: &[Option<u32>],
        i: usize,
        body: Option<&[StmtPlan]>,
    ) -> RtResult<Option<Flow>> {
        if i >= patterns.len().min(values.len()) {
            let Some(body) = body else {
                return Err(RtError::new("switch fell off the end"));
            };
            // The case's bindings (and the body's own updates) are local
            // to the body: run it on a scratch copy — the only frame clone
            // of the whole switch, paid just for the case that matched.
            let mut benv = fr.clone();
            return self.exec_block(&mut benv, this, body).map(Some);
        }
        if !guards[i].admits(indices[i]) {
            return Ok(None);
        }
        let mut out: Option<Flow> = None;
        self.match_pat(fr, this, &patterns[i], &values[i], &mut |ev, fr| {
            out = ev.exec_case(fr, this, patterns, guards, values, indices, i + 1, body)?;
            // First solution per pattern only.
            Ok(false)
        })?;
        Ok(out)
    }
}

/// Integer arithmetic shared by the `Bin` bytecode instruction and the
/// fast-constructor field evaluator — one place for the division and
/// remainder guards.
pub(crate) fn bin_int(op: BinOp, x: i64, y: i64) -> RtResult<i64> {
    Ok(match op {
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
    })
}

/// Evaluates one vetted [`FastCtor`](jmatch_core::bytecode::FastCtor) field
/// expression against the argument vector: parameter reads become direct
/// `args` indexing, everything else is literals and integer arithmetic.
fn fast_ctor_field(e: &PExpr, params: &[SlotId], args: &[Value]) -> RtResult<Value> {
    Ok(match e {
        PExpr::Int(i) => Value::Int(*i),
        PExpr::Bool(b) => Value::Bool(*b),
        PExpr::Str(s) => Value::Str(s.clone()),
        PExpr::Null => Value::Null,
        PExpr::Name { slot, .. } => {
            let i = params
                .iter()
                .position(|p| p == slot)
                .expect("fast-ctor names resolve to parameters");
            args[i].clone()
        }
        PExpr::Binary(op, a, b) => {
            let x = fast_ctor_field(a, params, args)?
                .as_int()
                .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
            let y = fast_ctor_field(b, params, args)?
                .as_int()
                .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
            Value::Int(bin_int(*op, x, y)?)
        }
        PExpr::Neg(a) => {
            let x = fast_ctor_field(a, params, args)?
                .as_int()
                .ok_or_else(|| RtError::new("negation of non-integer"))?;
            Value::Int(-x)
        }
        _ => unreachable!("expression shape vetted by `fast_ctor`"),
    })
}

/// Backward-mode twin of the fast-construct path: a pure-permutation
/// constructor ([`FastCtor::projection`](jmatch_core::bytecode::FastCtor))
/// deconstructs by reading the parameter values straight off the object's
/// field storage — no matching form, no solver frame, no per-solution
/// binding maps. Applies only to native-layout objects of the
/// constructor's own class; foreign layouts fall back to the solver,
/// which projects fields by name.
///
/// Returns `None` when the fast path does not apply, `Some(vec![])` when
/// it applies but the declared parameter types reject the one solution
/// (matching the solver's row filter).
pub(crate) fn fast_deconstruct(
    plan: &ProgramPlan,
    value: &Value,
    pid: PlanId,
) -> Option<Vec<Vec<Value>>> {
    let mp = plan.method(pid);
    let proj = mp.fast_ctor.as_ref()?.projection.as_deref()?;
    let layout = mp.owner_layout.as_ref()?;
    let Value::Obj(o) = value else {
        return None;
    };
    if !Arc::ptr_eq(o.layout(), layout) {
        return None;
    }
    let row: Vec<Value> = proj
        .iter()
        .map(|&i| o.fields()[i as usize].clone())
        .collect();
    Some(filter_projection_row(plan, pid, row))
}

/// [`fast_deconstruct`] over an owned scrutinee — the first slice of
/// Perceus-style memory reuse: when the `Arc` is uniquely held and the
/// permutation is the identity, the solution row takes over the object's
/// own `Box<[Value]>` in place (`Arc::get_mut`, then `Box::into_vec` —
/// no allocation, no refcount traffic on the field values). Shared or
/// permuted scrutinees clone per field, like the borrowed path.
///
/// `Err` hands the value back when the fast path does not apply.
pub(crate) fn fast_deconstruct_owned(
    plan: &ProgramPlan,
    value: Value,
    pid: PlanId,
) -> Result<Vec<Vec<Value>>, Value> {
    let mp = plan.method(pid);
    let (Some(fc), Some(layout)) = (&mp.fast_ctor, &mp.owner_layout) else {
        return Err(value);
    };
    let Some(proj) = fc.projection.as_deref() else {
        return Err(value);
    };
    match value {
        Value::Obj(mut o) if Arc::ptr_eq(o.layout(), layout) => {
            let identity = proj.iter().enumerate().all(|(i, &s)| s as usize == i);
            let row: Vec<Value> = match (identity, Arc::get_mut(&mut o)) {
                (true, Some(obj)) => obj.take_fields().into_vec(),
                _ => proj
                    .iter()
                    .map(|&i| o.fields()[i as usize].clone())
                    .collect(),
            };
            Ok(filter_projection_row(plan, pid, row))
        }
        v => Err(v),
    }
}

/// Applies the declared parameter types to a projected row, like the
/// solver does to each solution: a typed parameter holding an object of
/// a non-subtype class rejects the row.
fn filter_projection_row(plan: &ProgramPlan, pid: PlanId, row: Vec<Value>) -> Vec<Vec<Value>> {
    let table = plan.table();
    let params = &plan.method(pid).info.decl.params;
    for (p, v) in params.iter().zip(row.iter()) {
        if let Type::Named(t) = &p.ty {
            if let Some(class) = v.class() {
                if !table.is_subtype(class, t) {
                    return Vec::new();
                }
            }
        }
    }
    vec![row]
}
