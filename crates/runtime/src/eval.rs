//! Deterministic evaluation: the work of the plan engine that never
//! enumerates — ground expressions, structural equality, dispatch
//! resolution, class checks, forward-call set-up and imperative block
//! code — written as further methods of the one [`Machine`].
//!
//! Frames are addressed by index into the machine's frame arena, so a
//! forward call inside an expression can push its own activation and run
//! its body as a *nested run* of the machine already running (see
//! [`crate::machine`]): the search rules exist once, in `machine.rs`.
//!
//! * **bindings** are slot writes in flat frames (`Vec<Option<Value>>`);
//! * **calls** resolve through the plan's precompiled dispatch indices
//!   instead of walking the supertype chain;
//! * **imperative bodies** run as [`BcBlock`] register code, every
//!   statement included: statement goals, `foreach` goals and `switch`
//!   case patterns are handed to the machine as nested runs, and the
//!   bodies of structured statements are sub-chains of the block's stream
//!   that [`Machine::exec_bc_code`] re-enters, following the block's scope
//!   rule.
//!
//! The observable behavior — values, bindings, enumeration order, and
//! failures — is kept identical to the tree-walker's; `tests/differential.rs`
//! runs every corpus program through both engines and asserts it.

use crate::machine::Machine;
use crate::{Bindings, Flow, Object, RtError, RtResult, Value};
use jmatch_core::bytecode::{BcBlock, Const as BcConst, Pc, SInstr};
use jmatch_core::intern::Sym;
use jmatch_core::lower::{
    BodyPlan, CallKind, ClassCheck, ClassRef, DispatchId, MethodPlan, PExpr, PlanId, ReadyCheck,
    SlotId,
};
use jmatch_syntax::ast::{BinOp, CmpOp, Expr, Formula, MethodBody, Type};
use std::sync::Arc;

/// A frame of variable slots.
pub(crate) type Frame = Vec<Option<Value>>;

/// The work budget of one evaluation: a step counter plus the depth / step
/// ceilings, so every entry point (forward calls, constructions and
/// [`crate::Solutions`] queries, all run on one [`Machine`]) honors the
/// same [`crate::Limits`].
#[derive(Debug, Clone)]
pub(crate) struct Budget {
    /// Machine steps spent so far.
    pub(crate) steps: u64,
    /// Ceiling on `steps` (the configured [`crate::Limits::max_steps`]).
    pub(crate) max_steps: u64,
    /// Ceiling on the machine's activation frames.
    pub(crate) max_depth: usize,
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
        if self.steps > self.max_steps {
            return Err(RtError::limit(
                "steps",
                self.max_steps,
                "solver step budget exceeded",
            ));
        }
        Ok(())
    }
}

/// Interrupt tokens are polled when `steps & MASK == 0`, every 256 steps:
/// a served request's cancel or deadline stops a runaway enumeration within
/// 256 machine steps, while the step loop pays one atomic load per 256
/// steps instead of one per step.
const INTERRUPT_POLL_MASK: u64 = 0xFF;

impl Default for Budget {
    /// Matches [`crate::Limits::default`].
    fn default() -> Self {
        Budget::new(MAX_DEPTH, u64::MAX)
    }
}

/// Default bound on the machine's activation frames: the query's root,
/// each constructor match and each forward call hold one. Frames of the
/// outermost search live on the heap, so this bounds memory, not the
/// native stack; the native recursion of nested runs (forward calls
/// inside expressions, equality constructors, negation, statement goals)
/// is bounded separately by [`check_stack`].
pub(crate) const MAX_DEPTH: usize = 1_000;

/// Native stack assumed for a thread that did not declare its own through
/// [`declare_thread_stack`]: the std default for spawned threads, which
/// every `cargo test` thread also gets.
const ASSUMED_THREAD_STACK: usize = 2 << 20;

/// Native stack kept back below the guard: the frames above the first
/// check that the guard cannot see (thread start-up, the thread library's
/// own data at the top of the stack, the embedder's callers), the last
/// level's overshoot past its check, and the work below the deepest check
/// (the level's leaf expression, building the error).
///
/// Measured with `ConsList.size()` (`result = tail.size() + 1`, the
/// recursion of `tests/stack_guard.rs`) on a 2 MiB x86-64 thread, one
/// forward-call level costs about 2.8 KiB on the machine and 5.9 KiB on
/// the tree walker in a release build, and 28–30 KiB on either in a debug
/// build. The smallest reserve that still ended that recursion without
/// overflowing was 12 KiB (release machine), 16 KiB (release walker),
/// 20 KiB (debug walker) and 32 KiB (debug machine: one 28 KiB level of
/// overshoot plus about 4 KiB above the first check and below the last);
/// the reserve is twice the largest. On a 2 MiB thread the guard so trips
/// after about 735 machine or 340 walker levels in a release build and
/// 65–70 in a debug build; a thread declared at 8 MiB reaches the default
/// depth ceiling of 1,000 frames first.
const STACK_RESERVE: usize = 64 << 10;

/// The native-stack bounds of the current thread.
#[derive(Clone, Copy)]
struct StackBounds {
    /// The highest stack address the guard knows of: the declaration point
    /// of a declared thread, else the shallowest check seen so far.
    top: usize,
    /// Checks below this address trip the guard.
    floor: usize,
    /// The stack size [`declare_thread_stack`] fixed the bounds with; the
    /// bounds of an undeclared thread follow its shallowest check.
    declared: Option<usize>,
}

thread_local! {
    static STACK: std::cell::Cell<StackBounds> = const {
        std::cell::Cell::new(StackBounds {
            top: 0,
            floor: 0,
            declared: None,
        })
    };
}

/// Declares that the calling thread's native stack is `bytes` long and that
/// the caller sits near its top, so evaluations on the thread may recurse
/// as deep as that stack allows. Call it first thing in a thread spawned
/// with [`std::thread::Builder::stack_size`] (or at the top of `main`, whose
/// stack is the platform's); a thread that declares nothing is assumed to
/// have the 2 MiB std default, measured from the shallowest point the
/// runtime was entered from.
///
/// ```
/// let worker = std::thread::Builder::new()
///     .stack_size(16 << 20)
///     .spawn(|| {
///         jmatch_runtime::declare_thread_stack(16 << 20);
///         // ... run deeply recursive calls ...
///     })
///     .unwrap();
/// worker.join().unwrap();
/// ```
pub fn declare_thread_stack(bytes: usize) {
    let top = stack_position();
    STACK.with(|s| {
        s.set(StackBounds {
            top,
            floor: top.saturating_sub(bytes.saturating_sub(STACK_RESERVE)),
            declared: Some(bytes),
        })
    });
}

/// The native-stack guard of both engines, checked wherever evaluation
/// recurses natively (the machine's frame pushes, the tree walker's
/// solving steps and forward calls): errors with `LimitExceeded` on
/// `"depth"` (reporting `max_depth`, the configured ceiling) once the stack
/// reaches the thread's floor, instead of overflowing and aborting the
/// process. The bounds are per thread, so a walker or program built on one
/// thread and run on another is measured where it runs. Stack use per
/// level differs between debug and release builds and between engines, so
/// the guard measures bytes, not levels; stacks grow downwards on every
/// supported target.
pub(crate) fn check_stack(max_depth: usize) -> RtResult<()> {
    let pos = stack_position();
    let bounds = STACK.with(|s| s.get());
    if pos < bounds.floor {
        return Err(RtError::limit(
            "depth",
            max_depth as u64,
            format!(
                "native stack guard tripped {} bytes below the thread's known top",
                bounds.top - pos
            ),
        ));
    }
    if pos > bounds.top && bounds.declared.is_none() {
        STACK.with(|s| {
            s.set(StackBounds {
                top: pos,
                floor: pos.saturating_sub(ASSUMED_THREAD_STACK - STACK_RESERVE),
                declared: None,
            })
        });
    }
    Ok(())
}

/// The address of a local in the caller's frame: how deep the native stack
/// currently is.
#[inline(always)]
fn stack_position() -> usize {
    let probe = 0u8;
    std::hint::black_box(&probe) as *const u8 as usize
}

thread_local! {
    /// Recycled activation frames and register files. Thread-local rather
    /// than per-machine: the API constructs a fresh [`Machine`] per call,
    /// so machine-owned pools would start empty on every iteration of a hot
    /// caller loop and pay one heap allocation per call.
    static POOLS: std::cell::RefCell<(Vec<Frame>, Vec<Vec<Value>>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// A zeroed frame of `n` slots, reusing a recycled allocation when one is
/// available.
pub(crate) fn take_frame(n: usize) -> Frame {
    match POOLS.with(|p| p.borrow_mut().0.pop()) {
        Some(mut f) => {
            f.resize(n, None);
            f
        }
        None => vec![None; n],
    }
}

/// Returns a finished activation frame to the pool.
pub(crate) fn recycle_frame(mut f: Frame) {
    f.clear();
    POOLS.with(|p| {
        let pool = &mut p.borrow_mut().0;
        if pool.len() < 64 {
            pool.push(f);
        }
    });
}

/// A null-filled register file of `n` registers, reusing a recycled
/// allocation when one is available.
fn take_regs(n: usize) -> Vec<Value> {
    match POOLS.with(|p| p.borrow_mut().1.pop()) {
        Some(mut r) => {
            r.resize(n, Value::Null);
            r
        }
        None => vec![Value::Null; n],
    }
}

/// Returns a finished register file to the pool.
fn recycle_regs(mut r: Vec<Value>) {
    r.clear();
    POOLS.with(|p| {
        let pool = &mut p.borrow_mut().1;
        if pool.len() < 64 {
            pool.push(r);
        }
    });
}

impl<'g> Machine<'g> {
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
            .ok_or_else(|| RtError::new("can only deconstruct objects"))?;
        let pid = self
            .plan
            .lookup_impl(class, ctor)
            .ok_or_else(|| RtError::method_not_found(class, ctor))?;
        self.deconstruct_rows(value, pid)
    }

    /// Predicate use of a named constructor: whether any solution row
    /// survives (a zero-parameter constructor's row is empty, so any
    /// solution counts).
    pub(crate) fn matches_constructor(&mut self, value: &Value, ctor: &str) -> RtResult<bool> {
        Ok(!self.deconstruct(value, ctor)?.is_empty())
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

    /// Like [`Machine::resolve_dispatch`] with the class-constructor
    /// fallback of constructor-pattern positions
    /// (`lookup_impl(..).or(class_ctor(..))`).
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
                self.equal_by_constructor(a, b)
            }
            _ => Ok(a == b),
        }
    }

    /// Equality of objects of different classes: an equality constructor
    /// on either side, in its `this`-and-parameter-bound solved form, run
    /// as a nested run. The `equals` implementation resolves through its
    /// dispatch table.
    fn equal_by_constructor(&mut self, a: &Value, b: &Value) -> RtResult<bool> {
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
                    let mut fr = take_frame(form.frame.len());
                    if let Some(&ps) = form.param_slots.first() {
                        fr[ps as usize] = Some(rhs.clone());
                    }
                    let found = self.solve_fresh(fr, Some(lhs.clone()), form.code(), |_| ())?;
                    return Ok(found.is_some());
                }
            }
        }
        Ok(false)
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
        let plan = self.plan;
        let mp = plan.method(pid);
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
                let mut fr = take_frame(forward.frame.len());
                for (&s, v) in forward.param_slots.iter().zip(args) {
                    fr[s as usize] = Some(v);
                }
                let result_slot = forward.result_slot as usize;
                if mp.info.constructs_owner() {
                    // Construction: the fields of the new object are unknowns
                    // solved by the body, read off into the owner layout's
                    // slots (field_slots is in layout order by construction).
                    let layout = mp.owner_layout.as_ref().ok_or_else(|| {
                        RtError::new(format!("unknown owner type {}", mp.info.owner))
                    })?;
                    debug_assert_eq!(layout.num_fields(), forward.field_slots.len());
                    let result = self.solve_fresh(fr, this, forward.code(), |fr| {
                        // A `result = ...` equation (as in Figure 1) takes
                        // precedence over field solving.
                        fr[result_slot].clone().unwrap_or_else(|| {
                            let fields: Vec<Value> = forward
                                .field_slots
                                .iter()
                                .map(|(_, s)| fr[*s as usize].clone().unwrap_or(Value::Null))
                                .collect();
                            Value::Obj(Arc::new(Object::new(Arc::clone(layout), fields)))
                        })
                    })?;
                    result.ok_or_else(|| {
                        RtError::new(format!("{} failed to match", mp.info.qualified_name()))
                    })
                } else {
                    // Ordinary method: solve for `result` (boolean methods
                    // default to "is the body satisfiable").
                    let solution =
                        self.solve_fresh(fr, this, forward.code(), |fr| fr[result_slot].clone())?;
                    let any = solution.is_some();
                    match (&mp.info.decl.return_type, solution.flatten()) {
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
                let mut fr = take_frame(bp.frame.len());
                for (&s, v) in bp.param_slots.iter().zip(args) {
                    fr[s as usize] = Some(v);
                }
                let fi = self.push_frame(fr, this)?;
                let flow = self.exec_bc_block(fi, bp.code());
                self.truncate_frames(fi);
                match flow? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Value::Null),
                }
            }
        }
    }

    pub(crate) fn check_ready(&self, fi: usize, c: &ReadyCheck) -> bool {
        match c {
            ReadyCheck::Always => true,
            ReadyCheck::Never => false,
            ReadyCheck::Ground(e) => self.ground(fi, e),
            ReadyCheck::EitherGround(a, b) => self.ground(fi, a) || self.ground(fi, b),
            ReadyCheck::BothGround(a, b) => self.ground(fi, a) && self.ground(fi, b),
            ReadyCheck::All(cs) => cs.iter().all(|c| self.check_ready(fi, c)),
        }
    }

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

    /// Whether every variable the expression mentions is bound in frame
    /// `fi`.
    pub(crate) fn ground(&self, fi: usize, e: &PExpr) -> bool {
        let f = &self.frames[fi];
        self.ground_in(&f.slots, f.this.as_ref(), e)
    }

    fn ground_in(&self, fr: &Frame, this: Option<&Value>, e: &PExpr) -> bool {
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
            PExpr::Field(b, _, _) => self.ground_in(fr, this, b),
            PExpr::Call { receiver, args, .. } => {
                receiver
                    .as_deref()
                    .map(|r| self.ground_in(fr, this, r))
                    .unwrap_or(true)
                    && args.iter().all(|a| self.ground_in(fr, this, a))
            }
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) => {
                self.ground_in(fr, this, a) && self.ground_in(fr, this, b)
            }
            PExpr::NewArray(_, a) | PExpr::Neg(a) => self.ground_in(fr, this, a),
            PExpr::Tuple(xs) => xs.iter().all(|x| self.ground_in(fr, this, x)),
            PExpr::As(a, b) | PExpr::OrPat(a, b) => {
                self.ground_in(fr, this, a) && self.ground_in(fr, this, b)
            }
            PExpr::Where(p, _) => self.ground_in(fr, this, p),
        }
    }

    /// Borrowing evaluation of *place* expressions (bound slots, `this`,
    /// fields of `this`): returns a reference into the frame / receiver
    /// instead of cloning, or `None` when the expression is not a bound
    /// place (the caller falls back to [`Machine::eval`], preserving its error
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

    /// Evaluates a ground expression in frame `fi`.
    pub(crate) fn eval(&mut self, fi: usize, e: &PExpr) -> RtResult<Value> {
        match e {
            PExpr::Int(n) => Ok(Value::Int(*n)),
            PExpr::Bool(b) => Ok(Value::Bool(*b)),
            PExpr::Str(s) => Ok(Value::Str(s.clone())),
            PExpr::Null => Ok(Value::Null),
            PExpr::This => self.frames[fi]
                .this
                .clone()
                .ok_or_else(|| RtError::new("`this` is not in scope")),
            PExpr::Result(s) => self.frames[fi].slots[*s as usize]
                .clone()
                .ok_or_else(|| RtError::new("`result` is not bound")),
            PExpr::Name { name, .. } => {
                let f = &self.frames[fi];
                self.eval_place(&f.slots, f.this.as_ref(), e)
                    .cloned()
                    .ok_or_else(|| RtError::new(format!("unbound variable `{name}`")))
            }
            PExpr::Field(base, field, sym) => {
                // Borrowing fast path: a slot- or `this`-backed base needs
                // no Value clone — one slot scan, one field clone.
                let f = &self.frames[fi];
                match self.eval_place(&f.slots, f.this.as_ref(), base) {
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
                let b = self.eval(fi, base)?;
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
                    .eval(fi, a)?
                    .as_int()
                    .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                let y = self
                    .eval(fi, b)?
                    .as_int()
                    .ok_or_else(|| RtError::new("arithmetic on non-integer"))?;
                Ok(Value::Int(bin_int(*op, x, y)?))
            }
            PExpr::Neg(a) => {
                let x = self
                    .eval(fi, a)?
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
                    args.iter().map(|a| self.eval(fi, a)).collect();
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
                        let recv = self.eval(fi, r)?;
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
                    CallKind::ThisMethod => match self.frames[fi].this.clone() {
                        Some(t) => self.dispatch_method(&t, name, *dispatch, arg_values),
                        None => Err(RtError::new(format!("cannot resolve call `{name}`"))),
                    },
                    CallKind::Unresolved => {
                        Err(RtError::new(format!("cannot resolve call `{name}`")))
                    }
                }
            }
            PExpr::Tuple(_) => Err(RtError::new("tuples are not first-class values")),
            other => Err(RtError::new(format!("cannot evaluate {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Runs an imperative body through its register bytecode in frame `fi`.
    fn exec_bc_block(&mut self, fi: usize, bc: &'g BcBlock) -> RtResult<Flow> {
        let mut regs = take_regs(bc.nregs as usize);
        let mut guards = vec![0u32; bc.nguards as usize];
        let r = self.exec_bc_code(fi, bc, &mut regs, &mut guards, 0);
        recycle_regs(regs);
        r
    }

    /// Runs block code from `pc` to the first [`SInstr::End`] (the body's
    /// end or a sub-chain's) or `return`.
    fn exec_bc_code(
        &mut self,
        fi: usize,
        bc: &'g BcBlock,
        regs: &mut [Value],
        guards: &mut [u32],
        pc: Pc,
    ) -> RtResult<Flow> {
        let mut pc = pc as usize;
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
                    let f = &self.frames[fi];
                    let v = match &f.slots[*slot as usize] {
                        Some(v) => v.clone(),
                        None => {
                            let fallback = match &f.this {
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
                    regs[*dst as usize] = self.frames[fi]
                        .this
                        .clone()
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
                    match &self.frames[fi].slots[*slot as usize] {
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
                    regs[*dst as usize] = self.eval(fi, &bc.exprs[*expr as usize])?;
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
                    let t = self.frames[fi]
                        .this
                        .clone()
                        .ok_or_else(|| RtError::new(format!("cannot resolve call `{name}`")))?;
                    regs[*dst as usize] = self.dispatch_method(&t, name, *dispatch, args)?;
                }
                SInstr::Store { slot, src } => {
                    self.frames[fi].slots[*slot as usize] = Some(regs[*src as usize].clone());
                }
                SInstr::Ret { src } => return Ok(Flow::Return(regs[*src as usize].clone())),
                SInstr::RetNull => return Ok(Flow::Return(Value::Null)),
                SInstr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                SInstr::ResetGuard { guard } => guards[*guard as usize] = 0,
                SInstr::LoopJump { target, guard } => {
                    // Counts completed iterations: the condition is about to
                    // run for the (count + 1)-th time.
                    let count = &mut guards[*guard as usize];
                    *count += 1;
                    if *count >= crate::MAX_WHILE_CONDITIONS {
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
                SInstr::Solve { goal, if_false } => {
                    if !self.solve_first(fi, &bc.goals[*goal as usize])? {
                        pc = *if_false as usize;
                        continue;
                    }
                }
                SInstr::Scope {
                    goal,
                    if_false,
                    next,
                } => {
                    let unbound = self.unbound_slots(fi);
                    if let Some(g) = goal {
                        if !self.solve_first(fi, &bc.goals[*g as usize])? {
                            pc = *if_false as usize;
                            continue;
                        }
                    }
                    let flow = self.exec_bc_code(fi, bc, regs, guards, pc as Pc + 1)?;
                    self.unbind(fi, &unbound);
                    if let Flow::Return(v) = flow {
                        return Ok(Flow::Return(v));
                    }
                    pc = *next as usize;
                    continue;
                }
                SInstr::Foreach { goal, next } => {
                    // Every solution is collected before the first iteration:
                    // its values of the slots unbound on entry, in one row.
                    let unbound = self.unbound_slots(fi);
                    let (rows, n) = self.solve_all(fi, &bc.goals[*goal as usize], &unbound)?;
                    let mut rows = rows.into_iter();
                    for _ in 0..n {
                        for &s in &unbound {
                            self.frames[fi].slots[s] = rows.next().flatten();
                        }
                        let flow = self.exec_bc_code(fi, bc, regs, guards, pc as Pc + 1)?;
                        self.unbind(fi, &unbound);
                        if let Flow::Return(v) = flow {
                            return Ok(Flow::Return(v));
                        }
                    }
                    pc = *next as usize;
                    continue;
                }
                SInstr::Switch {
                    scrutinees,
                    count,
                    table,
                    next,
                } => {
                    let tbl = &bc.switches[*table as usize];
                    let values = &regs[*scrutinees as usize..][..*count as usize];
                    let index = match values.first() {
                        Some(Value::Obj(o)) => self.obj_index(o),
                        _ => None,
                    };
                    let cands = index.and_then(|i| tbl.by_type.get(i as usize));
                    // Only a matched case's body is a scope, entered with
                    // the case's bindings.
                    let mut unbound = self.unbound_slots(fi);
                    let mut body = None;
                    for &c in cands.unwrap_or(&tbl.other).iter() {
                        let case = &tbl.cases[c as usize];
                        let patterns = &bc.exprs[case.patterns as usize..][..case.guards.len()];
                        if self.case_matches(fi, patterns, &case.guards, values)? {
                            body = Some(case.body);
                            break;
                        }
                    }
                    let body = body.unwrap_or_else(|| {
                        unbound.clear();
                        tbl.default
                    });
                    let flow = self.exec_bc_code(fi, bc, regs, guards, body)?;
                    self.unbind(fi, &unbound);
                    if let Flow::Return(v) = flow {
                        return Ok(Flow::Return(v));
                    }
                    pc = *next as usize;
                    continue;
                }
                SInstr::Fail { msg } => return Err(RtError::new(*msg)),
                SInstr::End => return Ok(Flow::Normal),
            }
            pc += 1;
        }
    }

    /// The slots of frame `fi` a scope entered here unbinds on exit (see
    /// [`BcBlock`]): updates to every other slot persist.
    fn unbound_slots(&self, fi: usize) -> Vec<usize> {
        let fr = &self.frames[fi].slots;
        (0..fr.len()).filter(|&s| fr[s].is_none()).collect()
    }

    /// Leaves a scope: unbinds the slots it entered with unbound.
    fn unbind(&mut self, fi: usize, slots: &[usize]) {
        let fr = &mut self.frames[fi].slots;
        slots.iter().for_each(|&s| fr[s] = None);
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
/// field storage — no matching form, no solver frame. Applies only to
/// native-layout objects of the constructor's own class; foreign layouts
/// fall back to the solver, which projects fields by name.
///
/// Returns the one solution row, before the declared parameter types
/// filter it, or `None` when the fast path does not apply.
pub(crate) fn fast_deconstruct(mp: &MethodPlan, value: &Value) -> Option<Vec<Value>> {
    let proj = mp.fast_ctor.as_ref()?.projection.as_deref()?;
    let layout = mp.owner_layout.as_ref()?;
    let Value::Obj(o) = value else {
        return None;
    };
    if !Arc::ptr_eq(o.layout(), layout) {
        return None;
    }
    Some(
        proj.iter()
            .map(|&i| o.fields()[i as usize].clone())
            .collect(),
    )
}
