//! The embedding API: compile once, query many, pull solutions lazily.
//!
//! This is the host-language surface of the paper's Java_yield story
//! (§2.3, §5): a JMatch program is compiled **once** into a [`Program`]
//! (class table + lowered query plans), handles resolve method lookups
//! **once** into [`MethodRef`] / [`CtorRef`], and every enumeration —
//! deconstruction, iterative-mode calls, raw formula solving — is a
//! [`Query`] whose [`Solutions`] is a genuine pull-based
//! [`Iterator`]: `query.solutions().take(1)` does the work of the first
//! solution, not of the whole enumeration.
//!
//! ```text
//! Workspace ──compile──▶ Program ──method/ctor──▶ MethodRef / CtorRef
//!                           │                          │
//!                           └──deconstruct/solve──▶ Query ──solutions──▶ Solutions
//! ```
//!
//! [`Program`] is cheap to clone and `Send + Sync`, so one compilation can
//! serve any number of threads; the per-query state lives in the
//! [`Solutions`] iterator. With [`Engine::Plan`] (the default) iteration is
//! driven by the resumable stack machine of [`crate::machine`].
//! [`Engine::TreeWalk`], which only [`Program::with_engine`] selects, is
//! the test oracle: it collects a query's solutions eagerly before the
//! iterator yields the first one, so its enumerations must be finite
//! within the query's [`Limits`].

use crate::eval::{Budget, Frame, MAX_DEPTH};
use crate::machine::Machine;
use crate::tree::TreeWalker;
use crate::{Bindings, Engine, RtError, RtResult, Value};
use jmatch_core::diag::Diagnostics;
use jmatch_core::lower::{BodyPlan, FrameLayout, PlanId, ProgramPlan, SlotId, SolvedForm};
use jmatch_core::table::ClassTable;
use jmatch_core::Warning;
use jmatch_syntax::ast::{Formula, MethodBody, Param, Type};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------------

/// Work ceilings honored **identically by both engines** on every query and
/// call.
///
/// `max_depth` bounds solver nesting (on the plan engine: the machine's
/// activation frames — the query's root, constructor matches and forward
/// calls); `max_steps` bounds total solver steps. Either limit being hit
/// ends the enumeration with an
/// [`RtErrorKind::LimitExceeded`](crate::RtErrorKind::LimitExceeded) error.
///
/// This replaces the pre-redesign interpreter's per-call `depth`
/// parameter, which the tree-walker honored and the plan engine silently
/// ignored.
///
/// The default `max_depth` is 1,000 on *both* engines, metered across
/// constructor matches. That is stricter than the legacy tree-walker's
/// fixed 10,000 budget (which reset at every constructor match, so it
/// never bounded structural recursion at all); raise it with
/// [`Program::with_limits`] / [`Query::limits`] for deeply recursive
/// enumerations. The plan engine keeps the frames of a query's own search
/// on the heap, so a large ceiling is safe for constructor matching.
/// Forward calls inside expressions (and every recursion of the
/// tree-walker) also recurse on the native stack, so a raised ceiling
/// takes them only as deep as the thread's stack allows: a guard on both
/// engines ends them with `LimitExceeded` on `"depth"` before the stack
/// overflows. A thread is assumed to have the 2 MiB std default — about
/// 735 release-build levels of a simple recursive method on the plan
/// engine and 340 on the tree-walker — unless it declares its real stack
/// with [`crate::declare_thread_stack`]; on 8 MiB the default ceiling of
/// 1,000 trips first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Ceiling on solver nesting depth.
    pub max_depth: usize,
    /// Ceiling on total solver steps per query / call.
    pub max_steps: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_depth: MAX_DEPTH,
            max_steps: u64::MAX,
        }
    }
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/// A compiled JMatch program: the resolved class table plus the lowered
/// query plans, ready to be queried from any thread.
///
/// `Program` is cheap to clone (three `Arc`s and two small copies) and
/// `Send + Sync`: compile once, hand clones to every worker. Clones,
/// [`Program::with_limits`] / [`Program::with_engine`] copies and handles
/// share one memo of iterative-mode solved forms (see
/// [`MethodRef::iterate`]).
#[derive(Debug, Clone)]
pub struct Program {
    plan: Arc<ProgramPlan>,
    engine: Engine,
    limits: Limits,
    diagnostics: Arc<Diagnostics>,
    iterate_forms: Arc<IterateForms>,
}

/// The memoized iterative-mode solved forms of one compiled generation,
/// keyed by the method and the binding shape lowering depends on: the
/// sorted bound names and the receiver's class (`None` = no receiver at
/// all).
type IterateForms = Mutex<HashMap<(PlanId, Vec<String>, Option<String>), Arc<SolvedForm>>>;

impl Program {
    /// Assembles a program on the plan engine from already-compiled parts
    /// (the [`Workspace`](crate::Workspace) rebuild path).
    pub(crate) fn assemble(
        plan: Arc<ProgramPlan>,
        limits: Limits,
        diagnostics: Arc<Diagnostics>,
    ) -> Self {
        Program {
            plan,
            engine: Engine::Plan,
            limits,
            diagnostics,
            iterate_forms: Arc::default(),
        }
    }

    /// The resolved class table.
    pub fn table(&self) -> &Arc<ClassTable> {
        self.plan.table()
    }

    /// The lowered program plan.
    pub fn plan(&self) -> &Arc<ProgramPlan> {
        &self.plan
    }

    /// The default work ceilings of this program's queries and calls.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Warnings and errors produced by resolution and verification.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// The verification warnings (empty when compiled without `verify`).
    pub fn warnings(&self) -> &[Warning] {
        &self.diagnostics.warnings
    }

    /// The plan-analysis lints ([`jmatch_core::analysis`]): unused
    /// bindings, always-failing invokes, dead modes, unbounded left
    /// recursion.
    pub fn lints(&self) -> &[Warning] {
        &self.analysis().lints
    }

    /// The full plan-analysis report (facts, prunes, lints).
    pub fn analysis(&self) -> &jmatch_core::AnalysisReport {
        self.plan
            .analysis()
            .expect("every Workspace build runs the analysis pass")
    }

    /// The same program on a different engine (cheap): the only way to
    /// select [`Engine::TreeWalk`], the oracle tests compare plans against.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The same program with different default limits (cheap).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    // -- handle resolution ---------------------------------------------------

    /// Resolves the implementation of instance method `name` reachable from
    /// `class` into a [`MethodRef`]: the class-table walk happens here,
    /// once, never per call.
    ///
    /// The handle is statically bound to the resolved implementation, like
    /// a function pointer; re-resolve for a different receiver class.
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::MethodNotFound`](crate::RtErrorKind::MethodNotFound)
    /// when no implementation is reachable.
    pub fn method(&self, class: &str, name: &str) -> RtResult<MethodRef> {
        let pid = self
            .plan
            .lookup_impl(class, name)
            .ok_or_else(|| RtError::method_not_found(class, name))?;
        Ok(MethodRef {
            program: self.clone(),
            pid,
        })
    }

    /// Resolves a free-standing (top-level) method into a [`MethodRef`].
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::MethodNotFound`](crate::RtErrorKind::MethodNotFound)
    /// when no such method exists.
    pub fn free_method(&self, name: &str) -> RtResult<MethodRef> {
        let pid = self
            .plan
            .lookup_free(name)
            .ok_or_else(|| RtError::method_not_found("<toplevel>", name))?;
        Ok(MethodRef {
            program: self.clone(),
            pid,
        })
    }

    /// Disassembles the compiled bytecode of a method: one listing per
    /// mode-specialized solved form (`forward` / `matching` /
    /// `equals-bound`) of a declarative body, or the register block of an
    /// imperative one. Pass `class: None` for free-standing methods.
    ///
    /// The text is the stable [`std::fmt::Display`] form of
    /// [`jmatch_core::bytecode::BcBody`] / [`jmatch_core::bytecode::BcBlock`];
    /// a method without a body disassembles to the empty string.
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::MethodNotFound`](crate::RtErrorKind::MethodNotFound)
    /// when the method does not resolve.
    pub fn disasm(&self, class: Option<&str>, name: &str) -> RtResult<String> {
        use std::fmt::Write as _;
        let pid = match class {
            Some(c) => self
                .plan
                .lookup_impl(c, name)
                .ok_or_else(|| RtError::method_not_found(c, name))?,
            None => self
                .plan
                .lookup_free(name)
                .ok_or_else(|| RtError::method_not_found("<toplevel>", name))?,
        };
        let mp = self.plan.method(pid);
        let qual = mp.info.qualified_name();
        let mut out = String::new();
        match &mp.body {
            BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } => {
                let forms = [
                    ("forward", Some(forward)),
                    ("matching", Some(matching)),
                    ("equals-bound", equals_bound.as_ref()),
                ];
                for (label, form) in forms {
                    if let Some(form) = form {
                        let _ = writeln!(out, "; {qual} [{label}]");
                        let _ = write!(out, "{}", form.code());
                    }
                }
            }
            BodyPlan::Block(bp) => {
                let _ = writeln!(out, "; {qual} [block]");
                let _ = write!(out, "{}", bp.code());
            }
            BodyPlan::Absent => {}
        }
        Ok(out)
    }

    /// Resolves constructor `ctor` of `class` (named, class, or inherited)
    /// into a [`CtorRef`].
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::MethodNotFound`](crate::RtErrorKind::MethodNotFound)
    /// when the constructor does not exist, and a generic error when only a
    /// bodiless interface declaration is reachable.
    pub fn ctor(&self, class: &str, ctor: &str) -> RtResult<CtorRef> {
        let declared = self
            .plan
            .lookup_declared(class, ctor)
            .or_else(|| self.plan.class_ctor(class))
            .ok_or_else(|| RtError::method_not_found(class, ctor))?;
        let construct_pid = if matches!(self.plan.method(declared).body, BodyPlan::Absent) {
            self.plan
                .lookup_impl(class, ctor)
                .ok_or_else(|| RtError::new(format!("`{class}.{ctor}` has no implementation")))?
        } else {
            declared
        };
        Ok(CtorRef {
            program: self.clone(),
            class: class.to_owned(),
            ctor: ctor.to_owned(),
            construct_pid,
            match_pid: self.plan.lookup_impl(class, ctor),
        })
    }

    // -- queries -------------------------------------------------------------

    /// A backward-mode query: enumerate the solutions of matching `value`
    /// against the named constructor `ctor`, dispatched on `value`'s
    /// runtime class. Each solution binds the constructor's parameters by
    /// name.
    ///
    /// # Errors
    ///
    /// Fails when `value` is not an object, the constructor cannot be
    /// resolved, or it has no declarative body to match against.
    pub fn deconstruct(&self, value: &Value, ctor: &str) -> RtResult<Query<'_>> {
        let class = value
            .class()
            .ok_or_else(|| RtError::new("can only deconstruct objects"))?
            .to_owned();
        let pid = self
            .plan
            .lookup_impl(&class, ctor)
            .ok_or_else(|| RtError::method_not_found(&class, ctor))?;
        let mp = self.plan.method(pid);
        if !matches!(mp.body, BodyPlan::Formula { .. }) {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "backward (pattern-matching)",
            ));
        }
        Ok(Query {
            program: self,
            limits: self.limits,
            interrupt: None,
            source: Source::Deconstruct {
                pid,
                ctor: ctor.to_owned(),
                value: value.clone(),
            },
        })
    }

    /// A raw formula query: enumerate the solutions of `f` under the entry
    /// bindings `env`, with `this` optionally in scope. The formula is
    /// lowered once, when the query is built.
    pub fn solve(&self, f: &Formula, env: &Bindings, this: Option<&Value>) -> Query<'_> {
        let form = Arc::new(self.lower_formula(f, env, this));
        Query {
            program: self,
            limits: self.limits,
            interrupt: None,
            source: Source::Formula {
                ast: f.clone(),
                form,
                env: env.clone(),
                this: this.cloned(),
            },
        }
    }

    fn lower_formula(&self, f: &Formula, env: &Bindings, this: Option<&Value>) -> SolvedForm {
        let bound: Vec<&str> = env.keys().map(String::as_str).collect();
        let this_class = this.map(|t| t.class().unwrap_or(""));
        jmatch_core::lower::lower_standalone(&self.plan, f, &bound, this_class)
    }

    /// The iterative-mode solved form of method `pid`'s body `f` with the
    /// names of `known` bound and `receiver` as `this`, from the program's
    /// memo. Only shapes that bind nothing but the method's own relation
    /// variables (its parameters and `result`) are memoized, so the memo
    /// stays bounded by the declarations whatever names callers pass; any
    /// other shape is lowered for this call alone.
    fn iterate_form(
        &self,
        pid: PlanId,
        f: &Formula,
        known: &Bindings,
        receiver: Option<&Value>,
    ) -> Arc<SolvedForm> {
        let params = &self.plan.method(pid).info.decl.params;
        if !known
            .keys()
            .all(|k| k == "result" || params.iter().any(|p| p.name == *k))
        {
            return Arc::new(self.lower_formula(f, known, receiver));
        }
        let mut names: Vec<String> = known.keys().cloned().collect();
        names.sort_unstable();
        // Mirrors lower_formula: a non-object receiver still puts `this` in
        // scope (with an empty class), distinct from no receiver.
        let key = (
            pid,
            names,
            receiver.map(|r| r.class().unwrap_or("").to_owned()),
        );
        let memo = || self.iterate_forms.lock().expect("iterate memo poisoned");
        if let Some(form) = memo().get(&key) {
            return Arc::clone(form);
        }
        // Lowered outside the lock, so a cold shape never stalls another
        // thread's hits. Threads racing on one cold shape each lower it;
        // the first insert wins and every caller gets that one form.
        let form = Arc::new(self.lower_formula(f, known, receiver));
        Arc::clone(memo().entry(key).or_insert(form))
    }

    // -- whole-value operations ---------------------------------------------

    /// Creates a bare instance of `class` with every field `Null` —
    /// useful for driving instance methods of classes that declare no
    /// constructor (tests, benches, REPLs). Regular construction goes
    /// through [`Program::ctor`] / [`CtorRef::construct`].
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::MethodNotFound`](crate::RtErrorKind::MethodNotFound)
    /// when `class` is not declared in the program.
    pub fn instance(&self, class: &str) -> RtResult<Value> {
        let layout = self
            .table()
            .layout(class)
            .ok_or_else(|| RtError::method_not_found(class, "<instance>"))?;
        Ok(Value::Obj(Arc::new(crate::Object::new(
            Arc::clone(layout),
            Vec::new(),
        ))))
    }

    /// Tests whether `value` matches the named constructor `ctor`
    /// (predicate use of a named constructor, e.g. `ZNat(0).zero()`).
    pub fn matches(&self, value: &Value, ctor: &str) -> RtResult<bool> {
        match self.engine {
            Engine::Plan => {
                Machine::new(&self.plan, self.budget()).matches_constructor(value, ctor)
            }
            Engine::TreeWalk => self.walker().matches_constructor(value, ctor),
        }
    }

    /// Deep equality, using equality constructors (§3.2) across different
    /// implementations of the same abstraction.
    pub fn values_equal(&self, a: &Value, b: &Value) -> RtResult<bool> {
        match self.engine {
            // Only two objects can need an equality constructor's search.
            Engine::Plan => match (a, b) {
                (Value::Obj(_), Value::Obj(_)) => {
                    Machine::new(&self.plan, self.budget()).values_equal(a, b)
                }
                _ => Ok(a == b),
            },
            Engine::TreeWalk => self.walker().values_equal(a, b),
        }
    }

    // -- internals -----------------------------------------------------------

    fn budget(&self) -> Budget {
        Budget::new(self.limits.max_depth, self.limits.max_steps)
    }

    fn walker(&self) -> TreeWalker {
        self.walker_with(self.limits)
    }

    fn walker_with(&self, limits: Limits) -> TreeWalker {
        TreeWalker::with_limits(
            Arc::clone(self.plan.table()),
            limits.max_depth,
            limits.max_steps,
        )
    }
}

// ---------------------------------------------------------------------------
// MethodRef / CtorRef
// ---------------------------------------------------------------------------

/// A resolved method handle: class-table lookup, dispatch-index resolution
/// and mode selection happen once, at [`Program::method`] /
/// [`Program::free_method`] time; [`MethodRef::call`] then runs the
/// precompiled plan with no per-call hash lookups.
///
/// ```
/// use jmatch_runtime::{args, Value, Workspace};
///
/// let program = Workspace::new().verify(false).compile(
///     "static int double(int x) { return x + x; }",
/// )?;
/// // Resolve once...
/// let double = program.free_method("double")?;
/// // ...call many times.
/// for i in 0..100 {
///     assert_eq!(double.call(None, args![i])?, Value::Int(2 * i));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A handle holds no per-handle state: the solved forms
/// [`MethodRef::iterate`] lowers live in the [`Program`]'s per-program
/// memo, so a fresh handle per request (as a server builds one) reuses
/// every binding shape an earlier handle lowered.
#[derive(Debug, Clone)]
pub struct MethodRef {
    program: Program,
    pid: PlanId,
}

impl MethodRef {
    /// The method's name.
    pub fn name(&self) -> &str {
        &self.program.plan.method(self.pid).info.decl.name
    }

    /// The `Owner.name` form of the method.
    pub fn qualified_name(&self) -> String {
        self.program.plan.method(self.pid).info.qualified_name()
    }

    /// The declared parameters.
    pub fn params(&self) -> &[Param] {
        &self.program.plan.method(self.pid).info.decl.params
    }

    /// Calls the method in the forward mode: all parameters known,
    /// `result` solved for. Instance methods take their receiver in
    /// `receiver`; free methods take `None`.
    pub fn call(&self, receiver: Option<&Value>, args: Vec<Value>) -> RtResult<Value> {
        self.call_with(receiver, args, self.program.limits)
    }

    /// Like [`MethodRef::call`] with explicit work ceilings.
    pub fn call_with(
        &self,
        receiver: Option<&Value>,
        args: Vec<Value>,
        limits: Limits,
    ) -> RtResult<Value> {
        match self.program.engine {
            Engine::Plan => {
                let budget = Budget::new(limits.max_depth, limits.max_steps);
                Machine::new(&self.program.plan, budget).run_forward(
                    self.pid,
                    receiver.cloned(),
                    args,
                )
            }
            Engine::TreeWalk => self.program.walker_with(limits).run_forward(
                &self.program.plan.method(self.pid).info,
                receiver.cloned(),
                args,
            ),
        }
    }

    /// Like [`MethodRef::call_with`], but also reports the solver steps
    /// the call spent, when the engine can count them (the plan engine;
    /// `None` on the tree-walker) — the accounting shape a metered server
    /// needs to settle a step grant after a forward call.
    pub fn call_counted(
        &self,
        receiver: Option<&Value>,
        args: Vec<Value>,
        limits: Limits,
    ) -> (RtResult<Value>, Option<u64>) {
        self.call_counted_interruptible(receiver, args, limits, None)
    }

    /// Like [`MethodRef::call_counted`], with an optional external
    /// interrupt token: a fired token (cancellation, request deadline)
    /// stops a plan-engine call at the next interrupt-poll boundary with
    /// an [`RtErrorKind::Interrupted`](crate::RtErrorKind::Interrupted) error.
    /// The tree-walker oracle ignores the token.
    pub fn call_counted_interruptible(
        &self,
        receiver: Option<&Value>,
        args: Vec<Value>,
        limits: Limits,
        interrupt: Option<Arc<AtomicBool>>,
    ) -> (RtResult<Value>, Option<u64>) {
        match self.program.engine {
            Engine::Plan => {
                let mut budget = Budget::new(limits.max_depth, limits.max_steps);
                budget.set_interrupt(interrupt);
                let mut machine = Machine::new(&self.program.plan, budget);
                let outcome = machine.run_forward(self.pid, receiver.cloned(), args);
                (outcome, Some(machine.steps()))
            }
            Engine::TreeWalk => {
                let outcome = self.program.walker_with(limits).run_forward(
                    &self.program.plan.method(self.pid).info,
                    receiver.cloned(),
                    args,
                );
                (outcome, None)
            }
        }
    }

    /// An iterative-mode query: enumerate the solutions of the method's
    /// declarative body with the bindings of `known` as the inputs and
    /// every other relation variable solved for — the `foreach`-driving
    /// mode the paper compiles to Java_yield iterators.
    ///
    /// The body is lowered once per binding shape — the sorted bound names
    /// and the receiver's class — into the [`Program`]'s per-program memo,
    /// which every handle, clone and thread of one compiled generation
    /// shares; a later call with the same shape only enumerates. Shapes
    /// that bind a name other than the method's parameters and `result`
    /// are lowered per call and never memoized, so callers cannot grow the
    /// memo past the method's declarations.
    ///
    /// # Errors
    ///
    /// [`RtErrorKind::ModeMismatch`](crate::RtErrorKind::ModeMismatch) when
    /// the method has an imperative (or no) body.
    pub fn iterate(&self, receiver: Option<&Value>, known: &Bindings) -> RtResult<Query<'_>> {
        let mp = self.program.plan.method(self.pid);
        let MethodBody::Formula(f) = &mp.info.decl.body else {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "iterative",
            ));
        };
        let form = self.program.iterate_form(self.pid, f, known, receiver);
        Ok(Query {
            program: &self.program,
            limits: self.program.limits,
            interrupt: None,
            source: Source::Formula {
                ast: f.clone(),
                form,
                env: known.clone(),
                this: receiver.cloned(),
            },
        })
    }
}

/// A resolved constructor handle: construction and matching are bound to
/// their plan indices once, at [`Program::ctor`] time.
#[derive(Debug, Clone)]
pub struct CtorRef {
    program: Program,
    class: String,
    ctor: String,
    construct_pid: PlanId,
    match_pid: Option<PlanId>,
}

impl CtorRef {
    /// The class the handle constructs.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The constructor's name.
    pub fn name(&self) -> &str {
        &self.ctor
    }

    /// Invokes the constructor in the forward mode, producing an instance.
    pub fn construct(&self, args: Vec<Value>) -> RtResult<Value> {
        match self.program.engine {
            Engine::Plan => Machine::new(&self.program.plan, self.program.budget()).run_forward(
                self.construct_pid,
                None,
                args,
            ),
            Engine::TreeWalk => self.program.walker().run_forward(
                &self.program.plan.method(self.construct_pid).info,
                None,
                args,
            ),
        }
    }

    /// A backward-mode query over this constructor (see
    /// [`Program::deconstruct`]). Values of other classes re-dispatch on
    /// their runtime class.
    pub fn deconstruct(&self, value: &Value) -> RtResult<Query<'_>> {
        if let (Some(pid), Some(class)) = (self.match_pid, value.class()) {
            if class == self.class {
                let mp = self.program.plan.method(pid);
                if matches!(mp.body, BodyPlan::Formula { .. }) {
                    return Ok(Query {
                        program: &self.program,
                        limits: self.program.limits,
                        interrupt: None,
                        source: Source::Deconstruct {
                            pid,
                            ctor: self.ctor.clone(),
                            value: value.clone(),
                        },
                    });
                }
            }
        }
        self.program.deconstruct(value, &self.ctor)
    }

    /// Whether `value` matches this constructor (predicate mode).
    pub fn matches(&self, value: &Value) -> RtResult<bool> {
        self.program.matches(value, &self.ctor)
    }
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

/// Stack of the thread a query's tree walk runs on: the walker's native
/// recursion is deep (one Rust frame chain per constructor match, fat in
/// debug builds), so the walk gets the stack the main thread of a binary
/// would have, times a margin.
const WALKER_STACK: usize = 64 << 20;

/// What a query enumerates.
enum Source {
    /// Backward mode of a constructor: solve the matching plan of `pid`
    /// against `value`.
    Deconstruct {
        pid: PlanId,
        ctor: String,
        value: Value,
    },
    /// A standalone formula (raw solving and iterative-mode calls): the
    /// lowered form drives the plan engine, the AST drives the tree-walker.
    Formula {
        ast: Formula,
        form: Arc<SolvedForm>,
        env: Bindings,
        this: Option<Value>,
    },
}

/// A prepared enumeration: the lowering / resolution work is done, and
/// [`Query::solutions`] can be called any number of times to re-enumerate.
///
/// The query owns its inputs (seed bindings, the matched value, the lowered
/// formula), so the [`Solutions`] iterator borrows the query rather than
/// the transient call arguments.
pub struct Query<'p> {
    program: &'p Program,
    limits: Limits,
    interrupt: Option<Arc<AtomicBool>>,
    source: Source,
}

impl Query<'_> {
    /// Overrides the work ceilings for this query.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches an external interrupt token: when another thread stores
    /// `true` into it (a cancellation request or a deadline watchdog), a
    /// plan-engine enumeration stops at the next interrupt-poll boundary
    /// (every 256 solver steps) with an
    /// [`RtErrorKind::Interrupted`](crate::RtErrorKind::Interrupted) error.
    /// The tree-walker oracle ignores the token; [`Limits`] bound its walk.
    pub fn interrupt(mut self, token: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(token);
        self
    }

    /// The first solution, if any (errors read as "no solution"; use
    /// [`Query::try_first`] to observe them).
    pub fn first(&self) -> Option<Bindings> {
        self.try_first().unwrap_or(None)
    }

    /// The first solution, surfacing enumeration errors.
    ///
    /// # Errors
    ///
    /// Propagates the runtime error that ended the enumeration, if any.
    pub fn try_first(&self) -> RtResult<Option<Bindings>> {
        if self.program.engine == Engine::TreeWalk {
            // Stop the walk at the first solution instead of collecting all.
            let mut first = None;
            self.walk(&mut |b| {
                first = Some(b);
                false
            })?;
            return Ok(first);
        }
        let mut solutions = self.solutions();
        let first = solutions.next();
        match solutions.take_error() {
            Some(e) => Err(e),
            None => Ok(first),
        }
    }

    /// Collects every solution, surfacing enumeration errors.
    ///
    /// # Errors
    ///
    /// Propagates the runtime error that ended the enumeration, if any.
    pub fn try_collect(&self) -> RtResult<Vec<Bindings>> {
        let mut solutions = self.solutions();
        let all: Vec<Bindings> = solutions.by_ref().collect();
        match solutions.take_error() {
            Some(e) => Err(e),
            None => Ok(all),
        }
    }

    /// Like [`Query::try_collect`], but also reports the solver steps the
    /// enumeration spent, when the engine can count them (the plan
    /// engine's stack machine; `None` on the tree-walker oracle).
    pub fn try_collect_counted(&self) -> (RtResult<Vec<Bindings>>, Option<u64>) {
        let mut solutions = self.solutions();
        let all: Vec<Bindings> = solutions.by_ref().collect();
        let steps = solutions.steps();
        match solutions.take_error() {
            Some(e) => (Err(e), steps),
            None => (Ok(all), steps),
        }
    }

    /// Collects every solution of a *deconstruction* query as ordered rows
    /// (the constructor's parameters in declaration order, `Null` for
    /// parameters a solution left unbound), surfacing enumeration errors.
    ///
    /// # Errors
    ///
    /// Fails on non-deconstruction queries and propagates the runtime
    /// error that ended the enumeration, if any.
    pub fn try_collect_rows(&self) -> RtResult<Vec<Vec<Value>>> {
        let Source::Deconstruct { pid, value, .. } = &self.source else {
            return Err(RtError::new(
                "try_collect_rows applies to deconstruction queries only",
            ));
        };
        if matches!(self.program.engine, Engine::Plan) {
            if let Some(rows) = crate::eval::fast_deconstruct(&self.program.plan, value, *pid) {
                return Ok(rows);
            }
        }
        let params: Vec<String> = self
            .program
            .plan
            .method(*pid)
            .info
            .decl
            .params
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let all = self.try_collect()?;
        Ok(all
            .into_iter()
            .map(|b| {
                params
                    .iter()
                    .map(|p| b.get(p).cloned().unwrap_or(Value::Null))
                    .collect()
            })
            .collect())
    }

    /// Like [`Query::try_collect_rows`], but consumes the query: when the
    /// caller holds no other reference to the deconstructed value and the
    /// constructor is a pure field permutation, the solution row takes
    /// over the object's own field storage in place instead of cloning it
    /// — the first slice of Perceus-style memory reuse (see ROADMAP).
    ///
    /// # Errors
    ///
    /// Fails on non-deconstruction queries and propagates the runtime
    /// error that ended the enumeration, if any.
    pub fn try_into_rows(mut self) -> RtResult<Vec<Vec<Value>>> {
        if matches!(self.program.engine, Engine::Plan) {
            if let Source::Deconstruct { pid, value, .. } = &mut self.source {
                let pid = *pid;
                let v = std::mem::replace(value, Value::Null);
                match crate::eval::fast_deconstruct_owned(&self.program.plan, v, pid) {
                    Ok(rows) => return Ok(rows),
                    // Not a fast-path shape: restore the value and fall
                    // back to the borrowing collector.
                    Err(v) => *value = v,
                }
            }
        }
        self.try_collect_rows()
    }

    /// Runs the tree walker over the query, feeding each solution to `emit`
    /// (return `false` to stop). The walk runs on a scoped thread that
    /// declares [`WALKER_STACK`], joined before this returns.
    fn walk(&self, emit: &mut (dyn FnMut(Bindings) -> bool + Send)) -> RtResult<()> {
        std::thread::scope(|scope| {
            let handle = std::thread::Builder::new()
                .name("jmatch-tree-walk".into())
                .stack_size(WALKER_STACK)
                .spawn_scoped(scope, || {
                    crate::declare_thread_stack(WALKER_STACK);
                    let walker = self.program.walker_with(self.limits);
                    match &self.source {
                        Source::Formula { ast, env, this, .. } => {
                            walker.solve(env, this.as_ref(), ast, 0, &mut |b| emit(b.clone()))
                        }
                        Source::Deconstruct { pid, ctor, value } => {
                            let params = &self.program.plan.method(*pid).info.decl.params;
                            walker.deconstruct_each(value, ctor, &mut |row| {
                                emit(
                                    params
                                        .iter()
                                        .map(|p| p.name.clone())
                                        .zip(row.iter().cloned())
                                        .collect(),
                                )
                            })
                        }
                    }
                })
                .map_err(|e| RtError::new(format!("could not start the tree-walk thread: {e}")))?;
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// Starts the enumeration: a pull-based iterator over the query's
    /// solutions. On the plan engine, work happens inside `next()`, one
    /// solution at a time; the tree-walker oracle collects every solution
    /// here, before this returns.
    pub fn solutions(&self) -> Solutions<'_> {
        match self.program.engine {
            Engine::Plan => self.plan_solutions(),
            Engine::TreeWalk => self.tree_solutions(),
        }
    }

    fn budget(&self) -> Budget {
        Budget::new(self.limits.max_depth, self.limits.max_steps)
    }

    fn plan_solutions(&self) -> Solutions<'_> {
        let plan = &*self.program.plan;
        let (machine, extract) = match &self.source {
            Source::Deconstruct { pid, value, .. } => {
                let mp = plan.method(*pid);
                let BodyPlan::Formula { matching, .. } = &mp.body else {
                    unreachable!("checked at query construction");
                };
                let machine = Machine::query(
                    plan,
                    self.budget(),
                    matching.code(),
                    vec![None; matching.frame.len()],
                    Some(value.clone()),
                )
                .with_root_det(matching.det)
                .with_interrupt(self.interrupt.clone());
                let extract = Extract::Params {
                    params: &mp.info.decl.params,
                    slots: &matching.param_slots,
                    table: plan.table(),
                };
                (machine, extract)
            }
            Source::Formula {
                form, env, this, ..
            } => {
                let mut root: Frame = vec![None; form.frame.len()];
                for (name, v) in env {
                    if let Some(s) = form.frame.slot_of(name) {
                        root[s as usize] = Some(v.clone());
                    }
                }
                let machine = Machine::query(plan, self.budget(), form.code(), root, this.clone())
                    .with_root_det(form.det)
                    .with_interrupt(self.interrupt.clone());
                (machine, Extract::Slots(&form.frame))
            }
        };
        Solutions {
            inner: Inner::Machine {
                machine: Box::new(machine),
                extract,
            },
            error: None,
        }
    }

    /// The tree-walker oracle behind the same iterator: the walk runs to
    /// its end here, and the iterator yields the stored solutions, then the
    /// error that ended the walk.
    fn tree_solutions(&self) -> Solutions<'_> {
        let mut rows = Vec::new();
        let error = self
            .walk(&mut |b| {
                rows.push(b);
                true
            })
            .err();
        Solutions {
            inner: Inner::Walked {
                rows: rows.into_iter(),
                error,
            },
            error: None,
        }
    }

    /// The sequential enumeration, [`Query::solutions`]; `threads` is
    /// ignored. It is kept only because the repository benchmark's
    /// `query_exec` workload calls it, and the next change to that
    /// benchmark deletes it together with its `par.*` rows.
    pub fn par_solutions(&self, _threads: usize) -> Solutions<'_> {
        self.solutions()
    }
}

// ---------------------------------------------------------------------------
// Solutions
// ---------------------------------------------------------------------------

/// How machine solutions are turned into [`Bindings`].
enum Extract<'q> {
    /// Every bound, named slot of the root frame (formula queries).
    Slots(&'q FrameLayout),
    /// The constructor's parameter row, filtered by the declared parameter
    /// types (deconstruction); solutions leaving a parameter unbound are
    /// skipped, like both recursive engines.
    Params {
        params: &'q [Param],
        slots: &'q [SlotId],
        table: &'q ClassTable,
    },
}

/// Bindings of every bound, named slot of a solved form's root frame — the
/// formula-query extraction.
fn frame_bindings(layout: &FrameLayout, frame: &Frame) -> Bindings {
    let mut out = Bindings::new();
    for (i, v) in frame.iter().enumerate() {
        if let Some(v) = v {
            out.insert(layout.name_of(i as SlotId).to_owned(), v.clone());
        }
    }
    out
}

/// Bindings of a deconstruction solution's parameter row, or `None` when
/// the row leaves a declared parameter unbound or ill-typed (filtered like
/// both recursive engines).
fn param_row_bindings(
    params: &[Param],
    slots: &[SlotId],
    table: &ClassTable,
    frame: &Frame,
) -> Option<Bindings> {
    let mut out = Bindings::new();
    for (p, &s) in params.iter().zip(slots.iter()) {
        let v = frame[s as usize].as_ref()?;
        if let Type::Named(t) = &p.ty {
            if let Some(class) = v.class() {
                if !table.is_subtype(class, t) {
                    return None;
                }
            }
        }
        out.insert(p.name.clone(), v.clone());
    }
    Some(out)
}

enum Inner<'q> {
    /// The resumable stack machine (plan engine).
    Machine {
        machine: Box<Machine<'q>>,
        extract: Extract<'q>,
    },
    /// The tree walker's solutions, collected before the first `next()`,
    /// and the error that ended the walk.
    Walked {
        rows: std::vec::IntoIter<Bindings>,
        error: Option<RtError>,
    },
}

/// A lazy, pull-based stream of query solutions.
///
/// `Solutions` is a true [`Iterator`]: on the plan engine each `next()`
/// performs only the solver work needed to reach the next solution, so
/// `take(1)` on a large enumeration does O(first solution) work — the
/// laziness the paper gets from compiling to Java_yield coroutines. The
/// [`Engine::TreeWalk`] oracle is eager: [`Query::solutions`] collects
/// the whole enumeration first, so it must be finite within the query's
/// [`Limits`] (use [`Query::try_first`] to stop the walk early).
///
/// A runtime error ends the stream; inspect it with [`Solutions::error`] /
/// [`Solutions::take_error`].
///
/// ```
/// use jmatch_runtime::{Bindings, Value, Workspace};
///
/// let program = Workspace::new().verify(false).compile(
///     "class Gen {
///          boolean small(int x) iterates(x) ( x = 1 # 2 # 3 )
///      }",
/// )?;
/// let small = program.method("Gen", "small")?;
/// let gen = program.instance("Gen")?;
/// let query = small.iterate(Some(&gen), &Bindings::new())?;
/// let first: Vec<i64> = query
///     .solutions()
///     .take(1) // ← only the first solution's work happens
///     .map(|b| b["x"].as_int().unwrap())
///     .collect();
/// assert_eq!(first, vec![1]);
/// let all: Vec<i64> = query.solutions().map(|b| b["x"].as_int().unwrap()).collect();
/// assert_eq!(all, vec![1, 2, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Solutions<'q> {
    inner: Inner<'q>,
    error: Option<RtError>,
}

impl Solutions<'_> {
    /// The error that ended the stream, if any.
    pub fn error(&self) -> Option<&RtError> {
        self.error.as_ref()
    }

    /// Takes the error that ended the stream, if any.
    pub fn take_error(&mut self) -> Option<RtError> {
        self.error.take()
    }

    /// Solver steps spent so far, when the engine can report them (the
    /// plan engine's stack machine; `None` on the tree-walker oracle).
    /// This is what the O(1)-first-solution laziness test measures.
    pub fn steps(&self) -> Option<u64> {
        match &self.inner {
            Inner::Machine { machine, .. } => Some(machine.steps()),
            Inner::Walked { .. } => None,
        }
    }

    /// Choice points currently live on the solver's choice stack, when the
    /// engine can report them ([`Engine::Plan`] only). At a solution of a `Det`-analyzed mode this is `Some(0)`: the
    /// determinism commit left nothing to backtrack into.
    pub fn choice_points(&self) -> Option<usize> {
        match &self.inner {
            Inner::Machine { machine, .. } => Some(machine.live_choices()),
            Inner::Walked { .. } => None,
        }
    }

    /// Total choice points the solver created so far, when the engine can
    /// report them ([`Engine::Plan`] only).
    pub fn choice_points_created(&self) -> Option<u64> {
        match &self.inner {
            Inner::Machine { machine, .. } => Some(machine.choices_created()),
            Inner::Walked { .. } => None,
        }
    }
}

impl Iterator for Solutions<'_> {
    type Item = Bindings;

    fn next(&mut self) -> Option<Bindings> {
        if self.error.is_some() {
            return None;
        }
        match &mut self.inner {
            Inner::Machine { machine, extract } => loop {
                match machine.next_solution() {
                    Err(e) => {
                        self.error = Some(e);
                        return None;
                    }
                    Ok(false) => return None,
                    Ok(true) => {
                        let frame = machine.root_frame();
                        match extract {
                            Extract::Slots(layout) => {
                                return Some(frame_bindings(layout, frame));
                            }
                            Extract::Params {
                                params,
                                slots,
                                table,
                            } => {
                                if let Some(out) = param_row_bindings(params, slots, table, frame) {
                                    return Some(out);
                                }
                                // Filtered row: pull the next solution.
                            }
                        }
                    }
                }
            },
            Inner::Walked { rows, error } => {
                let next = rows.next();
                if next.is_none() {
                    self.error = error.take();
                }
                next
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    #[test]
    fn program_is_share_ready() {
        assert_send_sync_clone::<Program>();
        assert_send_sync_clone::<MethodRef>();
        assert_send_sync_clone::<CtorRef>();
        assert_send_sync_clone::<Limits>();
    }

    const GEN_SRC: &str = "\
class A { boolean pick(int n, int x) iterates(x) ( x = n || x = n + 1 ) }
class B { }
static boolean pick(int n, int x) iterates(x) ( x = n || x = n + 1 )
";

    fn compile(src: &str) -> Program {
        crate::Workspace::new().verify(false).compile(src).unwrap()
    }

    fn bindings(pairs: &[(&str, i64)]) -> Bindings {
        pairs
            .iter()
            .map(|&(name, v)| (name.to_owned(), Value::Int(v)))
            .collect()
    }

    /// The solved form an iterative query runs.
    fn form_of(query: &Query<'_>) -> Arc<SolvedForm> {
        match &query.source {
            Source::Formula { form, .. } => Arc::clone(form),
            Source::Deconstruct { .. } => panic!("not an iterative query"),
        }
    }

    fn memo_len(program: &Program) -> usize {
        program.iterate_forms.lock().unwrap().len()
    }

    #[test]
    fn iterate_forms_are_shared_by_every_handle_of_one_program() {
        let program = compile(GEN_SRC);
        let first = program.free_method("pick").unwrap();
        let second = program.free_method("pick").unwrap();
        let limited = program
            .clone()
            .with_limits(Limits {
                max_depth: 10,
                max_steps: 1_000,
            })
            .free_method("pick")
            .unwrap();
        let n = bindings(&[("n", 1)]);
        let form = form_of(&first.iterate(None, &n).unwrap());
        // Same shape, other values, other handles: one lowered form.
        for handle in [&first, &second, &limited] {
            let q = handle.iterate(None, &bindings(&[("n", 7)])).unwrap();
            assert!(Arc::ptr_eq(&form, &form_of(&q)));
        }
        assert_eq!(memo_len(&program), 1);

        // Another binding shape is another form.
        let x = form_of(&first.iterate(None, &bindings(&[("x", 2)])).unwrap());
        let both = form_of(
            &second
                .iterate(None, &bindings(&[("n", 1), ("x", 2)]))
                .unwrap(),
        );
        assert!(!Arc::ptr_eq(&form, &x));
        assert!(!Arc::ptr_eq(&form, &both));
        assert!(!Arc::ptr_eq(&x, &both));

        // Another method or receiver class is another form, each memoized.
        let method = program.method("A", "pick").unwrap();
        let a = program.instance("A").unwrap();
        let b = program.instance("B").unwrap();
        let on_a = form_of(&method.iterate(Some(&a), &n).unwrap());
        let on_b = form_of(&method.iterate(Some(&b), &n).unwrap());
        let on_int = form_of(&method.iterate(Some(&Value::Int(0)), &n).unwrap());
        let forms = [&form, &on_a, &on_b, &on_int];
        for (i, f) in forms.iter().enumerate() {
            for g in &forms[i + 1..] {
                assert!(!Arc::ptr_eq(f, g));
            }
        }
        let again = program.method("A", "pick").unwrap();
        assert!(Arc::ptr_eq(
            &on_a,
            &form_of(&again.iterate(Some(&a), &n).unwrap())
        ));
        assert_eq!(memo_len(&program), 6);
    }

    #[test]
    fn non_parameter_names_never_grow_the_iterate_memo() {
        let program = compile(GEN_SRC);
        let pick = program.free_method("pick").unwrap();
        let n = bindings(&[("n", 3)]);
        pick.iterate(None, &n).unwrap();
        assert_eq!(memo_len(&program), 1);
        for i in 0..1_000 {
            let mut known = n.clone();
            known.insert(format!("zzz{i}"), Value::Int(9));
            let rows = pick.iterate(None, &known).unwrap().try_collect().unwrap();
            // The extra name is still an input, echoed in every solution.
            assert_eq!(rows.len(), 2);
            assert!(rows.iter().all(|r| r[&format!("zzz{i}")] == Value::Int(9)));
        }
        assert_eq!(memo_len(&program), 1);
        // `result` is the method's own relation variable: memoized.
        let mut with_result = n.clone();
        with_result.insert("result".to_owned(), Value::Bool(true));
        pick.iterate(None, &with_result).unwrap();
        assert_eq!(memo_len(&program), 2);
    }

    #[test]
    fn limits_default_matches_plan_engine_depth() {
        assert_eq!(Limits::default().max_depth, MAX_DEPTH);
        assert_eq!(Limits::default().max_steps, u64::MAX);
    }
}
