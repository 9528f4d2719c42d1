//! Lowering declarative methods to mode-specialized query plans.
//!
//! The paper compiles JMatch to Java_yield by *statically* selecting a
//! solved form per mode (§2.3): given which relation variables are knowns,
//! the compiler orders the conjuncts of a declarative body once, at compile
//! time, so the generated code never searches for a solving order at run
//! time. This module is that translation for the reproduction: it runs after
//! class-table/mode resolution and compiles every method body — declarative
//! formulas, `switch` dispatch, `foreach` enumeration, imperative blocks —
//! into a [`Plan`] IR, whose fourth pass compiles every goal and body to
//! the [`crate::bytecode`] streams `jmatch-runtime`'s plan engine executes.
//!
//! The lowering performs three jobs the tree-walking interpreter used to
//! redo on every call:
//!
//! 1. **Slot allocation** — every variable of a method body is assigned a
//!    fixed frame slot ([`SlotId`]), so the evaluator works on a flat
//!    `Vec<Option<Value>>` frame instead of cloning `HashMap` environments.
//! 2. **Solved-form selection** — conjunctions are scheduled statically by a
//!    *must/may* binding analysis (see [`Goal::Seq`]): at each step the
//!    lowering simulates the interpreter's "first ready conjunct" rule under
//!    both the variables that are *certainly* bound and those that *might*
//!    be. When both agree, the order is fixed in the plan; when they
//!    disagree (the mode analysis cannot pin the order), the conjunction is
//!    emitted as [`Goal::DynSeq`] and scheduled at run time exactly like the
//!    tree-walker would.
//! 3. **Dispatch resolution** — method lookup along the supertype chain
//!    (`find_impl` in the interpreter) is precomputed into per-class plan
//!    indices, and `switch` fall-through targets are resolved into a
//!    [`CaseTarget`] jump table.
//!
//! # Worked example
//!
//! `ZNat.succ` from Figure 1 of the paper has the declarative body
//! `val >= 1 && ZNat(val - 1) = n`. In the *forward* mode (construction:
//! `n` known, the field `val` unknown) the guard `val >= 1` cannot run
//! first, so the solved form inverts the body: solve `ZNat(val - 1) = n`
//! (binding `val` through the invertible subtraction), then check the
//! guard. In the *backward* mode (pattern matching: `this` known, `n`
//! unknown) the source order is already solved. The plan records both:
//!
//! ```
//! use jmatch_core::{compile, CompileOptions};
//! use jmatch_core::lower::{Goal, ProgramPlan};
//!
//! let source = r#"
//!     interface Nat {
//!         constructor zero() returns();
//!         constructor succ(Nat n) returns(n);
//!     }
//!     class ZNat implements Nat {
//!         int val;
//!         private ZNat(int n) returns(n) ( val = n && n >= 0 )
//!         constructor zero() returns() ( val = 0 )
//!         constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
//!     }
//! "#;
//! let compiled = compile(source, &CompileOptions { verify: false, ..Default::default() })?;
//! let plan = ProgramPlan::compile(compiled.table.clone());
//! let succ = plan.method(plan.lookup_impl("ZNat", "succ").unwrap());
//! let (forward, matching) = succ.body.solved_forms().unwrap();
//!
//! // Forward mode: the equation runs before the guard (indices swapped)...
//! let Goal::Seq(fwd) = &forward.goal else { panic!() };
//! assert!(matches!(fwd[0], Goal::Unify(..)));
//! assert!(matches!(fwd[1], Goal::Compare(..)));
//! // ...while the backward mode keeps the source order.
//! let Goal::Seq(bwd) = &matching.goal else { panic!() };
//! assert!(matches!(bwd[0], Goal::Compare(..)));
//! assert!(matches!(bwd[1], Goal::Unify(..)));
//! # Ok::<(), jmatch_syntax::ParseError>(())
//! ```
//!
//! [`Plan`]: ProgramPlan

use crate::intern::Sym;
use crate::table::{ClassLayout, ClassTable, MethodInfo};
use jmatch_syntax::ast::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a variable slot in a plan frame.
pub type SlotId = u32;

/// Index of a [`MethodPlan`] inside a [`ProgramPlan`].
pub type PlanId = usize;

/// Index of a [`DispatchTable`] inside a [`ProgramPlan`].
pub type DispatchId = u32;

/// A class-keyed dispatch table for one method / constructor name: the
/// [`PlanId`] of the implementation reachable from each declared type,
/// indexed by the type's dense [`ClassLayout::type_index`].
///
/// This is the compile-time/runtime split of WAM-style first-argument
/// indexing: the supertype walk (`lookup_impl`) runs here, once per
/// `(name, class)` pair at [`ProgramPlan::compile`] time, and the
/// evaluators resolve a dynamic dispatch with a single array load keyed by
/// the receiver's runtime class symbol — no hash of a `String` key, no
/// walk, no allocation.
#[derive(Debug, Clone)]
pub struct DispatchTable {
    name: String,
    by_type: Box<[Option<PlanId>]>,
}

impl DispatchTable {
    /// The method / constructor name the table dispatches.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The implementation reachable from the type at `type_index`.
    pub fn at(&self, type_index: u32) -> Option<PlanId> {
        self.by_type[type_index as usize]
    }

    /// Number of entries (one per declared type, by dense type index).
    pub fn len(&self) -> usize {
        self.by_type.len()
    }

    /// Whether the table has no entries (a program with no types).
    pub fn is_empty(&self) -> bool {
        self.by_type.is_empty()
    }

    /// When exactly one type resolves through this table, that
    /// `(type_index, plan)` — the monomorphic-call precondition of the
    /// bytecode compiler's call-site inlining.
    pub fn unique_impl(&self) -> Option<(u32, PlanId)> {
        let mut found = None;
        for (i, p) in self.by_type.iter().enumerate() {
            if let Some(pid) = p {
                if found.is_some() {
                    return None;
                }
                found = Some((i as u32, *pid));
            }
        }
        found
    }
}

/// A statically named class at a call / pattern site, with everything the
/// evaluators used to look up per call resolved at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRef {
    /// The class name (kept for error messages and foreign-value paths).
    pub name: String,
    /// The class's dense type index, when it is declared in the table.
    pub type_index: Option<u32>,
    /// Forward-construction resolution (evaluation position): the plan a
    /// `Class.ctor(args)` / `Class(args)` expression runs. `None` falls
    /// back to the string-keyed path so error messages stay identical.
    pub construct_pid: Option<PlanId>,
    /// Backward-matching resolution (pattern position): the plan a
    /// `Class.ctor(pats)` / `Class(pats)` pattern matches against.
    pub match_pid: Option<PlanId>,
}

/// The class restriction of a `T x` declaration pattern, resolved at
/// lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassCheck {
    /// No restriction (primitive or unconstrained declared type).
    Any,
    /// Object values must be subtypes of the type at this index
    /// (non-objects are unrestricted, as before).
    Subtype(u32),
    /// The named type is not in the table; fall back to the string-keyed
    /// subtype walk at run time (preserves erroneous-program behavior).
    Dynamic,
}

/// Which scrutinee classes one `switch` case pattern can possibly match —
/// the tag-dispatch table of a case arm. `Classes` is a bitmask over type
/// indices: an object whose class is masked out is *statically* known not
/// to match, so the case is skipped without running the matching plan or
/// creating its choice points. Non-objects (and objects from a foreign
/// program) are always admitted, and patterns whose match could *error*
/// (rather than merely fail) are `Any`, so pruning never changes
/// observable behavior.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseGuard {
    /// Any value might match.
    Any,
    /// Only objects of the masked classes might match.
    Classes(Box<[bool]>),
}

impl CaseGuard {
    /// Whether a value with the given resolved type index might match.
    /// `None` (non-objects, foreign classes) is always admitted.
    pub fn admits(&self, type_index: Option<u32>) -> bool {
        match self {
            CaseGuard::Any => true,
            CaseGuard::Classes(mask) => type_index.is_none_or(|i| mask[i as usize]),
        }
    }

    fn intersect(self, other: CaseGuard) -> CaseGuard {
        match (self, other) {
            (CaseGuard::Any, g) | (g, CaseGuard::Any) => g,
            (CaseGuard::Classes(a), CaseGuard::Classes(b)) => CaseGuard::Classes(
                a.iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x && y)
                    .collect::<Vec<bool>>()
                    .into(),
            ),
        }
    }

    fn union(self, other: CaseGuard) -> CaseGuard {
        match (self, other) {
            (CaseGuard::Any, _) | (_, CaseGuard::Any) => CaseGuard::Any,
            (CaseGuard::Classes(a), CaseGuard::Classes(b)) => CaseGuard::Classes(
                a.iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x || y)
                    .collect::<Vec<bool>>()
                    .into(),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame layout
// ---------------------------------------------------------------------------

/// The slot layout of one lowered frame: which variable lives in which slot.
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    names: Vec<String>,
    index: HashMap<String, SlotId>,
}

impl FrameLayout {
    /// Number of slots in the frame.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the frame has no slots.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot of a variable name, if it occurs in the plan.
    pub fn slot_of(&self, name: &str) -> Option<SlotId> {
        self.index.get(name).copied()
    }

    /// The variable name stored in a slot.
    pub fn name_of(&self, slot: SlotId) -> &str {
        &self.names[slot as usize]
    }

    fn slot(&mut self, name: &str) -> SlotId {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = self.names.len() as SlotId;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), s);
        s
    }
}

// ---------------------------------------------------------------------------
// Plan expressions (patterns and expressions share one shape, like the AST)
// ---------------------------------------------------------------------------

/// How a call expression resolves, precomputed where the AST allows it.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `Class.name(args)` — a (named-)constructor invocation on a class,
    /// with the class and both resolution modes precomputed.
    StaticConstruct(ClassRef),
    /// `recv.name(args)` with an object receiver — dynamic dispatch through
    /// the call's [`DispatchTable`].
    Instance,
    /// `Class(args)` — the class constructor of the named class.
    ClassCtor(ClassRef),
    /// `name(args)` resolving to a free-standing method (the plan resolved
    /// at lowering time when it exists).
    Free(Option<PlanId>),
    /// `name(args)` falling back to a method on `this`.
    ThisMethod,
    /// `name(args)` that resolves to nothing — a runtime error when reached.
    Unresolved,
}

/// A lowered pattern/expression. Mirrors [`Expr`] with variables resolved to
/// frame slots and embedded formulas lowered to [`Goal`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// `null`.
    Null,
    /// `this`.
    This,
    /// `result`, resolved to its slot.
    Result(SlotId),
    /// `_`.
    Wildcard,
    /// A variable occurrence: its slot plus the static resolution facts the
    /// evaluator needs (field-of-`this` fallback, class-name reference).
    Name {
        /// The frame slot backing the variable.
        slot: SlotId,
        /// Source name (needed for the runtime field-of-`this` fallback).
        name: String,
        /// The interned name, when any class declares a field called this
        /// — the O(1) field-of-`this` fallback.
        field_sym: Option<Sym>,
        /// Whether the name is a type in the class table.
        class_ref: bool,
    },
    /// A declaration pattern `T x` (`None` slot for `T _`), with the class
    /// restriction of a named type resolved to a [`ClassCheck`].
    Decl(Type, Option<SlotId>, ClassCheck),
    /// Field access `e.f`, the field name interned at lowering time
    /// (`None` when no class declares the field — a guaranteed runtime
    /// "no field" error, like the old string miss).
    Field(Box<PExpr>, String, Option<Sym>),
    /// A call / constructor pattern.
    Call {
        /// Receiver, if any.
        receiver: Option<Box<PExpr>>,
        /// Method or constructor name.
        name: String,
        /// Argument patterns.
        args: Vec<PExpr>,
        /// Precomputed resolution for ground (evaluation) position.
        kind: CallKind,
        /// The dispatch table for `name`, for runtime-class-dispatched
        /// positions (`None` only for names lowered standalone that no
        /// compiled table registered).
        dispatch: Option<DispatchId>,
    },
    /// Indexing (unsupported at run time, kept for faithful errors).
    Index(Box<PExpr>, Box<PExpr>),
    /// Array allocation (unsupported at run time).
    NewArray(Type, Box<PExpr>),
    /// Binary arithmetic (invertible in pattern position).
    Binary(BinOp, Box<PExpr>, Box<PExpr>),
    /// Unary minus.
    Neg(Box<PExpr>),
    /// Tuple (only meaningful inside equations; eliminated during lowering
    /// when both sides are tuples of equal length).
    Tuple(Vec<PExpr>),
    /// `p1 as p2`.
    As(Box<PExpr>, Box<PExpr>),
    /// `p1 # p2` / `p1 | p2` pattern disjunction.
    OrPat(Box<PExpr>, Box<PExpr>),
    /// `p where (f)` — the formula is lowered to a goal that runs, in the
    /// pattern's frame, after the pattern matched.
    Where(Box<PExpr>, Box<GoalPlan>),
}

// ---------------------------------------------------------------------------
// Goals (lowered formulas)
// ---------------------------------------------------------------------------

/// The readiness test of one conjunct, used by [`Goal::DynSeq`] to reproduce
/// the interpreter's dynamic "first ready conjunct" scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadyCheck {
    /// Always ready.
    Always,
    /// Never ready (a bare declaration atom).
    Never,
    /// Ready when the expression is ground.
    Ground(PExpr),
    /// Ready when either side is ground (an equation).
    EitherGround(Box<PExpr>, Box<PExpr>),
    /// Ready when both sides are ground (an ordering comparison).
    BothGround(Box<PExpr>, Box<PExpr>),
    /// Ready when all sub-checks are ready (nested connectives).
    All(Vec<ReadyCheck>),
}

/// A lowered formula: the executable query plan of one declarative body in
/// one mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Goal {
    /// Trivially true: emit the current bindings.
    True,
    /// Trivially false: no solutions.
    Fail,
    /// A statically scheduled conjunction — the solved form of §2.3. The
    /// goals run in order; each solution of a goal feeds the next.
    Seq(Vec<Goal>),
    /// A conjunction whose order the mode analysis could not pin down
    /// statically; the evaluator selects the first ready conjunct at run
    /// time, exactly like the tree-walking interpreter.
    DynSeq(Vec<(ReadyCheck, Goal)>),
    /// Disjunction: enumerate each branch's solutions in order.
    Any(Vec<Goal>),
    /// Negation as failure: succeeds (binding nothing) iff the inner goal
    /// has no solution.
    Not(Box<Goal>),
    /// An equation `l = r`: evaluate the ground side, match the other.
    Unify(PExpr, PExpr),
    /// An ordering comparison over ground operands.
    Compare(CmpOp, PExpr, PExpr),
    /// A predicate / constructor-match atom `recv.name(args)`: solve the
    /// callee's matching plan against the receiver and match the solutions'
    /// parameter values against `args`.
    Invoke {
        /// Ground receiver (`None` means `this`).
        receiver: Option<PExpr>,
        /// Constructor / method name (dispatched on the runtime class).
        name: String,
        /// Argument patterns, matched in the caller's frame.
        args: Vec<PExpr>,
        /// The dispatch table for `name`: the runtime resolves the
        /// receiver's class symbol through it in O(1) instead of walking
        /// the supertype chain per call.
        dispatch: Option<DispatchId>,
    },
    /// A ground boolean test.
    Test(PExpr),
    /// A bare declaration atom: emits the current bindings unchanged.
    Trivial,
}

/// A goal outside a solved form's own instruction stream — a `where`
/// refinement or the goal of a `let` / `if` / `cond` / `foreach` / `while`
/// statement — together with the threaded bytecode pass 4 compiles it to.
/// The goal tree is what analysis rewrites and pass 4 compiles from; the
/// engines run only the bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalPlan {
    /// The lowered goal.
    pub goal: Goal,
    /// Its threaded bytecode (`None` until pass 4 runs).
    pub bc: Option<crate::bytecode::BcBody>,
}

impl GoalPlan {
    fn new(goal: Goal) -> Self {
        GoalPlan { goal, bc: None }
    }

    /// The compiled bytecode; see [`SolvedForm::code`].
    pub fn code(&self) -> &crate::bytecode::BcBody {
        code_of(&self.bc)
    }
}

/// Unwraps pass-4 output for execution. Every plan an engine runs was
/// compiled with [`PlanOptions::bytecode`] on; a plan that stopped before
/// pass 4 exists only for compile-time measurement.
fn code_of<T>(bc: &Option<T>) -> &T {
    bc.as_ref()
        .expect("plan compiled with `PlanOptions { bytecode: false }` cannot run")
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// Where a matched `switch` case transfers control, with fall-through
/// resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseTarget {
    /// Execute the body of case `i`.
    Body(usize),
    /// Fall through past the last case into the `default` arm.
    Default,
    /// Fall off the end — a runtime error.
    FellOff,
}

/// One lowered `case` arm.
#[derive(Debug, Clone)]
pub struct CasePlan {
    /// One pattern per scrutinee.
    pub patterns: Vec<PExpr>,
    /// One tag-dispatch guard per pattern: which scrutinee classes the
    /// pattern can possibly match. Checked (an array load) before the
    /// pattern's matching plan runs, so impossible cases are skipped
    /// without creating any choice points.
    pub guards: Vec<CaseGuard>,
    /// Precomputed fall-through target.
    pub target: CaseTarget,
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum StmtPlan {
    /// `let f;` — commit to the first solution of the goal.
    Let(GoalPlan),
    /// A `switch` with its dispatch plan.
    Switch {
        /// Scrutinee expressions.
        scrutinees: Vec<PExpr>,
        /// The case arms with resolved targets.
        cases: Vec<CasePlan>,
        /// Lowered case bodies (indexed by [`CaseTarget::Body`]).
        bodies: Vec<Vec<StmtPlan>>,
        /// The lowered `default` body, if any.
        default: Option<Vec<StmtPlan>>,
    },
    /// `cond { (f) {s} ... else {s} }`.
    Cond {
        /// The arms in order.
        arms: Vec<(GoalPlan, Vec<StmtPlan>)>,
        /// The `else` arm.
        else_arm: Option<Vec<StmtPlan>>,
    },
    /// `if (f) s else s`.
    If {
        /// Condition goal.
        cond: GoalPlan,
        /// Then branch.
        then: Vec<StmtPlan>,
        /// Else branch.
        els: Option<Vec<StmtPlan>>,
    },
    /// `foreach (f) { s }`.
    Foreach {
        /// The iterated goal.
        goal: GoalPlan,
        /// Slots of variables the formula *declares* (used for the
        /// outer-update merge semantics).
        declared: Vec<SlotId>,
        /// Loop body.
        body: Vec<StmtPlan>,
    },
    /// `while (f) { s }`.
    While {
        /// Loop condition goal.
        cond: GoalPlan,
        /// Loop body.
        body: Vec<StmtPlan>,
    },
    /// `return e;` / `return;`.
    Return(Option<PExpr>),
    /// Assignment to a variable slot.
    Assign(SlotId, PExpr),
    /// Assignment to anything else — the right-hand side is still evaluated
    /// (for faithful error ordering), then the statement fails.
    AssignUnsupported(PExpr),
    /// An expression evaluated for effect.
    Expr(PExpr),
    /// A nested block (inner-only bindings are dropped on exit).
    Block(Vec<StmtPlan>),
}

// ---------------------------------------------------------------------------
// Method plans
// ---------------------------------------------------------------------------

/// One mode-specialized solved form of a declarative body.
#[derive(Debug, Clone)]
pub struct SolvedForm {
    /// The lowered body.
    pub goal: Goal,
    /// Slot layout of the frame the goal runs in.
    pub frame: FrameLayout,
    /// Slot of each declared parameter, in declaration order.
    pub param_slots: Vec<SlotId>,
    /// Slot of `result`.
    pub result_slot: SlotId,
    /// Slots of the owner's fields (used when constructing instances).
    pub field_slots: Vec<(String, SlotId)>,
    /// Whether `this` is in scope in this mode.
    pub this_present: bool,
    /// Whether the determinism analysis (pass 3.5, [`crate::analysis`])
    /// proved the form emits at most one solution and its search cannot
    /// raise a runtime error. The evaluators commit to the first solution
    /// of a `det` form instead of keeping its choice points alive. Always
    /// `false` when the analysis is disabled.
    pub det: bool,
    /// The form's threaded bytecode (pass 4 of [`ProgramPlan::compile`];
    /// `None` only in a plan that stopped before pass 4).
    pub bc: Option<crate::bytecode::BcBody>,
}

impl SolvedForm {
    /// The form's threaded bytecode: the one form the engines execute.
    ///
    /// # Panics
    ///
    /// When the plan was compiled with [`PlanOptions::bytecode`] off; such
    /// a plan is for compile-time measurement and cannot run.
    pub fn code(&self) -> &crate::bytecode::BcBody {
        code_of(&self.bc)
    }
}

/// A lowered imperative body.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// The lowered statements.
    pub stmts: Vec<StmtPlan>,
    /// Slot layout of the method frame.
    pub frame: FrameLayout,
    /// Slot of each declared parameter, in declaration order.
    pub param_slots: Vec<SlotId>,
    /// The body's register bytecode (pass 4 of [`ProgramPlan::compile`];
    /// `None` only in a plan that stopped before pass 4).
    pub bc: Option<crate::bytecode::BcBlock>,
}

impl BlockPlan {
    /// The body's register bytecode; see [`SolvedForm::code`].
    pub fn code(&self) -> &crate::bytecode::BcBlock {
        code_of(&self.bc)
    }
}

/// The lowered body of one method.
// A program holds one `BodyPlan` per method, so the size skew between the
// solved-form-carrying variants and `Absent` has no practical cost.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum BodyPlan {
    /// No implementation (interface / abstract method).
    Absent,
    /// A declarative body with its mode-specialized solved forms.
    Formula {
        /// Forward mode: parameters known, `result` / fields unknown.
        forward: SolvedForm,
        /// Backward / iterative modes: `this` known, parameters unknown.
        matching: SolvedForm,
        /// For methods named `equals` only: `this` *and* the parameter known
        /// — the mode the runtime's deep-equality check solves in when it
        /// bridges two implementations through an equality constructor
        /// (§3.2).
        equals_bound: Option<SolvedForm>,
    },
    /// An imperative body.
    Block(BlockPlan),
}

impl BodyPlan {
    /// The forward and matching solved forms of a declarative body.
    pub fn solved_forms(&self) -> Option<(&SolvedForm, &SolvedForm)> {
        match self {
            BodyPlan::Formula {
                forward, matching, ..
            } => Some((forward, matching)),
            _ => None,
        }
    }
}

/// A method together with its compiled plans.
#[derive(Debug, Clone)]
pub struct MethodPlan {
    /// The resolved method (owner, declaration, modes).
    pub info: MethodInfo,
    /// The compiled body.
    pub body: BodyPlan,
    /// The runtime layout of the owner class (`None` for free-standing
    /// methods): construction fills this layout's slots directly.
    pub owner_layout: Option<Arc<ClassLayout>>,
    /// Pass-4 projection-constructor specialization: when the forward form
    /// is a pure `field = expr(params)` conjunction, forward construction
    /// fills the layout straight from the arguments (`None` before pass 4
    /// or when the form needs the solver).
    pub fast_ctor: Option<crate::bytecode::FastCtor>,
    /// Plans whose *bodies* this method's bytecode specialized against
    /// (inlined returned expressions, projection-switch shapes), recorded
    /// during pass 4. Incremental recompilation re-emits this method's
    /// bytecode whenever any of these plans changed; the edges are one level
    /// deep by construction (inlining embeds the callee's plan expression,
    /// not its bytecode), so no transitive closure is needed.
    pub bc_deps: Vec<PlanId>,
}

// ---------------------------------------------------------------------------
// Program plans
// ---------------------------------------------------------------------------

/// The pass-1 resolution maps: where every `(owner, name)` pair resolves,
/// before any body is lowered. Lowering reads these to resolve call sites
/// statically; the finished [`ProgramPlan`] keeps them for the string-keyed
/// API boundary.
#[derive(Debug, Clone, Default)]
struct PlanMaps {
    /// First method declared under `(owner, name)` (any kind, any body).
    /// Keyed by interned symbols, so the string-keyed API boundary resolves
    /// without allocating.
    declared: HashMap<(Sym, Sym), PlanId>,
    /// First method declared under `(owner, name)` *with* a body.
    declared_impl: HashMap<(Sym, Sym), PlanId>,
    /// The class constructor of each class.
    class_ctors: HashMap<Sym, PlanId>,
    /// Free-standing methods by name (first wins, like the table).
    free: HashMap<String, PlanId>,
    /// Whether each plan's method has a body.
    bodied: Vec<bool>,
}

impl PlanMaps {
    fn lookup_declared(&self, table: &ClassTable, ty: &str, name: &str) -> Option<PlanId> {
        // A name no type declares has no symbol — and therefore no entry.
        let name_sym = table.interner().lookup(name)?;
        Self::walk(&self.declared, table, ty, name_sym)
    }

    fn lookup_impl(&self, table: &ClassTable, class: &str, name: &str) -> Option<PlanId> {
        let name_sym = table.interner().lookup(name)?;
        Self::walk(&self.declared_impl, table, class, name_sym)
    }

    /// The shared supertype walk behind both resolutions: first entry for
    /// `(ty, name)` in `map` on the type itself, then on supertypes.
    fn walk(
        map: &HashMap<(Sym, Sym), PlanId>,
        table: &ClassTable,
        ty: &str,
        name_sym: Sym,
    ) -> Option<PlanId> {
        if let Some(ty_sym) = table.interner().lookup(ty) {
            if let Some(&id) = map.get(&(ty_sym, name_sym)) {
                return Some(id);
            }
        }
        let info = table.type_info(ty)?;
        info.supertypes
            .iter()
            .find_map(|sup| Self::walk(map, table, sup, name_sym))
    }

    fn class_ctor(&self, table: &ClassTable, class: &str) -> Option<PlanId> {
        self.class_ctors
            .get(&table.interner().lookup(class)?)
            .copied()
    }
}

/// The dispatch-table registry filled while bodies are lowered: every
/// invoked (or declared) name gets a [`DispatchId`]; the tables themselves
/// are materialized after lowering.
#[derive(Debug, Default)]
struct DispatchRegistry {
    ids: HashMap<String, DispatchId>,
    names: Vec<String>,
}

impl DispatchRegistry {
    fn id_for(&mut self, name: &str) -> DispatchId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as DispatchId;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }
}

/// Options of [`ProgramPlan::compile_with`]: which optional passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Run pass 4, which compiles every goal and body to the bytecode the
    /// engines execute. On by default. Off stops before pass 4: the plan is
    /// for compile-time measurement and cannot run.
    pub bytecode: bool,
    /// Run the static-analysis pipeline (pass 3.5, [`crate::analysis`]):
    /// dead-alternative pruning, determinism inference, IR lints. On by
    /// default; `analysis: false` keeps the unanalyzed plan as the
    /// differential oracle.
    pub analysis: bool,
    /// Cross-check every switch/cond-arm prune against the §5 verifier
    /// through the SMT session (see
    /// [`AnalysisOptions::smt`](crate::analysis::AnalysisOptions)). Off by
    /// default.
    pub smt_prune_check: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            bytecode: true,
            analysis: true,
            smt_prune_check: false,
        }
    }
}

/// The compiled program: every method body lowered to its query plans, plus
/// the class-keyed dispatch tables the evaluators resolve calls through
/// without searching the class table.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    table: Arc<ClassTable>,
    /// One `Arc` per method plan so incremental recompilation can share
    /// every unchanged plan between generations.
    methods: Vec<Arc<MethodPlan>>,
    maps: PlanMaps,
    /// Dispatch table per registered name.
    dispatch_ids: HashMap<String, DispatchId>,
    /// `Arc`-shared so a recompile that registers no new dispatched name
    /// reuses the whole table block.
    dispatch: Arc<[DispatchTable]>,
    /// The class constructor of each type, by type index.
    class_ctor_by_type: Box<[Option<PlanId>]>,
    /// The `equals` dispatch table (deep equality's hot lookup).
    equals_dispatch: Option<DispatchId>,
    /// Whether pass 4 emitted bytecode (standalone lowering follows suit).
    bc_enabled: bool,
    /// What pass 3.5 found (`None` when the analysis was disabled).
    analysis: Option<crate::analysis::AnalysisReport>,
}

impl ProgramPlan {
    /// Lowers every method of a resolved program. This is the one-time
    /// compile work that replaces the interpreter's per-call mode search:
    /// pass 1 registers every method in the resolution maps, pass 2 lowers
    /// bodies against those maps (resolving static call sites and interning
    /// dispatched names), pass 3 materializes one [`DispatchTable`] per
    /// name, pass 4 emits the flat bytecode of every lowered body (see
    /// [`crate::bytecode`]).
    pub fn compile(table: Arc<ClassTable>) -> Arc<ProgramPlan> {
        Self::compile_with(table, PlanOptions::default())
    }

    /// [`ProgramPlan::compile`] with every optional pass switchable.
    pub fn compile_with(table: Arc<ClassTable>, opts: PlanOptions) -> Arc<ProgramPlan> {
        let bytecode = opts.bytecode;
        // Pass 1: resolution maps, no lowering yet.
        let (maps, infos) = Self::build_maps(&table);
        // Every declared name gets a table up front so standalone-lowered
        // formulas (built after compile) dispatch through them too.
        let mut registry = DispatchRegistry::default();
        for m in &infos {
            registry.id_for(&m.decl.name);
        }
        // Pass 2: lower bodies against the complete maps.
        let mut methods: Vec<Arc<MethodPlan>> = infos
            .iter()
            .map(|m| Arc::new(lower_method(&table, &maps, &mut registry, m)))
            .collect();
        // Pass 3: materialize the dispatch tables.
        let n = table.num_types();
        let type_names: Vec<&str> = table.types().map(|t| t.name.as_str()).collect();
        let dispatch: Arc<[DispatchTable]> = registry
            .names
            .iter()
            .map(|name| DispatchTable {
                name: name.clone(),
                by_type: type_names
                    .iter()
                    .map(|ty| maps.lookup_impl(&table, ty, name))
                    .collect(),
            })
            .collect();
        // Pass 3.5: static analysis — prune dead alternatives, infer
        // determinism, collect lints. Runs after dispatch materialization
        // (inter-procedural facts flow through the tables) and before
        // bytecode emission (pass 4 compiles the *pruned* plans, so goal
        // trees and bytecode stay mirror images).
        let analysis = if opts.analysis {
            Some(crate::analysis::analyze(
                &table,
                &mut methods,
                &dispatch,
                &crate::analysis::AnalysisOptions {
                    smt: opts.smt_prune_check,
                },
            ))
        } else {
            None
        };
        // Pass 4: emit the flat bytecode of every lowered body.
        if bytecode {
            Self::emit_bytecode(&mut methods, &dispatch, None);
        }
        let class_ctor_by_type: Box<[Option<PlanId>]> = type_names
            .iter()
            .map(|ty| maps.class_ctor(&table, ty))
            .collect();
        debug_assert_eq!(class_ctor_by_type.len(), n);
        let equals_dispatch = registry.ids.get("equals").copied();
        Arc::new(ProgramPlan {
            table,
            methods,
            maps,
            dispatch_ids: registry.ids,
            dispatch,
            class_ctor_by_type,
            equals_dispatch,
            bc_enabled: bytecode,
            analysis,
        })
    }

    /// Recompiles after an edit whose [`structure`](crate::incremental::structure_hash)
    /// is unchanged, sharing every clean plan with the previous generation.
    ///
    /// `dirty[pid]` must be true exactly for the plans whose body
    /// fingerprint changed (with an unchanged structure, signatures are
    /// constant, so bodies are the only thing that can differ). The caller
    /// guarantees plan ids, interned symbols and dispatched names line up
    /// with `prev` — which is what an unchanged structure hash certifies.
    ///
    /// Sharing is by `Arc`: clean plans are cloned pointers, the dispatch
    /// block is reused wholesale when no new name was registered, and
    /// bytecode is re-emitted only for changed plans and for plans whose
    /// recorded [`MethodPlan::bc_deps`] intersect the changed set.
    pub fn recompile(
        prev: &ProgramPlan,
        table: Arc<ClassTable>,
        dirty: &[bool],
        opts: PlanOptions,
    ) -> Arc<ProgramPlan> {
        let bytecode = opts.bytecode;
        let (maps, infos) = Self::build_maps(&table);
        assert_eq!(
            infos.len(),
            prev.methods.len(),
            "recompile requires an unchanged program structure"
        );
        assert_eq!(dirty.len(), prev.methods.len());
        // Seed the registry from the previous generation's dispatch names,
        // in order: every DispatchId embedded in a reused plan's goals (and
        // bytecode) keeps meaning the same name; new names append.
        let mut registry = DispatchRegistry::default();
        for t in prev.dispatch.iter() {
            registry.id_for(&t.name);
        }
        let prev_names = registry.names.len();
        // Pass 2': re-lower dirty bodies only; clean plans are shared.
        let mut methods: Vec<Arc<MethodPlan>> = infos
            .iter()
            .enumerate()
            .map(|(pid, m)| {
                if dirty[pid] {
                    Arc::new(lower_method(&table, &maps, &mut registry, m))
                } else {
                    Arc::clone(&prev.methods[pid])
                }
            })
            .collect();
        // Pass 3': dispatch tables are structurally determined, so they can
        // only grow — share the whole block unless a dirty body dispatched
        // a name never seen before.
        let type_names: Vec<&str> = table.types().map(|t| t.name.as_str()).collect();
        let dispatch: Arc<[DispatchTable]> = if registry.names.len() == prev_names {
            Arc::clone(&prev.dispatch)
        } else {
            registry
                .names
                .iter()
                .map(|name| DispatchTable {
                    name: name.clone(),
                    by_type: type_names
                        .iter()
                        .map(|ty| maps.lookup_impl(&table, ty, name))
                        .collect(),
                })
                .collect()
        };
        // Pass 3.5': analysis with carry-forward — pruning (the potentially
        // solver-backed pass) runs only on dirty plans, reusing the previous
        // report's prune records for clean ones; the cheap inter-procedural
        // fact fixpoint and lints re-run globally, rewriting a clean plan's
        // determinism bits only when they actually changed (which marks it
        // changed for the bytecode pass below).
        let analysis = if opts.analysis {
            Some(crate::analysis::analyze_incremental(
                &table,
                &mut methods,
                &dispatch,
                &crate::analysis::AnalysisOptions {
                    smt: opts.smt_prune_check,
                },
                prev.analysis.as_ref().map(|a| (a, dirty)),
            ))
        } else {
            None
        };
        // Pass 4': re-emit bytecode for changed plans and for plans whose
        // bytecode specialized against a changed plan's body.
        if bytecode {
            let changed: Vec<bool> = methods
                .iter()
                .zip(&prev.methods)
                .map(|(a, b)| !Arc::ptr_eq(a, b))
                .collect();
            let need: Vec<bool> = (0..methods.len())
                .map(|pid| changed[pid] || prev.methods[pid].bc_deps.iter().any(|&d| changed[d]))
                .collect();
            Self::emit_bytecode(&mut methods, &dispatch, Some(&need));
        }
        let class_ctor_by_type: Box<[Option<PlanId>]> = type_names
            .iter()
            .map(|ty| maps.class_ctor(&table, ty))
            .collect();
        let equals_dispatch = registry.ids.get("equals").copied();
        Arc::new(ProgramPlan {
            table,
            methods,
            maps,
            dispatch_ids: registry.ids,
            dispatch,
            class_ctor_by_type,
            equals_dispatch,
            bc_enabled: bytecode,
            analysis,
        })
    }

    /// Pass 1: the resolution maps and the flat method list, in plan-id
    /// order (types in declaration order, their methods in declaration
    /// order, then free methods).
    fn build_maps(table: &ClassTable) -> (PlanMaps, Vec<&MethodInfo>) {
        let mut maps = PlanMaps::default();
        let mut infos: Vec<&MethodInfo> = Vec::new();
        let interned = |name: &str| {
            table
                .interner()
                .lookup(name)
                .expect("declared names are interned by ClassTable::build")
        };
        for ty in table.types() {
            let ty_sym = interned(&ty.name);
            for m in &ty.methods {
                let id = infos.len();
                infos.push(m);
                let key = (ty_sym, interned(&m.decl.name));
                maps.declared.entry(key).or_insert(id);
                let has_body = !matches!(m.decl.body, MethodBody::Absent);
                if has_body {
                    maps.declared_impl.entry(key).or_insert(id);
                }
                if m.decl.kind == MethodKind::ClassConstructor {
                    maps.class_ctors.entry(ty_sym).or_insert(id);
                }
                maps.bodied.push(has_body);
            }
        }
        for m in table.free_methods() {
            let id = infos.len();
            infos.push(m);
            maps.free.entry(m.decl.name.clone()).or_insert(id);
            maps.bodied.push(!matches!(m.decl.body, MethodBody::Absent));
        }
        (maps, infos)
    }

    /// Pass 4: emit the flat bytecode of every lowered body for which
    /// `need[pid]` holds (all bodies when `need` is `None`). The plan stays
    /// alongside as the lowering source. Goal positions outside a solved
    /// form's own stream (`where` refinements, statement goals) compile
    /// first, in place, so every pooled copy of them carries its bytecode.
    /// Block bodies then compile against the whole program (methods +
    /// dispatch tables) so monomorphic call sites and field-projection
    /// switch arms can be specialized, which is why the bytecode of all
    /// bodies is computed first and attached after; the plans consulted
    /// along the way are recorded as [`MethodPlan::bc_deps`].
    fn emit_bytecode(
        methods: &mut [Arc<MethodPlan>],
        dispatch: &[DispatchTable],
        need: Option<&[bool]>,
    ) {
        for (pid, mp) in methods.iter_mut().enumerate() {
            if need.is_none_or(|n| n[pid]) {
                crate::bytecode::compile_goal_positions(&mut Arc::make_mut(mp).body);
            }
        }
        type Compiled = (
            Option<crate::bytecode::BcBlock>,
            Option<crate::bytecode::FastCtor>,
            Vec<PlanId>,
        );
        let compiled: Vec<Option<Compiled>> = {
            let ctx = crate::bytecode::BcCtx::new(methods, dispatch);
            methods
                .iter()
                .enumerate()
                .map(|(pid, mp)| {
                    if !need.is_none_or(|n| n[pid]) {
                        return None;
                    }
                    let block = match &mp.body {
                        BodyPlan::Block(bp) => Some(crate::bytecode::compile_block(bp, &ctx)),
                        _ => None,
                    };
                    let deps = ctx.take_deps();
                    let fast = crate::bytecode::fast_ctor(mp);
                    Some((block, fast, deps))
                })
                .collect()
        };
        for (pid, item) in compiled.into_iter().enumerate() {
            let Some((block, fast, deps)) = item else {
                continue;
            };
            let mp = Arc::make_mut(&mut methods[pid]);
            mp.fast_ctor = fast;
            mp.bc_deps = deps;
            match &mut mp.body {
                BodyPlan::Formula {
                    forward,
                    matching,
                    equals_bound,
                } => {
                    forward.bc = Some(crate::bytecode::compile_body(forward, &forward.param_slots));
                    matching.bc = Some(crate::bytecode::compile_body(matching, &[]));
                    if let Some(eb) = equals_bound {
                        // The runtime's deep-equality bridge seeds only
                        // the first parameter (the other side of the
                        // equation), so only it is must-bound.
                        let seed: Vec<SlotId> =
                            eb.param_slots.first().copied().into_iter().collect();
                        eb.bc = Some(crate::bytecode::compile_body(eb, &seed));
                    }
                }
                BodyPlan::Block(bp) => {
                    bp.bc = block;
                }
                BodyPlan::Absent => {}
            }
        }
    }

    /// Whether pass 4 emitted bytecode for this plan.
    pub fn bytecode_enabled(&self) -> bool {
        self.bc_enabled
    }

    /// What the static-analysis pass found: lints, prunes, determinism
    /// counts. `None` when the plan was compiled with `analysis: false`.
    pub fn analysis(&self) -> Option<&crate::analysis::AnalysisReport> {
        self.analysis.as_ref()
    }

    /// The class table the plan was compiled from.
    pub fn table(&self) -> &Arc<ClassTable> {
        &self.table
    }

    /// All compiled method plans (`Arc`-shared across generations).
    pub fn methods(&self) -> &[Arc<MethodPlan>] {
        &self.methods
    }

    /// A method plan by id.
    pub fn method(&self, id: PlanId) -> &MethodPlan {
        &self.methods[id]
    }

    /// Resolves `name` on `ty` like `ClassTable::lookup_method`: the first
    /// declaration found on the type itself, then on supertypes.
    pub fn lookup_declared(&self, ty: &str, name: &str) -> Option<PlanId> {
        self.maps.lookup_declared(&self.table, ty, name)
    }

    /// Resolves the *implementation* of `name` reachable from the concrete
    /// class `class` (the interpreter's `find_impl`): the first declaration
    /// with a body on the class itself, then on supertypes.
    pub fn lookup_impl(&self, class: &str, name: &str) -> Option<PlanId> {
        self.maps.lookup_impl(&self.table, class, name)
    }

    /// The class constructor plan of a class.
    pub fn class_ctor(&self, class: &str) -> Option<PlanId> {
        self.maps.class_ctor(&self.table, class)
    }

    /// The class constructor plan of the type at `type_index`.
    pub fn class_ctor_at(&self, type_index: u32) -> Option<PlanId> {
        self.class_ctor_by_type[type_index as usize]
    }

    /// A free-standing method plan by name.
    pub fn lookup_free(&self, name: &str) -> Option<PlanId> {
        self.maps.free.get(name).copied()
    }

    /// The dispatch table registered for `name`, if any.
    pub fn dispatch_id(&self, name: &str) -> Option<DispatchId> {
        self.dispatch_ids.get(name).copied()
    }

    /// The implementation `name`'s dispatch table resolves for the class
    /// at `type_index` — one array load, the runtime's whole dynamic
    /// dispatch.
    pub fn dispatch_at(&self, id: DispatchId, type_index: u32) -> Option<PlanId> {
        self.dispatch[id as usize].at(type_index)
    }

    /// The dispatch table of `equals` (the deep-equality hot path).
    pub fn equals_dispatch(&self) -> Option<DispatchId> {
        self.equals_dispatch
    }

    /// All dispatch tables (diagnostics / tests).
    pub fn dispatch_tables(&self) -> &[DispatchTable] {
        &self.dispatch
    }
}

// ---------------------------------------------------------------------------
// Binding state for the must/may analysis
// ---------------------------------------------------------------------------

/// What the lowering knows about one variable's boundness at a program
/// point: `must` ⊆ (actually bound at run time) ⊆ `may`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bound {
    must: bool,
    may: bool,
}

/// Per-slot binding state during lowering.
#[derive(Debug, Clone, Default)]
struct SlotState {
    slots: Vec<Bound>,
}

impl SlotState {
    fn get(&self, s: SlotId) -> Bound {
        self.slots.get(s as usize).copied().unwrap_or_default()
    }

    fn ensure(&mut self, s: SlotId) {
        if self.slots.len() <= s as usize {
            self.slots.resize(s as usize + 1, Bound::default());
        }
    }

    fn bind_must(&mut self, s: SlotId) {
        self.ensure(s);
        self.slots[s as usize] = Bound {
            must: true,
            may: true,
        };
    }

    fn bind_may(&mut self, s: SlotId) {
        self.ensure(s);
        self.slots[s as usize].may = true;
    }

    fn apply(&mut self, binds: &Binds) {
        for &s in &binds.must {
            self.bind_must(s);
        }
        for &s in &binds.may {
            self.bind_may(s);
        }
    }

    /// Intersection of musts / union of mays across branches.
    fn join(&mut self, other: &SlotState) {
        let n = self.slots.len().max(other.slots.len());
        self.slots.resize(n, Bound::default());
        for (i, b) in self.slots.iter_mut().enumerate() {
            let o = other.slots.get(i).copied().unwrap_or_default();
            b.must &= o.must;
            b.may |= o.may;
        }
    }
}

/// Slots a conjunct binds when it succeeds.
#[derive(Debug, Clone, Default)]
struct Binds {
    /// Bound on every success path.
    must: Vec<SlotId>,
    /// Bound on at least one success path.
    may: Vec<SlotId>,
}

impl Binds {
    fn add_must(&mut self, s: SlotId) {
        if !self.must.contains(&s) {
            self.must.push(s);
        }
        self.add_may(s);
    }

    fn add_may(&mut self, s: SlotId) {
        if !self.may.contains(&s) {
            self.may.push(s);
        }
    }

    fn union(&mut self, other: &Binds) {
        for &s in &other.must {
            self.add_must(s);
        }
        for &s in &other.may {
            self.add_may(s);
        }
    }

    /// Branch combination: intersect musts, union mays.
    fn branch(&mut self, other: &Binds) {
        self.must.retain(|s| other.must.contains(s));
        for &s in &other.may {
            self.add_may(s);
        }
    }
}

// ---------------------------------------------------------------------------
// The lowering context
// ---------------------------------------------------------------------------

/// How call / pattern sites resolve while lowering: against the in-progress
/// pass-1 maps during [`ProgramPlan::compile`], or against a finished plan
/// for standalone formulas lowered at query time.
enum Res<'t> {
    /// Compiling a program: maps are complete, dispatch ids are handed out
    /// on demand.
    Building {
        maps: &'t PlanMaps,
        registry: &'t mut DispatchRegistry,
    },
    /// Lowering a standalone formula against a finished plan: only names
    /// the plan registered dispatch through tables.
    Frozen(&'t ProgramPlan),
}

impl Res<'_> {
    fn dispatch_id(&mut self, name: &str) -> Option<DispatchId> {
        match self {
            Res::Building { registry, .. } => Some(registry.id_for(name)),
            Res::Frozen(plan) => plan.dispatch_id(name),
        }
    }

    fn lookup_impl(&self, table: &ClassTable, class: &str, name: &str) -> Option<PlanId> {
        match self {
            Res::Building { maps, .. } => maps.lookup_impl(table, class, name),
            Res::Frozen(plan) => plan.lookup_impl(class, name),
        }
    }

    fn lookup_declared(&self, table: &ClassTable, ty: &str, name: &str) -> Option<PlanId> {
        match self {
            Res::Building { maps, .. } => maps.lookup_declared(table, ty, name),
            Res::Frozen(plan) => plan.lookup_declared(ty, name),
        }
    }

    fn class_ctor(&self, table: &ClassTable, class: &str) -> Option<PlanId> {
        match self {
            Res::Building { maps, .. } => maps.class_ctor(table, class),
            Res::Frozen(plan) => plan.class_ctor(class),
        }
    }

    fn lookup_free(&self, name: &str) -> Option<PlanId> {
        match self {
            Res::Building { maps, .. } => maps.free.get(name).copied(),
            Res::Frozen(plan) => plan.lookup_free(name),
        }
    }

    fn has_body(&self, pid: PlanId) -> bool {
        match self {
            Res::Building { maps, .. } => maps.bodied[pid],
            Res::Frozen(plan) => !matches!(plan.method(pid).body, BodyPlan::Absent),
        }
    }
}

/// Mutable lowering state for one solved form / block plan.
struct Lowerer<'t> {
    table: &'t ClassTable,
    frame: FrameLayout,
    /// `Some(owner)` when `this` is statically in scope; the owner class is
    /// used for the field-of-`this` must-groundness test.
    this_owner: Option<String>,
    /// Call-site resolution and dispatch-table registration.
    res: Res<'t>,
}

/// Which groundness approximation a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Approx {
    Must,
    May,
}

impl<'t> Lowerer<'t> {
    fn new(table: &'t ClassTable, this_owner: Option<String>, res: Res<'t>) -> Self {
        Lowerer {
            table,
            frame: FrameLayout::default(),
            this_owner,
            res,
        }
    }

    fn slot(&mut self, name: &str) -> SlotId {
        self.frame.slot(name)
    }

    /// Resolves the class restriction of a declared type.
    fn class_check(&self, ty: &Type) -> ClassCheck {
        match ty {
            Type::Named(t) => match self.table.type_index(t) {
                Some(i) => ClassCheck::Subtype(i),
                None => ClassCheck::Dynamic,
            },
            _ => ClassCheck::Any,
        }
    }

    /// Resolves a statically named class at a call / pattern site.
    /// `class_ctor_call` marks `Class(args)` expressions, whose evaluation
    /// position resolves through the class constructor only.
    fn class_ref(&self, class: &str, name: &str, class_ctor_call: bool) -> ClassRef {
        let match_pid = self
            .res
            .lookup_impl(self.table, class, name)
            .or_else(|| self.res.class_ctor(self.table, class));
        let construct_pid = if class_ctor_call {
            self.res.class_ctor(self.table, class)
        } else {
            // Mirrors the evaluator's `construct`: the first declaration
            // (or the class constructor), falling through to the first
            // implementation when only a bodiless signature is reachable.
            match self
                .res
                .lookup_declared(self.table, class, name)
                .or_else(|| self.res.class_ctor(self.table, class))
            {
                Some(d) if self.res.has_body(d) => Some(d),
                Some(_) => self.res.lookup_impl(self.table, class, name),
                None => None,
            }
        };
        ClassRef {
            name: class.to_owned(),
            type_index: self.table.type_index(class),
            construct_pid,
            match_pid,
        }
    }

    /// Mask of every class that is a subtype of the type at `sup`.
    fn subtype_mask(&self, sup: u32) -> CaseGuard {
        let n = self.table.num_types() as u32;
        CaseGuard::Classes((0..n).map(|c| self.table.is_subtype_idx(c, sup)).collect())
    }

    /// The tag-dispatch guard of one case pattern: which scrutinee classes
    /// could possibly match it. Conservative — a pattern whose match could
    /// *error* (instead of merely failing) guards as [`CaseGuard::Any`], so
    /// skipping a guarded-out case is always observationally identical to
    /// running the pattern and failing.
    fn case_guard(&self, pat: &PExpr) -> CaseGuard {
        match pat {
            // Literals and arithmetic patterns only ever match primitive
            // values: an object scrutinee fails before any work happens.
            PExpr::Int(_)
            | PExpr::Bool(_)
            | PExpr::Str(_)
            | PExpr::Null
            | PExpr::Binary(..)
            | PExpr::Neg(_) => CaseGuard::Classes(vec![false; self.table.num_types()].into()),
            PExpr::Decl(_, _, check) => match check {
                ClassCheck::Subtype(i) => self.subtype_mask(*i),
                // `Dynamic` falls back to the string walk at run time (it
                // can admit classes with erroneous supertype chains), so it
                // cannot be pruned statically.
                ClassCheck::Any | ClassCheck::Dynamic => CaseGuard::Any,
            },
            PExpr::Call {
                kind: CallKind::StaticConstruct(cr),
                ..
            } => self.static_ctor_guard(cr),
            PExpr::Call {
                kind: CallKind::ClassCtor(cr),
                receiver: None,
                ..
            } => self.static_ctor_guard(cr),
            PExpr::As(a, b) => self.case_guard(a).intersect(self.case_guard(b)),
            PExpr::Where(p, _) => self.case_guard(p),
            PExpr::OrPat(a, b) => self.case_guard(a).union(self.case_guard(b)),
            // Runtime-class-dispatched constructor patterns error (not
            // fail) when the class lacks the constructor, and everything
            // else is unrestricted.
            _ => CaseGuard::Any,
        }
    }

    /// Guard of a statically classed constructor pattern `C.mk(..)` /
    /// `C(..)`: subtypes of `C` can match directly; other classes only
    /// through an equality-constructor conversion, so the mask applies
    /// only when `C` has no `equals` implementation.
    fn static_ctor_guard(&self, cr: &ClassRef) -> CaseGuard {
        if cr.match_pid.is_none() {
            // Unresolvable constructor: matching errors for every value.
            return CaseGuard::Any;
        }
        if self
            .res
            .lookup_impl(self.table, &cr.name, "equals")
            .is_some()
        {
            return CaseGuard::Any;
        }
        match cr.type_index {
            Some(i) => self.subtype_mask(i),
            None => CaseGuard::Any,
        }
    }

    // -- expression lowering ------------------------------------------------

    fn lower_expr(&mut self, e: &Expr, st: &SlotState) -> PExpr {
        match e {
            Expr::IntLit(n) => PExpr::Int(*n),
            Expr::BoolLit(b) => PExpr::Bool(*b),
            Expr::StrLit(s) => PExpr::Str(s.clone()),
            Expr::Null => PExpr::Null,
            Expr::This => PExpr::This,
            Expr::Result => PExpr::Result(self.slot("result")),
            Expr::Wildcard => PExpr::Wildcard,
            Expr::Var(name) => PExpr::Name {
                slot: self.slot(name),
                name: name.clone(),
                field_sym: self.table.interner().lookup(name),
                class_ref: self.table.type_info(name).is_some(),
            },
            Expr::Decl(ty, name) => {
                let slot = if name == "_" {
                    None
                } else {
                    Some(self.slot(name))
                };
                PExpr::Decl(ty.clone(), slot, self.class_check(ty))
            }
            Expr::Field(b, f) => PExpr::Field(
                Box::new(self.lower_expr(b, st)),
                f.clone(),
                self.table.interner().lookup(f),
            ),
            Expr::Call {
                receiver,
                name,
                args,
            } => {
                let kind = match receiver.as_deref() {
                    Some(Expr::Var(class)) if self.table.type_info(class).is_some() => {
                        CallKind::StaticConstruct(self.class_ref(class, name, false))
                    }
                    Some(_) => CallKind::Instance,
                    None => {
                        if self.table.type_info(name).is_some() {
                            CallKind::ClassCtor(self.class_ref(name, name, true))
                        } else if self.table.lookup_free_method(name).is_some() {
                            CallKind::Free(self.res.lookup_free(name))
                        } else if self.this_owner.is_some() {
                            CallKind::ThisMethod
                        } else {
                            CallKind::Unresolved
                        }
                    }
                };
                let dispatch = self.res.dispatch_id(name);
                // Argument patterns are matched left to right; later args
                // (and their `where` clauses) see the binds of earlier ones.
                let mut inner = st.clone();
                let recv = receiver
                    .as_deref()
                    .map(|r| Box::new(self.lower_expr(r, &inner)));
                let mut lowered_args = Vec::with_capacity(args.len());
                for a in args {
                    lowered_args.push(self.lower_expr(a, &inner));
                    let b = self.pat_binds(a);
                    inner.apply(&b);
                }
                PExpr::Call {
                    receiver: recv,
                    name: name.clone(),
                    args: lowered_args,
                    kind,
                    dispatch,
                }
            }
            Expr::Index(a, b) => PExpr::Index(
                Box::new(self.lower_expr(a, st)),
                Box::new(self.lower_expr(b, st)),
            ),
            Expr::NewArray(ty, a) => PExpr::NewArray(ty.clone(), Box::new(self.lower_expr(a, st))),
            Expr::Binary(op, a, b) => PExpr::Binary(
                *op,
                Box::new(self.lower_expr(a, st)),
                Box::new(self.lower_expr(b, st)),
            ),
            Expr::Neg(a) => PExpr::Neg(Box::new(self.lower_expr(a, st))),
            Expr::Tuple(xs) => PExpr::Tuple(xs.iter().map(|x| self.lower_expr(x, st)).collect()),
            Expr::As(a, b) => {
                let la = self.lower_expr(a, st);
                let mut inner = st.clone();
                let ba = self.pat_binds(a);
                inner.apply(&ba);
                let lb = self.lower_expr(b, &inner);
                PExpr::As(Box::new(la), Box::new(lb))
            }
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => PExpr::OrPat(
                Box::new(self.lower_expr(a, st)),
                Box::new(self.lower_expr(b, st)),
            ),
            Expr::Where(p, f) => {
                let lp = self.lower_expr(p, st);
                // The refinement formula runs after the pattern matched.
                let mut inner = st.clone();
                let bp = self.pat_binds(p);
                inner.apply(&bp);
                let goal = self.lower_formula(f, &mut inner);
                PExpr::Where(Box::new(lp), Box::new(GoalPlan::new(goal)))
            }
        }
    }

    // -- groundness (static, must/may) --------------------------------------

    fn ground(&mut self, e: &Expr, st: &SlotState, approx: Approx) -> bool {
        match e {
            Expr::IntLit(_) | Expr::BoolLit(_) | Expr::StrLit(_) | Expr::Null => true,
            Expr::This => self.this_owner.is_some(),
            Expr::Result => {
                let s = self.slot("result");
                let b = st.get(s);
                match approx {
                    Approx::Must => b.must,
                    Approx::May => b.may,
                }
            }
            Expr::Wildcard | Expr::Decl(..) => false,
            Expr::Var(name) => {
                let s = self.slot(name);
                let b = st.get(s);
                let bound = match approx {
                    Approx::Must => b.must,
                    Approx::May => b.may,
                };
                bound || self.field_ground(name, approx) || self.table.type_info(name).is_some()
            }
            Expr::Field(b, _) => self.ground(b, st, approx),
            Expr::Call { receiver, args, .. } => {
                receiver
                    .as_deref()
                    .map(|r| self.ground(r, st, approx))
                    .unwrap_or(true)
                    && args.iter().all(|a| self.ground(a, st, approx))
            }
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                self.ground(a, st, approx) && self.ground(b, st, approx)
            }
            Expr::NewArray(_, a) | Expr::Neg(a) => self.ground(a, st, approx),
            Expr::Tuple(xs) => xs.iter().all(|x| self.ground(x, st, approx)),
            Expr::As(a, b) | Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                self.ground(a, st, approx) && self.ground(b, st, approx)
            }
            Expr::Where(p, _) => self.ground(p, st, approx),
        }
    }

    /// Whether `name` resolves to a field of `this`. The must variant uses
    /// the static owner class; the may variant admits any subtype of it
    /// (the runtime class of `this` may declare more fields).
    fn field_ground(&self, name: &str, approx: Approx) -> bool {
        let Some(owner) = &self.this_owner else {
            return false;
        };
        match approx {
            Approx::Must => self.table.field_type(owner, name).is_some(),
            Approx::May => self.table.types().any(|t| {
                self.table.is_subtype(&t.name, owner)
                    && self.table.field_type(&t.name, name).is_some()
            }),
        }
    }

    // -- binds analysis ------------------------------------------------------

    /// Slots a *pattern* binds when matched successfully.
    fn pat_binds(&mut self, e: &Expr) -> Binds {
        let mut b = Binds::default();
        self.collect_pat_binds(e, &mut b);
        b
    }

    fn collect_pat_binds(&mut self, e: &Expr, out: &mut Binds) {
        match e {
            Expr::Var(name) => {
                let s = self.slot(name);
                out.add_must(s);
            }
            Expr::Decl(_, name) if name != "_" => {
                let s = self.slot(name);
                out.add_must(s);
            }
            Expr::Result => {
                let s = self.slot("result");
                out.add_must(s);
            }
            Expr::Call { args, .. } => {
                // The receiver is only used for dispatch; args are matched.
                for a in args {
                    self.collect_pat_binds(a, out);
                }
            }
            Expr::Binary(_, a, b) | Expr::As(a, b) => {
                self.collect_pat_binds(a, out);
                self.collect_pat_binds(b, out);
            }
            Expr::Neg(a) => self.collect_pat_binds(a, out),
            Expr::Tuple(xs) => {
                for x in xs {
                    self.collect_pat_binds(x, out);
                }
            }
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                let mut ba = Binds::default();
                self.collect_pat_binds(a, &mut ba);
                let mut bb = Binds::default();
                self.collect_pat_binds(b, &mut bb);
                ba.branch(&bb);
                out.union(&ba);
            }
            Expr::Where(p, f) => {
                self.collect_pat_binds(p, out);
                let fb = self.formula_binds(f);
                out.union(&fb);
            }
            // Field access, indexing, literals, `this`, wildcards and
            // declarations of `_` bind nothing when matched (field and index
            // patterns are evaluated, not inverted).
            _ => {}
        }
    }

    /// Slots a formula binds when it succeeds.
    fn formula_binds(&mut self, f: &Formula) -> Binds {
        match f {
            Formula::Bool(_) => Binds::default(),
            Formula::Cmp(CmpOp::Eq, l, r) => {
                let mut b = self.pat_binds(l);
                let rb = self.pat_binds(r);
                b.union(&rb);
                b
            }
            // Ordering comparisons evaluate both sides; nothing is bound.
            Formula::Cmp(..) => Binds::default(),
            Formula::And(a, b) => {
                let mut ba = self.formula_binds(a);
                let bb = self.formula_binds(b);
                ba.union(&bb);
                ba
            }
            Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                let mut ba = self.formula_binds(a);
                let bb = self.formula_binds(b);
                ba.branch(&bb);
                ba
            }
            // Negation emits the *original* bindings.
            Formula::Not(_) => Binds::default(),
            Formula::Atom(Expr::Call { args, .. }) => {
                let mut b = Binds::default();
                for a in args {
                    let ab = self.pat_binds(a);
                    b.union(&ab);
                }
                b
            }
            // A bare declaration atom and ground boolean atoms bind nothing.
            Formula::Atom(_) => Binds::default(),
        }
    }

    // -- readiness -----------------------------------------------------------

    /// Lowers the interpreter's `conjunct_ready` test for one conjunct.
    fn lower_ready(&mut self, f: &Formula, st: &SlotState) -> ReadyCheck {
        match f {
            Formula::Bool(_) => ReadyCheck::Always,
            Formula::Cmp(CmpOp::Eq, l, r) => ReadyCheck::EitherGround(
                Box::new(self.lower_expr(l, st)),
                Box::new(self.lower_expr(r, st)),
            ),
            Formula::Cmp(_, l, r) => ReadyCheck::BothGround(
                Box::new(self.lower_expr(l, st)),
                Box::new(self.lower_expr(r, st)),
            ),
            Formula::Atom(Expr::Call { receiver, .. }) => match receiver {
                Some(r) => ReadyCheck::Ground(self.lower_expr(r, st)),
                None => ReadyCheck::Always,
            },
            Formula::Atom(Expr::Decl(..)) | Formula::Atom(Expr::Wildcard) => ReadyCheck::Never,
            Formula::Atom(e) => ReadyCheck::Ground(self.lower_expr(e, st)),
            Formula::Not(inner) => self.lower_ready(inner, st),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                ReadyCheck::All(vec![self.lower_ready(a, st), self.lower_ready(b, st)])
            }
        }
    }

    /// Static readiness of a conjunct under an approximation.
    fn ready(&mut self, f: &Formula, st: &SlotState, approx: Approx) -> bool {
        match f {
            Formula::Bool(_) => true,
            Formula::Cmp(CmpOp::Eq, l, r) => {
                self.ground(l, st, approx) || self.ground(r, st, approx)
            }
            Formula::Cmp(_, l, r) => self.ground(l, st, approx) && self.ground(r, st, approx),
            Formula::Atom(Expr::Call { receiver, .. }) => match receiver {
                Some(r) => self.ground(r, st, approx),
                None => true,
            },
            Formula::Atom(e) => self.ground(e, st, approx),
            Formula::Not(inner) => self.ready(inner, st, approx),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                self.ready(a, st, approx) && self.ready(b, st, approx)
            }
        }
    }

    // -- formula lowering ----------------------------------------------------

    /// Lowers a formula under the current binding state, updating the state
    /// with the formula's binds.
    fn lower_formula(&mut self, f: &Formula, st: &mut SlotState) -> Goal {
        let goal = match f {
            Formula::Bool(true) => Goal::True,
            Formula::Bool(false) => Goal::Fail,
            Formula::And(..) => {
                let mut conjuncts = Vec::new();
                flatten_and(f, &mut conjuncts);
                return self.lower_conjunction(&conjuncts, st);
            }
            Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                let mut branches = Vec::new();
                let mut sa = st.clone();
                branches.push(self.lower_formula(a, &mut sa));
                let mut sb = st.clone();
                branches.push(self.lower_formula(b, &mut sb));
                Goal::Any(branches)
            }
            Formula::Not(inner) => {
                let mut si = st.clone();
                Goal::Not(Box::new(self.lower_formula(inner, &mut si)))
            }
            Formula::Cmp(CmpOp::Eq, lhs, rhs) => return self.lower_equation(lhs, rhs, st),
            Formula::Cmp(op, lhs, rhs) => {
                Goal::Compare(*op, self.lower_expr(lhs, st), self.lower_expr(rhs, st))
            }
            Formula::Atom(e) => match e {
                Expr::Call {
                    receiver,
                    name,
                    args,
                } => {
                    let recv = receiver.as_deref().map(|r| self.lower_expr(r, st));
                    let dispatch = self.res.dispatch_id(name);
                    let mut inner = st.clone();
                    let mut lowered_args = Vec::with_capacity(args.len());
                    for a in args {
                        lowered_args.push(self.lower_expr(a, &inner));
                        let b = self.pat_binds(a);
                        inner.apply(&b);
                    }
                    Goal::Invoke {
                        receiver: recv,
                        name: name.clone(),
                        args: lowered_args,
                        dispatch,
                    }
                }
                Expr::Decl(..) => Goal::Trivial,
                other => Goal::Test(self.lower_expr(other, st)),
            },
        };
        let binds = self.formula_binds(f);
        st.apply(&binds);
        goal
    }

    /// Lowers an equation, mirroring the interpreter's `solve_cmp`
    /// preprocessing: pattern disjunction distributes over the equation and
    /// tuple equations decompose componentwise.
    fn lower_equation(&mut self, lhs: &Expr, rhs: &Expr, st: &mut SlotState) -> Goal {
        if let Expr::OrPat(a, b) | Expr::DisjointOr(a, b) = rhs {
            let mut sa = st.clone();
            let ga = self.lower_equation(lhs, a, &mut sa);
            let mut sb = st.clone();
            let gb = self.lower_equation(lhs, b, &mut sb);
            sa.join(&sb);
            *st = sa;
            return Goal::Any(vec![ga, gb]);
        }
        if let Expr::OrPat(a, b) | Expr::DisjointOr(a, b) = lhs {
            let mut sa = st.clone();
            let ga = self.lower_equation(a, rhs, &mut sa);
            let mut sb = st.clone();
            let gb = self.lower_equation(b, rhs, &mut sb);
            sa.join(&sb);
            *st = sa;
            return Goal::Any(vec![ga, gb]);
        }
        if let (Expr::Tuple(ls), Expr::Tuple(rs)) = (lhs, rhs) {
            if ls.len() == rs.len() {
                let conjuncts: Vec<Formula> = ls
                    .iter()
                    .zip(rs.iter())
                    .map(|(l, r)| Formula::Cmp(CmpOp::Eq, l.clone(), r.clone()))
                    .collect();
                if conjuncts.is_empty() {
                    return Goal::True;
                }
                return self.lower_conjunction(&conjuncts, st);
            }
        }
        let goal = Goal::Unify(self.lower_expr(lhs, st), self.lower_expr(rhs, st));
        let f = Formula::Cmp(CmpOp::Eq, lhs.clone(), rhs.clone());
        let binds = self.formula_binds(&f);
        st.apply(&binds);
        goal
    }

    /// Schedules and lowers a conjunction: the static solved form when the
    /// must/may analysis agrees on the order, the dynamic fallback
    /// otherwise.
    fn lower_conjunction(&mut self, conjuncts: &[Formula], st: &mut SlotState) -> Goal {
        // Simulate the interpreter's dynamic scheduling under both
        // approximations.
        let mut sim = st.clone();
        let mut remaining: Vec<usize> = (0..conjuncts.len()).collect();
        let mut order = Vec::with_capacity(conjuncts.len());
        let mut exact = true;
        while !remaining.is_empty() {
            let i_must = remaining
                .iter()
                .position(|&i| self.ready(&conjuncts[i], &sim, Approx::Must));
            let i_may = remaining
                .iter()
                .position(|&i| self.ready(&conjuncts[i], &sim, Approx::May));
            match (i_must, i_may) {
                (Some(a), Some(b)) if a == b => {
                    let chosen = remaining.remove(a);
                    order.push(chosen);
                    let binds = self.formula_binds(&conjuncts[chosen]);
                    sim.apply(&binds);
                }
                _ => {
                    exact = false;
                    break;
                }
            }
        }
        if exact {
            // Lower each conjunct in its scheduled position.
            let mut goals = Vec::with_capacity(order.len());
            for &i in &order {
                goals.push(self.lower_formula(&conjuncts[i], st));
            }
            return Goal::Seq(goals);
        }
        // Dynamic fallback: the run-time scheduler may run the conjuncts in
        // any order, so each is lowered with every other conjunct's possible
        // binds in the may-set.
        let mut widened = st.clone();
        for c in conjuncts {
            let b = self.formula_binds(c);
            for &s in &b.may {
                widened.bind_may(s);
            }
        }
        let mut lowered = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            let check = self.lower_ready(c, &widened);
            let mut sc = widened.clone();
            let goal = self.lower_formula(c, &mut sc);
            lowered.push((check, goal));
        }
        // After the whole conjunction, every conjunct has run.
        for c in conjuncts {
            let b = self.formula_binds(c);
            st.apply(&b);
        }
        Goal::DynSeq(lowered)
    }

    // -- statement lowering --------------------------------------------------

    fn lower_block(&mut self, stmts: &[Stmt], st: &mut SlotState) -> Vec<StmtPlan> {
        stmts.iter().map(|s| self.lower_stmt(s, st)).collect()
    }

    fn lower_stmt(&mut self, stmt: &Stmt, st: &mut SlotState) -> StmtPlan {
        match stmt {
            Stmt::Let(f) => StmtPlan::Let(GoalPlan::new(self.lower_formula(f, st))),
            Stmt::Switch {
                scrutinees,
                cases,
                default,
            } => {
                let lowered_scrutinees: Vec<PExpr> =
                    scrutinees.iter().map(|s| self.lower_expr(s, st)).collect();
                // Resolve fall-through targets once.
                let mut case_plans = Vec::with_capacity(cases.len());
                let mut bodies = Vec::with_capacity(cases.len());
                for (idx, case) in cases.iter().enumerate() {
                    let mut inner = st.clone();
                    let mut pats = Vec::with_capacity(case.patterns.len());
                    for p in &case.patterns {
                        pats.push(self.lower_expr(p, &inner));
                        let b = self.pat_binds(p);
                        inner.apply(&b);
                    }
                    let target = match (idx..cases.len()).find(|&j| !cases[j].body.is_empty()) {
                        Some(j) => CaseTarget::Body(j),
                        None if default.is_some() => CaseTarget::Default,
                        None => CaseTarget::FellOff,
                    };
                    let guards = pats.iter().map(|p| self.case_guard(p)).collect();
                    case_plans.push(CasePlan {
                        patterns: pats,
                        guards,
                        target,
                    });
                    bodies.push(self.lower_block(&case.body, &mut inner));
                }
                let default_plan = default.as_ref().map(|d| {
                    let mut inner = st.clone();
                    self.lower_block(d, &mut inner)
                });
                StmtPlan::Switch {
                    scrutinees: lowered_scrutinees,
                    cases: case_plans,
                    bodies,
                    default: default_plan,
                }
            }
            Stmt::Cond { arms, else_arm } => {
                let lowered_arms = arms
                    .iter()
                    .map(|(f, body)| {
                        let mut inner = st.clone();
                        let goal = GoalPlan::new(self.lower_formula(f, &mut inner));
                        (goal, self.lower_block(body, &mut inner))
                    })
                    .collect();
                let lowered_else = else_arm.as_ref().map(|b| {
                    let mut inner = st.clone();
                    self.lower_block(b, &mut inner)
                });
                StmtPlan::Cond {
                    arms: lowered_arms,
                    else_arm: lowered_else,
                }
            }
            Stmt::If { cond, then, els } => {
                let mut then_state = st.clone();
                let goal = self.lower_formula(cond, &mut then_state);
                let lowered_then = self.lower_block(then, &mut then_state);
                // The else branch executes on the unmodified environment and
                // its mutations persist; approximate its binds as may-only.
                let lowered_else = els.as_ref().map(|b| {
                    let mut inner = st.clone();
                    let plan = self.lower_block(b, &mut inner);
                    for (i, bound) in inner.slots.iter().enumerate() {
                        if bound.may {
                            st.bind_may(i as SlotId);
                        }
                    }
                    plan
                });
                StmtPlan::If {
                    cond: GoalPlan::new(goal),
                    then: lowered_then,
                    els: lowered_else,
                }
            }
            Stmt::Foreach { formula, body } => {
                let mut inner = st.clone();
                let goal = self.lower_formula(formula, &mut inner);
                let declared = formula
                    .declared_vars()
                    .into_iter()
                    .map(|(_, n)| self.slot(&n))
                    .collect();
                let lowered_body = self.lower_block(body, &mut inner);
                StmtPlan::Foreach {
                    goal: GoalPlan::new(goal),
                    declared,
                    body: lowered_body,
                }
            }
            Stmt::While { cond, body } => {
                let mut inner = st.clone();
                let goal = self.lower_formula(cond, &mut inner);
                let lowered_body = self.lower_block(body, &mut inner);
                // Bindings persist across iterations only as possibilities.
                for (i, bound) in inner.slots.iter().enumerate() {
                    if bound.may {
                        st.bind_may(i as SlotId);
                    }
                }
                StmtPlan::While {
                    cond: GoalPlan::new(goal),
                    body: lowered_body,
                }
            }
            Stmt::Return(e) => StmtPlan::Return(e.as_ref().map(|e| self.lower_expr(e, st))),
            Stmt::Assign(lhs, rhs) => {
                let value = self.lower_expr(rhs, st);
                match lhs {
                    Expr::Var(name) => {
                        let s = self.slot(name);
                        st.bind_must(s);
                        StmtPlan::Assign(s, value)
                    }
                    _ => StmtPlan::AssignUnsupported(value),
                }
            }
            Stmt::ExprStmt(e) => StmtPlan::Expr(self.lower_expr(e, st)),
            Stmt::Block(stmts) => {
                let mut inner = st.clone();
                StmtPlan::Block(self.lower_block(stmts, &mut inner))
            }
        }
    }
}

/// Flattens nested conjunctions into a conjunct list (the interpreter's
/// `flatten_and`).
fn flatten_and(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

// ---------------------------------------------------------------------------
// Method lowering
// ---------------------------------------------------------------------------

/// The binding assumptions of one lowered mode.
struct ModeCtx {
    /// Whether `this` is in scope (and its static class).
    this_owner: Option<String>,
    /// Whether the declared parameters start out bound.
    params_bound: bool,
}

fn lower_method(
    table: &ClassTable,
    maps: &PlanMaps,
    registry: &mut DispatchRegistry,
    m: &MethodInfo,
) -> MethodPlan {
    let body = match &m.decl.body {
        MethodBody::Absent => BodyPlan::Absent,
        MethodBody::Formula(f) => {
            let has_receiver = m.owner != "<toplevel>";
            // Forward mode: constructors run without `this` (the object is
            // being built); ordinary instance methods run with it.
            let forward_ctx = ModeCtx {
                this_owner: (has_receiver && m.decl.kind == MethodKind::Method)
                    .then(|| m.owner.clone()),
                params_bound: true,
            };
            let matching_ctx = ModeCtx {
                this_owner: has_receiver.then(|| m.owner.clone()),
                params_bound: false,
            };
            let forward = lower_solved_form(table, maps, registry, m, f, &forward_ctx);
            let matching = lower_solved_form(table, maps, registry, m, f, &matching_ctx);
            let equals_bound = (m.decl.name == "equals").then(|| {
                lower_solved_form(
                    table,
                    maps,
                    registry,
                    m,
                    f,
                    &ModeCtx {
                        this_owner: Some(m.owner.clone()),
                        params_bound: true,
                    },
                )
            });
            BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            }
        }
        MethodBody::Block(stmts) => {
            let has_receiver = m.owner != "<toplevel>";
            let mut lo = Lowerer::new(
                table,
                has_receiver.then(|| m.owner.clone()),
                Res::Building { maps, registry },
            );
            let mut st = SlotState::default();
            let param_slots: Vec<SlotId> = m
                .decl
                .params
                .iter()
                .map(|p| {
                    let s = lo.slot(&p.name);
                    st.bind_must(s);
                    s
                })
                .collect();
            let stmts = lo.lower_block(stmts, &mut st);
            BodyPlan::Block(BlockPlan {
                stmts,
                frame: lo.frame,
                param_slots,
                bc: None,
            })
        }
    };
    MethodPlan {
        info: m.clone(),
        body,
        owner_layout: table.layout(&m.owner).cloned(),
        fast_ctor: None,
        bc_deps: Vec::new(),
    }
}

fn lower_solved_form(
    table: &ClassTable,
    maps: &PlanMaps,
    registry: &mut DispatchRegistry,
    m: &MethodInfo,
    f: &Formula,
    ctx: &ModeCtx,
) -> SolvedForm {
    let mut lo = Lowerer::new(
        table,
        ctx.this_owner.clone(),
        Res::Building { maps, registry },
    );
    let mut st = SlotState::default();
    // Parameters, `result` and the owner's fields always get slots so the
    // evaluator can seed and read them by index.
    let param_slots: Vec<SlotId> = m
        .decl
        .params
        .iter()
        .map(|p| {
            let s = lo.slot(&p.name);
            if ctx.params_bound {
                st.bind_must(s);
            }
            s
        })
        .collect();
    let result_slot = lo.slot("result");
    let field_slots: Vec<(String, SlotId)> = table
        .type_info(&m.owner)
        .map(|info| {
            info.fields
                .iter()
                .map(|fd| (fd.name.clone(), lo.slot(&fd.name)))
                .collect()
        })
        .unwrap_or_default();
    let goal = lo.lower_formula(f, &mut st);
    SolvedForm {
        goal,
        frame: lo.frame,
        param_slots,
        result_slot,
        field_slots,
        this_present: ctx.this_owner.is_some(),
        det: false,
        bc: None,
    }
}

/// Lowers a standalone formula (the ad-hoc `solve` entry point of the
/// runtime) against a finished plan: `bound` names the variables known at
/// entry, `this_class` the runtime class of `this` if it is in scope. Call
/// sites resolve through the plan's dispatch tables where the names are
/// registered.
pub fn lower_standalone(
    plan: &ProgramPlan,
    f: &Formula,
    bound: &[&str],
    this_class: Option<&str>,
) -> SolvedForm {
    let table = plan.table();
    let mut lo = Lowerer::new(table, this_class.map(str::to_owned), Res::Frozen(plan));
    let mut st = SlotState::default();
    for name in bound {
        let s = lo.slot(name);
        st.bind_must(s);
    }
    let result_slot = lo.slot("result");
    let bound_slots: Vec<SlotId> = bound
        .iter()
        .map(|name| lo.frame.slot_of(name).unwrap())
        .collect();
    let goal = lo.lower_formula(f, &mut st);
    let mut form = SolvedForm {
        goal,
        frame: lo.frame,
        param_slots: Vec::new(),
        result_slot,
        field_slots: Vec::new(),
        this_present: this_class.is_some(),
        det: false,
        bc: None,
    };
    // Standalone forms are analyzed against the program's frozen facts
    // (one monotone evaluation — the program fixpoint already converged).
    if plan.analysis().is_some() {
        form.det = crate::analysis::standalone_facts(plan, &form, &bound_slots, this_class).det();
    }
    if plan.bytecode_enabled() {
        crate::bytecode::compile_form_goals(&mut form);
        form.bc = Some(crate::bytecode::compile_body(&form, &bound_slots));
    }
    form
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use jmatch_syntax::parse_program;

    fn plan_for(src: &str) -> Arc<ProgramPlan> {
        let program = parse_program(src).unwrap();
        let mut diags = Diagnostics::new();
        let table = ClassTable::build(&program, &mut diags);
        assert!(diags.errors.is_empty(), "{:?}", diags.errors);
        ProgramPlan::compile(table)
    }

    const ZNAT: &str = r#"
        interface Nat {
            constructor zero() returns();
            constructor succ(Nat n) returns(n);
        }
        class ZNat implements Nat {
            int val;
            private ZNat(int n) returns(n) ( val = n && n >= 0 )
            constructor zero() returns() ( val = 0 )
            constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
        }
    "#;

    #[test]
    fn succ_solved_forms_differ_by_mode() {
        let plan = plan_for(ZNAT);
        let succ = plan.method(plan.lookup_impl("ZNat", "succ").unwrap());
        let (forward, matching) = succ.body.solved_forms().unwrap();
        // Forward (construction): the equation binds `val` before the guard.
        let Goal::Seq(fwd) = &forward.goal else {
            panic!("forward not statically scheduled: {:?}", forward.goal)
        };
        assert!(matches!(fwd[0], Goal::Unify(..)));
        assert!(matches!(fwd[1], Goal::Compare(..)));
        // Backward (matching): `val` is a field of the known `this`, so the
        // source order is already solved.
        let Goal::Seq(bwd) = &matching.goal else {
            panic!("matching not statically scheduled: {:?}", matching.goal)
        };
        assert!(matches!(bwd[0], Goal::Compare(..)));
        assert!(matches!(bwd[1], Goal::Unify(..)));
    }

    #[test]
    fn class_ctor_schedules_statically_in_both_modes() {
        let plan = plan_for(ZNAT);
        let ctor = plan.method(plan.class_ctor("ZNat").unwrap());
        let (forward, matching) = ctor.body.solved_forms().unwrap();
        assert!(matches!(forward.goal, Goal::Seq(_)));
        assert!(matches!(matching.goal, Goal::Seq(_)));
        // The constructor frame exposes slots for params, result and fields.
        assert_eq!(forward.param_slots.len(), 1);
        assert_eq!(forward.field_slots.len(), 1);
        assert_eq!(forward.field_slots[0].0, "val");
    }

    #[test]
    fn unresolvable_order_falls_back_to_dynamic() {
        // `int x = int y && int y = 3` — under the entry bindings neither
        // side of the first equation is ever ground, and readiness depends
        // on the solving order, which the analysis cannot pin down: the
        // second conjunct must run first at run time.
        let plan = plan_for(
            "static int weird() {
                 let (int x = int y && int y = 3);
                 return x;
             }",
        );
        let m = plan.method(plan.lookup_free("weird").unwrap());
        let BodyPlan::Block(block) = &m.body else {
            panic!()
        };
        let StmtPlan::Let(GoalPlan { goal, .. }) = &block.stmts[0] else {
            panic!()
        };
        // Conjunct 0 (`int x = int y`) is never must-ready, so scheduling
        // cannot be exact.
        assert!(
            matches!(goal, Goal::DynSeq(_)),
            "expected dynamic fallback, got {goal:?}"
        );
    }

    #[test]
    fn switch_fall_through_targets_are_resolved() {
        let plan = plan_for(
            "static int pick(int n) {
                 switch (n) {
                     case 0:
                     case 1: return 10;
                     case 2: return 20;
                     default: return 30;
                 }
             }",
        );
        let m = plan.method(plan.lookup_free("pick").unwrap());
        let BodyPlan::Block(block) = &m.body else {
            panic!()
        };
        let StmtPlan::Switch { cases, .. } = &block.stmts[0] else {
            panic!()
        };
        assert_eq!(cases[0].target, CaseTarget::Body(1));
        assert_eq!(cases[1].target, CaseTarget::Body(1));
        assert_eq!(cases[2].target, CaseTarget::Body(2));
    }

    #[test]
    fn dispatch_indices_mirror_table_lookup() {
        let plan = plan_for(ZNAT);
        // The interface declares `succ` without a body; the class implements
        // it.
        let declared = plan.lookup_declared("Nat", "succ").unwrap();
        assert_eq!(plan.method(declared).info.owner, "Nat");
        let implemented = plan.lookup_impl("ZNat", "succ").unwrap();
        assert_eq!(plan.method(implemented).info.owner, "ZNat");
        assert!(plan.lookup_impl("Nat", "succ").is_none());
        assert!(plan.class_ctor("ZNat").is_some());
        assert!(plan.class_ctor("Nat").is_none());
    }

    #[test]
    fn recompile_shares_clean_plans_and_relowers_dirty_ones() {
        const EXTRA: &str = "
            static int twice(int n) { return n + n; }
            static int quad(int n) { return twice(twice(n)); }
        ";
        let src = format!("{ZNAT}{EXTRA}");
        let prev = plan_for(&src);
        let edited = src.replace("return n + n;", "return 2 * n;");
        let program = parse_program(&edited).unwrap();
        let mut diags = Diagnostics::new();
        let table = ClassTable::build_reusing(&program, &mut diags, prev.table());
        assert!(diags.errors.is_empty());
        let fp_prev = crate::incremental::Fingerprints::of(prev.table());
        let fp_next = crate::incremental::Fingerprints::of(&table);
        assert_eq!(fp_prev.structure, fp_next.structure);
        let dirty: Vec<bool> = fp_prev
            .units
            .iter()
            .zip(&fp_next.units)
            .map(|(a, b)| a.body != b.body)
            .collect();
        assert_eq!(dirty.iter().filter(|&&d| d).count(), 1);
        let next = ProgramPlan::recompile(&prev, table, &dirty, PlanOptions::default());

        // Every untouched plan is the same allocation; the edited method and
        // its bytecode dependents (`quad` inlines `twice`) are fresh.
        let twice = next.lookup_free("twice").unwrap();
        let quad = next.lookup_free("quad").unwrap();
        for (pid, (a, b)) in prev.methods().iter().zip(next.methods()).enumerate() {
            if pid == twice || pid == quad {
                assert!(!Arc::ptr_eq(a, b), "pid {pid} must be recompiled");
            } else {
                assert!(Arc::ptr_eq(a, b), "pid {pid} must be shared");
            }
        }
        assert!(next.method(quad).bc_deps.contains(&twice));
        // The recompile agrees with a from-scratch compile on dispatch
        // layout and bytecode presence.
        let scratch = ProgramPlan::compile(ClassTable::build(&program, &mut Diagnostics::new()));
        assert_eq!(
            next.dispatch_tables().len(),
            scratch.dispatch_tables().len()
        );
        for (a, b) in next.dispatch_tables().iter().zip(scratch.dispatch_tables()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.by_type, b.by_type);
        }
        let a = format!("{:?}", next.method(quad).body);
        let b = format!("{:?}", scratch.method(quad).body);
        assert_eq!(a, b, "recompiled bytecode must match a fresh compile");
    }

    #[test]
    fn standalone_lowering_respects_entry_bindings() {
        let program =
            parse_program("class R { boolean below(int n, int x) iterates(x) ( x = 0 || x = 1 ) }")
                .unwrap();
        let mut diags = Diagnostics::new();
        let table = ClassTable::build(&program, &mut diags);
        let body = match &table.lookup_method("R", "below").unwrap().decl.body {
            MethodBody::Formula(f) => f.clone(),
            _ => panic!(),
        };
        let plan = ProgramPlan::compile(table);
        let form = lower_standalone(&plan, &body, &["n"], Some("R"));
        assert!(form.frame.slot_of("x").is_some());
        assert!(matches!(form.goal, Goal::Any(_)));
    }
}
