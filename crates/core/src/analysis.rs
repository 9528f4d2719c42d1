//! Post-lowering static analysis over query plans: determinism inference,
//! dead-alternative pruning, and IR-level lints.
//!
//! This module is pass 3.5 of the plan builder ([`ProgramPlan::compile`],
//! or [`ProgramPlan::recompile`], which re-prunes only the edited plans):
//! it runs after the dispatch tables are materialized (so inter-procedural
//! facts can flow through them) and before bytecode emission (so the
//! bytecode of pass 4 is compiled from the *pruned* plans and stays a
//! mirror image of the goal trees). It produces two kinds of output:
//!
//! * **Facts** consumed by the runtimes — today a single bit per
//!   mode-specialized solved form, [`SolvedForm::det`], meaning *this form
//!   emits at most one solution and its search cannot raise a runtime
//!   error*. The plan evaluator commits to the first solution of a `Det`
//!   form instead of re-entering its disjunctions, and the stack machine
//!   pops every choice point a `Det` constructor match created as soon as
//!   its solution row is collected — shrinking trails and live choice
//!   stacks (`tests/laziness.rs` pins 0 live choice points against 199
//!   without the commit).
//! * **Lints** surfaced as structured [`Warning`]s (see
//!   [`AnalysisReport::lints`]): unused bindings, always-failing invokes,
//!   dead (unreachable) private methods, and unbounded left recursion.
//!
//! # The fact lattice
//!
//! Determinism is inferred as a joint fixpoint of two facts per solved
//! form, linked inter-procedurally through the dispatch tables:
//!
//! * [`Cardinality`] — an upper bound on the number of solutions a form
//!   emits, ordered `Zero < AtMostOne < Unbounded`. The fixpoint is a
//!   *least* fixpoint: every form starts at `Zero` and ascends as the
//!   transfer rules observe emissions. Conjunction multiplies bounds
//!   (`Zero` annihilates), disjunction adds them — except when every pair
//!   of branches is *discriminated* by mutually exclusive first conjuncts
//!   (distinct literals on the same primitive subject, incompatible
//!   orderings on the same operands, or constructor-set masks with no
//!   common class), in which case at most one branch can emit and the
//!   bound is the maximum instead of the sum. An `Invoke` joins over every
//!   implementation its dispatch table can select: the receiver has one
//!   runtime class, so the bound is the maximum over candidates, and the
//!   caller's argument patterns only filter rows (the runtimes take the
//!   first solution of each argument pattern per row).
//! * `no_err` — whether the *entire* search of the form (including
//!   alternatives that are explored and abandoned) is free of runtime
//!   errors. This is a *greatest* fixpoint: every form starts error-free
//!   and descends when a transfer rule finds a possibly-erroring
//!   operation. Both directions are monotone, so the joint iteration
//!   terminates.
//!
//! A form is `Det` iff its cardinality is at most `AtMostOne` *and* it is
//! `no_err`. Both halves are required: a form with one solution but a
//! possibly-erroring abandoned alternative is not committable, because the
//! unanalyzed program would have surfaced the error.
//!
//! # The observation-equivalence argument
//!
//! Every transformation and fact in this module is justified against the
//! unanalyzed program; the tree-walking engine, which runs no plan, is the
//! differential oracle that checks it:
//!
//! * Pruned `Any` branches and `cond` arms are literal [`Goal::Fail`]s:
//!   they emit nothing and cannot error, so removing them changes neither
//!   the solution sequence nor the error behavior.
//! * A `switch` arm is pruned only when an earlier arm *dominates* it: an
//!   earlier irrefutable, unguarded arm (matching can neither fail nor
//!   error), or an earlier arm with identical all-literal patterns (if the
//!   earlier arm errors or fails on a value, the pruned arm would have
//!   erred or failed identically). Case bodies are never removed — only
//!   the dead *tests* — so fall-through targets are untouched.
//! * `Det` commits only skip work the cardinality analysis proved cannot
//!   emit and the `no_err` analysis proved cannot error.
//!
//! The `no_err` half trusts declared types the same way the §5 verifier
//! does: a slot declared `int` is assumed to hold an `int` at run time, and
//! `int` arithmetic is assumed to stay in range. For type-correct inputs —
//! which is what every differential suite runs — the analyzed and
//! unanalyzed programs are transcript-identical, including errors; a
//! program that lies about its types can observe the difference, which is
//! the same caveat the paper's verification story carries. When in doubt a
//! rule says "not deterministic" or "may error": the only cost of
//! imprecision is a missed commit, never a wrong answer.
//!
//! [`ProgramPlan::compile`]: crate::lower::ProgramPlan::compile
//! [`ProgramPlan::recompile`]: crate::lower::ProgramPlan::recompile
//! [`SolvedForm::det`]: crate::lower::SolvedForm

use crate::diag::{Diagnostics, Warning, WarningKind};
use crate::incremental::{Fingerprints, VerifyEngine};
use crate::lower::{
    BodyPlan, CallKind, CaseGuard, CasePlan, CaseTarget, ClassCheck, DispatchTable, Goal,
    MethodPlan, PExpr, PlanId, ProgramPlan, SlotId, SolvedForm, StmtPlan,
};
use crate::table::ClassTable;
use crate::verify::VerifyOptions;
use jmatch_syntax::ast::{BinOp, CmpOp, MethodKind, Type, Visibility};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

/// Options of the analysis pass (see [`crate::lower::PlanOptions`]).
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Cross-check every switch/cond-arm prune against the §5 verifier
    /// through the incremental SMT session: each prune's
    /// [`Prune::smt_confirmed`] records whether the verifier independently
    /// flagged the arm [`WarningKind::RedundantArm`]. Off by default — the
    /// prunes are sound by construction (see the module docs) and the
    /// verifier costs SMT time; the differential cross-check test turns it
    /// on.
    pub smt: bool,
}

/// Why a dead alternative was pruned (its guard-mask justification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Justification {
    /// The alternative is a literal `Fail`: it can neither emit nor error.
    StaticallyFalse,
    /// An earlier irrefutable, unguarded arm always matches first.
    CatchAllDominated,
    /// An earlier arm has identical all-literal patterns, so this arm can
    /// never be the first to match (and fails/errors exactly when the
    /// earlier one does).
    DuplicateArm,
}

impl std::fmt::Display for Justification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Justification::StaticallyFalse => "statically false",
            Justification::CatchAllDominated => "dominated by an earlier catch-all arm",
            Justification::DuplicateArm => "duplicate of an earlier arm",
        };
        write!(f, "{s}")
    }
}

/// One dead alternative removed by the reachability analysis.
#[derive(Debug, Clone)]
pub struct Prune {
    /// The method (qualified name) the alternative lived in.
    pub context: String,
    /// Which alternative was removed (human-readable site).
    pub site: String,
    /// Why removal is observation-equivalent.
    pub justification: Justification,
    /// When [`AnalysisOptions::smt`] is on and the prune removed a
    /// switch/cond arm: whether the §5 verifier independently reported the
    /// arm redundant. `None` when the cross-check did not run (option off,
    /// or the prune site has no source-level arm).
    pub smt_confirmed: Option<bool>,
}

/// Per-solved-form facts of the determinism analysis (see the module docs
/// for the lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormFacts {
    /// Upper bound on the number of solutions the form emits.
    pub card: Cardinality,
    /// Whether the form's entire search is free of runtime errors.
    pub no_err: bool,
}

impl FormFacts {
    const BOTTOM: FormFacts = FormFacts {
        card: Cardinality::Zero,
        no_err: true,
    };

    /// Whether the facts make the form committable.
    pub fn det(&self) -> bool {
        self.card <= Cardinality::AtMostOne && self.no_err
    }
}

/// The solution-count half of the fact lattice, ordered
/// `Zero < AtMostOne < Unbounded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cardinality {
    /// The form provably emits nothing.
    Zero,
    /// The form emits at most one solution.
    AtMostOne,
    /// No useful bound.
    Unbounded,
}

impl Cardinality {
    /// Sequential composition (conjunction): `Zero` annihilates, otherwise
    /// the bounds multiply — which on this three-point chain is the max.
    fn seq(self, other: Cardinality) -> Cardinality {
        if self == Cardinality::Zero || other == Cardinality::Zero {
            Cardinality::Zero
        } else {
            self.max(other)
        }
    }

    /// Alternative composition (disjunction): the bounds add.
    fn alt(self, other: Cardinality) -> Cardinality {
        match (self, other) {
            (Cardinality::Zero, c) | (c, Cardinality::Zero) => c,
            _ => Cardinality::Unbounded,
        }
    }
}

/// Everything the analysis pass produced, kept on the finished
/// [`ProgramPlan`] for the embedding API ([`Program::lints`]), the
/// `jmatch-lint` bin, and the serve protocol's `lint` request.
///
/// [`Program::lints`]: ../../jmatch_runtime/struct.Program.html#method.lints
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// IR-level lints, in method order.
    pub lints: Vec<Warning>,
    /// Dead alternatives removed from the plans.
    pub prunes: Vec<Prune>,
    /// Number of solved forms analyzed.
    pub forms: usize,
    /// Number of solved forms proved deterministic ([`SolvedForm::det`]).
    ///
    /// [`SolvedForm::det`]: crate::lower::SolvedForm
    pub det_forms: usize,
    /// Final facts per plan: `[forward, matching, equals_bound]`.
    pub(crate) facts: Vec<[FormFacts; 3]>,
    /// Range of [`AnalysisReport::prunes`] contributed by each plan
    /// (`start, len`), so incremental re-analysis can carry a clean plan's
    /// records forward exactly.
    pub(crate) prune_index: Vec<(u32, u32)>,
}

impl AnalysisReport {
    /// The facts inferred for a method's matching-mode solved form.
    pub fn matching_facts(&self, pid: PlanId) -> Option<FormFacts> {
        self.facts.get(pid).map(|f| f[1])
    }
}

/// Runs the full pass pipeline over a lowered program: prune, determinism
/// fixpoint, lints. Mutates the plans in place (pruned goals, `det` flags)
/// and returns the report.
///
/// `prev` carries a rebuild's previous report forward: when it is
/// `Some((report, dirty))`, pass A (pruning, the potentially solver-backed
/// rewrite) runs only on plans with `dirty[pid]`, copying the previous
/// report's prune records for clean plans — whose goals are already the
/// pruned ones, shared by `Arc` from the previous generation. The
/// determinism fixpoint (pass B) and the lints (pass C) are cheap and
/// inter-procedural, so they re-run globally; a clean plan's `det` bits
/// are rewritten (via [`Arc::make_mut`]) only when they actually changed,
/// preserving pointer equality — and therefore bytecode reuse — for plans
/// the edit did not affect.
pub fn analyze(
    table: &Arc<ClassTable>,
    methods: &mut [Arc<MethodPlan>],
    dispatch: &[DispatchTable],
    opts: &AnalysisOptions,
    prev: Option<(&AnalysisReport, &[bool])>,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    // The §5 verifier's verdicts on the whole program, computed on the first
    // prune that needs cross-checking.
    let mut verdicts: Option<Diagnostics> = None;

    // Pass A: dead-alternative pruning (rewrites the plans).
    for pid in 0..methods.len() {
        if let Some((prev_report, dirty)) = prev {
            if !dirty[pid] {
                // Clean plan: the shared goals are already pruned; carry
                // the previous records forward verbatim.
                let start = report.prunes.len() as u32;
                if let Some(&(s, l)) = prev_report.prune_index.get(pid) {
                    report
                        .prunes
                        .extend_from_slice(&prev_report.prunes[s as usize..(s + l) as usize]);
                }
                report
                    .prune_index
                    .push((start, report.prunes.len() as u32 - start));
                continue;
            }
        }
        let method = Arc::make_mut(&mut methods[pid]);
        let ctx = method.info.qualified_name();
        let mut prunes = Vec::new();
        match &mut method.body {
            BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } => {
                simplify_goal(&mut forward.goal, &mut prunes);
                simplify_goal(&mut matching.goal, &mut prunes);
                if let Some(eb) = equals_bound {
                    simplify_goal(&mut eb.goal, &mut prunes);
                }
            }
            BodyPlan::Block(bp) => prune_stmts(&mut bp.stmts, &mut prunes),
            BodyPlan::Absent => {}
        }
        if !prunes.is_empty() && opts.smt {
            let verdicts = verdicts.get_or_insert_with(|| {
                VerifyEngine::new(VerifyOptions::default())
                    .verify(table, &Fingerprints::of(table), 1)
                    .0
            });
            let confirmed = verdicts
                .warnings_of(WarningKind::RedundantArm)
                .iter()
                .any(|w| w.context == ctx);
            for p in &mut prunes {
                if matches!(
                    p.justification,
                    Justification::CatchAllDominated | Justification::DuplicateArm
                ) {
                    p.smt_confirmed = Some(confirmed);
                }
            }
        }
        let start = report.prunes.len() as u32;
        for mut p in prunes {
            p.context = ctx.clone();
            report.prunes.push(p);
        }
        report
            .prune_index
            .push((start, report.prunes.len() as u32 - start));
    }

    // Pass B: determinism / cardinality fixpoint.
    let mut facts = vec![[FormFacts::BOTTOM; 3]; methods.len()];
    loop {
        let mut changed = false;
        for pid in 0..methods.len() {
            if let BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } = &methods[pid].body
            {
                let m = &methods[pid];
                let fwd = method_form_facts(
                    table,
                    methods,
                    dispatch,
                    &facts,
                    m,
                    forward,
                    FormIx::Forward,
                );
                let bwd = method_form_facts(
                    table,
                    methods,
                    dispatch,
                    &facts,
                    m,
                    matching,
                    FormIx::Matching,
                );
                let eq = equals_bound
                    .as_ref()
                    .map(|eb| {
                        method_form_facts(
                            table,
                            methods,
                            dispatch,
                            &facts,
                            m,
                            eb,
                            FormIx::EqualsBound,
                        )
                    })
                    .unwrap_or(FormFacts::BOTTOM);
                let next = [fwd, bwd, eq];
                if facts[pid] != next {
                    facts[pid] = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for pid in 0..methods.len() {
        // Compare before writing: rewriting a shared plan's `det` bits
        // through `Arc::make_mut` would clone it and break the pointer
        // equality incremental recompilation keys bytecode reuse on, so
        // only plans whose bits actually changed are touched.
        let (want_f, want_m, want_e) = (
            facts[pid][0].det(),
            facts[pid][1].det(),
            facts[pid][2].det(),
        );
        let Some((cur_f, cur_m, cur_e)) = (match &methods[pid].body {
            BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } => Some((
                forward.det,
                matching.det,
                equals_bound.as_ref().map(|eb| eb.det),
            )),
            _ => None,
        }) else {
            continue;
        };
        report.forms += 2 + usize::from(cur_e.is_some());
        report.det_forms += usize::from(want_f) + usize::from(want_m);
        if cur_e.is_some() {
            report.det_forms += usize::from(want_e);
        }
        let dirty = cur_f != want_f || cur_m != want_m || cur_e.is_some_and(|e| e != want_e);
        if dirty {
            if let BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } = &mut Arc::make_mut(&mut methods[pid]).body
            {
                forward.det = want_f;
                matching.det = want_m;
                if let Some(eb) = equals_bound {
                    eb.det = want_e;
                }
            }
        }
    }

    // Pass C: lints.
    lint_unused_bindings(methods, &mut report.lints);
    lint_always_failing_invokes(methods, dispatch, &mut report.lints);
    lint_dead_methods(methods, dispatch, &mut report.lints);
    lint_unbounded_recursion(methods, &mut report.lints);

    report.facts = facts;
    report
}

/// Facts for a standalone-lowered form (the ad-hoc `solve` entry point),
/// computed against the frozen facts of a finished plan. Standalone forms
/// are analyzed once, after the program fixpoint, so a single monotone
/// evaluation suffices.
pub(crate) fn standalone_facts(
    plan: &ProgramPlan,
    form: &SolvedForm,
    bound_slots: &[SlotId],
    this_class: Option<&str>,
) -> FormFacts {
    let Some(report) = plan.analysis() else {
        return FormFacts {
            card: Cardinality::Unbounded,
            no_err: false,
        };
    };
    let cx = FormCx {
        table: plan.table(),
        methods: plan.methods(),
        dispatch: plan.dispatch_tables(),
        facts: &report.facts,
        owner: this_class.map(str::to_owned),
        this_present: form.this_present,
        slot_ty: collect_slot_types(form, None),
    };
    let mut env = Env::new(form.frame.len());
    for &s in bound_slots {
        env.bind_must(s);
    }
    cx.goal_facts(&form.goal, &mut env)
}

// ---------------------------------------------------------------------------
// Pass A: pruning
// ---------------------------------------------------------------------------

fn prune(site: String, justification: Justification) -> Prune {
    Prune {
        context: String::new(),
        site,
        justification,
        smt_confirmed: None,
    }
}

/// Whether a goal provably cannot raise a runtime error, by a cheap
/// syntactic check (used to justify collapsing a conjunction around an
/// embedded `Fail` — the conjuncts *before* the `Fail` must not error).
fn cheaply_no_err(g: &Goal) -> bool {
    match g {
        Goal::True | Goal::Fail | Goal::Trivial => true,
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().all(cheaply_no_err),
        _ => false,
    }
}

/// Recursively simplifies a goal, removing provably-dead alternatives.
fn simplify_goal(g: &mut Goal, out: &mut Vec<Prune>) {
    match g {
        Goal::Seq(gs) => {
            for sub in gs.iter_mut() {
                simplify_goal(sub, out);
            }
            // A conjunction containing `Fail` emits nothing; it collapses
            // to `Fail` only when everything before the `Fail` is cheaply
            // error-free (otherwise the prefix's error is observable).
            if let Some(i) = gs.iter().position(|s| matches!(s, Goal::Fail)) {
                if gs[..i].iter().all(cheaply_no_err) {
                    if gs.len() > 1 {
                        out.push(prune(
                            "conjunction".to_owned(),
                            Justification::StaticallyFalse,
                        ));
                    }
                    *g = Goal::Fail;
                }
            }
        }
        Goal::DynSeq(items) => {
            for (_, sub) in items.iter_mut() {
                simplify_goal(sub, out);
            }
        }
        Goal::Any(branches) => {
            for sub in branches.iter_mut() {
                simplify_goal(sub, out);
            }
            if branches.iter().any(|b| matches!(b, Goal::Fail)) {
                let before = branches.len();
                branches.retain(|b| !matches!(b, Goal::Fail));
                for _ in branches.len()..before {
                    out.push(prune("disjunct".to_owned(), Justification::StaticallyFalse));
                }
            }
            match branches.len() {
                0 => *g = Goal::Fail,
                1 => *g = branches.pop().expect("len checked"),
                _ => {}
            }
        }
        Goal::Not(inner) => simplify_goal(inner, out),
        _ => {}
    }
}

/// Whether a case pattern matches every value without failing or erroring.
fn irrefutable_pattern(p: &PExpr) -> bool {
    matches!(p, PExpr::Wildcard | PExpr::Decl(_, _, ClassCheck::Any, _))
}

/// Whether a case pattern is a primitive literal (so matching it against a
/// given value always fails, succeeds, or errors the same way).
fn literal_pattern(p: &PExpr) -> bool {
    matches!(
        p,
        PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null
    )
}

fn prune_switch_cases(cases: &mut Vec<CasePlan>, out: &mut Vec<Prune>) {
    // (a) Arms after an earlier irrefutable, unguarded arm never run.
    let dominator = cases.iter().position(|c| {
        c.patterns.iter().all(irrefutable_pattern)
            && c.guards.iter().all(|gd| matches!(gd, CaseGuard::Any))
            && matches!(c.target, CaseTarget::Body(_))
    });
    if let Some(d) = dominator {
        for i in d + 1..cases.len() {
            out.push(prune(
                format!("switch arm {}", i + 1),
                Justification::CatchAllDominated,
            ));
        }
        cases.truncate(d + 1);
    }
    // (b) Arms whose all-literal patterns duplicate an earlier arm's.
    let mut i = 1;
    while i < cases.len() {
        let dup = cases[i].patterns.iter().all(literal_pattern)
            && cases[..i].iter().any(|c| c.patterns == cases[i].patterns);
        if dup {
            out.push(prune(
                format!("switch arm {}", i + 1),
                Justification::DuplicateArm,
            ));
            cases.remove(i);
        } else {
            i += 1;
        }
    }
}

fn prune_stmts(stmts: &mut [StmtPlan], out: &mut Vec<Prune>) {
    for s in stmts.iter_mut() {
        match s {
            StmtPlan::Let(g) => simplify_goal(g, out),
            StmtPlan::Switch {
                cases,
                bodies,
                default,
                ..
            } => {
                prune_switch_cases(cases, out);
                for b in bodies.iter_mut() {
                    prune_stmts(b, out);
                }
                if let Some(d) = default {
                    prune_stmts(d, out);
                }
            }
            StmtPlan::Cond { arms, else_arm } => {
                let before = arms.len();
                let mut removed = 0;
                arms.retain_mut(|(g, body)| {
                    simplify_goal(g, out);
                    prune_stmts(body, out);
                    let dead = matches!(g, Goal::Fail);
                    removed += usize::from(dead);
                    !dead
                });
                for i in 0..removed {
                    out.push(prune(
                        format!("cond arm (of {before}, #{})", i + 1),
                        Justification::StaticallyFalse,
                    ));
                }
                if let Some(e) = else_arm {
                    prune_stmts(e, out);
                }
            }
            StmtPlan::If { cond, then, els } => {
                simplify_goal(cond, out);
                std::iter::once(then)
                    .chain(els)
                    .for_each(|b| prune_stmts(b, out));
            }
            StmtPlan::Foreach { goal: g, body } | StmtPlan::While { cond: g, body } => {
                simplify_goal(g, out);
                prune_stmts(body, out);
            }
            StmtPlan::Block(b) => prune_stmts(b, out),
            StmtPlan::Return(_)
            | StmtPlan::Assign(_, _)
            | StmtPlan::AssignUnsupported(_)
            | StmtPlan::Expr(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Pass B: determinism / cardinality
// ---------------------------------------------------------------------------

/// Which mode-specialized form of a plan is being analyzed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FormIx {
    Forward,
    Matching,
    EqualsBound,
}

/// Binding state during the abstract walk: `must` ⊆ bound ⊆ `may`.
#[derive(Clone)]
struct Env {
    must: Vec<bool>,
    may: Vec<bool>,
}

impl Env {
    fn new(len: usize) -> Env {
        Env {
            must: vec![false; len],
            may: vec![false; len],
        }
    }

    fn bind_must(&mut self, s: SlotId) {
        if let Some(b) = self.must.get_mut(s as usize) {
            *b = true;
        }
        if let Some(b) = self.may.get_mut(s as usize) {
            *b = true;
        }
    }

    fn bind_may(&mut self, s: SlotId) {
        if let Some(b) = self.may.get_mut(s as usize) {
            *b = true;
        }
    }

    fn is_must(&self, s: SlotId) -> bool {
        self.must.get(s as usize).copied().unwrap_or(false)
    }

    fn is_may(&self, s: SlotId) -> bool {
        self.may.get(s as usize).copied().unwrap_or(false)
    }

    /// Join after a disjunction: the continuation sees *some* branch's
    /// bindings, so `must` intersects and `may` unions.
    fn join(&mut self, other: &Env) {
        for (a, b) in self.must.iter_mut().zip(&other.must) {
            *a = *a && *b;
        }
        for (a, b) in self.may.iter_mut().zip(&other.may) {
            *a = *a || *b;
        }
    }
}

/// The static type of a slot, when the declaration sites pin one down.
fn collect_slot_types(form: &SolvedForm, method: Option<&MethodPlan>) -> Vec<Option<Type>> {
    let mut tys: Vec<Option<Type>> = vec![None; form.frame.len()];
    let mut put = |slot: SlotId, ty: &Type| {
        let entry = &mut tys[slot as usize];
        match entry {
            None => *entry = Some(ty.clone()),
            // Conflicting declarations: trust nothing.
            Some(t) if t != ty => *entry = Some(Type::Object),
            _ => {}
        }
    };
    if let Some(m) = method {
        for (param, &slot) in m.info.decl.params.iter().zip(&form.param_slots) {
            put(slot, &param.ty);
        }
        put(form.result_slot, &m.info.result_type());
    }
    fn walk_expr(e: &PExpr, put: &mut dyn FnMut(SlotId, &Type)) {
        match e {
            PExpr::Decl(ty, Some(slot), _, _) => put(*slot, ty),
            PExpr::Decl(_, None, _, _) => {}
            PExpr::Field(inner, _, _) | PExpr::Neg(inner) => walk_expr(inner, put),
            PExpr::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    walk_expr(r, put);
                }
                for a in args {
                    walk_expr(a, put);
                }
            }
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::OrPat(a, b) | PExpr::As(a, b) => {
                walk_expr(a, put);
                walk_expr(b, put);
            }
            PExpr::NewArray(_, inner) => walk_expr(inner, put),
            PExpr::Tuple(es) => es.iter().for_each(|e| walk_expr(e, put)),
            PExpr::Where(p, g) => {
                walk_expr(p, put);
                walk_goal(&g.goal, put);
            }
            _ => {}
        }
    }
    fn walk_goal(g: &Goal, put: &mut dyn FnMut(SlotId, &Type)) {
        match g {
            Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| walk_goal(g, put)),
            Goal::DynSeq(items) => items.iter().for_each(|(_, g)| walk_goal(g, put)),
            Goal::Not(inner) => walk_goal(inner, put),
            Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
                walk_expr(a, put);
                walk_expr(b, put);
            }
            Goal::Invoke { receiver, args, .. } => {
                if let Some(r) = receiver {
                    walk_expr(r, put);
                }
                args.iter().for_each(|a| walk_expr(a, put));
            }
            Goal::Test(e) => walk_expr(e, put),
            Goal::True | Goal::Fail | Goal::Trivial => {}
        }
    }
    walk_goal(&form.goal, &mut put);
    tys
}

/// Context of one solved-form analysis.
struct FormCx<'a> {
    table: &'a ClassTable,
    methods: &'a [Arc<MethodPlan>],
    dispatch: &'a [DispatchTable],
    facts: &'a [[FormFacts; 3]],
    /// Owner class of the method (the static type of `this`).
    owner: Option<String>,
    this_present: bool,
    slot_ty: Vec<Option<Type>>,
}

/// One transfer-function evaluation for one mode-specialized form of one
/// method, against the current fixpoint facts.
fn method_form_facts(
    table: &ClassTable,
    methods: &[Arc<MethodPlan>],
    dispatch: &[DispatchTable],
    facts: &[[FormFacts; 3]],
    method: &MethodPlan,
    form: &SolvedForm,
    ix: FormIx,
) -> FormFacts {
    let cx = FormCx {
        table,
        methods,
        dispatch,
        facts,
        owner: table
            .type_info(&method.info.owner)
            .map(|info| info.name.clone()),
        this_present: form.this_present,
        slot_ty: collect_slot_types(form, Some(method)),
    };
    let mut env = Env::new(form.frame.len());
    match ix {
        // Forward: parameters known, result/fields unknown.
        FormIx::Forward => {
            for &s in &form.param_slots {
                env.bind_must(s);
            }
        }
        // Matching: `this` known, parameters unknown (field slots read
        // through the field-of-`this` fallback, not through bindings).
        FormIx::Matching => {}
        // Equals-bound: `this` and the first parameter known.
        FormIx::EqualsBound => {
            if let Some(&s) = form.param_slots.first() {
                env.bind_must(s);
            }
        }
    }
    cx.goal_facts(&form.goal, &mut env)
}

impl FormCx<'_> {
    // -- types ------------------------------------------------------------

    /// The static type of an expression, when the slots/fields pin it down.
    fn static_ty(&self, e: &PExpr) -> Option<Type> {
        match e {
            PExpr::Int(_) => Some(Type::Int),
            PExpr::Bool(_) => Some(Type::Boolean),
            PExpr::This => self.owner.clone().map(Type::Named),
            PExpr::Name {
                slot, field_sym, ..
            } => match &self.slot_ty[*slot as usize] {
                Some(t) => Some(t.clone()),
                None if field_sym.is_some() => self.field_ty_on_owner(e),
                None => None,
            },
            PExpr::Result(slot) | PExpr::Decl(_, Some(slot), _, _) => {
                self.slot_ty[*slot as usize].clone()
            }
            PExpr::Field(recv, fname, _) => {
                let Some(Type::Named(t)) = self.static_ty(recv) else {
                    return None;
                };
                self.table.field_type(&t, fname)
            }
            PExpr::Binary(_, _, _) | PExpr::Neg(_) => Some(Type::Int),
            _ => None,
        }
    }

    /// Type of a `Name`'s field-of-`this` fallback.
    fn field_ty_on_owner(&self, e: &PExpr) -> Option<Type> {
        let PExpr::Name { name, .. } = e else {
            return None;
        };
        let owner = self.owner.as_deref()?;
        self.table.field_type(owner, name)
    }

    fn is_int_ty(&self, e: &PExpr) -> bool {
        matches!(self.static_ty(e), Some(Type::Int))
    }

    fn is_prim_ty(&self, e: &PExpr) -> bool {
        matches!(
            e,
            PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null
        ) || matches!(self.static_ty(e), Some(Type::Int | Type::Boolean))
    }

    /// Whether reading field `name` off `this` is safe: `this` is in
    /// scope, its owner class is known, and *every* concrete class that
    /// can be `this` at run time declares the field in its layout.
    fn this_field_safe(&self, name: &str) -> bool {
        self.this_present
            && self
                .owner
                .as_deref()
                .is_some_and(|o| self.named_field_safe(o, name))
    }

    fn named_field_safe(&self, ty: &str, name: &str) -> bool {
        let subs = self.table.concrete_subtypes(ty);
        !subs.is_empty()
            && subs.iter().all(|info| {
                self.table
                    .layout(&info.name)
                    .is_some_and(|l| l.slot_of(name).is_some())
            })
    }

    // -- expression safety ------------------------------------------------

    /// Whether evaluating `e` in ground position cannot fail or error.
    fn eval_safe(&self, e: &PExpr, env: &Env) -> bool {
        match e {
            PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
            PExpr::This => self.this_present,
            PExpr::Name {
                slot,
                name,
                field_sym,
                ..
            } => {
                if env.is_must(*slot) {
                    return true;
                }
                // Unbound (or maybe-bound) occurrence: both runtime paths
                // must be safe, and the fallback only exists with a field
                // symbol and `this` in scope.
                field_sym.is_some() && self.this_field_safe(name)
            }
            PExpr::Result(slot) => env.is_must(*slot),
            PExpr::Field(recv, fname, sym) => {
                sym.is_some()
                    && self.eval_safe(recv, env)
                    && match self.static_ty(recv) {
                        Some(Type::Named(t)) => self.named_field_safe(&t, fname),
                        _ => false,
                    }
            }
            // `int` arithmetic on type-trusted operands; division can
            // error on zero.
            PExpr::Binary(op, a, b) => {
                matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                    && self.int_safe(a, env)
                    && self.int_safe(b, env)
            }
            PExpr::Neg(a) => self.int_safe(a, env),
            _ => false,
        }
    }

    fn int_safe(&self, e: &PExpr, env: &Env) -> bool {
        self.eval_safe(e, env) && self.is_int_ty(e)
    }

    // -- patterns ----------------------------------------------------------

    /// Facts of matching pattern `p` against an already-evaluated value of
    /// static type `val_ty` (when known). Binds the pattern's binders into
    /// `env` on the success path.
    fn pat_facts(&self, p: &PExpr, val_ty: Option<&Type>, env: &mut Env) -> FormFacts {
        match p {
            PExpr::Wildcard => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: true,
            },
            PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => FormFacts {
                card: Cardinality::AtMostOne,
                // Comparing a literal against an object can route through
                // user `equals` bridging; safe only when the value is
                // statically primitive.
                no_err: matches!(val_ty, Some(Type::Int | Type::Boolean)),
            },
            PExpr::Decl(_, slot, check, _) => {
                if let Some(s) = slot {
                    env.bind_must(*s);
                }
                FormFacts {
                    card: Cardinality::AtMostOne,
                    // The resolved checks are pure tag tests; the dynamic
                    // string-keyed fallback preserves erroneous behavior.
                    no_err: !matches!(check, ClassCheck::Dynamic),
                }
            }
            PExpr::Name { slot, .. } => {
                let no_err = if env.is_must(*slot) {
                    // Bound occurrence: equality against the value.
                    self.is_prim_ty(p) || matches!(val_ty, Some(Type::Int | Type::Boolean))
                } else if env.is_may(*slot) {
                    // Might compare, might bind: both paths must be safe.
                    self.is_prim_ty(p) || matches!(val_ty, Some(Type::Int | Type::Boolean))
                } else {
                    true // definitely binds
                };
                env.bind_must(*slot);
                FormFacts {
                    card: Cardinality::AtMostOne,
                    no_err,
                }
            }
            PExpr::Result(slot) => {
                let no_err = !env.is_may(*slot);
                env.bind_must(*slot);
                FormFacts {
                    card: Cardinality::AtMostOne,
                    no_err,
                }
            }
            PExpr::Call { args, .. } => {
                let (card, callee_no_err) = self.callee_facts(p, env);
                let mut no_err = callee_no_err;
                for a in args {
                    let f = self.pat_facts(a, None, env);
                    no_err &= f.no_err;
                }
                FormFacts { card, no_err }
            }
            PExpr::OrPat(a, b) => {
                let mut env_b = env.clone();
                let fa = self.pat_facts(a, val_ty, env);
                let fb = self.pat_facts(b, val_ty, &mut env_b);
                env.join(&env_b);
                FormFacts {
                    card: fa.card.alt(fb.card),
                    no_err: fa.no_err && fb.no_err,
                }
            }
            PExpr::As(a, b) => {
                let fa = self.pat_facts(a, val_ty, env);
                let fb = self.pat_facts(b, val_ty, env);
                FormFacts {
                    card: fa.card.seq(fb.card),
                    no_err: fa.no_err && fb.no_err,
                }
            }
            PExpr::Tuple(ps) => {
                let mut card = Cardinality::AtMostOne;
                let mut no_err = true;
                for sub in ps {
                    let f = self.pat_facts(sub, None, env);
                    card = card.seq(f.card);
                    no_err &= f.no_err;
                }
                FormFacts { card, no_err }
            }
            PExpr::Where(inner, g) => {
                let fi = self.pat_facts(inner, val_ty, env);
                let fg = self.goal_facts(&g.goal, env);
                FormFacts {
                    card: fi.card.seq(fg.card),
                    no_err: fi.no_err && fg.no_err,
                }
            }
            // Inverted arithmetic has one solution; only +/- invert
            // without a possible division error, and the ground operand
            // must be safe.
            PExpr::Binary(op, a, b) => {
                let (ground, pat) = if self.is_ground(a, env) {
                    (a, b)
                } else {
                    (b, a)
                };
                let fp = self.pat_facts(pat, Some(&Type::Int), env);
                FormFacts {
                    card: fp.card,
                    no_err: matches!(op, BinOp::Add | BinOp::Sub)
                        && self.int_safe(ground, env)
                        && fp.no_err,
                }
            }
            PExpr::Neg(a) => self.pat_facts(a, Some(&Type::Int), env),
            // Ground-evaluated in pattern position (compared by value).
            PExpr::This | PExpr::Field(_, _, _) => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: self.eval_safe(p, env) && self.is_prim_ty(p),
            },
            PExpr::Index(_, _) | PExpr::NewArray(_, _) => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: false,
            },
        }
    }

    fn is_ground(&self, e: &PExpr, env: &Env) -> bool {
        match e {
            PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
            PExpr::This => self.this_present,
            PExpr::Name {
                slot, field_sym, ..
            } => env.is_must(*slot) || (field_sym.is_some() && self.this_present),
            PExpr::Result(slot) => env.is_must(*slot),
            PExpr::Field(recv, _, _) => self.is_ground(recv, env),
            PExpr::Binary(_, a, b) => self.is_ground(a, env) && self.is_ground(b, env),
            PExpr::Neg(a) => self.is_ground(a, env),
            _ => false,
        }
    }

    /// Joined matching-mode facts of every implementation a constructor
    /// pattern / predicate call can dispatch to. The receiver has exactly
    /// one runtime class, so cardinality joins with `max`; safety requires
    /// every possible class to resolve to an error-free declarative
    /// implementation.
    fn callee_facts(&self, call: &PExpr, env: &Env) -> (Cardinality, bool) {
        let PExpr::Call {
            receiver,
            kind,
            dispatch,
            ..
        } = call
        else {
            return (Cardinality::Unbounded, false);
        };
        match kind {
            CallKind::StaticConstruct(cr) | CallKind::ClassCtor(cr) => match cr.match_pid {
                Some(pid) => {
                    let f = self.matching_facts_of(pid);
                    (f.card, f.no_err)
                }
                None => (Cardinality::Unbounded, false),
            },
            CallKind::Instance | CallKind::ThisMethod => {
                let recv_ty = match (receiver, kind) {
                    (Some(r), CallKind::Instance) => self.static_ty(r),
                    _ => self.owner.clone().map(Type::Named),
                };
                self.dispatch_facts(*dispatch, recv_ty.as_ref(), env, receiver.as_deref())
            }
            CallKind::Free(Some(pid)) => {
                let f = self.matching_facts_of(*pid);
                (f.card, f.no_err)
            }
            CallKind::Free(None) | CallKind::Unresolved => (Cardinality::Unbounded, false),
        }
    }

    fn matching_facts_of(&self, pid: PlanId) -> FormFacts {
        match &self.methods[pid].body {
            BodyPlan::Formula { .. } => self.facts[pid][1],
            // Invoking an imperative or absent body as a pattern is a
            // runtime error.
            _ => FormFacts {
                card: Cardinality::Unbounded,
                no_err: false,
            },
        }
    }

    /// Facts of a dynamic dispatch: join over every class the receiver can
    /// be. With a known receiver type the candidate set is its concrete
    /// subtypes (all of which must resolve); with an unknown type, any
    /// entry of the table may fire and a missing entry is a possible
    /// "method not found".
    fn dispatch_facts(
        &self,
        dispatch: Option<u32>,
        recv_ty: Option<&Type>,
        env: &Env,
        receiver: Option<&PExpr>,
    ) -> (Cardinality, bool) {
        let Some(did) = dispatch else {
            return (Cardinality::Unbounded, false);
        };
        let tbl = &self.dispatch[did as usize];
        let recv_safe = match receiver {
            Some(r) => self.eval_safe(r, env),
            None => self.this_present,
        };
        match recv_ty {
            Some(Type::Named(t)) => {
                let subs = self.table.concrete_subtypes(t);
                let mut card = Cardinality::Zero;
                let mut no_err = recv_safe && !subs.is_empty();
                for info in subs {
                    match self.table.type_index(&info.name).and_then(|i| tbl.at(i)) {
                        Some(pid) => {
                            let f = self.matching_facts_of(pid);
                            card = card.max(f.card);
                            no_err &= f.no_err;
                        }
                        None => no_err = false, // method-not-found possible
                    }
                }
                (card, no_err)
            }
            _ => {
                // Unknown receiver type: any implementation may fire, and
                // nothing rules out a class with no entry.
                let mut card = Cardinality::Zero;
                for i in 0..self.table.num_types() {
                    if let Some(pid) = tbl.at(i as u32) {
                        card = card.max(self.matching_facts_of(pid).card);
                    }
                }
                (card, false)
            }
        }
    }

    // -- discriminants (disjointness of `Any` branches) ---------------------

    /// The first conjunct of a branch, for discriminant extraction.
    fn first_conjunct<'g>(&self, g: &'g Goal) -> &'g Goal {
        match g {
            Goal::Seq(gs) => gs.first().map(|f| self.first_conjunct(f)).unwrap_or(g),
            _ => g,
        }
    }

    /// A branch discriminant: a property of the branch's first conjunct
    /// that can make two branches mutually exclusive.
    fn discriminant(&self, branch: &Goal, env: &Env) -> Option<Discrim> {
        match self.first_conjunct(branch) {
            Goal::Unify(l, r) => {
                let (lit, subj) = match (l, r) {
                    (PExpr::Int(n), s) | (s, PExpr::Int(n)) => (Lit::Int(*n), s),
                    (PExpr::Bool(b), s) | (s, PExpr::Bool(b)) => (Lit::Bool(*b), s),
                    _ => return None,
                };
                // Literal disjointness needs a primitive subject: objects
                // can bridge-equal several literals through `equals`.
                (self.is_ground(subj, env) && self.is_prim_ty(subj)).then(|| Discrim::EqLit {
                    subject: subj.clone(),
                    lit,
                })
            }
            Goal::Compare(op, a, b) => Some(Discrim::Cmp {
                op: *op,
                a: a.clone(),
                b: b.clone(),
            }),
            Goal::Invoke {
                receiver, dispatch, ..
            } => {
                let did = (*dispatch)?;
                let tbl = &self.dispatch[did as usize];
                // Mask of receiver classes whose implementation of `name`
                // can emit at all (under the current fixpoint facts, which
                // only grow — so the mask only grows, keeping the transfer
                // monotone).
                let mask: Vec<bool> = (0..self.table.num_types())
                    .map(|i| match tbl.at(i as u32) {
                        Some(pid) => self.matching_facts_of(pid).card != Cardinality::Zero,
                        None => false,
                    })
                    .collect();
                Some(Discrim::Ctor {
                    subject: receiver.clone().unwrap_or(PExpr::This),
                    mask,
                })
            }
            _ => None,
        }
    }

    fn disjoint(&self, a: &Discrim, b: &Discrim) -> bool {
        match (a, b) {
            (
                Discrim::EqLit {
                    subject: sa,
                    lit: la,
                },
                Discrim::EqLit {
                    subject: sb,
                    lit: lb,
                },
            ) => sa == sb && la != lb,
            (
                Discrim::Cmp {
                    op: oa,
                    a: aa,
                    b: ba,
                },
                Discrim::Cmp {
                    op: ob,
                    a: ab,
                    b: bb,
                },
            ) => aa == ab && ba == bb && cmp_ops_disjoint(*oa, *ob),
            (
                Discrim::Ctor {
                    subject: sa,
                    mask: ma,
                },
                Discrim::Ctor {
                    subject: sb,
                    mask: mb,
                },
            ) => sa == sb && ma.iter().zip(mb).all(|(x, y)| !(*x && *y)),
            _ => false,
        }
    }

    // -- goals --------------------------------------------------------------

    fn goal_facts(&self, g: &Goal, env: &mut Env) -> FormFacts {
        match g {
            Goal::True | Goal::Trivial => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: true,
            },
            Goal::Fail => FormFacts::BOTTOM,
            Goal::Seq(gs) => {
                let mut card = Cardinality::AtMostOne;
                let mut no_err = true;
                for sub in gs {
                    let f = self.goal_facts(sub, env);
                    card = card.seq(f.card);
                    no_err &= f.no_err;
                }
                FormFacts { card, no_err }
            }
            Goal::DynSeq(items) => {
                // Runtime-scheduled: the analysis cannot replay the order,
                // and a never-ready conjunct is a runtime error — so the
                // form is never committable, but the cardinality product
                // still holds in any order.
                for (_, sub) in items {
                    mark_may(sub, env);
                }
                let mut card = Cardinality::AtMostOne;
                for (_, sub) in items {
                    let f = self.goal_facts(sub, &mut env.clone());
                    card = card.seq(f.card);
                }
                FormFacts {
                    card,
                    no_err: false,
                }
            }
            Goal::Any(branches) => {
                let base = env.clone();
                let mut facts = Vec::with_capacity(branches.len());
                let mut discrims = Vec::with_capacity(branches.len());
                let mut joined: Option<Env> = None;
                for b in branches {
                    let mut benv = base.clone();
                    discrims.push(self.discriminant(b, &base));
                    facts.push(self.goal_facts(b, &mut benv));
                    match &mut joined {
                        None => joined = Some(benv),
                        Some(j) => j.join(&benv),
                    }
                }
                if let Some(j) = joined {
                    *env = j;
                }
                let pairwise_disjoint = facts.len() > 1
                    && (0..discrims.len()).all(|i| {
                        (i + 1..discrims.len()).all(|j| match (&discrims[i], &discrims[j]) {
                            (Some(a), Some(b)) => self.disjoint(a, b),
                            _ => false,
                        })
                    });
                let mut card = Cardinality::Zero;
                let mut no_err = true;
                for f in &facts {
                    card = if pairwise_disjoint {
                        card.max(f.card)
                    } else {
                        card.alt(f.card)
                    };
                    no_err &= f.no_err;
                }
                FormFacts { card, no_err }
            }
            Goal::Not(inner) => {
                // The inner search binds nothing outward but runs fully.
                let f = self.goal_facts(inner, &mut env.clone());
                FormFacts {
                    card: Cardinality::AtMostOne,
                    no_err: f.no_err,
                }
            }
            Goal::Unify(l, r) => {
                let lg = self.is_ground(l, env);
                let rg = self.is_ground(r, env);
                match (lg, rg) {
                    (true, true) => FormFacts {
                        card: Cardinality::AtMostOne,
                        no_err: self.eval_safe(l, env)
                            && self.eval_safe(r, env)
                            && (self.is_prim_ty(l) || self.is_prim_ty(r)),
                    },
                    (true, false) => {
                        let lt = self.static_ty(l);
                        let f = self.pat_facts(r, lt.as_ref(), env);
                        FormFacts {
                            card: f.card,
                            no_err: self.eval_safe(l, env) && f.no_err,
                        }
                    }
                    (false, true) => {
                        let rt = self.static_ty(r);
                        let f = self.pat_facts(l, rt.as_ref(), env);
                        FormFacts {
                            card: f.card,
                            no_err: self.eval_safe(r, env) && f.no_err,
                        }
                    }
                    (false, false) => {
                        // "Unknowns on both sides" may error at run time.
                        let mut e1 = env.clone();
                        let fl = self.pat_facts(l, None, &mut e1);
                        let fr = self.pat_facts(r, None, env);
                        env.join(&e1);
                        FormFacts {
                            card: fl.card.max(fr.card),
                            no_err: false,
                        }
                    }
                }
            }
            Goal::Compare(op, a, b) => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: match op {
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        self.int_safe(a, env) && self.int_safe(b, env)
                    }
                    CmpOp::Eq | CmpOp::Ne => {
                        self.eval_safe(a, env)
                            && self.eval_safe(b, env)
                            && (self.is_prim_ty(a) || self.is_prim_ty(b))
                    }
                },
            },
            Goal::Invoke {
                receiver,
                dispatch,
                args,
                ..
            } => {
                let recv_ty = match receiver {
                    Some(r) => self.static_ty(r),
                    None => self.owner.clone().map(Type::Named),
                };
                let (card, mut no_err) =
                    self.dispatch_facts(*dispatch, recv_ty.as_ref(), env, receiver.as_ref());
                for a in args {
                    let f = self.pat_facts(a, None, env);
                    no_err &= f.no_err;
                }
                FormFacts { card, no_err }
            }
            Goal::Test(e) => FormFacts {
                card: Cardinality::AtMostOne,
                no_err: self.eval_safe(e, env) && matches!(self.static_ty(e), Some(Type::Boolean)),
            },
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Lit {
    Int(i64),
    Bool(bool),
}

enum Discrim {
    EqLit { subject: PExpr, lit: Lit },
    Cmp { op: CmpOp, a: PExpr, b: PExpr },
    Ctor { subject: PExpr, mask: Vec<bool> },
}

/// Whether two comparisons over the *same* `(a, b)` operands cannot both
/// hold.
fn cmp_ops_disjoint(a: CmpOp, b: CmpOp) -> bool {
    use CmpOp::*;
    matches!(
        (a, b),
        (Eq, Lt | Gt | Ne)
            | (Lt | Gt | Ne, Eq)
            | (Lt, Gt | Ge)
            | (Gt | Ge, Lt)
            | (Le, Gt)
            | (Gt, Le)
    )
}

/// Marks every slot a goal could bind as maybe-bound (the conservative
/// effect used for runtime-scheduled conjunctions).
fn mark_may(g: &Goal, env: &mut Env) {
    fn expr(e: &PExpr, env: &mut Env) {
        match e {
            PExpr::Name { slot, .. } | PExpr::Result(slot) | PExpr::Decl(_, Some(slot), _, _) => {
                env.bind_may(*slot)
            }
            PExpr::Field(a, _, _) | PExpr::Neg(a) | PExpr::NewArray(_, a) => expr(a, env),
            PExpr::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    expr(r, env);
                }
                args.iter().for_each(|a| expr(a, env));
            }
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::OrPat(a, b) | PExpr::As(a, b) => {
                expr(a, env);
                expr(b, env);
            }
            PExpr::Tuple(es) => es.iter().for_each(|e| expr(e, env)),
            PExpr::Where(p, g) => {
                expr(p, env);
                mark_may(&g.goal, env);
            }
            _ => {}
        }
    }
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| mark_may(g, env)),
        Goal::DynSeq(items) => items.iter().for_each(|(_, g)| mark_may(g, env)),
        Goal::Not(inner) => mark_may(inner, env),
        Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
            expr(a, env);
            expr(b, env);
        }
        Goal::Invoke { receiver, args, .. } => {
            if let Some(r) = receiver {
                expr(r, env);
            }
            args.iter().for_each(|a| expr(a, env));
        }
        Goal::Test(e) => expr(e, env),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

// ---------------------------------------------------------------------------
// Pass C: lints
// ---------------------------------------------------------------------------

fn lint(kind: WarningKind, context: &str, message: String) -> Warning {
    Warning {
        kind,
        context: context.to_owned(),
        message,
        counterexample: None,
        pos: None,
    }
}

/// Counts slot occurrences in a goal, distinguishing the `Decl`
/// introduction from uses.
fn count_slots(g: &Goal, intro: &mut HashMap<SlotId, usize>, uses: &mut HashMap<SlotId, usize>) {
    fn expr(e: &PExpr, intro: &mut HashMap<SlotId, usize>, uses: &mut HashMap<SlotId, usize>) {
        match e {
            PExpr::Decl(_, Some(slot), _, _) => *intro.entry(*slot).or_default() += 1,
            PExpr::Name { slot, .. } | PExpr::Result(slot) => *uses.entry(*slot).or_default() += 1,
            PExpr::Field(a, _, _) | PExpr::Neg(a) | PExpr::NewArray(_, a) => expr(a, intro, uses),
            PExpr::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    expr(r, intro, uses);
                }
                args.iter().for_each(|a| expr(a, intro, uses));
            }
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::OrPat(a, b) | PExpr::As(a, b) => {
                expr(a, intro, uses);
                expr(b, intro, uses);
            }
            PExpr::Tuple(es) => es.iter().for_each(|e| expr(e, intro, uses)),
            PExpr::Where(p, g) => {
                expr(p, intro, uses);
                count_slots(&g.goal, intro, uses);
            }
            _ => {}
        }
    }
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| count_slots(g, intro, uses)),
        Goal::DynSeq(items) => items.iter().for_each(|(_, g)| count_slots(g, intro, uses)),
        Goal::Not(inner) => count_slots(inner, intro, uses),
        Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
            expr(a, intro, uses);
            expr(b, intro, uses);
        }
        Goal::Invoke { receiver, args, .. } => {
            if let Some(r) = receiver {
                expr(r, intro, uses);
            }
            args.iter().for_each(|a| expr(a, intro, uses));
        }
        Goal::Test(e) => expr(e, intro, uses),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

/// A `T x` declaration pattern whose binding is never read afterwards:
/// `T _` expresses the intent without the dead name.
fn lint_unused_bindings(methods: &[Arc<MethodPlan>], out: &mut Vec<Warning>) {
    for m in methods {
        let BodyPlan::Formula {
            forward, matching, ..
        } = &m.body
        else {
            continue;
        };
        let ctx = m.info.qualified_name();
        // Both forms lower the same source; the matching form is the one
        // whose frame sees every declaration, and reporting one form keeps
        // one lint per source site.
        let form = matching;
        let mut intro = HashMap::new();
        let mut uses = HashMap::new();
        count_slots(&form.goal, &mut intro, &mut uses);
        count_slots(&forward.goal, &mut HashMap::new(), &mut uses);
        let reserved: Vec<SlotId> = form
            .param_slots
            .iter()
            .copied()
            .chain([form.result_slot])
            .chain(form.field_slots.iter().map(|(_, s)| *s))
            .collect();
        let mut slots: Vec<SlotId> = intro.keys().copied().collect();
        slots.sort_unstable();
        for slot in slots {
            if reserved.contains(&slot) || uses.get(&slot).copied().unwrap_or(0) > 0 {
                continue;
            }
            let name = form.frame.name_of(slot);
            out.push(lint(
                WarningKind::UnusedBinding,
                &ctx,
                format!("`{name}` is bound by a declaration pattern but never used (use `_`)"),
            ));
        }
    }
}

/// An `Invoke`/constructor-pattern whose dispatch table has no declarative
/// implementation at all: the atom fails (or errors) for every receiver.
fn lint_always_failing_invokes(
    methods: &[Arc<MethodPlan>],
    dispatch: &[DispatchTable],
    out: &mut Vec<Warning>,
) {
    // One report per (method, name) pair.
    for m in methods {
        let BodyPlan::Formula { matching, .. } = &m.body else {
            continue;
        };
        let ctx = m.info.qualified_name();
        let mut names: Vec<(String, u32)> = Vec::new();
        collect_invokes(&matching.goal, &mut names);
        names.sort();
        names.dedup();
        for (name, did) in names {
            let tbl = &dispatch[did as usize];
            let has_impl = (0..tbl.len()).any(|i| {
                tbl.at(i as u32)
                    .is_some_and(|pid| matches!(methods[pid].body, BodyPlan::Formula { .. }))
            });
            if !has_impl {
                out.push(lint(
                    WarningKind::AlwaysFailingInvoke,
                    &ctx,
                    format!(
                        "no class provides a declarative implementation of `{name}`: \
                         the atom can never match"
                    ),
                ));
            }
        }
    }
}

/// Collects `Goal::Invoke` names — atoms that *must* match backward, so a
/// dispatch table with no declarative body can never satisfy them. Calls
/// in expression or pattern position are deliberately excluded: a
/// block-bodied method invoked with ground arguments runs forward, which
/// is fine.
fn collect_invokes(g: &Goal, out: &mut Vec<(String, u32)>) {
    fn expr(e: &PExpr, out: &mut Vec<(String, u32)>) {
        match e {
            PExpr::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    expr(r, out);
                }
                args.iter().for_each(|a| expr(a, out));
            }
            PExpr::Field(a, _, _) | PExpr::Neg(a) | PExpr::NewArray(_, a) => expr(a, out),
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::OrPat(a, b) | PExpr::As(a, b) => {
                expr(a, out);
                expr(b, out);
            }
            PExpr::Tuple(es) => es.iter().for_each(|e| expr(e, out)),
            PExpr::Where(p, g) => {
                expr(p, out);
                collect_invokes(&g.goal, out);
            }
            _ => {}
        }
    }
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| collect_invokes(g, out)),
        Goal::DynSeq(items) => items.iter().for_each(|(_, g)| collect_invokes(g, out)),
        Goal::Not(inner) => collect_invokes(inner, out),
        Goal::Invoke {
            name,
            dispatch,
            args,
            receiver,
        } => {
            if let Some(did) = dispatch {
                out.push((name.clone(), *did));
            }
            if let Some(r) = receiver {
                expr(r, out);
            }
            args.iter().for_each(|a| expr(a, out));
        }
        Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
            expr(a, out);
            expr(b, out);
        }
        Goal::Test(e) => expr(e, out),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

/// Private methods no root can reach through any call edge. Roots are
/// every non-`private` method, every class constructor, every free
/// method, and every `equals` implementation (the deep-equality bridge
/// dispatches to them implicitly).
fn lint_dead_methods(
    methods: &[Arc<MethodPlan>],
    dispatch: &[DispatchTable],
    out: &mut Vec<Warning>,
) {
    let mut reachable = vec![false; methods.len()];
    let mut work: Vec<PlanId> = Vec::new();
    for (pid, m) in methods.iter().enumerate() {
        let root = m.info.decl.visibility != Visibility::Private
            || m.info.decl.kind == MethodKind::ClassConstructor
            || m.info.decl.name == "equals";
        if root {
            reachable[pid] = true;
            work.push(pid);
        }
    }
    while let Some(pid) = work.pop() {
        let mut callees: Vec<PlanId> = Vec::new();
        match &methods[pid].body {
            BodyPlan::Formula {
                forward,
                matching,
                equals_bound,
            } => {
                goal_callees(&forward.goal, dispatch, &mut callees);
                goal_callees(&matching.goal, dispatch, &mut callees);
                if let Some(eb) = equals_bound {
                    goal_callees(&eb.goal, dispatch, &mut callees);
                }
            }
            BodyPlan::Block(bp) => stmt_callees(&bp.stmts, dispatch, &mut callees),
            BodyPlan::Absent => {}
        }
        for c in callees {
            if !reachable[c] {
                reachable[c] = true;
                work.push(c);
            }
        }
    }
    for (pid, m) in methods.iter().enumerate() {
        if !reachable[pid] {
            out.push(lint(
                WarningKind::DeadMode,
                &m.info.qualified_name(),
                "private method is unreachable from any exported method".to_owned(),
            ));
        }
    }
}

fn dispatch_targets(did: u32, dispatch: &[DispatchTable], out: &mut Vec<PlanId>) {
    let tbl = &dispatch[did as usize];
    for i in 0..tbl.len() {
        if let Some(pid) = tbl.at(i as u32) {
            out.push(pid);
        }
    }
}

fn goal_callees(g: &Goal, dispatch: &[DispatchTable], out: &mut Vec<PlanId>) {
    fn expr(e: &PExpr, dispatch: &[DispatchTable], out: &mut Vec<PlanId>) {
        match e {
            PExpr::Call {
                receiver,
                args,
                kind,
                dispatch: did,
                ..
            } => {
                match kind {
                    CallKind::StaticConstruct(cr) | CallKind::ClassCtor(cr) => {
                        out.extend(cr.construct_pid);
                        out.extend(cr.match_pid);
                    }
                    CallKind::Free(pid) => out.extend(*pid),
                    CallKind::Instance | CallKind::ThisMethod => {
                        if let Some(d) = did {
                            dispatch_targets(*d, dispatch, out);
                        }
                    }
                    CallKind::Unresolved => {}
                }
                if let Some(r) = receiver {
                    expr(r, dispatch, out);
                }
                args.iter().for_each(|a| expr(a, dispatch, out));
            }
            PExpr::Field(a, _, _) | PExpr::Neg(a) | PExpr::NewArray(_, a) => expr(a, dispatch, out),
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::OrPat(a, b) | PExpr::As(a, b) => {
                expr(a, dispatch, out);
                expr(b, dispatch, out);
            }
            PExpr::Tuple(es) => es.iter().for_each(|e| expr(e, dispatch, out)),
            PExpr::Where(p, g) => {
                expr(p, dispatch, out);
                goal_callees(&g.goal, dispatch, out);
            }
            _ => {}
        }
    }
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| goal_callees(g, dispatch, out)),
        Goal::DynSeq(items) => items
            .iter()
            .for_each(|(_, g)| goal_callees(g, dispatch, out)),
        Goal::Not(inner) => goal_callees(inner, dispatch, out),
        Goal::Invoke {
            receiver,
            args,
            dispatch: did,
            ..
        } => {
            if let Some(d) = did {
                dispatch_targets(*d, dispatch, out);
            }
            if let Some(r) = receiver {
                expr(r, dispatch, out);
            }
            args.iter().for_each(|a| expr(a, dispatch, out));
        }
        Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
            expr(a, dispatch, out);
            expr(b, dispatch, out);
        }
        Goal::Test(e) => expr(e, dispatch, out),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

fn stmt_callees(stmts: &[StmtPlan], dispatch: &[DispatchTable], out: &mut Vec<PlanId>) {
    for s in stmts {
        match s {
            StmtPlan::Let(g) => goal_callees(g, dispatch, out),
            StmtPlan::Switch {
                scrutinees,
                cases,
                bodies,
                default,
            } => {
                for e in scrutinees
                    .iter()
                    .chain(cases.iter().flat_map(|c| &c.patterns))
                {
                    goal_callees(&Goal::Test(e.clone()), dispatch, out);
                }
                bodies.iter().for_each(|b| stmt_callees(b, dispatch, out));
                if let Some(d) = default {
                    stmt_callees(d, dispatch, out);
                }
            }
            StmtPlan::Cond { arms, else_arm } => {
                for (g, b) in arms {
                    goal_callees(g, dispatch, out);
                    stmt_callees(b, dispatch, out);
                }
                if let Some(e) = else_arm {
                    stmt_callees(e, dispatch, out);
                }
            }
            StmtPlan::If { cond, then, els } => {
                goal_callees(cond, dispatch, out);
                std::iter::once(then)
                    .chain(els)
                    .for_each(|b| stmt_callees(b, dispatch, out));
            }
            StmtPlan::Foreach { goal: g, body } | StmtPlan::While { cond: g, body } => {
                goal_callees(g, dispatch, out);
                stmt_callees(body, dispatch, out);
            }
            StmtPlan::Return(Some(e))
            | StmtPlan::Assign(_, e)
            | StmtPlan::AssignUnsupported(e)
            | StmtPlan::Expr(e) => goal_callees(&Goal::Test(e.clone()), dispatch, out),
            StmtPlan::Return(None) => {}
            StmtPlan::Block(b) => stmt_callees(b, dispatch, out),
        }
    }
}

/// A matching-mode body whose *leftmost* atom re-invokes the method on the
/// same receiver: the search recurses before anything shrank.
fn lint_unbounded_recursion(methods: &[Arc<MethodPlan>], out: &mut Vec<Warning>) {
    fn leftmost_self_call(g: &Goal, name: &str) -> bool {
        match g {
            Goal::Seq(gs) => gs.first().is_some_and(|f| leftmost_self_call(f, name)),
            Goal::Any(branches) => branches.iter().any(|b| leftmost_self_call(b, name)),
            Goal::Invoke {
                receiver,
                name: callee,
                ..
            } => callee == name && matches!(receiver, None | Some(PExpr::This)),
            _ => false,
        }
    }
    for m in methods {
        let BodyPlan::Formula { matching, .. } = &m.body else {
            continue;
        };
        if leftmost_self_call(&matching.goal, &m.info.decl.name) {
            out.push(lint(
                WarningKind::UnboundedRecursion,
                &m.info.qualified_name(),
                format!(
                    "`{}` re-invokes itself on the same receiver as its leftmost atom: \
                     no argument is structurally decreasing, so the backward-mode \
                     search cannot terminate",
                    m.info.decl.name
                ),
            ));
        }
    }
}
