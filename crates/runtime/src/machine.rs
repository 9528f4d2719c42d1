//! The resumable solver: an explicit stack machine over threaded bytecode.
//!
//! The paper compiles JMatch to Java_yield — coroutines that *lazily* yield
//! one solution at a time, so a `foreach` over a backward-mode method does
//! O(1) work per element and can stop early (§2.3, §5). The recursive plan
//! evaluator in [`crate::eval`] implements the same search as host-language
//! recursion with an inverted `emit` callback, which cannot be suspended:
//! the caller gets *pushed* solutions and the only way to stop is to refuse
//! them after the work is done.
//!
//! This module is the pull-based counterpart. It runs the same
//! [`BcBody`] instruction streams, with the choice-point recursion of the
//! evaluator reified into explicit machine state:
//!
//! * a **continuation stack** ([`Step`]s linked through persistent
//!   [`Rc`] nodes, so choice points capture it in O(1)),
//! * a **choice-point stack** recording the untried alternatives of each
//!   `Choice` instruction / or-pattern,
//! * a **trail** of slot writes plus a frame-arena mark per choice point, so
//!   backtracking undoes bindings without cloning frames, and
//! * a **frame arena** holding one flat slot frame per active constructor
//!   match (the machine's activation records).
//!
//! [`Machine::next_solution`] runs the loop until the continuation stack
//! empties (a solution — the machine *returns* with its state intact) or
//! the choice points are exhausted. Calling it again backtracks into the
//! most recent choice point and continues, so `query.take(1)` does exactly
//! the work of the first solution: this is what [`crate::Solutions`] is
//! built on, and what the `first_solution` bench and the laziness test in
//! `tests/laziness.rs` measure.
//!
//! Deterministic sub-computations — ground evaluation, forward calls,
//! negation-as-failure existence checks, deep equality — run through the
//! recursive evaluator ([`Ev`]) on the shared [`Budget`]: they produce a
//! single answer and never need to be resumed, so reifying them would buy
//! nothing. The enumeration *spine* (conjunction scheduling, disjunction
//! branches, constructor matching, pattern disjunction, `where` goals) is
//! what the machine makes resumable, and its observable behavior — values,
//! bindings, enumeration order, failures — is kept identical to the
//! recursive evaluator's and the tree-walker's; `tests/differential.rs`
//! asserts it.
//!
//! The explicit choice-point stack is also what the OR-parallel executor
//! ([`crate::par`]) exploits: every multi-alternative choice point is
//! identified by its absolute **choice path** (the alternative indices of
//! the older choice points on the derivation, in creation order), so
//! [`Machine::split_oldest`] can export untried alternatives as
//! self-contained replay tasks and a fresh machine can claim one by
//! replaying the path prefix through [`Machine::with_budget`]'s guide.
//! Lexicographic order on choice paths is exactly the sequential
//! enumeration order — the invariant ordered-mode parallel enumeration is
//! built on.

use crate::eval::{Budget, Ev, Frame};
use crate::{RtError, RtResult, Value};
use jmatch_core::bytecode::{BcBody, Instr, Pc, UnifyMode};
use jmatch_core::lower::{
    BodyPlan, CallKind, DispatchId, PExpr, PlanId, ProgramPlan, ReadyCheck, SlotId,
};
use jmatch_syntax::ast::{BinOp, CmpOp};
use std::rc::Rc;

/// One pending unit of work on the continuation stack.
#[derive(Clone)]
enum Step<'g> {
    /// Run threaded bytecode from `pc` in frame `fi`; reaching the pc-0
    /// `Emit` ends the step and hands over to the rest of the stack.
    Bc { fi: usize, body: &'g BcBody, pc: Pc },
    /// A run-time scheduled conjunction with the items still to run (each
    /// a sub-chain of `body`).
    DynSeq {
        fi: usize,
        body: &'g BcBody,
        items: &'g [(ReadyCheck, Pc)],
        remaining: Vec<usize>,
    },
    /// Match a pattern against a known value in frame `fi`.
    Match {
        fi: usize,
        pat: &'g PExpr,
        value: Value,
    },
    /// A constructor-match solution boundary: the callee frame holds one
    /// solution of the matching plan; collect the parameter row and match
    /// the caller's argument patterns against it (first solution per
    /// pattern, errors skip the row — the evaluator's `match_args_then`).
    CollectRow {
        caller: usize,
        callee: usize,
        param_slots: &'g [SlotId],
        args: &'g [PExpr],
        /// Determinism commit: when the callee's matching form was proved
        /// `Det` by `jmatch_core::analysis`, this is the absolute choice
        /// mark (`donated + choices.len()`) captured at call entry.
        /// Reaching the row boundary truncates the choice stack back to it,
        /// discarding the callee's leftover choice points — the analysis
        /// guarantees they hold no further solutions.
        commit: Option<usize>,
    },
}

/// Persistent continuation: a linked stack shared between the machine and
/// its choice points, so capturing it costs one `Rc` clone.
struct Cont<'g> {
    step: Step<'g>,
    next: ContRef<'g>,
}

type ContRef<'g> = Option<Rc<Cont<'g>>>;

/// The untried alternatives of one choice point.
enum Alt<'g> {
    /// The right branch of an or-pattern.
    OrPat {
        fi: usize,
        pat: &'g PExpr,
        value: Value,
    },
    /// Remaining alternatives of a bytecode `Choice`, starting at `next`.
    /// The alternatives are instruction addresses resolved at compile time:
    /// restoring one is a pc install, not a tree re-walk.
    BcChoice {
        fi: usize,
        body: &'g BcBody,
        alts: &'g [Pc],
        next: usize,
    },
}

/// A choice point: enough state to restore the machine to the moment the
/// choice was made and try the next alternative.
struct Choice<'g> {
    cont: ContRef<'g>,
    trail_mark: usize,
    frames_mark: usize,
    /// Length of [`Machine::path`] when this choice point was created: the
    /// decisions of every older choice point on the current derivation.
    /// `path[..path_mark] ++ [k]` is the absolute choice path of this
    /// point's alternative `k` — the task descriptor
    /// [`Machine::split_oldest`] exports for OR-parallel replay.
    path_mark: usize,
    alt: Alt<'g>,
}

/// One undoable slot write.
struct TrailEntry {
    fi: usize,
    slot: SlotId,
    old: Option<Value>,
}

/// An activation frame: the slots of one solved form plus its `this`.
struct FrameCtx {
    slots: Frame,
    this: Option<Value>,
}

/// Where the machine is in its run.
enum Phase {
    /// Steps or choice points remain.
    Running,
    /// Stopped at a solution; the next call backtracks first.
    AtSolution,
    /// Enumeration is complete (or an error ended it).
    Done,
}

/// What a bounded [`Machine::run`] stopped on.
pub(crate) enum RunOutcome {
    /// A solution is ready in [`Machine::root_frame`]; the next `run`
    /// backtracks and continues.
    Solution,
    /// Every choice point is exhausted; the enumeration is over.
    Exhausted,
    /// The fuel ran out before a solution or exhaustion; call `run` again
    /// to continue. This is the OR-parallel workers' scheduling point:
    /// between runs they poll for cancellation and donate choice points.
    Paused,
}

/// The resumable bytecode machine. See the module docs.
pub(crate) struct Machine<'g> {
    plan: &'g ProgramPlan,
    budget: Budget,
    frames: Vec<FrameCtx>,
    cont: ContRef<'g>,
    choices: Vec<Choice<'g>>,
    trail: Vec<TrailEntry>,
    phase: Phase,
    /// The absolute choice path of the current derivation: one decision
    /// (alternative index) per *multi-alternative* choice point between the
    /// root and the machine's current position, in creation order. Guided
    /// prefix decisions are included, so the path is comparable across the
    /// workers of one OR-parallel enumeration: lexicographic order on
    /// paths IS the sequential (DFS) enumeration order.
    path: Vec<u32>,
    /// Replay directives for OR-parallel task resumption: the first
    /// `guide.len()` choice points this machine *would* create instead
    /// take the given alternative directly (and create no choice point —
    /// the untried siblings belong to other tasks).
    guide: Vec<u32>,
    guide_pos: usize,
    /// Choice points donated away by [`Machine::split_oldest`]. Donations
    /// pop from the *front* of `choices`, so an absolute commit mark taken
    /// as `donated + choices.len()` stays meaningful across donations:
    /// the local index is `mark - donated`.
    donated: usize,
    /// Total choice points ever created (instrumentation for the
    /// determinism-commit tests and `Solutions::choice_points`).
    created: u64,
    /// Whether the *root* form was proved `Det` by `jmatch_core::analysis`:
    /// its first solution is its only one, so reaching it clears the whole
    /// choice stack and the next pull terminates immediately.
    root_det: bool,
}

impl<'g> Machine<'g> {
    /// Creates a machine that enumerates the solutions of `code` over a
    /// root frame seeded by the caller, with `this` in scope.
    pub(crate) fn new(
        plan: &'g ProgramPlan,
        code: &'g BcBody,
        root: Frame,
        this: Option<Value>,
        max_depth: usize,
        max_steps: u64,
    ) -> Self {
        Machine::with_budget(
            plan,
            code,
            root,
            this,
            Budget::new(max_depth, max_steps),
            Vec::new(),
        )
    }

    /// Creates a machine over an explicit [`Budget`] (possibly drawing on a
    /// shared OR-parallel step pool) with a replay `guide`: the decision
    /// prefix that routes this machine to its task's subtree. Execution is
    /// deterministic between choice points, so replaying the prefix
    /// reconstructs the donor's frames, trail, and bindings exactly.
    pub(crate) fn with_budget(
        plan: &'g ProgramPlan,
        code: &'g BcBody,
        root: Frame,
        this: Option<Value>,
        budget: Budget,
        guide: Vec<u32>,
    ) -> Self {
        let mut m = Machine {
            plan,
            budget,
            frames: vec![FrameCtx { slots: root, this }],
            cont: None,
            choices: Vec::new(),
            trail: Vec::new(),
            phase: Phase::Running,
            path: Vec::new(),
            guide,
            guide_pos: 0,
            donated: 0,
            created: 0,
            root_det: false,
        };
        m.push(Step::Bc {
            fi: 0,
            body: code,
            pc: code.entry,
        });
        m
    }

    /// The root frame (the query's own solved form).
    pub(crate) fn root_frame(&self) -> &Frame {
        &self.frames[0].slots
    }

    /// Machine steps (plus recursive-evaluator steps) spent so far.
    pub(crate) fn steps(&self) -> u64 {
        self.budget.steps
    }

    /// Attaches an external interrupt token to the machine's budget; a
    /// fired token stops the run with an
    /// [`RtErrorKind::Interrupted`](crate::RtErrorKind::Interrupted) error
    /// at the next fuel-poll boundary.
    pub(crate) fn with_interrupt(
        mut self,
        token: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) -> Self {
        self.budget.set_interrupt(token);
        self
    }

    /// Marks the root form as `Det`-analyzed (see [`Machine::root_det`]).
    pub(crate) fn with_root_det(mut self, det: bool) -> Self {
        self.root_det = det;
        self
    }

    /// Choice points currently live on the choice stack.
    pub(crate) fn live_choices(&self) -> usize {
        self.choices.len()
    }

    /// Total choice points created over the machine's lifetime.
    pub(crate) fn choices_created(&self) -> u64 {
        self.created
    }

    /// Runs until the next solution. Returns `Ok(true)` with the solution's
    /// bindings readable through [`Machine::root_frame`], `Ok(false)` when
    /// the enumeration is exhausted. An error ends the enumeration.
    pub(crate) fn next_solution(&mut self) -> RtResult<bool> {
        match self.run(u64::MAX)? {
            RunOutcome::Solution => Ok(true),
            RunOutcome::Exhausted | RunOutcome::Paused => Ok(false),
        }
    }

    /// Runs for at most `fuel` machine steps or until the next solution /
    /// exhaustion, whichever comes first. An error ends the enumeration.
    pub(crate) fn run(&mut self, fuel: u64) -> RtResult<RunOutcome> {
        if matches!(self.phase, Phase::AtSolution) {
            self.phase = Phase::Running;
            if !self.backtrack() {
                self.phase = Phase::Done;
            }
        }
        let mut used: u64 = 0;
        loop {
            if matches!(self.phase, Phase::Done) {
                return Ok(RunOutcome::Exhausted);
            }
            if used >= fuel {
                return Ok(RunOutcome::Paused);
            }
            used += 1;
            let Some(node) = self.cont.take() else {
                if self.root_det {
                    // The analysis proved the root form has at most one
                    // solution: this is it, so every remaining choice
                    // point is barren.
                    self.choices.clear();
                }
                self.phase = Phase::AtSolution;
                return Ok(RunOutcome::Solution);
            };
            let step = match Rc::try_unwrap(node) {
                Ok(n) => {
                    self.cont = n.next;
                    n.step
                }
                Err(rc) => {
                    self.cont = rc.next.clone();
                    rc.step.clone()
                }
            };
            if let Err(e) = self.exec(step) {
                self.phase = Phase::Done;
                return Err(e);
            }
        }
    }

    /// Splits off the *oldest* choice point — the root-most branching of
    /// this machine's remaining search space — as replay tasks for other
    /// OR-parallel workers, removing it locally so this machine never
    /// explores the donated alternatives. Returns one absolute choice path
    /// per untried alternative, in alternative order.
    ///
    /// Donating the oldest choice point (rather than the newest) keeps the
    /// donated grains as large as possible *and* upholds the ordering
    /// invariant the ordered-mode collector relies on: every solution this
    /// machine emits after the donation lies lexicographically **before**
    /// every donated subtree, because the machine's remaining work sits
    /// under smaller alternative indices of the same (or an older-donated)
    /// branching. Later donations are likewise entirely before earlier
    /// ones.
    pub(crate) fn split_oldest(&mut self) -> Vec<Vec<u32>> {
        if self.choices.is_empty() {
            return Vec::new();
        }
        let ch = self.choices.remove(0);
        self.donated += 1;
        let prefix = &self.path[..ch.path_mark];
        match ch.alt {
            Alt::OrPat { .. } => {
                let mut p = Vec::with_capacity(prefix.len() + 1);
                p.extend_from_slice(prefix);
                p.push(1);
                vec![p]
            }
            Alt::BcChoice { alts, next, .. } => (next..alts.len())
                .map(|k| {
                    let mut p = Vec::with_capacity(prefix.len() + 1);
                    p.extend_from_slice(prefix);
                    p.push(k as u32);
                    p
                })
                .collect(),
        }
    }

    /// Whether the machine still holds a splittable choice point.
    pub(crate) fn can_split(&self) -> bool {
        !self.choices.is_empty()
    }

    /// Returns the unspent part of a shared-budget grant to the pool (see
    /// [`Budget::release_unused`]); call when the machine goes idle.
    pub(crate) fn release_budget(&mut self) {
        self.budget.release_unused();
    }

    // ------------------------------------------------------------------
    // Machine infrastructure
    // ------------------------------------------------------------------

    fn push(&mut self, step: Step<'g>) {
        self.cont = Some(Rc::new(Cont {
            step,
            next: self.cont.take(),
        }));
    }

    /// Records a choice point capturing the current continuation and marks,
    /// and pushes the initial decision (alternative 0) onto the choice
    /// path.
    fn choice(&mut self, alt: Alt<'g>) {
        self.created += 1;
        self.choices.push(Choice {
            cont: self.cont.clone(),
            trail_mark: self.trail.len(),
            frames_mark: self.frames.len(),
            path_mark: self.path.len(),
            alt,
        });
        self.path.push(0);
    }

    /// Consumes the next replay directive, if the guide still has one: the
    /// pending choice point takes alternative `d` directly and creates no
    /// local choice point (its siblings belong to other tasks).
    fn next_guide(&mut self) -> Option<u32> {
        let d = *self.guide.get(self.guide_pos)?;
        self.guide_pos += 1;
        self.path.push(d);
        Some(d)
    }

    /// Binds a slot, recording the old value on the trail.
    fn bind(&mut self, fi: usize, slot: SlotId, value: Option<Value>) {
        let old = std::mem::replace(&mut self.frames[fi].slots[slot as usize], value);
        self.trail.push(TrailEntry { fi, slot, old });
    }

    /// The current goal failed: restore the most recent choice point and
    /// install its next alternative, or end the run.
    fn fail(&mut self) {
        if !self.backtrack() {
            self.phase = Phase::Done;
        }
    }

    fn backtrack(&mut self) -> bool {
        let Some(ch) = self.choices.last_mut() else {
            return false;
        };
        let trail_mark = ch.trail_mark;
        let frames_mark = ch.frames_mark;
        let path_mark = ch.path_mark;
        let cont = ch.cont.clone();
        let (step, decision, exhausted) = match &mut ch.alt {
            Alt::OrPat { fi, pat, value } => (
                Step::Match {
                    fi: *fi,
                    pat,
                    value: value.clone(),
                },
                1,
                true,
            ),
            Alt::BcChoice {
                fi,
                body,
                alts,
                next,
            } => {
                let step = Step::Bc {
                    fi: *fi,
                    body,
                    pc: alts[*next],
                };
                let decision = *next as u32;
                *next += 1;
                (step, decision, *next >= alts.len())
            }
        };
        if exhausted {
            self.choices.pop();
        }
        while self.trail.len() > trail_mark {
            let TrailEntry { fi, slot, old } = self.trail.pop().expect("trail underflow");
            self.frames[fi].slots[slot as usize] = old;
        }
        self.frames.truncate(frames_mark);
        self.path.truncate(path_mark);
        self.path.push(decision);
        self.cont = cont;
        self.push(step);
        true
    }

    // ------------------------------------------------------------------
    // Deterministic helpers (delegated to the recursive evaluator)
    // ------------------------------------------------------------------

    fn ground(&mut self, fi: usize, e: &PExpr) -> bool {
        let Machine {
            plan,
            budget,
            frames,
            ..
        } = self;
        let f = &frames[fi];
        Ev::new(plan, budget).ground(&f.slots, f.this.as_ref(), e)
    }

    fn eval_expr(&mut self, fi: usize, e: &PExpr) -> RtResult<Value> {
        let Machine {
            plan,
            budget,
            frames,
            ..
        } = self;
        let f = &frames[fi];
        Ev::new(plan, budget).eval(&f.slots, f.this.as_ref(), e)
    }

    fn values_equal(&mut self, a: &Value, b: &Value) -> RtResult<bool> {
        Ev::new(self.plan, &mut self.budget).values_equal(a, b)
    }

    /// Resolves a runtime-class-dispatched name through the same dispatch
    /// tables the recursive evaluator uses.
    fn resolve_dispatch(
        &mut self,
        dispatch: Option<DispatchId>,
        value: &Value,
        name: &str,
        with_ctor_fallback: bool,
    ) -> Option<PlanId> {
        let Value::Obj(o) = value else { return None };
        let ev = Ev::new(self.plan, &mut self.budget);
        if with_ctor_fallback {
            ev.resolve_dispatch_or_ctor(dispatch, o, name)
        } else {
            ev.resolve_dispatch(dispatch, o, name)
        }
    }

    /// Existence check for negation-as-failure: runs the negated sub-chain
    /// at `inner` on the recursive evaluator over a scratch copy of the
    /// frame.
    fn exists(&mut self, fi: usize, body: &BcBody, inner: Pc) -> RtResult<bool> {
        let Machine {
            plan,
            budget,
            frames,
            ..
        } = self;
        let f = &frames[fi];
        let mut scratch = f.slots.clone();
        let this = f.this.clone();
        let mut found = false;
        Ev::new(plan, budget).solve_bc(&mut scratch, this.as_ref(), body, inner, &mut |_, _| {
            found = true;
            Ok(false)
        })?;
        Ok(found)
    }

    fn is_subtype(&self, class: &str, ty: &str) -> bool {
        self.plan.table().is_subtype(class, ty)
    }

    // ------------------------------------------------------------------
    // Step execution
    // ------------------------------------------------------------------

    fn exec(&mut self, step: Step<'g>) -> RtResult<()> {
        self.budget.step()?;
        match step {
            Step::Bc { fi, body, pc } => self.exec_bc(fi, body, pc),
            Step::DynSeq {
                fi,
                body,
                items,
                remaining,
            } => self.exec_dynseq(fi, body, items, remaining),
            Step::Match { fi, pat, value } => self.exec_match(fi, pat, value),
            Step::CollectRow {
                caller,
                callee,
                param_slots,
                args,
                commit,
            } => self.exec_collect(caller, callee, param_slots, args, commit),
        }
    }

    /// Threads the compiled instruction stream from `pc`. Deterministic
    /// instructions (comparisons, tests, ground unifications, boolean
    /// predicates, failed negations) continue inline at their compile-time
    /// `next` pc without touching the continuation stack; only operations
    /// that need a resumption boundary — pattern matches, constructor
    /// entries, run-time scheduled conjunctions — push a [`Step::Bc`]
    /// continuation.
    /// The inline loop terminates because bodies are emitted right-to-left:
    /// every `next` (and every `Choice` alternative) is strictly smaller
    /// than the pc of the instruction holding it. One budget step is
    /// charged per [`Step`] — the inline chain is bounded by the body
    /// length.
    fn exec_bc(&mut self, fi: usize, body: &'g BcBody, mut pc: Pc) -> RtResult<()> {
        loop {
            match &body.instrs[pc as usize] {
                Instr::Emit => return Ok(()),
                Instr::Fail => {
                    self.fail();
                    return Ok(());
                }
                Instr::Choice(alts) => {
                    if let Some(d) = self.next_guide() {
                        debug_assert!((d as usize) < alts.len(), "bad replay guide");
                        pc = alts[d as usize];
                    } else {
                        self.choice(Alt::BcChoice {
                            fi,
                            body,
                            alts,
                            next: 1,
                        });
                        pc = alts[0];
                    }
                }
                Instr::Unify {
                    lhs,
                    rhs,
                    mode,
                    next,
                } => {
                    let l = &body.exprs[*lhs as usize];
                    let r = &body.exprs[*rhs as usize];
                    let mode = match mode {
                        UnifyMode::Dynamic => match (self.ground(fi, l), self.ground(fi, r)) {
                            (true, true) => UnifyMode::EvalEval,
                            (true, false) => UnifyMode::EvalMatch,
                            (false, true) => UnifyMode::MatchEval,
                            (false, false) => {
                                return Err(RtError::new(format!(
                                        "equation with unknowns on both sides is not solvable: {l:?} = {r:?}"
                                    )));
                            }
                        },
                        m => *m,
                    };
                    match mode {
                        UnifyMode::EvalEval => {
                            let a = self.eval_expr(fi, l)?;
                            let b = self.eval_expr(fi, r)?;
                            if !self.values_equal(&a, &b)? {
                                self.fail();
                                return Ok(());
                            }
                            pc = *next;
                        }
                        UnifyMode::EvalMatch => {
                            let v = self.eval_expr(fi, l)?;
                            self.push(Step::Bc {
                                fi,
                                body,
                                pc: *next,
                            });
                            self.push(Step::Match {
                                fi,
                                pat: r,
                                value: v,
                            });
                            return Ok(());
                        }
                        UnifyMode::MatchEval => {
                            let v = self.eval_expr(fi, r)?;
                            self.push(Step::Bc {
                                fi,
                                body,
                                pc: *next,
                            });
                            self.push(Step::Match {
                                fi,
                                pat: l,
                                value: v,
                            });
                            return Ok(());
                        }
                        UnifyMode::Dynamic => unreachable!("dynamic mode resolved above"),
                    }
                }
                Instr::Compare { op, lhs, rhs, next } => {
                    let a = self.eval_expr(fi, &body.exprs[*lhs as usize])?;
                    let b = self.eval_expr(fi, &body.exprs[*rhs as usize])?;
                    let holds = match (a.as_int(), b.as_int()) {
                        (Some(x), Some(y)) => match op {
                            CmpOp::Le => x <= y,
                            CmpOp::Lt => x < y,
                            CmpOp::Ge => x >= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ne => x != y,
                            CmpOp::Eq => x == y,
                        },
                        _ => {
                            if *op != CmpOp::Ne {
                                return Err(RtError::new("ordering comparison on non-integers"));
                            }
                            !self.values_equal(&a, &b)?
                        }
                    };
                    if !holds {
                        self.fail();
                        return Ok(());
                    }
                    pc = *next;
                }
                Instr::Test { expr, next } => {
                    let v = self.eval_expr(fi, &body.exprs[*expr as usize])?;
                    if v.as_bool() != Some(true) {
                        self.fail();
                        return Ok(());
                    }
                    pc = *next;
                }
                Instr::Invoke {
                    receiver,
                    name,
                    args_start,
                    args_len,
                    dispatch,
                    next,
                } => {
                    let subject: Value = match receiver {
                        Some(r) => {
                            let r = &body.exprs[*r as usize];
                            if !self.ground(fi, r) {
                                return Err(RtError::new("predicate receiver is not ground"));
                            }
                            self.eval_expr(fi, r)?
                        }
                        None => self.frames[fi]
                            .this
                            .clone()
                            .ok_or_else(|| RtError::new("predicate call without a receiver"))?,
                    };
                    match &subject {
                        Value::Obj(_) => {
                            let name = &body.names[*name as usize];
                            let Some(pid) = self.resolve_dispatch(*dispatch, &subject, name, false)
                            else {
                                return Err(RtError::method_not_found(
                                    subject.class().unwrap_or_default(),
                                    name,
                                ));
                            };
                            let args = body.args(*args_start, *args_len);
                            self.push(Step::Bc {
                                fi,
                                body,
                                pc: *next,
                            });
                            return self.enter_constructor(fi, subject.clone(), pid, args);
                        }
                        Value::Bool(b) => {
                            if !*b {
                                self.fail();
                                return Ok(());
                            }
                            pc = *next;
                        }
                        other => {
                            return Err(RtError::new(format!(
                                "cannot use `{other}` as a predicate receiver"
                            )));
                        }
                    }
                }
                Instr::Not { inner, next } => {
                    if self.exists(fi, body, *inner)? {
                        self.fail();
                        return Ok(());
                    }
                    pc = *next;
                }
                Instr::DynSeq { items, next } => {
                    self.push(Step::Bc {
                        fi,
                        body,
                        pc: *next,
                    });
                    return self.exec_dynseq(fi, body, items, (0..items.len()).collect());
                }
            }
        }
    }

    /// Selects the first ready item against the *current* bindings and
    /// re-queues the rest — the run-time scheduling of [`Instr::DynSeq`],
    /// re-evaluated after every solution of every earlier item exactly
    /// like the recursive evaluator (and the tree-walker) do.
    fn exec_dynseq(
        &mut self,
        fi: usize,
        body: &'g BcBody,
        items: &'g [(ReadyCheck, Pc)],
        remaining: Vec<usize>,
    ) -> RtResult<()> {
        if remaining.is_empty() {
            return Ok(());
        }
        let chosen = {
            let Machine {
                plan,
                budget,
                frames,
                ..
            } = self;
            let f = &frames[fi];
            let ev = Ev::new(plan, budget);
            remaining
                .iter()
                .copied()
                .find(|&i| ev.check_ready(&f.slots, f.this.as_ref(), &items[i].0))
        };
        let Some(chosen) = chosen else {
            return Err(RtError::new(
                "formula is not solvable: no conjunct can run with the current bindings",
            ));
        };
        let rest: Vec<usize> = remaining.into_iter().filter(|&i| i != chosen).collect();
        if !rest.is_empty() {
            self.push(Step::DynSeq {
                fi,
                body,
                items,
                remaining: rest,
            });
        }
        self.push(Step::Bc {
            fi,
            body,
            pc: items[chosen].1,
        });
        Ok(())
    }

    fn exec_match(&mut self, fi: usize, pat: &'g PExpr, value: Value) -> RtResult<()> {
        match pat {
            PExpr::Wildcard => Ok(()),
            PExpr::Decl(ty, slot, check) => {
                let admits = Ev::new(self.plan, &mut self.budget).class_admits(ty, check, &value);
                if !admits {
                    self.fail();
                    return Ok(());
                }
                if let Some(s) = slot {
                    self.bind(fi, *s, Some(value));
                }
                Ok(())
            }
            PExpr::Name { slot, .. } | PExpr::Result(slot) => {
                match self.frames[fi].slots[*slot as usize].clone() {
                    Some(bound) => {
                        if !self.values_equal(&bound, &value)? {
                            self.fail();
                        }
                        Ok(())
                    }
                    None => {
                        self.bind(fi, *slot, Some(value));
                        Ok(())
                    }
                }
            }
            PExpr::As(a, b) => {
                self.push(Step::Match {
                    fi,
                    pat: b,
                    value: value.clone(),
                });
                self.push(Step::Match { fi, pat: a, value });
                Ok(())
            }
            PExpr::OrPat(a, b) => {
                if let Some(d) = self.next_guide() {
                    debug_assert!(d < 2, "bad replay guide");
                    let pat = if d == 0 { a } else { b };
                    self.push(Step::Match { fi, pat, value });
                } else {
                    self.choice(Alt::OrPat {
                        fi,
                        pat: b,
                        value: value.clone(),
                    });
                    self.push(Step::Match { fi, pat: a, value });
                }
                Ok(())
            }
            PExpr::Where(p, goal) => {
                let body = goal.code();
                self.push(Step::Bc {
                    fi,
                    body,
                    pc: body.entry,
                });
                self.push(Step::Match { fi, pat: p, value });
                Ok(())
            }
            PExpr::Call {
                receiver,
                name,
                args,
                kind,
                dispatch,
            } => {
                match (kind, receiver) {
                    (CallKind::StaticConstruct(cr), _) | (CallKind::ClassCtor(cr), None) => {
                        let resolved = {
                            let ev = Ev::new(self.plan, &mut self.budget);
                            ev.resolve_static_match(cr, name)
                        };
                        let Some(pid) = resolved else {
                            return Err(RtError::method_not_found(&cr.name, name));
                        };
                        if let Some(vclass) = value.class() {
                            if !self.is_subtype(vclass, &cr.name) {
                                let converted = Ev::new(self.plan, &mut self.budget)
                                    .convert_via_equals(&cr.name, &value)?;
                                return match converted {
                                    Some(c) => self.enter_constructor(fi, c, pid, args),
                                    None => {
                                        self.fail();
                                        Ok(())
                                    }
                                };
                            }
                        }
                        self.enter_constructor(fi, value, pid, args)
                    }
                    _ => {
                        // Dynamic: dispatch on the value's own runtime class
                        // through the same table the recursive evaluator uses.
                        let Some(pid) = self.resolve_dispatch(*dispatch, &value, name, true) else {
                            return Err(RtError::method_not_found(
                                value.class().unwrap_or_default(),
                                name,
                            ));
                        };
                        self.enter_constructor(fi, value, pid, args)
                    }
                }
            }
            PExpr::Binary(op, a, b) => {
                let Some(target) = value.as_int() else {
                    self.fail();
                    return Ok(());
                };
                let a_ground = self.ground(fi, a);
                let b_ground = self.ground(fi, b);
                match (op, a_ground, b_ground) {
                    (_, true, true) => {
                        let v = self.eval_expr(fi, pat)?;
                        if !self.values_equal(&v, &value)? {
                            self.fail();
                        }
                        Ok(())
                    }
                    (BinOp::Add, true, false) => {
                        let av = self.eval_expr(fi, a)?.as_int().unwrap_or(0);
                        self.push(Step::Match {
                            fi,
                            pat: b,
                            value: Value::Int(target - av),
                        });
                        Ok(())
                    }
                    (BinOp::Add, false, true) => {
                        let bv = self.eval_expr(fi, b)?.as_int().unwrap_or(0);
                        self.push(Step::Match {
                            fi,
                            pat: a,
                            value: Value::Int(target - bv),
                        });
                        Ok(())
                    }
                    (BinOp::Sub, false, true) => {
                        let bv = self.eval_expr(fi, b)?.as_int().unwrap_or(0);
                        self.push(Step::Match {
                            fi,
                            pat: a,
                            value: Value::Int(target + bv),
                        });
                        Ok(())
                    }
                    (BinOp::Sub, true, false) => {
                        let av = self.eval_expr(fi, a)?.as_int().unwrap_or(0);
                        self.push(Step::Match {
                            fi,
                            pat: b,
                            value: Value::Int(av - target),
                        });
                        Ok(())
                    }
                    _ => Err(RtError::new(
                        "cannot invert this arithmetic pattern at run time",
                    )),
                }
            }
            PExpr::Neg(a) => {
                let Some(target) = value.as_int() else {
                    self.fail();
                    return Ok(());
                };
                self.push(Step::Match {
                    fi,
                    pat: a,
                    value: Value::Int(-target),
                });
                Ok(())
            }
            other => {
                let v = self.eval_expr(fi, other)?;
                if !self.values_equal(&v, &value)? {
                    self.fail();
                }
                Ok(())
            }
        }
    }

    /// Starts a constructor match: pushes the callee's activation frame
    /// (with `this` = the matched value) and queues its matching goal with a
    /// [`Step::CollectRow`] boundary below it, so every callee solution
    /// flows into the caller's argument patterns and backtracking resumes
    /// the callee's remaining choice points.
    fn enter_constructor(
        &mut self,
        caller: usize,
        value: Value,
        pid: PlanId,
        args: &'g [PExpr],
    ) -> RtResult<()> {
        let plan = self.plan;
        let mp = plan.method(pid);
        let BodyPlan::Formula { matching, .. } = &mp.body else {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "backward (pattern-matching)",
            ));
        };
        if self.frames.len() >= self.budget.max_depth {
            return Err(RtError::limit(
                "depth",
                self.budget.max_depth as u64,
                "solver recursion limit exceeded",
            ));
        }
        let callee = self.frames.len();
        self.frames.push(FrameCtx {
            slots: vec![None; matching.frame.len()],
            this: Some(value),
        });
        // Determinism commit (`jmatch_core::analysis`): a `Det` matching
        // form yields at most one solution and cannot err, so once its
        // single solution reaches the row boundary every choice point it
        // created is provably barren. Capture the absolute choice mark now;
        // `exec_collect` truncates back to it.
        let commit = matching.det.then(|| self.donated + self.choices.len());
        self.push(Step::CollectRow {
            caller,
            callee,
            param_slots: &matching.param_slots,
            args,
            commit,
        });
        let body = matching.code();
        self.push(Step::Bc {
            fi: callee,
            body,
            pc: body.entry,
        });
        Ok(())
    }

    /// One callee solution reached the row boundary: collect the parameter
    /// values and match the caller's argument patterns (first solution per
    /// pattern, left to right; unbound parameters and pattern errors skip
    /// the row, like the recursive evaluator).
    fn exec_collect(
        &mut self,
        caller: usize,
        callee: usize,
        param_slots: &[SlotId],
        args: &[PExpr],
        commit: Option<usize>,
    ) -> RtResult<()> {
        if let Some(mark) = commit {
            // The callee's matching form is `Det`: this is its only
            // solution, so its leftover choice points (everything above the
            // entry mark) are barren — drop them. Trail entries above the
            // dropped marks simply become permanent bindings, which is
            // exactly what committing means. `mark` is absolute; donations
            // since capture shift the local index down.
            let keep = mark.saturating_sub(self.donated);
            if self.choices.len() > keep {
                self.choices.truncate(keep);
            }
        }
        let mut row = Vec::with_capacity(param_slots.len());
        for &s in param_slots {
            match &self.frames[callee].slots[s as usize] {
                Some(v) => row.push(v.clone()),
                None => {
                    self.fail();
                    return Ok(());
                }
            }
        }
        let (work, failed) = {
            let Machine {
                plan,
                budget,
                frames,
                ..
            } = self;
            let mut work = frames[caller].slots.clone();
            let mut failed = false;
            let mut ev = Ev::new(plan, budget);
            for (i, v) in row.iter().enumerate() {
                let Some(pat) = args.get(i) else {
                    continue;
                };
                // Like the evaluator's `match_args_then`, argument patterns
                // are matched without `this` in scope.
                let mut sol: Option<Frame> = None;
                let r = ev.match_pat(&mut work, None, pat, v, &mut |_, fr2| {
                    sol = Some(fr2.clone());
                    Ok(false)
                });
                if r.is_err() {
                    failed = true;
                    break;
                }
                match sol {
                    Some(s) => work = s,
                    None => {
                        failed = true;
                        break;
                    }
                }
            }
            (work, failed)
        };
        if failed {
            self.fail();
            return Ok(());
        }
        let changed: Vec<(usize, Option<Value>)> = work
            .iter()
            .enumerate()
            .filter(|(i, w)| !slot_unchanged(&self.frames[caller].slots[*i], w))
            .map(|(i, w)| (i, w.clone()))
            .collect();
        for (i, w) in changed {
            self.bind(caller, i as SlotId, w);
        }
        Ok(())
    }
}

/// Cheap slot comparison for the `exec_collect` diff: object identity via
/// `Arc::ptr_eq` instead of structural equality, so an unchanged list-valued
/// slot costs O(1) per callee solution, not O(list). Distinct-but-equal
/// objects read as "changed", which only records a redundant trail entry.
fn slot_unchanged(old: &Option<Value>, new: &Option<Value>) -> bool {
    match (old, new) {
        (None, None) => true,
        (Some(Value::Obj(a)), Some(Value::Obj(b))) => std::sync::Arc::ptr_eq(a, b),
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Iterative teardown of the persistent continuation chains: `Cont` is a
/// linked list whose derived drop would recurse once per uniquely-owned
/// node, overflowing the native stack when a deep enumeration (raised
/// `Limits::max_depth`) is abandoned mid-run. Unlink every chain — the
/// machine's own and each choice point's — in a loop instead.
impl Drop for Machine<'_> {
    fn drop(&mut self) {
        let mut chains: Vec<ContRef<'_>> = Vec::with_capacity(self.choices.len() + 1);
        chains.push(self.cont.take());
        for ch in &mut self.choices {
            chains.push(ch.cont.take());
        }
        for chain in chains {
            let mut cur = chain;
            while let Some(rc) = cur {
                match Rc::try_unwrap(rc) {
                    Ok(mut node) => cur = node.next.take(),
                    // Still shared by a chain later in the list; that chain
                    // will continue the unlinking when its turn comes.
                    Err(_) => break,
                }
            }
        }
    }
}
