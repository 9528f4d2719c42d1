//! The solver: an explicit stack machine over threaded bytecode, and the
//! only code in the plan engine that enumerates solutions.
//!
//! The paper compiles every JMatch iteration — `foreach`, the backward and
//! iterative modes, `switch` patterns — to Java_yield coroutines that
//! *lazily* yield one solution at a time, so a `foreach` over a
//! backward-mode method does O(1) work per element and can stop early
//! (§2.3, §5). This machine is that mechanism. It runs the [`BcBody`]
//! instruction streams of `jmatch_core::bytecode` with the search reified
//! into explicit state:
//!
//! * a **continuation stack**: a plain vector of [`Step`]s on top of
//!   [`Step`]s linked through persistent [`Rc`] nodes. Pushes and pops use
//!   the vector; a choice point moves it into the linked part and then
//!   captures the whole continuation in O(1), so only search that branches
//!   allocates;
//! * a **choice-point stack** recording the untried alternatives of each
//!   `Choice` instruction / or-pattern;
//! * a **trail** of slot writes plus a frame-arena mark per choice point,
//!   so backtracking undoes bindings without cloning frames;
//! * a **frame arena** holding one flat slot frame per activation: the
//!   query's root, each constructor match, each forward call.
//!
//! [`Machine::next_solution`] runs the loop until the continuation empties
//! (a solution — the machine *returns* with its state intact) or the
//! choice points are exhausted. Calling it again backtracks into the most
//! recent choice point and continues, so `query.take(1)` does exactly the
//! work of the first solution: this is what [`crate::Solutions`] is built
//! on, and what `tests/laziness.rs` measures.
//!
//! **Nested runs.** Every other search — the body of a forward call, an
//! equality constructor, negation, a statement goal, a `switch` case, a
//! constructor-argument pattern, `Program::deconstruct` — runs as a
//! *nested run* of the machine already running, like a call barrier in
//! Warren's Abstract Machine (Aït-Kaci, *Warren's Abstract Machine: A
//! Tutorial Reconstruction*, 1991). [`Machine::open`] saves the
//! continuation and sets a floor at the current choice-stack height; the
//! nested run then ends when its continuation empties (a solution) or when
//! backtracking reaches the floor (no solution), and [`Machine::close`]
//! cuts the choice points above the floor and restores the continuation.
//! So there is one search implementation, one [`Budget`] and one depth
//! measure (frames). Deterministic work — ground evaluation, structural
//! equality, dispatch, imperative block code — lives in [`crate::eval`] as
//! further methods of the same machine. The observable behavior — values,
//! bindings, enumeration order, failures — is kept identical to the
//! tree-walker's; `tests/differential.rs` asserts it.

use crate::eval::{recycle_frame, Budget, Frame};
use crate::{RtError, RtResult, Value};
use jmatch_core::bytecode::{BcBody, Instr, Pc, UnifyMode};
use jmatch_core::lower::{
    BodyPlan, CallKind, CaseGuard, PExpr, PlanId, ProgramPlan, ReadyCheck, SlotId,
};
use jmatch_core::table::ClassTable;
use jmatch_syntax::ast::{BinOp, CmpOp, Type};
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
    /// pattern; an error inside a pattern skips the row).
    CollectRow {
        caller: usize,
        callee: usize,
        param_slots: &'g [SlotId],
        args: &'g [PExpr],
        /// Determinism commit: when the callee's matching form was proved
        /// `Det` by `jmatch_core::analysis`, this is the choice-stack
        /// height captured at call entry.
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
    alt: Alt<'g>,
}

/// One undoable slot write.
struct TrailEntry {
    fi: usize,
    slot: SlotId,
    old: Option<Value>,
}

/// An activation frame: the slots of one solved form or block plus its
/// `this`.
pub(crate) struct FrameCtx {
    pub(crate) slots: Frame,
    pub(crate) this: Option<Value>,
}

/// Where the outermost run is.
enum Phase {
    /// Steps or choice points remain.
    Running,
    /// Stopped at a solution; the next call backtracks first.
    AtSolution,
    /// Enumeration is complete (or an error ended it).
    Done,
}

/// What [`Machine::close`] does with the bindings a nested run made.
#[derive(Clone, Copy)]
enum Close {
    /// Keep them, and keep their trail entries for frames older than the
    /// run, so choice points below the floor can still undo them
    /// (constructor-argument patterns inside a running search).
    Commit,
    /// Keep them and drop their trail entries: no live choice point can
    /// reach the frames they touched (forward calls, whose frames are
    /// popped, and statement goals of the block that owns the frame).
    Pop,
    /// Undo every slot write the nested run made (negation, `foreach`
    /// after the last solution, a match that failed or erred).
    Undo,
}

/// The state a nested run interrupts, restored by [`Machine::close`].
struct Barrier<'g> {
    base: usize,
    cont: ContRef<'g>,
    floor: usize,
    run_frames: usize,
    trail: usize,
    frames: usize,
}

/// The resumable bytecode machine. See the module docs.
pub(crate) struct Machine<'g> {
    pub(crate) plan: &'g ProgramPlan,
    pub(crate) table: &'g ClassTable,
    pub(crate) budget: Budget,
    pub(crate) frames: Vec<FrameCtx>,
    /// The top of the continuation, above `base`: steps no choice point
    /// has captured yet.
    local: Vec<Step<'g>>,
    /// Where the current run's part of `local` starts; the steps below
    /// belong to the runs a nested run interrupted.
    base: usize,
    /// The rest of the current run's continuation, below `local[base..]`.
    cont: ContRef<'g>,
    choices: Vec<Choice<'g>>,
    trail: Vec<TrailEntry>,
    /// Choice points at or below this height belong to the runs a nested
    /// run interrupted: backtracking never reaches them.
    floor: usize,
    /// The frame-arena height when the open nested run started (0 for the
    /// outermost run).
    run_frames: usize,
    /// Set when backtracking reached the floor; ends the current run.
    exhausted: bool,
    phase: Phase,
    /// Total choice points ever created, nested runs included
    /// (instrumentation for the determinism-commit tests and
    /// `Solutions::choice_points_created`).
    created: u64,
    /// Whether the *root* form was proved `Det` by `jmatch_core::analysis`:
    /// its first solution is its only one, so reaching it clears the whole
    /// choice stack and the next pull terminates immediately.
    root_det: bool,
}

impl<'g> Machine<'g> {
    /// A machine with no query of its own: the entry point of a forward
    /// call, a construction, `matches` or deep equality, whose searches
    /// all run as nested runs.
    pub(crate) fn new(plan: &'g ProgramPlan, budget: Budget) -> Self {
        Machine {
            plan,
            table: plan.table(),
            budget,
            frames: Vec::new(),
            local: Vec::new(),
            base: 0,
            cont: None,
            choices: Vec::new(),
            trail: Vec::new(),
            floor: 0,
            run_frames: 0,
            exhausted: false,
            phase: Phase::Running,
            created: 0,
            root_det: false,
        }
    }

    /// A machine that enumerates the solutions of `code` over a root frame
    /// seeded by the caller, with `this` in scope, drawing on `budget`.
    pub(crate) fn query(
        plan: &'g ProgramPlan,
        budget: Budget,
        code: &'g BcBody,
        root: Frame,
        this: Option<Value>,
    ) -> Self {
        let mut m = Machine::new(plan, budget);
        m.frames.push(FrameCtx { slots: root, this });
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

    /// Machine steps spent so far.
    pub(crate) fn steps(&self) -> u64 {
        self.budget.steps
    }

    /// Attaches an external interrupt token to the machine's budget; a
    /// fired token stops the run with an
    /// [`RtErrorKind::Interrupted`](crate::RtErrorKind::Interrupted) error
    /// at the next interrupt-poll boundary.
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
        if matches!(self.phase, Phase::AtSolution) {
            self.phase = Phase::Running;
            if !self.backtrack() {
                self.phase = Phase::Done;
            }
        }
        if matches!(self.phase, Phase::Done) {
            return Ok(false);
        }
        let found = self.drive();
        if matches!(found, Ok(true)) {
            if self.root_det {
                // The analysis proved the root form has at most one
                // solution: this is it, so every remaining choice point is
                // barren.
                self.cut(0);
            }
            self.phase = Phase::AtSolution;
        } else {
            self.phase = Phase::Done;
        }
        found
    }

    /// The step loop shared by the outermost run and every nested one:
    /// runs until the continuation empties (`Ok(true)`, a solution) or
    /// backtracking reaches the floor (`Ok(false)`).
    fn drive(&mut self) -> RtResult<bool> {
        loop {
            if self.exhausted {
                self.exhausted = false;
                return Ok(false);
            }
            let Some(step) = self.pop() else {
                return Ok(true);
            };
            self.exec(step)?;
        }
    }

    // ------------------------------------------------------------------
    // Machine infrastructure
    // ------------------------------------------------------------------

    #[inline]
    fn push(&mut self, step: Step<'g>) {
        self.local.push(step);
    }

    #[inline]
    fn pop(&mut self) -> Option<Step<'g>> {
        if self.local.len() > self.base {
            return self.local.pop();
        }
        let node = self.cont.take()?;
        Some(match Rc::try_unwrap(node) {
            Ok(n) => {
                self.cont = n.next;
                n.step
            }
            Err(rc) => {
                self.cont = rc.next.clone();
                rc.step.clone()
            }
        })
    }

    /// Drops the current run's continuation.
    fn clear_cont(&mut self) {
        self.local.truncate(self.base);
        unlink(self.cont.take());
    }

    /// Records a choice point capturing the current continuation and marks.
    fn choice(&mut self, alt: Alt<'g>) {
        if self.local.len() > self.base {
            for step in self.local.drain(self.base..) {
                self.cont = Some(Rc::new(Cont {
                    step,
                    next: self.cont.take(),
                }));
            }
        }
        self.created += 1;
        self.choices.push(Choice {
            cont: self.cont.clone(),
            trail_mark: self.trail.len(),
            frames_mark: self.frames.len(),
            alt,
        });
    }

    /// Binds a slot, recording the old value on the trail only when
    /// something could restore it: the newest choice point above the floor
    /// if the frame is older than it, or else the open nested run if the
    /// frame is older than the run (WAM-style conditional trailing). Frames
    /// younger than every restore point are popped instead of restored.
    fn bind(&mut self, fi: usize, slot: SlotId, value: Value) {
        let old = self.frames[fi].slots[slot as usize].replace(value);
        let restore_mark = match self.choices.last() {
            Some(ch) if self.choices.len() > self.floor => ch.frames_mark,
            _ => self.run_frames,
        };
        if fi < restore_mark {
            self.trail.push(TrailEntry { fi, slot, old });
        }
    }

    /// Drops the choice points above height `n`.
    fn cut(&mut self, n: usize) {
        while self.choices.len() > n {
            if let Some(mut ch) = self.choices.pop() {
                unlink(ch.cont.take());
            }
        }
    }

    /// Undoes the trail down to `mark`.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let TrailEntry { fi, slot, old } = self.trail.pop().expect("trail underflow");
            self.frames[fi].slots[slot as usize] = old;
        }
    }

    /// Pushes an activation frame, enforcing the depth ceiling and the
    /// native-stack guard (nested runs recurse natively).
    pub(crate) fn push_frame(&mut self, slots: Frame, this: Option<Value>) -> RtResult<usize> {
        if self.frames.len() >= self.budget.max_depth {
            recycle_frame(slots);
            return Err(RtError::limit(
                "depth",
                self.budget.max_depth as u64,
                "solver recursion limit exceeded",
            ));
        }
        if let Err(e) = crate::eval::check_stack(self.budget.max_depth) {
            recycle_frame(slots);
            return Err(e);
        }
        self.frames.push(FrameCtx { slots, this });
        Ok(self.frames.len() - 1)
    }

    /// Pops the frames above height `n`, recycling their slot vectors.
    pub(crate) fn truncate_frames(&mut self, n: usize) {
        while self.frames.len() > n {
            if let Some(f) = self.frames.pop() {
                recycle_frame(f.slots);
            }
        }
    }

    /// The current goal failed: restore the most recent choice point above
    /// the floor and install its next alternative, or end the run.
    fn fail(&mut self) {
        if !self.backtrack() {
            self.clear_cont();
            self.exhausted = true;
        }
    }

    fn backtrack(&mut self) -> bool {
        if self.choices.len() <= self.floor {
            return false;
        }
        let Some(ch) = self.choices.last_mut() else {
            return false;
        };
        let trail_mark = ch.trail_mark;
        let frames_mark = ch.frames_mark;
        let (step, exhausted) = match &mut ch.alt {
            Alt::OrPat { fi, pat, value } => (
                Step::Match {
                    fi: *fi,
                    pat,
                    value: value.clone(),
                },
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
                *next += 1;
                (step, *next >= alts.len())
            }
        };
        let cont = if exhausted {
            self.choices.pop().and_then(|mut ch| ch.cont.take())
        } else {
            ch.cont.clone()
        };
        self.undo_to(trail_mark);
        self.truncate_frames(frames_mark);
        self.clear_cont();
        self.cont = cont;
        self.local.push(step);
        true
    }

    // ------------------------------------------------------------------
    // Nested runs
    // ------------------------------------------------------------------

    /// Opens a nested run: saves the continuation and sets the floor at the
    /// current choice-stack height. [`Machine::start`] it, pull further
    /// solutions with [`Machine::resume`], and [`Machine::close`] it — also
    /// after an error, when the caller goes on.
    fn open(&mut self) -> Barrier<'g> {
        let b = Barrier {
            base: self.base,
            cont: self.cont.take(),
            floor: self.floor,
            run_frames: self.run_frames,
            trail: self.trail.len(),
            frames: self.frames.len(),
        };
        self.base = self.local.len();
        self.floor = self.choices.len();
        self.run_frames = self.frames.len();
        b
    }

    /// Runs the open nested run from `step` to its first solution:
    /// `Ok(true)` when its continuation empties, `Ok(false)` when
    /// backtracking reaches the floor.
    fn start(&mut self, step: Step<'g>) -> RtResult<bool> {
        self.exec(step)?;
        self.drive()
    }

    /// Backtracks out of the open nested run's last solution into its next
    /// one, like [`Machine::start`].
    fn resume(&mut self) -> RtResult<bool> {
        if !self.backtrack() {
            return Ok(false);
        }
        self.drive()
    }

    /// Closes a nested run: cuts the choice points above its floor, treats
    /// its bindings as `how` says, pops the frames it pushed, and restores
    /// the interrupted continuation.
    fn close(&mut self, b: Barrier<'g>, how: Close) {
        self.cut(self.floor);
        match how {
            Close::Undo => self.undo_to(b.trail),
            Close::Pop => self.trail.truncate(b.trail),
            Close::Commit => {
                // Entries for frames the run pushed die with the frames;
                // the rest keep their order, which undoing relies on.
                let mut kept = b.trail;
                for i in b.trail..self.trail.len() {
                    if self.trail[i].fi < b.frames {
                        self.trail.swap(kept, i);
                        kept += 1;
                    }
                }
                self.trail.truncate(kept);
            }
        }
        self.truncate_frames(b.frames);
        self.exhausted = false;
        self.clear_cont();
        self.base = b.base;
        self.cont = b.cont;
        self.floor = b.floor;
        self.run_frames = b.run_frames;
    }

    /// Runs `body` over a fresh frame as a nested run and reads its first
    /// solution's frame with `read`; `None` when there is none. The frame
    /// is popped afterwards (forward calls, equality constructors).
    pub(crate) fn solve_fresh<T>(
        &mut self,
        slots: Frame,
        this: Option<Value>,
        body: &'g BcBody,
        read: impl FnOnce(&Frame) -> T,
    ) -> RtResult<Option<T>> {
        let b = self.open();
        let r = self.push_frame(slots, this).and_then(|fi| {
            let found = self.start(Step::Bc {
                fi,
                body,
                pc: body.entry,
            })?;
            Ok(found.then(|| read(&self.frames[fi].slots)))
        });
        self.close(b, Close::Pop);
        r
    }

    /// Runs `step` as a nested run to its first solution, whose bindings
    /// `found` treats; without a solution every binding is undone.
    fn first_solution(&mut self, step: Step<'g>, found: Close) -> RtResult<bool> {
        let b = self.open();
        let r = self.start(step);
        self.close(
            b,
            if matches!(r, Ok(true)) {
                found
            } else {
                Close::Undo
            },
        );
        r
    }

    /// Commits the first solution of a statement goal into frame `fi`,
    /// returning whether one existed.
    // This and the other statement entry points stay out of line: inlined,
    // their nested-run set-up slows the register loop of `exec_bc_code`.
    #[inline(never)]
    pub(crate) fn solve_first(&mut self, fi: usize, goal: &'g BcBody) -> RtResult<bool> {
        let step = Step::Bc {
            fi,
            body: goal,
            pc: goal.entry,
        };
        self.first_solution(step, Close::Pop)
    }

    /// Runs a `foreach` goal in frame `fi` to exhaustion, collecting each
    /// solution's values of `slots` in one flat row per solution; the frame
    /// is left as it was.
    #[inline(never)]
    pub(crate) fn solve_all(
        &mut self,
        fi: usize,
        goal: &'g BcBody,
        slots: &[usize],
    ) -> RtResult<(Vec<Option<Value>>, usize)> {
        let b = self.open();
        let (mut rows, mut n) = (Vec::new(), 0);
        let mut r = self.start(Step::Bc {
            fi,
            body: goal,
            pc: goal.entry,
        });
        while let Ok(true) = r {
            let f = &self.frames[fi].slots;
            rows.extend(slots.iter().map(|&s| f[s].clone()));
            n += 1;
            r = self.resume();
        }
        self.close(b, Close::Undo);
        r.map(|_| (rows, n))
    }

    /// Matches one `switch` case's patterns left to right against the
    /// scrutinee values in frame `fi` (tag-dispatch guard first, first
    /// solution per pattern only). A full match keeps its bindings.
    #[inline(never)]
    pub(crate) fn case_matches(
        &mut self,
        fi: usize,
        patterns: &'g [PExpr],
        guards: &[CaseGuard],
        values: &[Value],
    ) -> RtResult<bool> {
        let b = self.open();
        let mut r = Ok(true);
        for ((pat, guard), value) in patterns.iter().zip(guards).zip(values) {
            let index = match value {
                Value::Obj(o) => self.obj_index(o),
                _ => None,
            };
            if !guard.admits(index) {
                r = Ok(false);
                break;
            }
            self.cut(self.floor);
            r = self.start(Step::Match {
                fi,
                pat,
                value: value.clone(),
            });
            if !matches!(r, Ok(true)) {
                break;
            }
        }
        self.close(
            b,
            if matches!(r, Ok(true)) {
                Close::Pop
            } else {
                Close::Undo
            },
        );
        r
    }

    /// Whether the negated sub-chain at `inner` has a solution in frame
    /// `fi` (negation as failure); its bindings are undone.
    fn exists(&mut self, fi: usize, body: &'g BcBody, inner: Pc) -> RtResult<bool> {
        let step = Step::Bc {
            fi,
            body,
            pc: inner,
        };
        self.first_solution(step, Close::Undo)
    }

    /// Every solution row of `pid`'s matching plan against `value`: the
    /// parameter values, rows that leave a parameter unbound or violate
    /// its declared type skipped. A `Det` matching form stops after its
    /// first solution.
    pub(crate) fn deconstruct_rows(
        &mut self,
        value: &Value,
        pid: PlanId,
    ) -> RtResult<Vec<Vec<Value>>> {
        let plan = self.plan;
        let mp = plan.method(pid);
        let BodyPlan::Formula { matching, .. } = &mp.body else {
            return Err(RtError::mode_mismatch(
                &mp.info.qualified_name(),
                "backward (pattern-matching)",
            ));
        };
        let params = &mp.info.decl.params;
        let body = matching.code();
        let b = self.open();
        let slots = crate::eval::take_frame(matching.frame.len());
        let mut rows = Vec::new();
        let r = self.push_frame(slots, Some(value.clone())).and_then(|fi| {
            let mut found = self.start(Step::Bc {
                fi,
                body,
                pc: body.entry,
            })?;
            while found {
                let f = &self.frames[fi].slots;
                let row: Option<Vec<Value>> = matching
                    .param_slots
                    .iter()
                    .map(|&s| f[s as usize].clone())
                    .collect();
                // Apply the declared parameter types as patterns, like
                // matching `T name` against each solution value.
                if let Some(row) = row.filter(|row| self.row_admits(params, row)) {
                    rows.push(row);
                }
                if matching.det {
                    break;
                }
                found = self.resume()?;
            }
            Ok(())
        });
        self.close(b, Close::Pop);
        r.map(|()| rows)
    }

    fn row_admits(&self, params: &[jmatch_syntax::ast::Param], row: &[Value]) -> bool {
        params
            .iter()
            .zip(row)
            .all(|(p, v)| match (&p.ty, v.class()) {
                (Type::Named(t), Some(class)) => self.table.is_subtype(class, t),
                _ => true,
            })
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
    /// instructions (comparisons, tests, ground unifications, flat pattern
    /// bindings, boolean predicates, failed negations) continue inline at
    /// their compile-time `next` pc without touching the continuation
    /// stack; only operations that need a resumption boundary — branching
    /// pattern matches, constructor entries, run-time scheduled
    /// conjunctions — push a [`Step::Bc`] continuation.
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
                    self.choice(Alt::BcChoice {
                        fi,
                        body,
                        alts,
                        next: 1,
                    });
                    pc = alts[0];
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
                                    "equation with unknowns on both sides is not solvable: \
                                     {l:?} = {r:?}"
                                )));
                            }
                        },
                        m => *m,
                    };
                    let (src, pat) = match mode {
                        UnifyMode::EvalEval => {
                            let a = self.eval(fi, l)?;
                            let b = self.eval(fi, r)?;
                            if !self.values_equal(&a, &b)? {
                                self.fail();
                                return Ok(());
                            }
                            pc = *next;
                            continue;
                        }
                        UnifyMode::EvalMatch => (l, r),
                        UnifyMode::MatchEval => (r, l),
                        UnifyMode::Dynamic => unreachable!("dynamic mode resolved above"),
                    };
                    let v = self.eval(fi, src)?;
                    if !is_flat(pat) {
                        self.push(Step::Bc {
                            fi,
                            body,
                            pc: *next,
                        });
                        self.push(Step::Match { fi, pat, value: v });
                        return Ok(());
                    }
                    // A flat pattern binds inline; it is charged the two
                    // steps its match and resumption would have cost.
                    self.budget.step()?;
                    self.budget.step()?;
                    if !self.match_flat(fi, pat, v)? {
                        self.fail();
                        return Ok(());
                    }
                    pc = *next;
                }
                Instr::Compare { op, lhs, rhs, next } => {
                    let a = self.eval(fi, &body.exprs[*lhs as usize])?;
                    let b = self.eval(fi, &body.exprs[*rhs as usize])?;
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
                    let v = self.eval(fi, &body.exprs[*expr as usize])?;
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
                            self.eval(fi, r)?
                        }
                        None => self.frames[fi]
                            .this
                            .clone()
                            .ok_or_else(|| RtError::new("predicate call without a receiver"))?,
                    };
                    match &subject {
                        Value::Obj(o) => {
                            let name = &body.names[*name as usize];
                            let Some(pid) = self.resolve_dispatch(*dispatch, o, name) else {
                                return Err(RtError::method_not_found(o.class(), name));
                            };
                            let args = body.args(*args_start, *args_len);
                            self.push(Step::Bc {
                                fi,
                                body,
                                pc: *next,
                            });
                            return self.enter_constructor(fi, subject, pid, args);
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
    /// like the tree-walker does.
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
        let Some(chosen) = remaining
            .iter()
            .copied()
            .find(|&i| self.check_ready(fi, &items[i].0))
        else {
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

    /// Matches a flat pattern — `_`, a declaration, a name or `result`,
    /// none of which branch — against `value` in place: `Ok(false)` on a
    /// mismatch.
    fn match_flat(&mut self, fi: usize, pat: &PExpr, value: Value) -> RtResult<bool> {
        match pat {
            PExpr::Wildcard => Ok(true),
            PExpr::Decl(ty, slot, check) => {
                if !self.class_admits(ty, check, &value) {
                    return Ok(false);
                }
                if let Some(s) = slot {
                    self.bind(fi, *s, value);
                }
                Ok(true)
            }
            PExpr::Name { slot, .. } | PExpr::Result(slot) => {
                match &self.frames[fi].slots[*slot as usize] {
                    Some(bound) => {
                        let bound = bound.clone();
                        self.values_equal(&bound, &value)
                    }
                    None => {
                        self.bind(fi, *slot, value);
                        Ok(true)
                    }
                }
            }
            _ => unreachable!("not a flat pattern"),
        }
    }

    fn exec_match(&mut self, fi: usize, pat: &'g PExpr, value: Value) -> RtResult<()> {
        if is_flat(pat) {
            if !self.match_flat(fi, pat, value)? {
                self.fail();
            }
            return Ok(());
        }
        match pat {
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
                self.choice(Alt::OrPat {
                    fi,
                    pat: b,
                    value: value.clone(),
                });
                self.push(Step::Match { fi, pat: a, value });
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
                                return match self.convert_via_equals(&cr.name, &value)? {
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
                        // Dynamic: the value's own class (trivially a
                        // subtype of itself, so no conversion applies).
                        let pid = match &value {
                            Value::Obj(o) => self.resolve_dispatch_or_ctor(*dispatch, o, name),
                            _ => None,
                        };
                        let Some(pid) = pid else {
                            return Err(RtError::method_not_found(
                                value.class().unwrap_or_default(),
                                name,
                            ));
                        };
                        self.enter_constructor(fi, value, pid, args)
                    }
                }
            }
            PExpr::Binary(..) | PExpr::Neg(_) => {
                let Some(target) = value.as_int() else {
                    self.fail();
                    return Ok(());
                };
                match self.invert(fi, pat, target)? {
                    Inverse::Holds(true) => {}
                    Inverse::Holds(false) => self.fail(),
                    Inverse::Match(pat, v) => self.push(Step::Match {
                        fi,
                        pat,
                        value: Value::Int(v),
                    }),
                }
                Ok(())
            }
            other => {
                let v = self.eval(fi, other)?;
                if !self.values_equal(&v, &value)? {
                    self.fail();
                }
                Ok(())
            }
        }
    }

    /// Inverts integer arithmetic against `target`: a ground pattern
    /// compares, and a pattern with exactly one non-ground side yields that
    /// side and the value it must match.
    fn invert(&mut self, fi: usize, pat: &'g PExpr, target: i64) -> RtResult<Inverse<'g>> {
        let (op, a, b) = match pat {
            PExpr::Neg(a) => return Ok(Inverse::Match(a, -target)),
            PExpr::Binary(op, a, b) => (op, a, b),
            _ => unreachable!("not an arithmetic pattern"),
        };
        let int =
            |m: &mut Self, e: &PExpr| -> RtResult<i64> { Ok(m.eval(fi, e)?.as_int().unwrap_or(0)) };
        Ok(match (op, self.ground(fi, a), self.ground(fi, b)) {
            (_, true, true) => {
                let v = self.eval(fi, pat)?;
                Inverse::Holds(self.values_equal(&v, &Value::Int(target))?)
            }
            (BinOp::Add, true, false) => Inverse::Match(b, target - int(self, a)?),
            (BinOp::Add, false, true) => Inverse::Match(a, target - int(self, b)?),
            (BinOp::Sub, false, true) => Inverse::Match(a, target + int(self, b)?),
            (BinOp::Sub, true, false) => Inverse::Match(b, int(self, a)? - target),
            _ => {
                return Err(RtError::new(
                    "cannot invert this arithmetic pattern at run time",
                ))
            }
        })
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
        let callee = self.push_frame(crate::eval::take_frame(matching.frame.len()), Some(value))?;
        // Determinism commit (`jmatch_core::analysis`): a `Det` matching
        // form yields at most one solution and cannot err, so once its
        // single solution reaches the row boundary every choice point it
        // created is provably barren. Capture the choice-stack height now;
        // `exec_collect` truncates back to it.
        let commit = matching.det.then_some(self.choices.len());
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
    /// pattern, left to right; unbound parameters, failed patterns and
    /// errors raised inside a pattern skip the row).
    fn exec_collect(
        &mut self,
        caller: usize,
        callee: usize,
        param_slots: &[SlotId],
        args: &'g [PExpr],
        commit: Option<usize>,
    ) -> RtResult<()> {
        if let Some(mark) = commit {
            // The callee's matching form is `Det`: this is its only
            // solution, so its leftover choice points (everything above the
            // entry mark) are barren — drop them. Trail entries above the
            // dropped marks simply become permanent bindings, which is
            // exactly what committing means.
            self.cut(mark);
        }
        let slots = &self.frames[callee].slots;
        if param_slots.iter().any(|&s| slots[s as usize].is_none()) {
            self.fail();
            return Ok(());
        }
        for (pat, &s) in args.iter().zip(param_slots) {
            let v = self.frames[callee].slots[s as usize].clone();
            if !self.match_arg(caller, pat, v.expect("checked above")) {
                self.fail();
                return Ok(());
            }
        }
        Ok(())
    }

    /// Matches one constructor-argument pattern in frame `fi` and commits
    /// its first solution: flat patterns in place, every other pattern as a
    /// nested run. Argument patterns are matched without `this` in scope,
    /// like the tree-walker; an error inside the pattern reads as a
    /// mismatch.
    fn match_arg(&mut self, fi: usize, pat: &'g PExpr, value: Value) -> bool {
        if is_flat(pat) {
            return self.match_flat(fi, pat, value).unwrap_or(false);
        }
        let this = self.frames[fi].this.take();
        let found = self.first_solution(Step::Match { fi, pat, value }, Close::Commit);
        self.frames[fi].this = this;
        matches!(found, Ok(true))
    }
}

/// What inverting an arithmetic pattern leaves to do.
enum Inverse<'g> {
    /// The pattern was ground: whether it equals the target.
    Holds(bool),
    /// Match this sub-pattern against this value.
    Match(&'g PExpr, i64),
}

/// Whether a pattern binds or compares without branching or recursing:
/// such patterns match inline instead of through a [`Step::Match`].
fn is_flat(pat: &PExpr) -> bool {
    matches!(
        pat,
        PExpr::Wildcard | PExpr::Decl(..) | PExpr::Name { .. } | PExpr::Result(_)
    )
}

/// Frees a continuation chain iteratively: `Cont` is a linked list whose
/// derived drop would recurse once per uniquely-owned node, overflowing
/// the native stack when a deep enumeration (raised `Limits::max_depth`)
/// is abandoned mid-run. Stops at the first node another chain still
/// shares; that chain continues the unlinking when it goes.
fn unlink(mut cur: ContRef<'_>) {
    while let Some(rc) = cur {
        match Rc::try_unwrap(rc) {
            Ok(mut node) => cur = node.next.take(),
            Err(_) => break,
        }
    }
}

impl Drop for Machine<'_> {
    fn drop(&mut self) {
        unlink(self.cont.take());
        self.cut(0);
    }
}
