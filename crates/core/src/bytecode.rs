//! Flat register bytecode compiled from the [`lower`](crate::lower) plan IR
//! — the one form the plan engines execute.
//!
//! The fourth materialization pass of
//! [`ProgramPlan::compile`](crate::lower::ProgramPlan::compile) lowers the
//! boxed [`Goal`]/[`StmtPlan`] trees into two dense instruction streams:
//!
//! - **[`BcBody`]** — threaded code for one goal: a mode-specialized
//!   solved form, a `where` refinement ([`GoalPlan`](crate::lower::GoalPlan)),
//!   or a statement goal. Every instruction carries the *pc of its
//!   continuation* explicitly (`next`), so conjunction is a fall-through
//!   field instead of a `Seq` vector walk, and disjunction is a
//!   [`Instr::Choice`] whose alternatives are entry pcs. The stream is
//!   compiled right-to-left: `emit(goal, next)` appends the instructions
//!   of `goal` and returns its entry pc, so no jump patching is ever needed
//!   and pc `0` is always the shared [`Instr::Emit`] solution boundary.
//!   Negation and run-time scheduled conjunctions are in-stream sub-chains
//!   that also end at pc `0`: the executor runs a sub-chain under its own
//!   continuation (a nested run of the runtime's machine).
//! - **[`BcBlock`]** — register code for one imperative body, every
//!   statement included. Expression temporaries live in a flat register
//!   file indexed by [`Reg`] instead of re-walking `PExpr` trees; `switch`
//!   lowers to a [`SwitchTable`] jump table over the [`CaseGuard`]
//!   class tags (one array load selects the candidate arms for a
//!   scrutinee's type index); comparison-headed `while` loops become a
//!   `CmpJump`/`LoopJump` pair. Statement goals live in the block's goal
//!   pool, and the bodies of structured statements are sub-chains.
//!
//! # Register model
//!
//! Registers are per-*statement* expression temporaries: allocation is a
//! monotonic counter reset at every statement boundary, and `nregs` is the
//! high-water mark, so one `Vec<Value>` of that size (recycled from a pool
//! by the executor) serves the whole block. Variables still live in the
//! frame's slots — `LoadSlot`/`StoreSlot` bridge the two — because slots
//! are the unit the trail, the machine's choice points, and the embedding
//! API all address.
//!
//! # Choice-point and trail offsets
//!
//! The compiler resolves everything a choice point needs *at compile time*:
//! a [`Instr::Choice`]'s alternatives are instruction addresses, so the
//! machine saves `(pc, alternative index)` instead of a boxed continuation
//! chain. Two invariants are load bearing:
//!
//! 1. **Choice arity follows the source disjunctions exactly.** `Any([])`
//!    compiles to `Fail`, `Any([g])` inlines `g` with *no* choice
//!    instruction (the machine creates no choice point for single
//!    branches), and `Any(n ≥ 2)` compiles to one `Choice` with exactly `n`
//!    alternatives in source order. So the machine's choice-point counters
//!    are a property of the source program, not of the compiler, and the
//!    pins on them hold: `tests/laziness.rs` pins 0 live choice points
//!    after the determinism commit on its 200-deep chain (199 without the
//!    commit) with 200 created, and perfbench's `query_exec` reports
//!    `exec.choice_points_created` 2,940.
//! 2. **Trail discipline is uniform.** The bytecode binds frame slots
//!    through the machine's trail; an alternative's `trail_mark` /
//!    `frames_mark` rollback needs no bytecode-specific state beyond the
//!    saved pc.
//!
//! # Unify modes
//!
//! A tree walk decides the direction of every equation at run time with
//! two [`ground`]-tree walks. The bytecode compiler runs a must-bound
//! dataflow analysis over the goal (seeded with the mode's bound parameter
//! slots) and bakes the direction into the instruction as a [`UnifyMode`]
//! when it is statically forced; only equations whose direction genuinely
//! depends on run-time values keep the dynamic check. The analysis is
//! sound, not complete: `must ⊆ bound ⊆ may` always holds, and anything
//! unprovable degrades to [`UnifyMode::Dynamic`]. Sub-chains stay sound on
//! the same terms — a negated chain starts from the facts at its position,
//! every run-time scheduled item starts from the outer must-set with every
//! item's binders added to its may-set, and a `where` or statement goal,
//! whose entry bindings are unknown, starts with nothing must-bound and
//! everything may-bound.
//!
//! [`ground`]: crate::lower::PExpr

use crate::intern::Sym;
use crate::lower::{
    BlockPlan, BodyPlan, CallKind, CaseGuard, CasePlan, CaseTarget, ClassCheck, DispatchId,
    DispatchTable, Goal, MethodPlan, PExpr, PlanId, ReadyCheck, SlotId, SolvedForm, StmtPlan,
};
use crate::table::ClassLayout;
use jmatch_syntax::ast::{BinOp, CmpOp};
use std::collections::HashSet;
use std::fmt;

/// An instruction address in a [`BcBody`] / [`BcBlock`] stream.
pub type Pc = u32;
/// Index into a stream's [`PExpr`] pool.
pub type ExprId = u32;
/// A register in a [`BcBlock`]'s register file.
pub type Reg = u16;

/// The statically decided direction of one equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnifyMode {
    /// Both sides are provably ground: evaluate both, compare.
    EvalEval,
    /// Left provably ground, right provably not: evaluate left, match right.
    EvalMatch,
    /// Right provably ground, left provably not: evaluate right, match left.
    MatchEval,
    /// Direction depends on run-time bindings: check `ground` like the
    /// tree walker.
    Dynamic,
}

/// One threaded-code instruction of a solved form's [`BcBody`].
///
/// `next` fields are continuation pcs; pc `0` is always [`Instr::Emit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Solution boundary: the current bindings are a solution of the form.
    Emit,
    /// Dead end: no solution on this path.
    Fail,
    /// Disjunction: try each alternative entry pc in order. Always ≥ 2
    /// alternatives — smaller disjunctions never produce a `Choice`.
    Choice(Box<[Pc]>),
    /// An equation with its direction resolved at compile time where
    /// possible.
    Unify {
        /// Left-hand side (pool index).
        lhs: ExprId,
        /// Right-hand side (pool index).
        rhs: ExprId,
        /// Statically decided direction.
        mode: UnifyMode,
        /// Continuation.
        next: Pc,
    },
    /// An ordering comparison over ground operands.
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand (pool index).
        lhs: ExprId,
        /// Right operand (pool index).
        rhs: ExprId,
        /// Continuation.
        next: Pc,
    },
    /// A constructor-match / predicate atom: solve the callee's matching
    /// form against the receiver, match each solution row against the
    /// argument patterns.
    Invoke {
        /// Ground receiver (pool index); `None` means `this`.
        receiver: Option<ExprId>,
        /// Callee name (name-pool index).
        name: u32,
        /// First argument pattern (pool index; patterns are contiguous).
        args_start: ExprId,
        /// Number of argument patterns.
        args_len: u32,
        /// Dispatch table for the name.
        dispatch: Option<DispatchId>,
        /// Continuation.
        next: Pc,
    },
    /// A ground boolean test.
    Test {
        /// The tested expression (pool index).
        expr: ExprId,
        /// Continuation.
        next: Pc,
    },
    /// Negation as failure: continue at `next` iff the sub-chain at
    /// `inner` (ending at the pc-0 [`Instr::Emit`]) has no solution. The
    /// sub-chain's bindings are undone either way.
    Not {
        /// Entry pc of the negated sub-chain.
        inner: Pc,
        /// Continuation.
        next: Pc,
    },
    /// A conjunction scheduled at run time: repeatedly run the first item
    /// whose [`ReadyCheck`] holds on the current bindings, each item a
    /// sub-chain ending at the pc-0 [`Instr::Emit`], then continue at
    /// `next` once every item has run.
    DynSeq {
        /// Readiness test and sub-chain entry pc of each conjunct, in
        /// source order.
        items: Box<[(ReadyCheck, Pc)]>,
        /// Continuation.
        next: Pc,
    },
}

/// Threaded bytecode for one goal: a mode-specialized solved form, a
/// `where` refinement, or a statement goal.
#[derive(Debug, Clone, PartialEq)]
pub struct BcBody {
    /// Entry pc of the goal.
    pub entry: Pc,
    /// The instruction stream; `instrs[0]` is [`Instr::Emit`].
    pub instrs: Vec<Instr>,
    /// Leaf expression pool (instructions hold [`ExprId`]s into it).
    pub exprs: Vec<PExpr>,
    /// Invoked-name pool.
    pub names: Vec<String>,
    /// Whether a solution can leave any frame slot bound. A body that binds
    /// nothing — comparisons, tests, negations — can commit its first
    /// solution without snapshotting the frame.
    pub binds: bool,
}

impl BcBody {
    /// The argument-pattern slice of an [`Instr::Invoke`].
    #[inline]
    pub fn args(&self, start: ExprId, len: u32) -> &[PExpr] {
        &self.exprs[start as usize..(start + len) as usize]
    }
}

// ---------------------------------------------------------------------------
// Must-bound analysis (pass A: execution order)
// ---------------------------------------------------------------------------

/// Slots certainly bound after a successful match of `pat`. `OrPat` takes
/// the branch intersection (only the matching branch's binders are
/// guaranteed), invertible `Binary` likewise (exactly one side matches).
fn binders(pat: &PExpr, out: &mut HashSet<SlotId>) {
    match pat {
        PExpr::Name { slot, .. } => {
            out.insert(*slot);
        }
        PExpr::Result(s) => {
            out.insert(*s);
        }
        PExpr::Decl(_, Some(s), _) => {
            out.insert(*s);
        }
        PExpr::As(a, b) => {
            binders(a, out);
            binders(b, out);
        }
        PExpr::OrPat(a, b) | PExpr::Binary(_, a, b) => {
            let mut ba = HashSet::new();
            let mut bb = HashSet::new();
            binders(a, &mut ba);
            binders(b, &mut bb);
            out.extend(ba.intersection(&bb));
        }
        PExpr::Where(p, _) => binders(p, out),
        PExpr::Call { args, .. } => {
            for a in args {
                binders(a, out);
            }
        }
        PExpr::Neg(a) => binders(a, out),
        PExpr::Tuple(xs) => {
            for x in xs {
                binders(x, out);
            }
        }
        _ => {}
    }
}

/// Conservative "provably ground here": `true` only when the run-time
/// [`ground`](crate::lower) walk is guaranteed to say `true`. The
/// field-of-`this` fallback is deliberately excluded — it depends on the
/// receiver's run-time class — so equations relying on it stay `Dynamic`.
fn must_ground(e: &PExpr, must: &HashSet<SlotId>, this_must: bool) -> bool {
    match e {
        PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
        PExpr::This => this_must,
        PExpr::Result(s) => must.contains(s),
        PExpr::Name {
            slot, class_ref, ..
        } => must.contains(slot) || *class_ref,
        PExpr::Field(b, _, _) => must_ground(b, must, this_must),
        PExpr::Call { receiver, args, .. } => {
            receiver
                .as_deref()
                .map(|r| must_ground(r, must, this_must))
                .unwrap_or(true)
                && args.iter().all(|a| must_ground(a, must, this_must))
        }
        PExpr::Index(a, b) | PExpr::Binary(_, a, b) => {
            must_ground(a, must, this_must) && must_ground(b, must, this_must)
        }
        PExpr::NewArray(_, a) | PExpr::Neg(a) => must_ground(a, must, this_must),
        PExpr::Tuple(xs) => xs.iter().all(|x| must_ground(x, must, this_must)),
        PExpr::Wildcard | PExpr::Decl(..) | PExpr::As(..) | PExpr::OrPat(..) | PExpr::Where(..) => {
            false
        }
    }
}

/// Slots a successful match of `pat` *might* bind — the union closure of
/// [`binders`], including `where`-goal bindings, used to maintain the
/// may-bound superset.
fn may_binders(pat: &PExpr, out: &mut HashSet<SlotId>) {
    match pat {
        PExpr::Name { slot, .. } => {
            out.insert(*slot);
        }
        PExpr::Result(s) => {
            out.insert(*s);
        }
        PExpr::Decl(_, Some(s), _) => {
            out.insert(*s);
        }
        PExpr::As(a, b) | PExpr::OrPat(a, b) | PExpr::Binary(_, a, b) => {
            may_binders(a, out);
            may_binders(b, out);
        }
        PExpr::Where(p, g) => {
            may_binders(p, out);
            goal_may(&g.goal, out);
        }
        PExpr::Call { args, .. } => {
            for a in args {
                may_binders(a, out);
            }
        }
        PExpr::Neg(a) => may_binders(a, out),
        PExpr::Tuple(xs) => {
            for x in xs {
                may_binders(x, out);
            }
        }
        _ => {}
    }
}

/// Slots a goal might leave bound on success (`Not` restores its inner
/// bindings, so it contributes nothing).
fn goal_may(goal: &Goal, out: &mut HashSet<SlotId>) {
    match goal {
        Goal::True | Goal::Trivial | Goal::Fail | Goal::Test(_) | Goal::Compare(..) => {}
        Goal::Not(_) => {}
        Goal::Seq(gs) | Goal::Any(gs) => {
            for g in gs {
                goal_may(g, out);
            }
        }
        Goal::DynSeq(items) => {
            for (_, g) in items {
                goal_may(g, out);
            }
        }
        Goal::Unify(l, r) => {
            may_binders(l, out);
            may_binders(r, out);
        }
        Goal::Invoke { args, .. } => {
            for a in args {
                may_binders(a, out);
            }
        }
    }
}

/// What is known about `this` where a goal runs: `must` when it is
/// certainly in scope, `may` when it possibly is. A solved form knows
/// exactly; a `where` or statement goal does not (argument patterns are
/// matched without `this`), so it assumes the weakest facts.
#[derive(Clone, Copy)]
struct ThisScope {
    must: bool,
    may: bool,
}

/// Conservative "provably never ground": `true` only when the run-time walk
/// is guaranteed to say `false` — a `_`/declaration in a conjunctive
/// position, or a variable no earlier goal can possibly have bound whose
/// field-of-`this` fallback is statically dead (`this` absent, or the name
/// is no declared field anywhere).
fn never_ground(e: &PExpr, may: &HashSet<SlotId>, this_may: bool) -> bool {
    match e {
        PExpr::Wildcard | PExpr::Decl(..) => true,
        PExpr::This => !this_may,
        PExpr::Name {
            slot,
            field_sym,
            class_ref,
            ..
        } => !*class_ref && !may.contains(slot) && (!this_may || field_sym.is_none()),
        PExpr::Result(s) => !may.contains(s),
        PExpr::Field(b, _, _) => never_ground(b, may, this_may),
        PExpr::Call { receiver, args, .. } => {
            receiver
                .as_deref()
                .is_some_and(|r| never_ground(r, may, this_may))
                || args.iter().any(|a| never_ground(a, may, this_may))
        }
        PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::As(a, b) | PExpr::OrPat(a, b) => {
            never_ground(a, may, this_may) || never_ground(b, may, this_may)
        }
        PExpr::NewArray(_, a) | PExpr::Neg(a) => never_ground(a, may, this_may),
        PExpr::Tuple(xs) => xs.iter().any(|x| never_ground(x, may, this_may)),
        PExpr::Where(p, _) => never_ground(p, may, this_may),
        _ => false,
    }
}

/// Pass A: walk the goal in execution order, threading the must-bound set
/// (`must ⊆ bound`) and the may-bound set (`bound ⊆ may`), recording one
/// [`UnifyMode`] per `Unify` leaf in visit order. The right-to-left
/// emission pass pops the modes from the back — the two traversals are
/// exact mirrors, so the orders line up.
fn analyze(
    goal: &Goal,
    must: &mut HashSet<SlotId>,
    may: &mut HashSet<SlotId>,
    this: ThisScope,
    modes: &mut Vec<UnifyMode>,
) {
    match goal {
        Goal::True | Goal::Trivial | Goal::Fail | Goal::Test(_) | Goal::Compare(..) => {}
        // The inner chain runs at this point and its bindings are undone
        // afterwards: analyze it on copies.
        Goal::Not(inner) => analyze(inner, &mut must.clone(), &mut may.clone(), this, modes),
        // The items run in a run-time order: each starts from the outer
        // must-set (whatever ran before it only adds bindings) and sees
        // every item's possible bindings in its may-set. Afterwards no
        // binding is claimed as certain.
        Goal::DynSeq(items) => {
            goal_may(goal, may);
            for (_, g) in items {
                analyze(g, &mut must.clone(), &mut may.clone(), this, modes);
            }
        }
        Goal::Seq(gs) => {
            for g in gs {
                analyze(g, must, may, this, modes);
            }
        }
        Goal::Any(gs) => {
            let entry_must = must.clone();
            let entry_may = may.clone();
            let mut exit: Option<HashSet<SlotId>> = None;
            for g in gs {
                let mut bmust = entry_must.clone();
                let mut bmay = entry_may.clone();
                analyze(g, &mut bmust, &mut bmay, this, modes);
                may.extend(bmay);
                exit = Some(match exit {
                    None => bmust,
                    Some(prev) => prev.intersection(&bmust).copied().collect(),
                });
            }
            if let Some(exit) = exit {
                *must = exit;
            }
        }
        Goal::Unify(l, r) => {
            let lg = must_ground(l, must, this.must);
            let rg = must_ground(r, must, this.must);
            let mode = if lg && rg {
                UnifyMode::EvalEval
            } else if lg && never_ground(r, may, this.may) {
                UnifyMode::EvalMatch
            } else if rg && never_ground(l, may, this.may) {
                UnifyMode::MatchEval
            } else {
                UnifyMode::Dynamic
            };
            match mode {
                UnifyMode::EvalMatch => binders(r, must),
                UnifyMode::MatchEval => binders(l, must),
                _ => {}
            }
            may_binders(l, may);
            may_binders(r, may);
            modes.push(mode);
        }
        Goal::Invoke { args, .. } => {
            // Every argument pattern is matched on success, so its binders
            // are certainly bound afterwards.
            for a in args {
                binders(a, must);
                may_binders(a, may);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Goal-body compiler (pass B: right-to-left emission)
// ---------------------------------------------------------------------------

struct BodyCompiler {
    instrs: Vec<Instr>,
    exprs: Vec<PExpr>,
    names: Vec<String>,
    /// Modes from pass A, popped from the back.
    modes: Vec<UnifyMode>,
}

impl BodyCompiler {
    fn push(&mut self, i: Instr) -> Pc {
        let pc = self.instrs.len() as Pc;
        self.instrs.push(i);
        pc
    }

    fn expr(&mut self, e: &PExpr) -> ExprId {
        let id = self.exprs.len() as ExprId;
        self.exprs.push(e.clone());
        id
    }

    fn name(&mut self, n: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|x| x == n) {
            return i as u32;
        }
        let id = self.names.len() as u32;
        self.names.push(n.to_owned());
        id
    }

    /// Appends the instructions of `g`, continuing at `next`, and returns
    /// the entry pc. Conjunctions are emitted right-to-left so every
    /// continuation pc already exists when its predecessor is written.
    fn emit(&mut self, g: &Goal, next: Pc) -> Pc {
        match g {
            Goal::True | Goal::Trivial => next,
            Goal::Fail => self.push(Instr::Fail),
            Goal::Seq(gs) => {
                let mut pc = next;
                for g in gs.iter().rev() {
                    pc = self.emit(g, pc);
                }
                pc
            }
            // Choice arity must mirror the machine's choice-point arity
            // exactly (see the module docs): 0 ⇒ Fail, 1 ⇒ inline, else
            // one Choice with one alternative per branch, in source order.
            Goal::Any(gs) => match gs.len() {
                0 => self.push(Instr::Fail),
                1 => self.emit(&gs[0], next),
                _ => {
                    let mut alts: Vec<Pc> = gs.iter().rev().map(|g| self.emit(g, next)).collect();
                    alts.reverse();
                    self.push(Instr::Choice(alts.into()))
                }
            },
            Goal::Unify(l, r) => {
                let mode = self.modes.pop().expect("unify mode analysis out of sync");
                let lhs = self.expr(l);
                let rhs = self.expr(r);
                self.push(Instr::Unify {
                    lhs,
                    rhs,
                    mode,
                    next,
                })
            }
            Goal::Compare(op, l, r) => {
                let lhs = self.expr(l);
                let rhs = self.expr(r);
                self.push(Instr::Compare {
                    op: *op,
                    lhs,
                    rhs,
                    next,
                })
            }
            Goal::Test(e) => {
                let expr = self.expr(e);
                self.push(Instr::Test { expr, next })
            }
            // Sub-chains end at the shared pc-0 `Emit`; the executor runs
            // them under their own continuation.
            Goal::Not(g) => {
                let inner = self.emit(g, 0);
                self.push(Instr::Not { inner, next })
            }
            Goal::DynSeq(items) => {
                let mut entries: Vec<(ReadyCheck, Pc)> = items
                    .iter()
                    .rev()
                    .map(|(check, g)| (check.clone(), self.emit(g, 0)))
                    .collect();
                entries.reverse();
                self.push(Instr::DynSeq {
                    items: entries.into(),
                    next,
                })
            }
            Goal::Invoke {
                receiver,
                name,
                args,
                dispatch,
            } => {
                let receiver = receiver.as_ref().map(|r| self.expr(r));
                let args_start = self.exprs.len() as ExprId;
                for a in args {
                    self.exprs.push(a.clone());
                }
                let name = self.name(name);
                self.push(Instr::Invoke {
                    receiver,
                    name,
                    args_start,
                    args_len: args.len() as u32,
                    dispatch: *dispatch,
                    next,
                })
            }
        }
    }
}

/// Compiles one goal under the given entry facts.
fn compile(
    goal: &Goal,
    mut must: HashSet<SlotId>,
    mut may: HashSet<SlotId>,
    this: ThisScope,
) -> BcBody {
    let mut modes = Vec::new();
    analyze(goal, &mut must, &mut may, this, &mut modes);
    let mut c = BodyCompiler {
        instrs: Vec::new(),
        exprs: Vec::new(),
        names: Vec::new(),
        modes,
    };
    c.push(Instr::Emit);
    let entry = c.emit(goal, 0);
    debug_assert!(c.modes.is_empty(), "unify modes left over after emission");
    let mut bound = HashSet::new();
    goal_may(goal, &mut bound);
    BcBody {
        entry,
        instrs: c.instrs,
        exprs: c.exprs,
        names: c.names,
        binds: !bound.is_empty(),
    }
}

/// Compiles one solved form's goal to threaded bytecode. `entry_must` are
/// the slots the mode seeds as bound (parameters for the forward mode, the
/// first parameter for `equals_bound`, the caller-bound names for a
/// standalone form, nothing for the matching mode).
pub fn compile_body(form: &SolvedForm, entry_must: &[SlotId]) -> BcBody {
    let must: HashSet<SlotId> = entry_must.iter().copied().collect();
    let this = ThisScope {
        must: form.this_present,
        may: form.this_present,
    };
    compile(&form.goal, must.clone(), must, this)
}

// ---------------------------------------------------------------------------
// Goal positions outside a solved form's stream
// ---------------------------------------------------------------------------

/// Compiles a `where` or statement goal running in a frame of `nslots`
/// slots, with the `where` goals inside it compiled on a copy. Nothing is
/// known about the frame on entry, so every slot may be bound, none must
/// be, and `this` may or may not be in scope: directions the analysis
/// cannot prove stay [`UnifyMode::Dynamic`].
fn compile_goal(goal: &Goal, nslots: usize) -> BcBody {
    let mut goal = goal.clone();
    goal_wheres(&mut goal, nslots);
    let may = (0..nslots as SlotId).collect();
    let this = ThisScope {
        must: false,
        may: true,
    };
    compile(&goal, HashSet::new(), may, this)
}

/// Compiles every `where` goal inside `e`, innermost first.
fn expr_wheres(e: &mut PExpr, nslots: usize) {
    match e {
        PExpr::Where(p, g) => {
            expr_wheres(p, nslots);
            g.bc = Some(compile_goal(&g.goal, nslots));
        }
        PExpr::Field(a, _, _) | PExpr::NewArray(_, a) | PExpr::Neg(a) => expr_wheres(a, nslots),
        PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::As(a, b) | PExpr::OrPat(a, b) => {
            expr_wheres(a, nslots);
            expr_wheres(b, nslots);
        }
        PExpr::Call { receiver, args, .. } => {
            for e in receiver.iter_mut().map(|r| &mut **r).chain(args) {
                expr_wheres(e, nslots);
            }
        }
        PExpr::Tuple(xs) => xs.iter_mut().for_each(|x| expr_wheres(x, nslots)),
        _ => {}
    }
}

/// Compiles every `where` goal inside a goal's expressions. Readiness
/// checks only test groundness and never run a `where`, so they are left
/// alone.
fn goal_wheres(g: &mut Goal, nslots: usize) {
    match g {
        Goal::Seq(gs) | Goal::Any(gs) => gs.iter_mut().for_each(|g| goal_wheres(g, nslots)),
        Goal::DynSeq(items) => items.iter_mut().for_each(|(_, g)| goal_wheres(g, nslots)),
        Goal::Not(g) => goal_wheres(g, nslots),
        Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
            expr_wheres(a, nslots);
            expr_wheres(b, nslots);
        }
        Goal::Invoke { receiver, args, .. } => {
            for e in receiver.iter_mut().chain(args) {
                expr_wheres(e, nslots);
            }
        }
        Goal::Test(e) => expr_wheres(e, nslots),
        Goal::True | Goal::Fail | Goal::Trivial => {}
    }
}

/// Compiles the `where` goals of a solved form's goal in place, so the
/// form's own stream (compiled next) pools expressions that carry them.
pub(crate) fn compile_form_goals(form: &mut SolvedForm) {
    goal_wheres(&mut form.goal, form.frame.len());
}

/// The first step of pass 4 for one body: every `where` goal of a solved
/// form gets its own compiled [`BcBody`], in place. A block compiles its
/// goals on its own copies ([`compile_block`]).
pub(crate) fn compile_goal_positions(body: &mut BodyPlan) {
    if let BodyPlan::Formula {
        forward,
        matching,
        equals_bound,
    } = body
    {
        [forward, matching]
            .into_iter()
            .chain(equals_bound)
            .for_each(compile_form_goals);
    }
}

// ---------------------------------------------------------------------------
// Block (register) bytecode
// ---------------------------------------------------------------------------

/// A constant in a [`BcBlock`]'s pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// `null`.
    Null,
}

/// The jump table of one lowered `switch`: candidate case indices (in
/// source order) per type index of the first scrutinee, plus the
/// candidates for every other scrutinee. Selecting the arms that can
/// possibly match is one array load instead of a linear guard scan.
#[derive(Debug, Clone)]
pub struct SwitchTable {
    /// Candidate case indices for objects, by dense type index (empty when
    /// no case tests the first scrutinee's class).
    pub by_type: Vec<Box<[u16]>>,
    /// Candidate case indices for every other scrutinee: all cases.
    pub other: Box<[u16]>,
    /// The cases, in source order.
    pub cases: Vec<BcCase>,
    /// The sub-chain run, unscoped, when no case matches: the `default`
    /// body or a [`SInstr::Fail`].
    pub default: Pc,
}

/// One case of a [`SwitchTable`].
#[derive(Debug, Clone)]
pub struct BcCase {
    /// First of its patterns (one per scrutinee) in the expression pool.
    pub patterns: ExprId,
    /// One tag-dispatch guard per pattern, checked before its matcher runs.
    pub guards: Box<[CaseGuard]>,
    /// The sub-chain run in the case's scope once every pattern matched:
    /// its body, the `default` body, or a [`SInstr::Fail`] for a case that
    /// falls off the end.
    pub body: Pc,
}

/// The pc table of a *natively* compiled `switch` ([`SInstr::SwitchJump`]):
/// the compiled arm's code address per scrutinee type index. Used when
/// every arm is a single-class constructor pattern over a pure
/// field-projection constructor, so selecting *and running* an arm is an
/// array load plus straight-line register code — no pattern-matching
/// machinery at all.
#[derive(Debug, Clone)]
pub struct JumpTable {
    /// Arm entry pc by dense type index.
    pub by_type: Box<[Pc]>,
    /// Target for non-object / foreign-layout / unmatched scrutinees: the
    /// pc of the guarded [`SInstr::Switch`] fallback.
    pub other: Pc,
}

/// Cross-method context for block compilation: the lowered method table
/// and the materialized dispatch tables, so call sites and switch arms can
/// be specialized against the whole program (monomorphic getter inlining,
/// native field-projection switches).
///
/// Every plan consulted through the context is also *recorded*: the
/// accumulated [`BcCtx::take_deps`] set is what incremental recompilation
/// uses to re-emit the bytecode of methods whose specializations looked at
/// a body that has since changed.
pub struct BcCtx<'a> {
    /// Every lowered method, indexed by [`PlanId`].
    pub methods: &'a [std::sync::Arc<MethodPlan>],
    /// The materialized dispatch tables, indexed by [`DispatchId`].
    pub dispatch: &'a [DispatchTable],
    /// Plans consulted since the last [`BcCtx::take_deps`] drain.
    deps: std::cell::RefCell<Vec<PlanId>>,
}

impl<'a> BcCtx<'a> {
    /// A fresh compilation context with an empty dependency recorder.
    pub fn new(methods: &'a [std::sync::Arc<MethodPlan>], dispatch: &'a [DispatchTable]) -> Self {
        BcCtx {
            methods,
            dispatch,
            deps: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Records that the current method's bytecode consulted `pid`'s plan.
    fn record_dep(&self, pid: PlanId) {
        self.deps.borrow_mut().push(pid);
    }

    /// Drains the plans consulted since the last drain, sorted and
    /// deduplicated — one method's bytecode dependency edges when called
    /// between per-method compilations.
    pub fn take_deps(&self) -> Vec<PlanId> {
        let mut deps = std::mem::take(&mut *self.deps.borrow_mut());
        deps.sort_unstable();
        deps.dedup();
        deps
    }
}

/// One register instruction of a [`BcBlock`].
#[derive(Debug, Clone, PartialEq)]
pub enum SInstr {
    /// `dst ← consts[k]`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-pool index.
        k: u32,
    },
    /// `dst ← frame[slot]`, falling back to the field of `this` named
    /// `name` (the variable-occurrence superinstruction).
    LoadSlot {
        /// Destination register.
        dst: Reg,
        /// Frame slot.
        slot: SlotId,
        /// Name-pool index (error messages, field fallback).
        name: u32,
        /// Interned field name for the O(1) fallback.
        field_sym: Option<Sym>,
    },
    /// `dst ← this`.
    LoadThis {
        /// Destination register.
        dst: Reg,
    },
    /// `dst ← base.field` (field-read superinstruction).
    LoadField {
        /// Destination register.
        dst: Reg,
        /// Register holding the object.
        base: Reg,
        /// Interned field name.
        sym: Option<Sym>,
        /// Name-pool index (slow path + errors).
        name: u32,
    },
    /// `dst ← base.fields[idx]` — a direct layout-slot load. Emitted only
    /// behind a class guard ([`SInstr::ClassIs`] / [`SInstr::SwitchJump`])
    /// that proved `base` holds a native-layout object of the one class
    /// whose layout assigns the field this slot.
    LoadFieldIdx {
        /// Destination register.
        dst: Reg,
        /// Register holding the object (guarded).
        base: Reg,
        /// Field slot in the guarded class's layout.
        idx: u32,
    },
    /// `dst ← src`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst ← a op b` over integers.
    Bin {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: BinOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `dst ← -a`.
    Neg {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        a: Reg,
    },
    /// `dst ← eval(exprs[expr])` — fallback for expression shapes without
    /// a register lowering (kept for identical error behavior).
    EvalExpr {
        /// Destination register.
        dst: Reg,
        /// Expression-pool index.
        expr: ExprId,
    },
    /// `dst ← run_forward(pid, regs[base .. base+argc])` — statically
    /// resolved call (free methods, constructors).
    CallStatic {
        /// Destination register.
        dst: Reg,
        /// Callee plan.
        pid: u32,
        /// First argument register (arguments are contiguous).
        base: Reg,
        /// Argument count.
        argc: u16,
    },
    /// `dst ← regs[recv].name(regs[base ..])` — dynamic dispatch through
    /// the name's table.
    CallDyn {
        /// Destination register.
        dst: Reg,
        /// Receiver register.
        recv: Reg,
        /// Name-pool index.
        name: u32,
        /// Dispatch table.
        dispatch: Option<DispatchId>,
        /// First argument register.
        base: Reg,
        /// Argument count.
        argc: u16,
    },
    /// `dst ← this.name(regs[base ..])`.
    CallThis {
        /// Destination register.
        dst: Reg,
        /// Name-pool index.
        name: u32,
        /// Dispatch table.
        dispatch: Option<DispatchId>,
        /// First argument register.
        base: Reg,
        /// Argument count.
        argc: u16,
    },
    /// `frame[slot] ← src`.
    Store {
        /// Frame slot.
        slot: SlotId,
        /// Source register.
        src: Reg,
    },
    /// `return regs[src]`.
    Ret {
        /// Source register.
        src: Reg,
    },
    /// `return;` (void / null).
    RetNull,
    /// Unconditional forward jump.
    Jump {
        /// Target pc.
        target: Pc,
    },
    /// Resets a loop's iteration-guard counter on entry.
    ResetGuard {
        /// Guard counter index.
        guard: u16,
    },
    /// Backward jump closing a loop; bumps and checks the iteration guard.
    LoopJump {
        /// Loop head pc.
        target: Pc,
        /// Guard counter index.
        guard: u16,
    },
    /// `if !(a op b) jump if_false` — a `while` condition superinstruction
    /// (charges one budget step, like the solve it replaces).
    CmpJump {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Where to jump when the comparison does not hold.
        if_false: Pc,
    },
    /// `if regs[a] != true jump if_false` — a boolean `while` condition.
    TestJump {
        /// Tested register.
        a: Reg,
        /// Where to jump when the test does not hold.
        if_false: Pc,
    },
    /// `if class_index(regs[a]) != type_index jump if_false` — the guard in
    /// front of an inlined monomorphic call: receivers of the one
    /// implementing class run the inlined body, everything else takes the
    /// generic [`SInstr::CallDyn`] slow path (identical errors included).
    ClassIs {
        /// Receiver register.
        a: Reg,
        /// The sole type index the inlined body is valid for.
        type_index: u32,
        /// The generic call's pc.
        if_false: Pc,
    },
    /// Statement-specialization guard: loads `slot` and tests that it holds
    /// a native-layout object of `type_index`. On success `dst` holds the
    /// value and the specialized statement runs (direct slot loads,
    /// guard-free inlining); anything else — unbound, non-object, foreign
    /// or different class — jumps to the statement's generic compilation at
    /// `if_false`. Never errors and binds nothing on failure.
    GuardSlot {
        /// Destination register (the guarded value).
        dst: Reg,
        /// Frame slot of the receiver variable.
        slot: SlotId,
        /// The type index the specialized statement is valid for.
        type_index: u32,
        /// The generic statement's pc.
        if_false: Pc,
    },
    /// Native jump-table switch: `jumps[table]` maps the scrutinee's type
    /// index straight to the pc of its arm's compiled code (field
    /// projections + body). Non-objects, foreign-layout objects, and type
    /// indices without a native arm take `other`, which is always the
    /// guarded [`SInstr::Switch`] fallback, so observable semantics are
    /// identical to the case-matching machinery.
    SwitchJump {
        /// Scrutinee register.
        scrutinee: Reg,
        /// Jump-table index into [`BcBlock::jumps`].
        table: u32,
    },
    /// Commit the first solution of `goals[goal]` to the frame, or jump to
    /// `if_false`: a `let` (jumping to a [`SInstr::Fail`]) or a general
    /// `while` condition.
    Solve {
        /// Goal-pool index.
        goal: u32,
        /// Taken when the goal has no solution.
        if_false: Pc,
    },
    /// An if-then branch, a `cond` arm or a `{}` block: commit the goal's
    /// first solution (else jump to `if_false`), run the body sub-chain at
    /// the next pc as a scope, continue at `next`.
    Scope {
        /// Goal-pool index (`None` for a `{}` block).
        goal: Option<u32>,
        /// Taken when the goal has no solution.
        if_false: Pc,
        /// Continuation after the body.
        next: Pc,
    },
    /// `foreach`: collect every solution of `goals[goal]`, then run the body
    /// sub-chain at the next pc once per solution, as a scope entered with
    /// the solution's values of the slots unbound on entry.
    Foreach {
        /// Goal-pool index.
        goal: u32,
        /// Continuation after the last iteration.
        next: Pc,
    },
    /// Guarded switch: match the candidate cases of `switches[table]` in
    /// order (first solution per pattern) and run the first match's body
    /// as a scope entered with its bindings — or the `default`, unscoped.
    Switch {
        /// First scrutinee register (scrutinees are contiguous).
        scrutinees: Reg,
        /// Number of scrutinees.
        count: u16,
        /// Switch-table index.
        table: u32,
        /// Continuation after the switch.
        next: Pc,
    },
    /// A statement's run-time failure.
    Fail {
        /// The error message.
        msg: &'static str,
    },
    /// End of the block: normal fall-off.
    End,
}

/// Register bytecode for one imperative body, run from pc 0. The bodies of
/// structured statements are sub-chains of the stream, each ending in its
/// own [`SInstr::End`]; the executor re-enters the stream to run one, so
/// nested bodies share the register file.
///
/// **Scope rule.** The body of an if-then branch, a `cond` arm, a matched
/// `switch` case, each `foreach` iteration and a `{}` block is a *scope*:
/// on exit, every slot that was unbound on entry is unbound again, and
/// every update to a slot that was bound on entry persists. Else branches,
/// a `default` reached because no case matched, and `while` bodies are not
/// scopes.
#[derive(Debug, Clone)]
pub struct BcBlock {
    /// The instruction stream.
    pub code: Vec<SInstr>,
    /// Register-file size (high-water mark).
    pub nregs: u16,
    /// Number of loop-guard counters.
    pub nguards: u16,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Expression pool for [`SInstr::EvalExpr`] and switch patterns.
    pub exprs: Vec<PExpr>,
    /// Statement-goal pool.
    pub goals: Vec<BcBody>,
    /// Switch jump tables (guarded form).
    pub switches: Vec<SwitchTable>,
    /// Native switch pc tables ([`SInstr::SwitchJump`]).
    pub jumps: Vec<JumpTable>,
    /// Name pool.
    pub names: Vec<String>,
}

struct BlockCompiler<'a> {
    ctx: &'a BcCtx<'a>,
    /// Frame size, for compiling goals.
    nslots: usize,
    code: Vec<SInstr>,
    nregs: u16,
    next_reg: u16,
    nguards: u16,
    consts: Vec<Const>,
    exprs: Vec<PExpr>,
    goals: Vec<BcBody>,
    switches: Vec<SwitchTable>,
    jumps: Vec<JumpTable>,
    names: Vec<String>,
    /// `let` solves, patched to jump to the block's one `let` failure.
    let_fails: Vec<Pc>,
    /// Per-statement slot-read cache: registers already holding a frame
    /// slot's value, so repeated reads of the same variable inside one
    /// statement reuse the register instead of re-loading. Sound because
    /// registers are written once per statement, `eval` takes the frame
    /// immutably, and the only frame writer ([`SInstr::Store`]) evicts its
    /// slot.
    slot_regs: Vec<(SlotId, Reg)>,
    /// The active statement specialization, when compiling the fast branch
    /// behind a [`SInstr::GuardSlot`]: the guarded receiver slot, the type
    /// index the guard proved, and that class's layout. Field reads and
    /// monomorphic calls on the guarded slot compile to direct slot loads
    /// and guard-free inline code.
    spec: Option<(SlotId, u32, &'a ClassLayout)>,
}

/// One qualified arm of a natively compiled switch: the class it claims,
/// the `(layout slot, frame slot)` bindings of its pattern arguments
/// (`None` frame slot for wildcards), and its single-`return` body.
struct NativeArm<'p> {
    tix: usize,
    binds: Vec<(u32, Option<SlotId>)>,
    body: &'p [StmtPlan],
}

impl<'a> BlockCompiler<'a> {
    fn push(&mut self, i: SInstr) -> Pc {
        let pc = self.code.len() as Pc;
        self.code.push(i);
        pc
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        if self.next_reg > self.nregs {
            self.nregs = self.next_reg;
        }
        r
    }

    fn konst(&mut self, k: Const) -> u32 {
        if let Some(i) = self.consts.iter().position(|x| *x == k) {
            return i as u32;
        }
        let id = self.consts.len() as u32;
        self.consts.push(k);
        id
    }

    fn name(&mut self, n: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|x| x == n) {
            return i as u32;
        }
        let id = self.names.len() as u32;
        self.names.push(n.to_owned());
        id
    }

    /// Pools a copy of `e` with its `where` goals compiled.
    fn pool_expr(&mut self, e: &PExpr) -> ExprId {
        let id = self.exprs.len() as ExprId;
        let mut e = e.clone();
        expr_wheres(&mut e, self.nslots);
        self.exprs.push(e);
        id
    }

    fn pool_goal(&mut self, g: &Goal) -> u32 {
        let id = self.goals.len() as u32;
        self.goals.push(compile_goal(g, self.nslots));
        id
    }

    fn here(&self) -> Pc {
        self.code.len() as Pc
    }

    /// Points the forward jump of the instruction at `pc` to `target`.
    fn patch(&mut self, pc: Pc, target: Pc) {
        match &mut self.code[pc as usize] {
            SInstr::CmpJump { if_false, .. }
            | SInstr::TestJump { if_false, .. }
            | SInstr::Solve { if_false, .. }
            | SInstr::Scope { if_false, .. } => *if_false = target,
            SInstr::Foreach { next, .. } | SInstr::Switch { next, .. } => *next = target,
            other => unreachable!("no jump to patch in {other:?}"),
        }
    }

    /// Compiles `e` into a fresh register and returns it. A variable whose
    /// slot was already loaded in this statement reuses its register.
    fn expr(&mut self, e: &PExpr) -> Reg {
        if let PExpr::Name { slot, .. } = e {
            if let Some(&(_, r)) = self.slot_regs.iter().find(|(s, _)| s == slot) {
                return r;
            }
        }
        let dst = self.alloc();
        self.expr_into(e, dst);
        dst
    }

    /// Compiles `e` so its value lands in `dst`. Emission order matches the
    /// tree evaluator's evaluation order exactly, so error precedence is
    /// unchanged.
    fn expr_into(&mut self, e: &PExpr, dst: Reg) {
        match e {
            PExpr::Int(i) => {
                let k = self.konst(Const::Int(*i));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Bool(b) => {
                let k = self.konst(Const::Bool(*b));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Str(s) => {
                let k = self.konst(Const::Str(s.clone()));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Null => {
                let k = self.konst(Const::Null);
                self.push(SInstr::Const { dst, k });
            }
            PExpr::This => {
                self.push(SInstr::LoadThis { dst });
            }
            PExpr::Name {
                slot,
                name,
                field_sym,
                ..
            } => {
                let name = self.name(name);
                self.push(SInstr::LoadSlot {
                    dst,
                    slot: *slot,
                    name,
                    field_sym: *field_sym,
                });
                self.slot_regs.push((*slot, dst));
            }
            PExpr::Field(base, name, sym) => {
                // Inside a specialized statement a read of a declared field
                // off the guarded receiver goes straight to its layout slot.
                if let (Some((rslot, _, layout)), PExpr::Name { slot, .. }, Some(sym)) =
                    (self.spec, &**base, sym)
                {
                    if *slot == rslot {
                        if let (Some(idx), Some(&(_, r))) = (
                            layout.slot_of_sym(*sym),
                            self.slot_regs.iter().find(|&&(s, _)| s == rslot),
                        ) {
                            self.push(SInstr::LoadFieldIdx {
                                dst,
                                base: r,
                                idx: idx as u32,
                            });
                            return;
                        }
                    }
                }
                let b = self.expr(base);
                let name = self.name(name);
                self.push(SInstr::LoadField {
                    dst,
                    base: b,
                    sym: *sym,
                    name,
                });
            }
            PExpr::Binary(op, a, b) => {
                let ra = self.expr(a);
                let rb = self.expr(b);
                self.push(SInstr::Bin {
                    dst,
                    op: *op,
                    a: ra,
                    b: rb,
                });
            }
            PExpr::Neg(a) => {
                let ra = self.expr(a);
                self.push(SInstr::Neg { dst, a: ra });
            }
            PExpr::Call {
                receiver,
                name,
                args,
                kind,
                dispatch,
            } => {
                // Only statically sensible call shapes get the register
                // lowering; everything else falls back to the tree
                // evaluator for identical error behavior.
                let pid = match kind {
                    CallKind::StaticConstruct(cr) | CallKind::ClassCtor(cr) => cr.construct_pid,
                    CallKind::Free(pid) => *pid,
                    CallKind::Instance | CallKind::ThisMethod => None,
                    CallKind::Unresolved => {
                        let expr = self.pool_expr(e);
                        self.push(SInstr::EvalExpr { dst, expr });
                        return;
                    }
                };
                let is_dispatch = matches!(kind, CallKind::Instance | CallKind::ThisMethod);
                if pid.is_none() && !is_dispatch {
                    let expr = self.pool_expr(e);
                    self.push(SInstr::EvalExpr { dst, expr });
                    return;
                }
                // Arguments first (the evaluator's order), contiguously.
                let base = self.next_reg;
                for _ in args {
                    self.alloc();
                }
                for (i, a) in args.iter().enumerate() {
                    self.expr_into(a, base + i as Reg);
                }
                let argc = args.len() as u16;
                match kind {
                    CallKind::Instance => {
                        let recv_expr = receiver.as_deref().expect("instance call receiver");
                        let recv = self.expr(recv_expr);
                        let name = self.name(name);
                        if let Some((tix, ret, params, layout)) =
                            self.inline_target(*dispatch, args.len(), true)
                        {
                            // Inside a specialized statement whose guard
                            // already proved this receiver's class, the
                            // inline body needs no guard of its own.
                            let guarded = match (self.spec, recv_expr) {
                                (Some((s, t, _)), PExpr::Name { slot, .. }) => {
                                    *slot == s
                                        && t == tix
                                        && self
                                            .slot_regs
                                            .iter()
                                            .any(|&(sl, r)| sl == s && r == recv)
                                }
                                _ => false,
                            };
                            if guarded {
                                self.inline_expr(ret, dst, recv, base, params, layout);
                                return;
                            }
                            // Monomorphic getter inlining: receivers of the
                            // one implementing class run the body's register
                            // code in place; everything else (wrong class,
                            // non-object, foreign layout) falls through to
                            // the generic call for identical errors.
                            let guard = self.push(SInstr::ClassIs {
                                a: recv,
                                type_index: tix,
                                if_false: 0, // patched below
                            });
                            self.inline_expr(ret, dst, recv, base, params, layout);
                            let skip = self.push(SInstr::Jump { target: 0 });
                            let slow = self.code.len() as Pc;
                            if let SInstr::ClassIs { if_false, .. } = &mut self.code[guard as usize]
                            {
                                *if_false = slow;
                            }
                            self.push(SInstr::CallDyn {
                                dst,
                                recv,
                                name,
                                dispatch: *dispatch,
                                base,
                                argc,
                            });
                            let join = self.code.len() as Pc;
                            if let SInstr::Jump { target } = &mut self.code[skip as usize] {
                                *target = join;
                            }
                        } else {
                            self.push(SInstr::CallDyn {
                                dst,
                                recv,
                                name,
                                dispatch: *dispatch,
                                base,
                                argc,
                            });
                        }
                    }
                    CallKind::ThisMethod => {
                        let name = self.name(name);
                        self.push(SInstr::CallThis {
                            dst,
                            name,
                            dispatch: *dispatch,
                            base,
                            argc,
                        });
                    }
                    _ => {
                        let pid = pid.expect("checked above");
                        match self.static_inline_target(pid, args.len()) {
                            // A free single-`return` callee over its
                            // parameters alone needs no guard at all: the
                            // plan is statically resolved.
                            Some((ret, params)) => {
                                self.inline_expr(ret, dst, 0, base, params, None)
                            }
                            None => {
                                self.push(SInstr::CallStatic {
                                    dst,
                                    pid: pid as u32,
                                    base,
                                    argc,
                                });
                            }
                        }
                    }
                }
            }
            // Result, Index, NewArray, Tuple, As, OrPat, Where, Wildcard,
            // Decl: evaluate (or error) exactly like the tree evaluator.
            _ => {
                let expr = self.pool_expr(e);
                self.push(SInstr::EvalExpr { dst, expr });
            }
        }
    }

    /// The inline candidate behind a dynamic dispatch: when the name's
    /// table resolves for exactly one type index and that implementation
    /// is a single-`return` block over inlinable expressions, returns the
    /// type index to guard on, the returned expression, and the callee's
    /// parameter slots.
    fn inline_target(
        &self,
        dispatch: Option<DispatchId>,
        argc: usize,
        has_this: bool,
    ) -> Option<(u32, &'a PExpr, &'a [SlotId], Option<&'a ClassLayout>)> {
        let (tix, pid) = self.ctx.dispatch.get(dispatch? as usize)?.unique_impl()?;
        let (ret, params) = self.returned_expr(pid, argc, has_this)?;
        let layout = self.ctx.methods.get(pid)?.owner_layout.as_deref();
        Some((tix, ret, params, layout))
    }

    /// Like [`BlockCompiler::inline_target`] for a statically resolved
    /// call: no guard is needed, but the body must not touch `this` (free
    /// methods have none).
    fn static_inline_target(&self, pid: PlanId, argc: usize) -> Option<(&'a PExpr, &'a [SlotId])> {
        self.returned_expr(pid, argc, false)
    }

    /// The single returned expression of an inlinable block body.
    fn returned_expr(
        &self,
        pid: PlanId,
        argc: usize,
        has_this: bool,
    ) -> Option<(&'a PExpr, &'a [SlotId])> {
        // Recorded whatever the outcome: a *negative* inlining decision
        // also depends on the callee's body (the body changing may make it
        // inlinable), so the caller's bytecode must be re-emitted either
        // way when `pid` changes.
        self.ctx.record_dep(pid);
        let mp = self.ctx.methods.get(pid)?;
        let BodyPlan::Block(bp) = &mp.body else {
            return None;
        };
        if bp.param_slots.len() != argc {
            return None;
        }
        let [StmtPlan::Return(Some(ret))] = bp.stmts.as_slice() else {
            return None;
        };
        inlinable(ret, &bp.param_slots, has_this).then_some((ret, bp.param_slots.as_slice()))
    }

    /// Emits `e` (a callee-body expression vetted by [`inlinable`]) into
    /// `dst`, with the callee's `this` in register `recv` and its
    /// parameters in the contiguous argument registers at `base`. `layout`
    /// is the receiver's layout when the call site guards the receiver's
    /// class ([`SInstr::ClassIs`]), letting field-of-`this` reads compile
    /// to direct slot loads.
    fn inline_expr(
        &mut self,
        e: &PExpr,
        dst: Reg,
        recv: Reg,
        base: Reg,
        params: &[SlotId],
        layout: Option<&ClassLayout>,
    ) {
        match e {
            PExpr::Int(i) => {
                let k = self.konst(Const::Int(*i));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Bool(b) => {
                let k = self.konst(Const::Bool(*b));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Str(s) => {
                let k = self.konst(Const::Str(s.clone()));
                self.push(SInstr::Const { dst, k });
            }
            PExpr::Null => {
                let k = self.konst(Const::Null);
                self.push(SInstr::Const { dst, k });
            }
            PExpr::This => {
                self.push(SInstr::Move { dst, src: recv });
            }
            PExpr::Name {
                slot,
                name,
                field_sym,
                ..
            } => match params.iter().position(|s| s == slot) {
                Some(i) => {
                    self.push(SInstr::Move {
                        dst,
                        src: base + i as Reg,
                    });
                }
                // A non-parameter variable in a single-`return` body can
                // only be bound through the field-of-`this` fallback; with
                // the receiver's class guarded, the slot is known statically.
                None => {
                    let slot = layout.zip(*field_sym).and_then(|(l, s)| l.slot_of_sym(s));
                    match slot {
                        Some(idx) => {
                            self.push(SInstr::LoadFieldIdx {
                                dst,
                                base: recv,
                                idx: idx as u32,
                            });
                        }
                        None => {
                            let name = self.name(name);
                            self.push(SInstr::LoadField {
                                dst,
                                base: recv,
                                sym: *field_sym,
                                name,
                            });
                        }
                    }
                }
            },
            PExpr::Field(b, n, sym) => {
                let rb = self.inline_operand(b, recv, base, params, layout);
                let name = self.name(n);
                self.push(SInstr::LoadField {
                    dst,
                    base: rb,
                    sym: *sym,
                    name,
                });
            }
            PExpr::Binary(op, a, b) => {
                let ra = self.inline_operand(a, recv, base, params, layout);
                let rb = self.inline_operand(b, recv, base, params, layout);
                self.push(SInstr::Bin {
                    dst,
                    op: *op,
                    a: ra,
                    b: rb,
                });
            }
            PExpr::Neg(a) => {
                let ra = self.inline_operand(a, recv, base, params, layout);
                self.push(SInstr::Neg { dst, a: ra });
            }
            _ => unreachable!("expression shape vetted by `inlinable`"),
        }
    }

    /// An operand register for an inlined expression, reusing the receiver
    /// / argument registers directly when possible.
    fn inline_operand(
        &mut self,
        e: &PExpr,
        recv: Reg,
        base: Reg,
        params: &[SlotId],
        layout: Option<&ClassLayout>,
    ) -> Reg {
        match e {
            PExpr::This => recv,
            PExpr::Name { slot, .. } => {
                if let Some(i) = params.iter().position(|s| s == slot) {
                    return base + i as Reg;
                }
                let r = self.alloc();
                self.inline_expr(e, r, recv, base, params, layout);
                r
            }
            _ => {
                let r = self.alloc();
                self.inline_expr(e, r, recv, base, params, layout);
                r
            }
        }
    }

    /// Emits a frame store, evicting the slot from the read cache.
    fn emit_store(&mut self, slot: SlotId, src: Reg) {
        self.slot_regs.retain(|(s, _)| *s != slot);
        self.push(SInstr::Store { slot, src });
    }

    /// Qualifies every case of a switch for native compilation: each arm
    /// must be a single-class constructor pattern over a pure
    /// field-projection constructor, with unconditionally binding argument
    /// patterns (`T x` / `_`), a plain body target, a single-`return` body
    /// (so the arm cannot fall through into the code after the switch),
    /// and no two arms claiming the same class. Anything else returns
    /// `None` and the switch stays on the guarded form.
    fn native_arms<'p>(
        &self,
        cases: &'p [CasePlan],
        bodies: &'p [Vec<StmtPlan>],
        num_types: usize,
    ) -> Option<Vec<NativeArm<'p>>> {
        let mut arms = Vec::with_capacity(cases.len());
        let mut claimed = vec![false; num_types];
        for c in cases {
            let [pattern] = c.patterns.as_slice() else {
                return None;
            };
            let [CaseGuard::Classes(mask)] = c.guards.as_slice() else {
                return None;
            };
            let mut admitted = (0..num_types).filter(|&t| mask.get(t) == Some(&true));
            let (Some(tix), None) = (admitted.next(), admitted.next()) else {
                return None;
            };
            if claimed[tix] {
                return None;
            }
            let CaseTarget::Body(j) = c.target else {
                return None;
            };
            let body = bodies.get(j)?.as_slice();
            if !matches!(body, [StmtPlan::Return(_)]) {
                return None;
            }
            let PExpr::Call {
                receiver: None,
                args,
                kind,
                ..
            } = pattern
            else {
                return None;
            };
            let (CallKind::StaticConstruct(cr) | CallKind::ClassCtor(cr)) = kind else {
                return None;
            };
            let pid = cr.match_pid?;
            self.ctx.record_dep(pid);
            let mp = self.ctx.methods.get(pid)?;
            let proj = projection_syms(mp)?;
            if proj.len() != args.len() {
                return None;
            }
            // The claimed class's own layout: each projected field must
            // resolve to a slot there, or the arm stays on the guarded form.
            let layout = mp.owner_layout.as_deref()?;
            let mut binds = Vec::with_capacity(args.len());
            for (arg, (sym, _)) in args.iter().zip(proj) {
                let idx = layout.slot_of_sym(sym)? as u32;
                match arg {
                    PExpr::Decl(_, slot, ClassCheck::Any) => binds.push((idx, *slot)),
                    PExpr::Wildcard => binds.push((idx, None)),
                    _ => return None,
                }
            }
            claimed[tix] = true;
            arms.push(NativeArm { tix, binds, body });
        }
        Some(arms)
    }

    /// Emits the native form of a qualified switch: a [`SInstr::SwitchJump`]
    /// whose table maps each claimed type index to its arm's code (direct
    /// field loads for the pattern bindings, then the compiled body). All
    /// other scrutinees — and the `default` arm — land on `other`, which is
    /// the guarded [`SInstr::Switch`] the caller pushes immediately after
    /// this returns.
    fn emit_native_switch(&mut self, scrutinee: Reg, arms: Vec<NativeArm<'_>>, num_types: usize) {
        let jt = self.jumps.len();
        self.jumps.push(JumpTable {
            by_type: vec![Pc::MAX; num_types].into(),
            other: Pc::MAX,
        });
        self.push(SInstr::SwitchJump {
            scrutinee,
            table: jt as u32,
        });
        for arm in arms {
            let pc = self.code.len() as Pc;
            self.jumps[jt].by_type[arm.tix] = pc;
            // Keep the binding loads clear of the scrutinee's register:
            // each arm is entered straight from the jump, so the register
            // counter must restart above it, not above the previous arm's.
            self.next_reg = self.next_reg.max(scrutinee + 1);
            for (idx, slot) in &arm.binds {
                if let Some(slot) = slot {
                    let r = self.alloc();
                    self.push(SInstr::LoadFieldIdx {
                        dst: r,
                        base: scrutinee,
                        idx: *idx,
                    });
                    self.emit_store(*slot, r);
                }
            }
            for st in arm.body {
                self.stmt(st);
            }
        }
        let other = self.code.len() as Pc;
        let t = &mut self.jumps[jt];
        t.other = other;
        for e in t.by_type.iter_mut() {
            if *e == Pc::MAX {
                *e = other;
            }
        }
    }

    /// Compiles an `Assign` / `Expr` / `Return` statement, versioned behind
    /// a [`SInstr::GuardSlot`] when the expression contains a monomorphic
    /// instance call on a slot-variable receiver: the fast branch compiles
    /// with the receiver's class proven (direct layout-slot field loads,
    /// guard-free inlining), the generic branch is the ordinary compilation
    /// the guard falls back to. `store` is an `Assign`'s target slot;
    /// `ret` marks a `return` (the fast branch exits, so no join is
    /// emitted).
    fn guarded_stmt(&mut self, e: &PExpr, store: Option<SlotId>, ret: bool) {
        let Some((rslot, tix, layout)) = self.stmt_spec(e) else {
            self.finish_stmt(e, store, ret);
            return;
        };
        let dst = self.alloc();
        let guard = self.push(SInstr::GuardSlot {
            dst,
            slot: rslot,
            type_index: tix,
            if_false: 0, // patched below
        });
        self.slot_regs.push((rslot, dst));
        self.spec = Some((rslot, tix, layout));
        self.finish_stmt(e, store, ret);
        self.spec = None;
        let skip = (!ret).then(|| self.push(SInstr::Jump { target: 0 }));
        let slow = self.code.len() as Pc;
        if let SInstr::GuardSlot { if_false, .. } = &mut self.code[guard as usize] {
            *if_false = slow;
        }
        // The fast branch's register cache does not hold on the generic
        // branch.
        self.slot_regs.clear();
        self.finish_stmt(e, store, ret);
        let join = self.code.len() as Pc;
        if let Some(skip) = skip {
            if let SInstr::Jump { target } = &mut self.code[skip as usize] {
                *target = join;
            }
        }
    }

    /// The unversioned tail of [`BlockCompiler::guarded_stmt`]: evaluate,
    /// then store or return.
    fn finish_stmt(&mut self, e: &PExpr, store: Option<SlotId>, ret: bool) {
        let src = self.expr(e);
        if let Some(slot) = store {
            self.emit_store(slot, src);
        } else if ret {
            self.push(SInstr::Ret { src });
        }
    }

    /// The specialization candidate of one statement: the first
    /// slot-variable receiver of a monomorphic inlinable instance call in
    /// the expression, with the type index and layout its guard proves.
    fn stmt_spec(&self, e: &PExpr) -> Option<(SlotId, u32, &'a ClassLayout)> {
        match e {
            PExpr::Call {
                receiver: Some(r),
                args,
                kind: CallKind::Instance,
                dispatch,
                ..
            } => {
                if let PExpr::Name { slot, .. } = &**r {
                    if let Some((tix, _, _, Some(layout))) =
                        self.inline_target(*dispatch, args.len(), true)
                    {
                        return Some((*slot, tix, layout));
                    }
                }
                self.stmt_spec(r)
                    .or_else(|| args.iter().find_map(|a| self.stmt_spec(a)))
            }
            PExpr::Call { receiver, args, .. } => receiver
                .as_deref()
                .and_then(|r| self.stmt_spec(r))
                .or_else(|| args.iter().find_map(|a| self.stmt_spec(a))),
            PExpr::Binary(_, a, b) => self.stmt_spec(a).or_else(|| self.stmt_spec(b)),
            PExpr::Neg(a) | PExpr::Field(a, _, _) => self.stmt_spec(a),
            _ => None,
        }
    }

    /// Emits `stmts` as a sub-chain ending in [`SInstr::End`]; returns its
    /// entry pc.
    fn sub_chain(&mut self, stmts: &[StmtPlan]) -> Pc {
        let pc = self.here();
        stmts.iter().for_each(|s| self.stmt(s));
        self.push(SInstr::End);
        pc
    }

    fn stmt(&mut self, s: &StmtPlan) {
        self.next_reg = 0;
        self.slot_regs.clear();
        match s {
            StmtPlan::Assign(slot, e) => self.guarded_stmt(e, Some(*slot), false),
            StmtPlan::Expr(e) => self.guarded_stmt(e, None, false),
            StmtPlan::Return(Some(e)) => self.guarded_stmt(e, None, true),
            StmtPlan::Return(None) => {
                self.push(SInstr::RetNull);
            }
            // The right-hand side still runs, so its errors come first.
            StmtPlan::AssignUnsupported(e) => {
                self.expr(e);
                self.fail("unsupported assignment target");
            }
            StmtPlan::Let(g) => {
                let goal = self.pool_goal(g);
                let pc = self.push(SInstr::Solve { goal, if_false: 0 });
                self.let_fails.push(pc);
            }
            StmtPlan::While { cond, body } => {
                let guard = self.nguards;
                self.nguards += 1;
                self.push(SInstr::ResetGuard { guard });
                let head = self.here();
                let test = match cond {
                    Goal::Compare(op, l, r) => {
                        let a = self.expr(l);
                        let b = self.expr(r);
                        self.push(SInstr::CmpJump {
                            op: *op,
                            a,
                            b,
                            if_false: 0,
                        })
                    }
                    Goal::Test(e) => {
                        let a = self.expr(e);
                        self.push(SInstr::TestJump { a, if_false: 0 })
                    }
                    g => {
                        let goal = self.pool_goal(g);
                        self.push(SInstr::Solve { goal, if_false: 0 })
                    }
                };
                body.iter().for_each(|s| self.stmt(s));
                self.push(SInstr::LoopJump {
                    target: head,
                    guard,
                });
                let end = self.here();
                self.patch(test, end);
            }
            StmtPlan::If { cond, then, els } => {
                self.arms([(Some(cond), &then[..])], Ok(els.as_deref().unwrap_or(&[])))
            }
            StmtPlan::Cond { arms, else_arm } => self.arms(
                arms.iter().map(|(g, body)| (Some(g), &body[..])),
                else_arm.as_deref().ok_or("non-exhaustive cond at run time"),
            ),
            StmtPlan::Block(stmts) => self.arms([(None, &stmts[..])], Ok(&[])),
            StmtPlan::Foreach { goal, body } => {
                let goal = self.pool_goal(goal);
                let pc = self.push(SInstr::Foreach { goal, next: 0 });
                self.sub_chain(body);
                let next = self.here();
                self.patch(pc, next);
            }
            StmtPlan::Switch {
                scrutinees,
                cases,
                bodies,
                default,
            } => self.switch(scrutinees, cases, bodies, default.as_deref()),
        }
    }

    fn fail(&mut self, msg: &'static str) -> Pc {
        self.push(SInstr::Fail { msg })
    }

    /// `if`, `cond` and `{}`: one [`SInstr::Scope`] per arm, each falling
    /// to the next when its goal has no solution, then the unscoped `else`
    /// code — or, for a `cond` without one, its failure.
    fn arms<'p>(
        &mut self,
        arms: impl IntoIterator<Item = (Option<&'p Goal>, &'p [StmtPlan])>,
        els: Result<&[StmtPlan], &'static str>,
    ) {
        let mut scopes = Vec::new();
        for (g, body) in arms {
            let goal = g.map(|g| self.pool_goal(g));
            let pc = self.push(SInstr::Scope {
                goal,
                if_false: 0,
                next: 0,
            });
            self.sub_chain(body);
            let here = self.here();
            self.patch(pc, here);
            scopes.push(pc);
        }
        match els {
            Ok(e) => e.iter().for_each(|s| self.stmt(s)),
            Err(msg) => _ = self.fail(msg),
        }
        let end = self.here();
        for pc in scopes {
            if let SInstr::Scope { next, .. } = &mut self.code[pc as usize] {
                *next = end;
            }
        }
    }

    /// Emits a `switch`: the scrutinees into contiguous registers, the
    /// native [`SInstr::SwitchJump`] when every arm qualifies, the guarded
    /// [`SInstr::Switch`] (the whole switch, or the native table's `other`
    /// fallback), then the bodies and failures it jumps to.
    fn switch(
        &mut self,
        scrutinees: &[PExpr],
        cases: &[CasePlan],
        bodies: &[Vec<StmtPlan>],
        default: Option<&[StmtPlan]>,
    ) {
        let base = self.next_reg;
        for _ in scrutinees {
            self.alloc();
        }
        for (i, e) in scrutinees.iter().enumerate() {
            self.expr_into(e, base + i as Reg);
        }
        // The candidates by type index come from the lowered case guards.
        let n = cases.iter().find_map(|c| match &c.guards[0] {
            CaseGuard::Classes(mask) => Some(mask.len()),
            CaseGuard::Any => None,
        });
        let all = 0..cases.len() as u16;
        let by_type = (0..n.unwrap_or(0) as u32).map(|t| {
            let admits = |i: &u16| cases[*i as usize].guards[0].admits(Some(t));
            all.clone().filter(admits).collect()
        });
        let table = self.switches.len();
        self.switches.push(SwitchTable {
            by_type: by_type.collect(),
            other: all.collect(),
            cases: Vec::new(),
            default: 0,
        });
        if let (Some(n), 1) = (n, scrutinees.len()) {
            if let Some(arms) = self.native_arms(cases, bodies, n) {
                self.emit_native_switch(base, arms, n);
            }
        }
        let sw = self.push(SInstr::Switch {
            scrutinees: base,
            count: scrutinees.len() as u16,
            table: table as u32,
            next: 0,
        });
        let body_pcs: Vec<Pc> = bodies.iter().map(|b| self.sub_chain(b)).collect();
        let default = match default {
            Some(d) => self.sub_chain(d),
            None => self.fail("non-exhaustive switch at run time"),
        };
        let mut fell_off = None;
        for c in cases {
            let body = match c.target {
                CaseTarget::Body(j) => body_pcs[j],
                CaseTarget::Default => default,
                CaseTarget::FellOff => {
                    *fell_off.get_or_insert_with(|| self.fail("switch fell off the end"))
                }
            };
            let patterns = self.exprs.len() as ExprId;
            for p in &c.patterns {
                self.pool_expr(p);
            }
            let guards = c.guards.clone().into();
            self.switches[table].cases.push(BcCase {
                patterns,
                guards,
                body,
            });
        }
        self.switches[table].default = default;
        let next = self.here();
        self.patch(sw, next);
    }
}

/// Whether a callee-body expression can be emitted inline at a call site:
/// literals, `this` (when the callee has one), parameters, field reads,
/// and integer arithmetic — everything whose register lowering needs no
/// callee frame. Non-parameter variables are admitted only through the
/// field-of-`this` fallback (in a single-`return` body nothing else can
/// bind them).
fn inlinable(e: &PExpr, params: &[SlotId], has_this: bool) -> bool {
    match e {
        PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
        PExpr::This => has_this,
        PExpr::Name {
            slot, field_sym, ..
        } => params.contains(slot) || (has_this && field_sym.is_some()),
        PExpr::Field(b, _, _) => inlinable(b, params, has_this),
        PExpr::Binary(_, a, b) => inlinable(a, params, has_this) && inlinable(b, params, has_this),
        PExpr::Neg(a) => inlinable(a, params, has_this),
        _ => false,
    }
}

/// For a constructor whose matching form is a pure field projection
/// (a conjunction of `field = param` equations and nothing else), the
/// field each parameter projects, in parameter order. This is the shape a
/// `returns(...)`-clause constructor lowers to, and it lets a `case
/// C(int x, ...)` arm bind its variables with direct field loads instead
/// of running the matching solver.
fn projection_syms(mp: &MethodPlan) -> Option<Vec<(Sym, String)>> {
    let BodyPlan::Formula { matching, .. } = &mp.body else {
        return None;
    };
    let params = &matching.param_slots;
    let conjuncts: &[Goal] = match &matching.goal {
        Goal::Seq(gs) => gs,
        g => std::slice::from_ref(g),
    };
    let mut fields: Vec<Option<(Sym, String)>> = vec![None; params.len()];
    for g in conjuncts {
        let Goal::Unify(a, b) = g else {
            return None;
        };
        let (field, param) = match (field_name(a, params), param_slot(b, params)) {
            (Some(f), Some(p)) => (f, p),
            _ => match (field_name(b, params), param_slot(a, params)) {
                (Some(f), Some(p)) => (f, p),
                _ => return None,
            },
        };
        let i = params.iter().position(|&s| s == param)?;
        if fields[i].is_some() {
            return None;
        }
        fields[i] = Some(field);
    }
    fields.into_iter().collect()
}

/// The interned field a `Name` resolves through the field-of-`this`
/// fallback (i.e. it is not a parameter and a class declares the field).
fn field_name(e: &PExpr, params: &[SlotId]) -> Option<(Sym, String)> {
    match e {
        PExpr::Name {
            slot,
            name,
            field_sym: Some(sym),
            ..
        } if !params.contains(slot) => Some((*sym, name.clone())),
        _ => None,
    }
}

/// The slot of a bare parameter occurrence.
fn param_slot(e: &PExpr, params: &[SlotId]) -> Option<SlotId> {
    match e {
        PExpr::Name { slot, .. } if params.contains(slot) => Some(*slot),
        _ => None,
    }
}

/// A constructor specialized to a direct projection: every owner field is
/// assigned exactly one expression over the (always-ground) parameters, so
/// forward construction can fill the layout's slots straight from the
/// argument vector — no frame, no solver.
#[derive(Debug, Clone)]
pub struct FastCtor {
    /// One vetted expression per owner field, in layout order.
    pub fields: Box<[PExpr]>,
    /// Slot of each declared parameter, in declaration order — the `Name`
    /// occurrences inside `fields` resolve to positions in this list.
    pub params: Box<[SlotId]>,
    /// When the constructor is a pure field *permutation* — every field is
    /// assigned exactly one distinct parameter and every parameter is used —
    /// `projection[i]` is the layout slot holding parameter `i`'s value.
    /// Backward mode then has exactly one solution per matching object,
    /// read straight off its field storage with no solver run.
    pub projection: Option<Box<[u32]>>,
}

/// Vets a constructor's forward form for [`FastCtor`] specialization: the
/// goal must be a conjunction of `field = expr` equations — each field
/// assigned exactly once, each `expr` built only from literals, parameters,
/// and integer arithmetic. Guards, `result =` equations, locals, and
/// field-to-field dependencies all disqualify (they need the solver).
pub fn fast_ctor(mp: &MethodPlan) -> Option<FastCtor> {
    if !mp.info.constructs_owner() {
        return None;
    }
    let BodyPlan::Formula { forward, .. } = &mp.body else {
        return None;
    };
    if forward.this_present {
        return None;
    }
    let params = &forward.param_slots;
    let mut leaves = Vec::new();
    collect_conjuncts(&forward.goal, &mut leaves);
    let mut fields: Vec<Option<&PExpr>> = vec![None; forward.field_slots.len()];
    for g in leaves {
        let Goal::Unify(a, b) = g else {
            return None;
        };
        let (slot, expr) = match (field_slot_of(a, forward), fast_expr_ok(b, params)) {
            (Some(s), true) => (s, b),
            _ => match (field_slot_of(b, forward), fast_expr_ok(a, params)) {
                (Some(s), true) => (s, a),
                _ => return None,
            },
        };
        let i = forward.field_slots.iter().position(|&(_, s)| s == slot)?;
        if fields[i].is_some() {
            return None;
        }
        fields[i] = Some(expr);
    }
    let fields: Box<[PExpr]> = fields
        .into_iter()
        .map(|f| f.cloned())
        .collect::<Option<_>>()?;
    let params: Box<[SlotId]> = params.clone().into_boxed_slice();
    let projection = projection_of(&fields, &params);
    Some(FastCtor {
        fields,
        params,
        projection,
    })
}

/// The parameter→field-slot permutation of a pure projection constructor,
/// or `None` when any field is computed (a literal or arithmetic
/// expression) or any parameter is unused or reused. A permutation makes
/// the constructor invertible: deconstruction is field projection.
fn projection_of(fields: &[PExpr], params: &[SlotId]) -> Option<Box<[u32]>> {
    if fields.len() != params.len() {
        return None;
    }
    let mut proj = vec![u32::MAX; params.len()];
    for (idx, e) in fields.iter().enumerate() {
        let PExpr::Name { slot, .. } = e else {
            return None;
        };
        let i = params.iter().position(|p| p == slot)?;
        if proj[i] != u32::MAX {
            return None;
        }
        proj[i] = idx as u32;
    }
    Some(proj.into_boxed_slice())
}

/// Flattens nested conjunctions into their leaf goals (`True` vanishes).
fn collect_conjuncts<'p>(g: &'p Goal, out: &mut Vec<&'p Goal>) {
    match g {
        Goal::True => {}
        Goal::Seq(gs) => {
            for g in gs {
                collect_conjuncts(g, out);
            }
        }
        g => out.push(g),
    }
}

/// The owner-field slot a bare `Name` occurrence writes during
/// construction.
fn field_slot_of(e: &PExpr, forward: &SolvedForm) -> Option<SlotId> {
    match e {
        PExpr::Name { slot, .. } if forward.field_slots.iter().any(|&(_, s)| s == *slot) => {
            Some(*slot)
        }
        _ => None,
    }
}

/// Whether `e` is evaluable from the argument vector alone: literals,
/// parameter reads, and integer arithmetic over them.
fn fast_expr_ok(e: &PExpr, params: &[SlotId]) -> bool {
    match e {
        PExpr::Int(_) | PExpr::Bool(_) | PExpr::Str(_) | PExpr::Null => true,
        PExpr::Name { slot, .. } => params.contains(slot),
        PExpr::Binary(_, a, b) => fast_expr_ok(a, params) && fast_expr_ok(b, params),
        PExpr::Neg(a) => fast_expr_ok(a, params),
        _ => false,
    }
}

/// Compiles one imperative body to register bytecode. `ctx` provides the
/// whole lowered program for cross-method specialization.
pub fn compile_block(bp: &BlockPlan, ctx: &BcCtx<'_>) -> BcBlock {
    let mut c = BlockCompiler {
        ctx,
        nslots: bp.frame.len(),
        code: Vec::new(),
        nregs: 0,
        next_reg: 0,
        nguards: 0,
        consts: Vec::new(),
        exprs: Vec::new(),
        goals: Vec::new(),
        switches: Vec::new(),
        jumps: Vec::new(),
        names: Vec::new(),
        let_fails: Vec::new(),
        slot_regs: Vec::new(),
        spec: None,
    };
    c.sub_chain(&bp.stmts);
    if !c.let_fails.is_empty() {
        let fail = c.fail("let statement failed to match");
        for pc in std::mem::take(&mut c.let_fails) {
            c.patch(pc, fail);
        }
    }
    BcBlock {
        code: c.code,
        nregs: c.nregs,
        nguards: c.nguards,
        consts: c.consts,
        exprs: c.exprs,
        goals: c.goals,
        switches: c.switches,
        jumps: c.jumps,
        names: c.names,
    }
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

/// Compact one-line rendering of a pooled expression for disassembly.
fn fmt_pexpr(f: &mut fmt::Formatter<'_>, e: &PExpr) -> fmt::Result {
    match e {
        PExpr::Int(i) => write!(f, "{i}"),
        PExpr::Bool(b) => write!(f, "{b}"),
        PExpr::Str(s) => write!(f, "{s:?}"),
        PExpr::Null => write!(f, "null"),
        PExpr::This => write!(f, "this"),
        PExpr::Result(s) => write!(f, "result@{s}"),
        PExpr::Wildcard => write!(f, "_"),
        PExpr::Name { slot, name, .. } => write!(f, "{name}@{slot}"),
        PExpr::Decl(_, Some(s), _) => write!(f, "decl@{s}"),
        PExpr::Decl(_, None, _) => write!(f, "decl@_"),
        PExpr::Field(b, name, _) => {
            fmt_pexpr(f, b)?;
            write!(f, ".{name}")
        }
        PExpr::Call {
            receiver,
            name,
            args,
            ..
        } => {
            if let Some(r) = receiver {
                fmt_pexpr(f, r)?;
                write!(f, ".")?;
            }
            write!(f, "{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_pexpr(f, a)?;
            }
            write!(f, ")")
        }
        PExpr::Index(a, b) => {
            fmt_pexpr(f, a)?;
            write!(f, "[")?;
            fmt_pexpr(f, b)?;
            write!(f, "]")
        }
        PExpr::NewArray(_, n) => {
            write!(f, "new[")?;
            fmt_pexpr(f, n)?;
            write!(f, "]")
        }
        PExpr::Binary(op, a, b) => {
            write!(f, "(")?;
            fmt_pexpr(f, a)?;
            write!(f, " {op} ")?;
            fmt_pexpr(f, b)?;
            write!(f, ")")
        }
        PExpr::Neg(a) => {
            write!(f, "-(")?;
            fmt_pexpr(f, a)?;
            write!(f, ")")
        }
        PExpr::Tuple(xs) => {
            write!(f, "(")?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_pexpr(f, x)?;
            }
            write!(f, ")")
        }
        PExpr::As(a, b) => {
            fmt_pexpr(f, a)?;
            write!(f, " as ")?;
            fmt_pexpr(f, b)
        }
        PExpr::OrPat(a, b) => {
            fmt_pexpr(f, a)?;
            write!(f, " | ")?;
            fmt_pexpr(f, b)
        }
        PExpr::Where(p, _) => {
            fmt_pexpr(f, p)?;
            write!(f, " where (..)")
        }
    }
}

struct PE<'a>(&'a PExpr);
impl fmt::Display for PE<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_pexpr(f, self.0)
    }
}

impl fmt::Display for BcBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "entry: {}", self.entry)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            write!(f, "{pc:4}: ")?;
            match i {
                Instr::Emit => writeln!(f, "emit")?,
                Instr::Fail => writeln!(f, "fail")?,
                Instr::Choice(alts) => {
                    write!(f, "choice [")?;
                    for (i, a) in alts.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    writeln!(f, "]")?;
                }
                Instr::Unify {
                    lhs,
                    rhs,
                    mode,
                    next,
                } => {
                    let m = match mode {
                        UnifyMode::EvalEval => "ee",
                        UnifyMode::EvalMatch => "em",
                        UnifyMode::MatchEval => "me",
                        UnifyMode::Dynamic => "dyn",
                    };
                    writeln!(
                        f,
                        "unify.{m} {} = {} -> {next}",
                        PE(&self.exprs[*lhs as usize]),
                        PE(&self.exprs[*rhs as usize]),
                    )?;
                }
                Instr::Compare { op, lhs, rhs, next } => writeln!(
                    f,
                    "cmp {} {op} {} -> {next}",
                    PE(&self.exprs[*lhs as usize]),
                    PE(&self.exprs[*rhs as usize]),
                )?,
                Instr::Invoke {
                    receiver,
                    name,
                    args_start,
                    args_len,
                    next,
                    ..
                } => {
                    write!(f, "invoke ")?;
                    match receiver {
                        Some(r) => write!(f, "{}", PE(&self.exprs[*r as usize]))?,
                        None => write!(f, "this")?,
                    }
                    write!(f, ".{}(", self.names[*name as usize])?;
                    for (i, a) in self.args(*args_start, *args_len).iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", PE(a))?;
                    }
                    writeln!(f, ") -> {next}")?;
                }
                Instr::Test { expr, next } => {
                    writeln!(f, "test {} -> {next}", PE(&self.exprs[*expr as usize]))?;
                }
                Instr::Not { inner, next } => writeln!(f, "not {inner} -> {next}")?,
                Instr::DynSeq { items, next } => {
                    write!(f, "dynseq [")?;
                    for (i, (_, pc)) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{pc}")?;
                    }
                    writeln!(f, "] -> {next}")?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for BcBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "regs: {}  guards: {}", self.nregs, self.nguards)?;
        for (pc, i) in self.code.iter().enumerate() {
            write!(f, "{pc:4}: ")?;
            match i {
                SInstr::Const { dst, k } => {
                    let c = match &self.consts[*k as usize] {
                        Const::Int(i) => format!("{i}"),
                        Const::Bool(b) => format!("{b}"),
                        Const::Str(s) => format!("{s:?}"),
                        Const::Null => "null".to_owned(),
                    };
                    writeln!(f, "r{dst} = const {c}")?;
                }
                SInstr::LoadSlot {
                    dst, slot, name, ..
                } => writeln!(f, "r{dst} = slot {} ({})", slot, self.names[*name as usize])?,
                SInstr::LoadThis { dst } => writeln!(f, "r{dst} = this")?,
                SInstr::LoadField {
                    dst, base, name, ..
                } => writeln!(f, "r{dst} = r{base}.{}", self.names[*name as usize])?,
                SInstr::LoadFieldIdx { dst, base, idx } => {
                    writeln!(f, "r{dst} = r{base}.field#{idx}")?
                }
                SInstr::Move { dst, src } => writeln!(f, "r{dst} = r{src}")?,
                SInstr::Bin { dst, op, a, b } => writeln!(f, "r{dst} = r{a} {op} r{b}")?,
                SInstr::Neg { dst, a } => writeln!(f, "r{dst} = -r{a}")?,
                SInstr::EvalExpr { dst, expr } => {
                    writeln!(f, "r{dst} = eval {}", PE(&self.exprs[*expr as usize]))?;
                }
                SInstr::CallStatic {
                    dst,
                    pid,
                    base,
                    argc,
                } => {
                    writeln!(f, "r{dst} = call plan#{pid} (r{base}..+{argc})")?;
                }
                SInstr::CallDyn {
                    dst,
                    recv,
                    name,
                    base,
                    argc,
                    ..
                } => writeln!(
                    f,
                    "r{dst} = r{recv}.{} (r{base}..+{argc})",
                    self.names[*name as usize]
                )?,
                SInstr::CallThis {
                    dst,
                    name,
                    base,
                    argc,
                    ..
                } => writeln!(
                    f,
                    "r{dst} = this.{} (r{base}..+{argc})",
                    self.names[*name as usize]
                )?,
                SInstr::Store { slot, src } => writeln!(f, "slot {slot} = r{src}")?,
                SInstr::Ret { src } => writeln!(f, "ret r{src}")?,
                SInstr::RetNull => writeln!(f, "ret null")?,
                SInstr::Jump { target } => writeln!(f, "jmp {target}")?,
                SInstr::ResetGuard { guard } => writeln!(f, "guard {guard} = 0")?,
                SInstr::LoopJump { target, guard } => {
                    writeln!(f, "loop {target} (guard {guard})")?;
                }
                SInstr::CmpJump { op, a, b, if_false } => {
                    writeln!(f, "if !(r{a} {op} r{b}) jmp {if_false}")?;
                }
                SInstr::TestJump { a, if_false } => writeln!(f, "if !r{a} jmp {if_false}")?,
                SInstr::ClassIs {
                    a,
                    type_index,
                    if_false,
                } => writeln!(f, "if !(r{a} is type#{type_index}) jmp {if_false}")?,
                SInstr::GuardSlot {
                    dst,
                    slot,
                    type_index,
                    if_false,
                } => writeln!(
                    f,
                    "r{dst} = guard slot {slot} is type#{type_index} else jmp {if_false}"
                )?,
                SInstr::SwitchJump { scrutinee, table } => {
                    let t = &self.jumps[*table as usize];
                    write!(f, "switchjmp r{scrutinee} [")?;
                    for (i, pc) in t.by_type.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{pc}")?;
                    }
                    writeln!(f, "] other {}", t.other)?;
                }
                SInstr::Solve { goal, if_false } => {
                    writeln!(f, "solve goal#{goal} else jmp {if_false}")?
                }
                SInstr::Scope {
                    goal,
                    if_false,
                    next,
                } => match goal {
                    Some(g) => writeln!(f, "scope goal#{g} else jmp {if_false} -> {next}")?,
                    None => writeln!(f, "scope -> {next}")?,
                },
                SInstr::Foreach { goal, next } => writeln!(f, "foreach goal#{goal} -> {next}")?,
                SInstr::Switch {
                    scrutinees,
                    count,
                    table,
                    next,
                } => writeln!(f, "switch r{scrutinees}..+{count} table#{table} -> {next}")?,
                SInstr::Fail { msg } => writeln!(f, "fail {msg:?}")?,
                SInstr::End => writeln!(f, "end")?,
            }
        }
        for (i, t) in self.switches.iter().enumerate() {
            let bodies: Vec<Pc> = t.cases.iter().map(|c| c.body).collect();
            writeln!(f, "table#{i}: cases -> {bodies:?} default -> {}", t.default)?;
        }
        for (i, g) in self.goals.iter().enumerate() {
            write!(f, "goal#{i} {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::lower::ProgramPlan;
    use crate::table::ClassTable;
    use jmatch_syntax::parse_program;
    use std::sync::Arc;

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
    fn every_solved_form_gets_bytecode() {
        let plan = plan_for(ZNAT);
        for m in plan.methods() {
            if let crate::lower::BodyPlan::Formula {
                forward, matching, ..
            } = &m.body
            {
                assert!(forward.bc.is_some(), "{} forward", m.info.decl.name);
                assert!(matching.bc.is_some(), "{} matching", m.info.decl.name);
            }
        }
    }

    #[test]
    fn projection_ctors_get_fast_construct() {
        let plan = plan_for(
            r#"
            class P { int a; int b; P(int x, int y) returns(x, y) ( a = x && b = x + y ) }
            class G { int v; G(int n) returns(n) ( v = n && n >= 0 ) }
            class Q { int a; int b; Q(int x, int y) returns(x, y) ( a = y && b = x ) }
            "#,
        );
        let p = plan.method(plan.lookup_impl("P", "P").unwrap());
        let fc = p.fast_ctor.as_ref().expect("pure projection specializes");
        assert_eq!(fc.fields.len(), 2);
        assert!(
            fc.projection.is_none(),
            "computed field `b = x + y` is not invertible by projection"
        );
        let g = plan.method(plan.lookup_impl("G", "G").unwrap());
        assert!(g.fast_ctor.is_none(), "guarded ctor needs the solver");
        let q = plan.method(plan.lookup_impl("Q", "Q").unwrap());
        let qc = q.fast_ctor.as_ref().expect("pure permutation specializes");
        // `a = y && b = x`: parameter 0 (`x`) lives in field slot 1 (`b`),
        // parameter 1 (`y`) in slot 0 (`a`).
        assert_eq!(qc.projection.as_deref(), Some(&[1, 0][..]));
    }

    #[test]
    fn instr_zero_is_emit_and_entry_in_range() {
        let plan = plan_for(ZNAT);
        let succ = plan.method(plan.lookup_impl("ZNat", "succ").unwrap());
        let (forward, matching) = succ.body.solved_forms().unwrap();
        for bc in [forward.bc.as_ref().unwrap(), matching.bc.as_ref().unwrap()] {
            assert_eq!(bc.instrs[0], Instr::Emit);
            assert!((bc.entry as usize) < bc.instrs.len());
        }
    }

    #[test]
    fn forward_mode_resolves_unify_directions_statically() {
        let plan = plan_for(ZNAT);
        let succ = plan.method(plan.lookup_impl("ZNat", "succ").unwrap());
        let (forward, _) = succ.body.solved_forms().unwrap();
        let bc = forward.bc.as_ref().unwrap();
        // Forward succ: `ZNat(val - 1) = n` with `n` a bound parameter and
        // the left a constructor pattern over the unbound field `val`: the
        // analysis must flip it to match-left/eval-right.
        let modes: Vec<UnifyMode> = bc
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Unify { mode, .. } => Some(*mode),
                _ => None,
            })
            .collect();
        assert!(
            modes.contains(&UnifyMode::MatchEval),
            "expected a statically flipped equation, got {modes:?}"
        );
    }

    #[test]
    fn choice_arity_mirrors_the_plan() {
        // `||` parses right-associated, so `x = 0 || x = 1 || x = 2` lowers
        // to `Any[x = 0, Any[x = 1, x = 2]]` — the bytecode must mirror that
        // choice-point structure exactly (two nested binary Choices), so
        // the machine creates one choice point per source disjunction and
        // its pinned choice-point counters (`tests/laziness.rs`, perfbench's
        // `exec.choice_points_created`) count the program, not the compiler.
        let plan =
            plan_for("class R { boolean below(int x) iterates(x) ( x = 0 || x = 1 || x = 2 ) }");
        let m = plan.method(plan.lookup_impl("R", "below").unwrap());
        let (_, matching) = m.body.solved_forms().unwrap();
        let bc = matching.bc.as_ref().unwrap();
        let choices: Vec<usize> = bc
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Choice(alts) => Some(alts.len()),
                _ => None,
            })
            .collect();
        assert_eq!(choices, vec![2, 2], "{bc}");
    }

    #[test]
    fn while_compare_compiles_to_cmp_loop() {
        let plan = plan_for(
            "static int count(int n) {
                 int i;
                 int acc;
                 i = 0;
                 acc = 0;
                 while (i < n) { acc = acc + i; i = i + 1; }
                 return acc;
             }",
        );
        let m = plan.method(plan.lookup_free("count").unwrap());
        let crate::lower::BodyPlan::Block(bp) = &m.body else {
            panic!()
        };
        let bc = bp.bc.as_ref().unwrap();
        assert!(
            bc.code.iter().any(|i| matches!(i, SInstr::CmpJump { .. })),
            "{bc}"
        );
        assert!(
            bc.code.iter().any(|i| matches!(i, SInstr::LoopJump { .. })),
            "{bc}"
        );
        // The loop region (head through the back-jump) is straight register
        // code: no goal is solved in it. The leading declarations solve
        // their goals once, outside the loop.
        let head = bc
            .code
            .iter()
            .position(|i| matches!(i, SInstr::ResetGuard { .. }))
            .unwrap();
        let back = bc
            .code
            .iter()
            .position(|i| matches!(i, SInstr::LoopJump { .. }))
            .unwrap();
        assert!(head < back, "{bc}");
        assert!(
            !bc.code[head..=back]
                .iter()
                .any(|i| matches!(i, SInstr::Solve { .. } | SInstr::Scope { .. })),
            "{bc}"
        );
        assert!(
            matches!(bc.code[0], SInstr::Solve { .. }),
            "`int i;` solves its goal: {bc}"
        );
    }

    #[test]
    fn switch_over_guarded_cases_gets_a_jump_table() {
        // Class-constructor patterns (`case A(..)`) are the shapes that get
        // `CaseGuard::Classes` masks — same as the repr bench's 64-arm
        // dispatch corpus.
        let plan = plan_for(
            "interface P { }
             class A implements P { int va; A(int n) returns(n) ( va = n ) }
             class B implements P { int vb; B(int n) returns(n) ( vb = n ) }
             static int pick(P p) {
                 switch (p) {
                     case A(int x): return x + 1;
                     case B(int y): return y + 2;
                     default: return 0;
                 }
             }",
        );
        let m = plan.method(plan.lookup_free("pick").unwrap());
        let crate::lower::BodyPlan::Block(bp) = &m.body else {
            panic!()
        };
        let bc = bp.bc.as_ref().unwrap();
        let has_switch = bc.code.iter().any(|i| matches!(i, SInstr::Switch { .. }));
        assert!(has_switch, "{bc}");
        assert_eq!(bc.switches.len(), 1);
        // Every per-type candidate list is a subset of the case indices in
        // source order.
        let table = &bc.switches[0];
        for cands in &table.by_type {
            assert!(cands.windows(2).all(|w| w[0] < w[1]));
        }
        // Each case names its body's sub-chain, laid out after the guarded
        // switch, as is the `default` body.
        let sw = bc
            .code
            .iter()
            .position(|i| matches!(i, SInstr::Switch { .. }))
            .unwrap() as Pc;
        assert_eq!(table.cases.len(), 2);
        for pc in table.cases.iter().map(|c| c.body).chain([table.default]) {
            assert!(pc > sw, "{bc}");
            let exit = bc.code[pc as usize..]
                .iter()
                .find(|i| matches!(i, SInstr::Ret { .. } | SInstr::End));
            assert!(matches!(exit, Some(SInstr::Ret { .. })), "{bc}");
        }
    }
}
