//! OR-parallel solution enumeration: a work-stealing pool of [`Machine`]s
//! over one shared [`ProgramPlan`].
//!
//! # The model
//!
//! Backtracking enumeration explores a **choice tree**: at every
//! multi-alternative choice point (a bytecode `Choice` or an or-pattern)
//! the machine picks alternative 0 and leaves the rest for
//! backtracking. Execution is deterministic *between* choice points, so a
//! node of the tree is fully identified by its **choice path** — the
//! alternative indices taken at each choice point from the root, in
//! creation order — and sequential enumeration order is exactly
//! lexicographic order on choice paths.
//!
//! This module parallelizes the tree by **path replay** (the classic
//! recomputation approach to OR-parallelism): a *task* is a choice-path
//! prefix, and a worker claims one by building a fresh [`Machine`] over the
//! shared `Arc<ProgramPlan>` — with its own trail, frame arena, and
//! continuation stack — and replaying the prefix as a guide
//! ([`Machine::with_guide`]). Guided choice points take the recorded
//! alternative directly and create no local choice point, so the worker
//! then owns exactly the subtree under the prefix and enumerates it with
//! plain sequential DFS. Nothing mutable is ever shared between workers;
//! replay trades a little duplicated deterministic work for zero
//! synchronization on bindings.
//!
//! # Splitting invariants
//!
//! Work is split on demand: when some worker is idle (`hungry > 0` in the
//! [`Injector`]), a busy worker donates via [`Machine::split_oldest`],
//! which exports **all untried alternatives of its oldest (root-most)
//! choice point** as new tasks and removes that choice point locally.
//! Three invariants follow, and the ordered-mode collector depends on
//! them:
//!
//! 1. **Partition.** A donated alternative is never explored locally and
//!    every local alternative is never donated, so the dispensed tasks
//!    partition the solution space — no duplicates, no gaps.
//! 2. **Solutions before donations.** Untried alternatives have larger
//!    indices than the one being explored, so *every* solution a worker
//!    emits for its task — before or after a donation — is
//!    lexicographically before *every* subtree it donates.
//! 3. **Later donations before earlier ones.** A later donation comes from
//!    a choice point inside the subtree currently being explored, which
//!    lies entirely before the previously donated siblings.
//!
//! Invariants 2 and 3 mean a task's output in sequential order is: the
//! worker's own emissions (already in DFS order), then its donation rounds
//! *in reverse round order*, each round in alternative order. The ordered
//! collector ([`ParStream`]) is a reorder buffer that walks exactly this
//! recursion, streaming the head task's solutions as they arrive and
//! buffering the rest; unordered mode skips the buffer and merges solutions
//! as produced.
//!
//! # Budgets and errors
//!
//! All workers draw on one [`SharedBudget`] pool sized by
//! [`Limits::max_steps`], debited in batches (see
//! [`crate::eval::Budget::new_shared`]), so the configured ceiling bounds
//! the *combined* work of the pool — a budget a sequential run exceeds is
//! always exceeded in parallel too (parallel replay can only add work).
//! `max_depth` is a per-derivation nesting property and is enforced
//! per-machine, identically to sequential runs. A worker error ends its
//! task; in ordered mode the collector surfaces it at the task's exact
//! sequential position (after the task's earlier solutions, before
//! everything lexicographically later), reproducing the sequential
//! stream's error placement for deterministic (non-budget) errors.

use crate::api::{frame_bindings, param_row_bindings, Limits};
use crate::eval::{Budget, Frame, SharedBudget};
use crate::machine::{Machine, RunOutcome};
use crate::{Bindings, RtError, RtResult, Value};
use jmatch_core::bytecode::BcBody;
use jmatch_core::lower::{BodyPlan, PlanId, ProgramPlan, SlotId, SolvedForm};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A task's choice-path prefix (see the module docs).
type ChoicePath = Vec<u32>;

/// Dense id of one dispensed task.
type TaskId = u64;

const ROOT_TASK: TaskId = 0;

/// Machine steps a worker runs between scheduling points (cancellation
/// polls and donation checks).
const WORKER_FUEL: u64 = 256;

/// Worker stack size: the machine keeps its activation frames on the heap,
/// but deterministic sub-evaluation recurses natively up to
/// `Limits::max_depth`, so give workers the same headroom a test thread's
/// raised limits may need.
const WORKER_STACK: usize = 16 << 20;

/// Whether solutions are merged back in sequential order or as produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParMode {
    /// Reproduce the sequential machine's exact enumeration order (and
    /// error placement) through a reorder buffer.
    Ordered,
    /// Merge solutions as workers produce them — maximal throughput, order
    /// depends on scheduling.
    Unordered,
}

/// What a parallel enumeration runs: the plan-engine counterpart of
/// `api::Source`, with everything owned so it can be shipped to workers.
#[derive(Clone)]
pub(crate) enum ParJob {
    /// Backward mode of a constructor: solve the matching plan of `pid`
    /// against `value`.
    Deconstruct {
        /// The matching plan.
        pid: PlanId,
        /// The matched value (`this` inside the plan).
        value: Value,
    },
    /// A standalone lowered formula with its entry bindings.
    Formula {
        /// The lowered form (shared, immutable).
        form: Arc<SolvedForm>,
        /// Entry bindings as (slot, value) writes into the root frame.
        seed: Vec<(SlotId, Value)>,
        /// `this`, when in scope.
        this: Option<Value>,
    },
}

/// Messages from workers to the collecting iterator.
enum Msg {
    /// One solution of `task`.
    Sol { task: TaskId, bindings: Bindings },
    /// `parent` donated one round of child tasks (in alternative order).
    Spawn {
        parent: TaskId,
        children: Vec<TaskId>,
    },
    /// `task` is finished; `error` is the failure that ended it, if any,
    /// and `work` the machine steps and choice points the task spent.
    Done {
        task: TaskId,
        error: Option<RtError>,
        work: Work,
    },
}

/// Machine steps and choice points created, summed over finished tasks
/// (replayed prefixes included).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Work {
    pub(crate) steps: u64,
    pub(crate) choice_points_created: u64,
}

impl Work {
    fn of(machine: &Machine<'_>) -> Self {
        Work {
            steps: machine.steps(),
            choice_points_created: machine.choices_created(),
        }
    }

    fn add(&mut self, other: Work) {
        self.steps += other.steps;
        self.choice_points_created += other.choice_points_created;
    }
}

/// The shared work queue: pending tasks plus the bookkeeping workers need
/// to decide when to donate (idle-worker count) and when to exit (no
/// pending and no running tasks).
struct Injector {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Workers currently parked in [`Injector::pop`] — the cheap signal
    /// busy workers poll to decide whether donating is worthwhile.
    hungry: AtomicUsize,
    /// Tasks currently queued (mirror of `state.tasks.len()`), so busy
    /// workers can skip donating when the queue already holds enough work
    /// to feed the idle workers.
    pending: AtomicUsize,
    cancelled: AtomicBool,
    next_id: AtomicU64,
}

struct QueueState {
    tasks: VecDeque<(TaskId, ChoicePath)>,
    /// Tasks dispensed or queued but not yet finished.
    outstanding: usize,
}

impl Injector {
    /// Locks the queue state, tolerating poisoning: a panicking worker
    /// must not cascade panics into its siblings or the collector (the
    /// queue's invariants are a counter and a deque, both valid at every
    /// await point).
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn new() -> Self {
        let mut tasks = VecDeque::new();
        tasks.push_back((ROOT_TASK, ChoicePath::new()));
        Injector {
            state: Mutex::new(QueueState {
                tasks,
                outstanding: 1,
            }),
            cv: Condvar::new(),
            hungry: AtomicUsize::new(0),
            pending: AtomicUsize::new(1),
            cancelled: AtomicBool::new(false),
            next_id: AtomicU64::new(ROOT_TASK + 1),
        }
    }

    fn fresh_id(&self) -> TaskId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Blocks until a task is available; returns `None` when the
    /// enumeration is complete (nothing pending, nothing running) or
    /// cancelled.
    fn pop(&self) -> Option<(TaskId, ChoicePath)> {
        let mut st = self.lock();
        loop {
            if self.is_cancelled() {
                return None;
            }
            if let Some(t) = st.tasks.pop_front() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                return Some(t);
            }
            if st.outstanding == 0 {
                return None;
            }
            self.hungry.fetch_add(1, Ordering::Relaxed);
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            self.hungry.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn push_tasks(&self, entries: Vec<(TaskId, ChoicePath)>) {
        let mut st = self.lock();
        st.outstanding += entries.len();
        self.pending.fetch_add(entries.len(), Ordering::Relaxed);
        st.tasks.extend(entries);
        drop(st);
        self.cv.notify_all();
    }

    /// One dispensed task finished (successfully or not).
    fn finish(&self) {
        let mut st = self.lock();
        st.outstanding -= 1;
        let done = st.outstanding == 0;
        drop(st);
        if done {
            self.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(
    plan: &ProgramPlan,
    job: &ParJob,
    limits: Limits,
    pool: &Arc<SharedBudget>,
    inj: &Injector,
    tx: &mpsc::SyncSender<Msg>,
    interrupt: Option<&Arc<std::sync::atomic::AtomicBool>>,
) {
    while let Some((task, guide)) = inj.pop() {
        // The guard runs `finish` even if `run_task` panics: a worker that
        // unwinds must still retire its task, or `outstanding` never hits
        // zero and the surviving workers (and the collector) wait forever.
        let _finish = FinishGuard(inj);
        run_task(plan, job, limits, pool, inj, tx, task, guide, interrupt);
    }
}

/// Retires one dispensed task on drop — including on unwind.
struct FinishGuard<'a>(&'a Injector);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

#[allow(clippy::too_many_arguments)]
fn run_task(
    plan: &ProgramPlan,
    job: &ParJob,
    limits: Limits,
    pool: &Arc<SharedBudget>,
    inj: &Injector,
    tx: &mpsc::SyncSender<Msg>,
    task: TaskId,
    guide: ChoicePath,
    interrupt: Option<&Arc<std::sync::atomic::AtomicBool>>,
) {
    let mut budget = Budget::new_shared(limits.max_depth, Arc::clone(pool));
    budget.set_interrupt(interrupt.map(Arc::clone));
    let (code, root, this, root_det): (&BcBody, Frame, Option<Value>, bool) = match job {
        ParJob::Deconstruct { pid, value } => {
            let mp = plan.method(*pid);
            let BodyPlan::Formula { matching, .. } = &mp.body else {
                // Checked at query construction; defend anyway.
                let _ = tx.send(Msg::Done {
                    task,
                    error: Some(RtError::mode_mismatch(
                        &mp.info.qualified_name(),
                        "backward (pattern-matching)",
                    )),
                    work: Work::default(),
                });
                return;
            };
            (
                matching.code(),
                vec![None; matching.frame.len()],
                Some(value.clone()),
                matching.det,
            )
        }
        ParJob::Formula { form, seed, this } => {
            let mut root: Frame = vec![None; form.frame.len()];
            for (s, v) in seed {
                root[*s as usize] = Some(v.clone());
            }
            (form.code(), root, this.clone(), form.det)
        }
    };
    let mut machine = Machine::query(plan, budget, code, root, this)
        .with_guide(guide)
        .with_root_det(root_det);
    loop {
        if inj.is_cancelled() {
            machine.release_budget();
            return;
        }
        match machine.run(WORKER_FUEL) {
            Err(e) => {
                machine.release_budget();
                let _ = tx.send(Msg::Done {
                    task,
                    error: Some(e),
                    work: Work::of(&machine),
                });
                return;
            }
            Ok(RunOutcome::Exhausted) => {
                machine.release_budget();
                let _ = tx.send(Msg::Done {
                    task,
                    error: None,
                    work: Work::of(&machine),
                });
                return;
            }
            Ok(RunOutcome::Paused) => {
                donate_if_hungry(&mut machine, inj, tx, task);
            }
            Ok(RunOutcome::Solution) => {
                if let Some(bindings) = extract_solution(plan, job, machine.root_frame()) {
                    if tx.send(Msg::Sol { task, bindings }).is_err() {
                        // The consumer is gone; stop quietly.
                        machine.release_budget();
                        return;
                    }
                }
                donate_if_hungry(&mut machine, inj, tx, task);
            }
        }
    }
}

/// Donates the machine's oldest choice point when some worker is idle.
/// The `Spawn` message goes out *before* the tasks are queued, so the
/// collector can never see a child finish whose parent round it will not
/// eventually learn about (messages from one worker arrive in order, and
/// `Done` for the parent is sent after all its `Spawn`s).
fn donate_if_hungry(
    machine: &mut Machine<'_>,
    inj: &Injector,
    tx: &mpsc::SyncSender<Msg>,
    parent: TaskId,
) {
    // Donate only when idle workers outnumber the tasks already queued:
    // splitting is cheap but replay is not free, so feeding a saturated
    // queue would only shred the search into needlessly fine grains.
    if inj.hungry.load(Ordering::Relaxed) <= inj.pending.load(Ordering::Relaxed)
        || !machine.can_split()
    {
        return;
    }
    let prefixes = machine.split_oldest();
    if prefixes.is_empty() {
        return;
    }
    let entries: Vec<(TaskId, ChoicePath)> =
        prefixes.into_iter().map(|p| (inj.fresh_id(), p)).collect();
    let children: Vec<TaskId> = entries.iter().map(|e| e.0).collect();
    if tx.send(Msg::Spawn { parent, children }).is_err() {
        // Consumer gone: drop the donation; the stream is dead anyway.
        return;
    }
    inj.push_tasks(entries);
}

/// Turns a machine solution into caller-facing [`Bindings`], mirroring the
/// sequential `Solutions` extraction (rows leaving a declared parameter
/// unbound or ill-typed are filtered, like both recursive engines).
fn extract_solution(plan: &ProgramPlan, job: &ParJob, frame: &Frame) -> Option<Bindings> {
    match job {
        ParJob::Formula { form, .. } => Some(frame_bindings(&form.frame, frame)),
        ParJob::Deconstruct { pid, .. } => {
            let mp = plan.method(*pid);
            let BodyPlan::Formula { matching, .. } = &mp.body else {
                return None;
            };
            param_row_bindings(
                &mp.info.decl.params,
                &matching.param_slots,
                plan.table(),
                frame,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// The collecting stream
// ---------------------------------------------------------------------------

/// Per-task reorder-buffer state (ordered mode).
#[derive(Default)]
struct TaskBuf {
    /// Solutions of this task, in the task's own (DFS) order.
    items: VecDeque<Bindings>,
    /// Donation rounds, chronologically; sequential order is the reverse.
    rounds: Vec<Vec<TaskId>>,
    done: bool,
    error: Option<RtError>,
}

/// The worker pool plus the collector that [`crate::Solutions`] drives:
/// ordered mode is a reorder buffer over task streams, unordered mode a
/// plain merge. Dropping the stream cancels the pool, disconnects the
/// channel (unblocking any sender), and joins every worker.
pub(crate) struct ParStream {
    rx: Option<mpsc::Receiver<Msg>>,
    inj: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    mode: ParMode,
    /// Ordered mode: buffered state of tasks that are not the head.
    tasks: HashMap<TaskId, TaskBuf>,
    /// Ordered mode: tasks still to emit, sequential-first on top.
    stack: Vec<TaskId>,
    finished: bool,
    spawn_error: Option<RtError>,
    /// The work of every task finished so far.
    work: Work,
}

/// Starts an OR-parallel enumeration over `threads` workers
/// (`0` = the `JMATCH_PAR_THREADS` default of
/// [`jmatch_smt::pool::configured_threads`]).
pub(crate) fn spawn(
    plan: Arc<ProgramPlan>,
    job: ParJob,
    limits: Limits,
    threads: usize,
    mode: ParMode,
    interrupt: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> ParStream {
    let threads = if threads == 0 {
        jmatch_smt::configured_threads()
    } else {
        threads
    };
    let inj = Arc::new(Injector::new());
    let pool = Arc::new(SharedBudget::new(limits.max_steps));
    let (tx, rx) = mpsc::sync_channel::<Msg>(threads * 4 + 16);
    let mut workers = Vec::with_capacity(threads);
    let mut spawn_error = None;
    for i in 0..threads {
        let plan = Arc::clone(&plan);
        let job = job.clone();
        let pool = Arc::clone(&pool);
        let inj = Arc::clone(&inj);
        let tx = tx.clone();
        let interrupt = interrupt.clone();
        let builder = std::thread::Builder::new()
            .name(format!("jmatch-par-worker-{i}"))
            .stack_size(WORKER_STACK);
        match builder.spawn(move || {
            crate::declare_thread_stack(WORKER_STACK);
            worker_loop(&plan, &job, limits, &pool, &inj, &tx, interrupt.as_ref())
        }) {
            Ok(h) => workers.push(h),
            Err(e) => {
                spawn_error = Some(RtError::new(format!(
                    "could not start OR-parallel worker {i}: {e}"
                )));
                break;
            }
        }
    }
    drop(tx);
    if spawn_error.is_some() {
        inj.cancel();
    }
    ParStream {
        rx: Some(rx),
        inj,
        workers,
        mode,
        tasks: HashMap::new(),
        stack: vec![ROOT_TASK],
        finished: false,
        spawn_error,
        work: Work::default(),
    }
}

impl ParStream {
    /// The machine steps and choice points of every task finished so far.
    pub(crate) fn work(&self) -> Work {
        self.work
    }

    /// The next solution, an error ending the stream, or `None` when the
    /// enumeration is complete.
    pub(crate) fn next(&mut self) -> Option<RtResult<Bindings>> {
        if self.finished {
            return None;
        }
        if let Some(e) = self.spawn_error.take() {
            self.end(true);
            return Some(Err(e));
        }
        match self.mode {
            ParMode::Unordered => self.next_unordered(),
            ParMode::Ordered => self.next_ordered(),
        }
    }

    fn next_unordered(&mut self) -> Option<RtResult<Bindings>> {
        loop {
            let Some(rx) = self.rx.as_ref() else {
                self.end(false);
                return None;
            };
            match rx.recv() {
                Ok(Msg::Sol { bindings, .. }) => return Some(Ok(bindings)),
                Ok(Msg::Spawn { .. }) => {}
                Ok(Msg::Done { error, work, .. }) => {
                    self.work.add(work);
                    if let Some(e) = error {
                        self.end(true);
                        return Some(Err(e));
                    }
                }
                Err(_) => {
                    // Every worker exited: the enumeration is complete.
                    self.end(false);
                    return None;
                }
            }
        }
    }

    fn next_ordered(&mut self) -> Option<RtResult<Bindings>> {
        enum Action {
            Emit(Bindings),
            Fail(RtError),
            Pop,
            Wait,
        }
        loop {
            let Some(&head) = self.stack.last() else {
                // Every task emitted: the enumeration is complete.
                self.end(false);
                return None;
            };
            let action = {
                let tb = self.tasks.entry(head).or_default();
                if let Some(b) = tb.items.pop_front() {
                    Action::Emit(b)
                } else if let Some(e) = tb.error.take() {
                    Action::Fail(e)
                } else if tb.done {
                    Action::Pop
                } else {
                    Action::Wait
                }
            };
            match action {
                Action::Emit(b) => return Some(Ok(b)),
                Action::Fail(e) => {
                    // Surfaced at the head's position: after the task's own
                    // solutions, before everything sequentially later —
                    // exactly where the sequential stream stops.
                    self.end(true);
                    return Some(Err(e));
                }
                Action::Pop => {
                    self.stack.pop();
                    let tb = self.tasks.remove(&head).unwrap_or_default();
                    // Sequential order of the children is reverse round
                    // order, each round in alternative order (module docs);
                    // push the reverse so the stack pops sequentially.
                    for round in &tb.rounds {
                        for &child in round.iter().rev() {
                            self.stack.push(child);
                        }
                    }
                }
                Action::Wait => {
                    let Some(rx) = self.rx.as_ref() else {
                        self.end(false);
                        return None;
                    };
                    match rx.recv() {
                        Ok(m) => self.dispatch(m),
                        Err(_) => {
                            // Workers gone with the head unfinished: a
                            // worker died without reporting; end the stream
                            // rather than hang.
                            self.end(false);
                            return None;
                        }
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, m: Msg) {
        match m {
            Msg::Sol { task, bindings } => {
                self.tasks
                    .entry(task)
                    .or_default()
                    .items
                    .push_back(bindings);
            }
            Msg::Spawn { parent, children } => {
                self.tasks.entry(parent).or_default().rounds.push(children);
            }
            Msg::Done { task, error, work } => {
                self.work.add(work);
                let tb = self.tasks.entry(task).or_default();
                tb.done = true;
                tb.error = error;
            }
        }
    }

    /// Ends the stream: optionally cancels outstanding work, disconnects
    /// the channel, and joins every worker.
    fn end(&mut self, cancel: bool) {
        self.finished = true;
        if cancel {
            self.inj.cancel();
        }
        // Dropping the receiver unblocks any worker parked in `send`.
        self.rx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ParStream {
    fn drop(&mut self) {
        self.inj.cancel();
        self.rx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_plumbing_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ParJob>();
        assert_send::<Msg>();
        assert_send::<ParStream>();
    }
}
