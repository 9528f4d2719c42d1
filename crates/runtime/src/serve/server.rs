//! The multi-tenant query server.
//!
//! ```text
//!                    ┌───────────────────────────── Server ──────────────────────────────┐
//! TCP clients ──────▶ accept loop ──▶ per-connection reader threads                       │
//!                   │                   │ ping/compile: answered inline (single-flight    │
//!                   │                   │               ProgramCache)                     │
//!                   │                   │ call/query/stream: admission                    │
//!                   │                   ▼                                                 │
//!                   │            TenantQuotas (reserve step grant)                        │
//!                   │                   ▼                                                 │
//!                   │            Scheduler: bounded per-tenant FIFOs,                     │
//!                   │            round-robin draining ──▶ worker threads                  │
//!                   │                                      │ one job at a time:           │
//!                   │                                      ▼                              │
//!                   │                         pickup check → run → settle → reply         │
//!                   └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The shape is compile-once/serve-forever: compilation (parse + resolve +
//! verify + lower) happens exactly once per distinct source in the
//! [`ProgramCache`], and every query runs over the shared, immutable
//! [`Arc<Program>`]. Admission is **bounded** end to end — connections
//! beyond `max_connections` are refused with `over-capacity` (each one
//! holds a reader thread), a full tenant queue rejects with
//! `over-capacity` + `retry_after_ms` instead of queueing unboundedly,
//! and an exhausted tenant step pool rejects with `quota-exhausted` — so
//! neither a hot tenant nor a flood of connections can grow server
//! memory or starve other tenants (the scheduler drains tenant queues
//! round-robin, one job per turn).
//!
//! The server is fault-tolerant by construction:
//!
//! * **Panic isolation** — each job dispatch runs under `catch_unwind`, so
//!   a panicking request becomes an `internal-error` frame (the quota
//!   grant refunds through the unwind) instead of a dead worker; a
//!   supervisor thread respawns any worker that dies anyway (e.g. an
//!   injected between-jobs panic).
//! * **Deadlines** — requests may carry `deadline_ms`; a watchdog thread
//!   fires the request's cancel token past its deadline and the plan
//!   engine's 256-step interrupt polling surfaces it as a retryable `deadline-exceeded`
//!   frame.
//! * **Backpressure** — responses go through a bounded per-connection send
//!   queue drained by a dedicated writer thread; a queue that stays full
//!   past the high-water timeout marks the client a slow consumer and the
//!   connection is dropped, so a worker never blocks on a client socket.

use super::cache::{CacheOutcome, CacheStats, ProgramCache, ReloadOutcome};
use super::fault::{FaultConfig, FaultInjector, Site};
use super::json::Json;
use super::proto::{
    self, drain, error_kind, read_frame, write_frame, ErrorFrame, FrameError, LimitsSpec,
    QuerySpec, Request,
};
use super::quota::{Grant, QuotaConfig, TenantQuotas, TenantSnapshot};
use crate::{Bindings, Limits, MethodRef, Program, RtError, RtErrorKind, RtResult, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client should wait before retrying after an `over-capacity`
/// rejection — long enough for a queue slot to drain, short enough that
/// the retry loop converges quickly.
const CAPACITY_RETRY_MS: u64 = 25;

/// Locks a mutex, recovering the data on poison: a request panic is an
/// isolated event (caught, answered with `internal-error`), so a lock it
/// happened to hold must not take the rest of the server down with it.
/// Every structure guarded this way is valid after any partial update
/// (counters, queues of owned jobs, token maps).
fn lock_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Stack size for reader and worker threads. Compilation runs inline on
/// reader threads and query lowering on workers; both recurse over ASTs
/// whose depth is client-controlled (e.g. a wide `||` chain), so these
/// threads get a main-thread-sized stack instead of the spawn default.
/// Workers declare it to the stack guard, so every request they run
/// recurses as deep as 8 MiB allows.
const SERVE_THREAD_STACK: usize = 8 << 20;

/// Everything the server's behavior is parameterized on.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` = ephemeral loopback port).
    pub addr: String,
    /// Query worker threads draining the admission queue. `0` is a
    /// test-only mode: jobs are admitted and queued but never drained.
    pub workers: usize,
    /// Not read: every job runs whole on the worker that popped it. Kept
    /// only because the repository benchmark (`perfbench/src/serve_mix.rs`)
    /// sets it; it goes with that benchmark's next change.
    pub inner_threads: usize,
    /// Bound on each tenant's admission queue; the one job each worker
    /// has in flight rides on top of this.
    pub queue_depth: usize,
    /// Most concurrent connections the server accepts. Each connection
    /// holds a reader thread, so an uncapped flood would exhaust
    /// threads/memory despite the bounded admission queues; beyond the
    /// cap, new connections get an `over-capacity` error frame and are
    /// closed immediately.
    pub max_connections: usize,
    /// Most compiled programs the cache keeps (LRU beyond that).
    pub cache_capacity: usize,
    /// Cap on a single frame's payload bytes.
    pub max_frame: usize,
    /// The quota profile handed to tenants without an override.
    pub quota: QuotaConfig,
    /// Per-tenant quota overrides, applied at startup.
    pub tenant_overrides: Vec<(String, QuotaConfig)>,
    /// Whether a `shutdown` frame may stop the server (CI harnesses; keep
    /// off for real deployments).
    pub allow_remote_shutdown: bool,
    /// Bound on each connection's response send queue (frames). Workers
    /// enqueue; a dedicated writer thread drains.
    pub send_queue_depth: usize,
    /// High-water timeout: how long a sender waits on a full send queue
    /// before declaring the client a slow consumer and dropping the
    /// connection. Also bounds each socket write (the writer thread's
    /// write timeout).
    pub send_queue_wait_ms: u64,
    /// Deterministic fault injection (chaos testing); `None` in
    /// production.
    pub faults: Option<FaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            inner_threads: 2,
            queue_depth: 64,
            max_connections: 256,
            cache_capacity: 64,
            max_frame: proto::DEFAULT_MAX_FRAME,
            quota: QuotaConfig::default(),
            tenant_overrides: Vec::new(),
            allow_remote_shutdown: false,
            send_queue_depth: 64,
            send_queue_wait_ms: 2_000,
            faults: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs and the scheduler
// ---------------------------------------------------------------------------

enum JobKind {
    Call { method: String, args: Vec<Value> },
    Query { spec: QuerySpec },
    Stream { spec: QuerySpec, batch: usize },
}

struct Job {
    tenant: String,
    kind: JobKind,
    run: Run,
}

/// What a worker needs to run and answer one admitted request, whatever
/// its kind.
struct Run {
    id: i64,
    conn: Arc<ConnShared>,
    program: Arc<Program>,
    limits: Limits,
    grant: Grant,
    cancel: Arc<AtomicBool>,
    /// Absolute wall-clock deadline (from the request's `deadline_ms`);
    /// the watchdog fires `cancel` past it.
    deadline: Option<Instant>,
}

#[derive(Default)]
struct SchedState {
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order over tenants with live queues.
    order: Vec<String>,
    cursor: usize,
    queued: usize,
}

impl SchedState {
    /// Enqueues under the tenant's bound; a full queue hands the job back.
    fn push(&mut self, job: Job, depth: usize) -> Option<Job> {
        let queue = self.queues.entry(job.tenant.clone()).or_default();
        if queue.len() >= depth {
            return Some(job);
        }
        if queue.is_empty() && !self.order.contains(&job.tenant) {
            self.order.push(job.tenant.clone());
        }
        queue.push_back(job);
        self.queued += 1;
        None
    }

    /// Pops the next job **round-robin across tenants**: each turn serves
    /// the next tenant in rotation that has queued work, so a tenant
    /// keeping its queue full cannot starve the others.
    fn pop(&mut self) -> Option<Job> {
        if self.order.is_empty() {
            return None;
        }
        for _ in 0..self.order.len() {
            if self.cursor >= self.order.len() {
                self.cursor = 0;
            }
            let tenant = self.order[self.cursor].clone();
            if let Some(queue) = self.queues.get_mut(&tenant) {
                if let Some(job) = queue.pop_front() {
                    self.queued -= 1;
                    if queue.is_empty() {
                        self.queues.remove(&tenant);
                        self.order.remove(self.cursor);
                        // cursor now points at the next tenant already.
                    } else {
                        self.cursor += 1;
                    }
                    return Some(job);
                }
            }
            self.order.remove(self.cursor);
        }
        None
    }
}

struct Sched {
    state: Mutex<SchedState>,
    ready: Condvar,
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// The bounded response queue between producers (workers, the reader's
/// inline replies) and the connection's dedicated writer thread.
struct SendQueue {
    /// Pre-framed (length-prefixed) response bytes, oldest first.
    frames: VecDeque<Vec<u8>>,
    /// The reader finished: flush what is queued, then close. New sends
    /// are refused.
    draining: bool,
    /// Hard close: the writer discards everything and exits now.
    dead: bool,
}

/// The half of a connection shared between its reader thread, the workers
/// producing responses, and its writer thread: the bounded send queue,
/// the open flag, and the in-flight cancel tokens.
///
/// Workers never write to the socket. They serialize the frame and
/// enqueue it; the writer thread does the blocking I/O. A full queue
/// makes the producer wait at most `high_water`; past that the client is
/// a slow consumer and the connection is dropped — the worker moves on
/// either way.
struct ConnShared {
    /// The socket (write half). The writer thread writes through it
    /// (`&TcpStream` is `Write`); everyone else only uses it to
    /// `shutdown`, which is what unblocks a reader parked in `read`.
    sock: TcpStream,
    sendq: Mutex<SendQueue>,
    /// Writer waits here for frames (or a drain/close verdict).
    frames_ready: Condvar,
    /// Producers wait here for queue space.
    space_ready: Condvar,
    open: AtomicBool,
    cancels: Mutex<HashMap<i64, Arc<AtomicBool>>>,
    /// Queue bound, in frames.
    depth: usize,
    /// How long a producer waits on a full queue before the slow-consumer
    /// verdict.
    high_water: Duration,
    /// Server counters (slow-consumer disconnects are detected here,
    /// inside `send`).
    counters: Arc<Counters>,
}

impl ConnShared {
    fn new(sock: TcpStream, config: &ServeConfig, counters: Arc<Counters>) -> Self {
        ConnShared {
            sock,
            sendq: Mutex::new(SendQueue {
                frames: VecDeque::new(),
                draining: false,
                dead: false,
            }),
            frames_ready: Condvar::new(),
            space_ready: Condvar::new(),
            open: AtomicBool::new(true),
            cancels: Mutex::new(HashMap::new()),
            depth: config.send_queue_depth.max(1),
            high_water: Duration::from_millis(config.send_queue_wait_ms.max(1)),
            counters,
        }
    }

    /// Serializes and enqueues one frame; `false` means the connection is
    /// gone (closed, draining, or just now convicted as a slow consumer —
    /// in every case the in-flight requests on it are cancelled).
    fn send(&self, doc: &Json) -> bool {
        if !self.open.load(Ordering::Acquire) {
            return false;
        }
        let Ok(bytes) = proto::frame_bytes(doc) else {
            // A >4 GiB response frame; nothing sane to do but drop the
            // connection.
            self.close();
            return false;
        };
        let give_up_at = Instant::now() + self.high_water;
        let mut q = lock_ok(&self.sendq);
        while q.frames.len() >= self.depth {
            if q.dead || q.draining {
                return false;
            }
            let now = Instant::now();
            if now >= give_up_at {
                // Slow consumer: the queue stayed full for the whole
                // high-water window. Drop the connection rather than
                // stall this worker (or buffer without bound).
                drop(q);
                self.counters
                    .slow_consumer_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.close();
                return false;
            }
            let (guard, _timeout) =
                self.sendq
                    .wait_timeout_on(&self.space_ready, q, give_up_at - now);
            q = guard;
        }
        if q.dead || q.draining {
            return false;
        }
        q.frames.push_back(bytes);
        drop(q);
        self.frames_ready.notify_one();
        true
    }

    /// Marks the connection dead, cancels everything in flight on it,
    /// tells the writer to discard and exit, and shuts the socket down
    /// (which also unblocks a reader parked in `read` and a writer parked
    /// in `write`).
    fn close(&self) {
        if self.open.swap(false, Ordering::AcqRel) {
            self.fire_cancels();
        }
        // Past the first close the verdict only hardens (a graceful drain
        // can be upgraded to a hard close, never the reverse), so this
        // part runs unconditionally.
        {
            let mut q = lock_ok(&self.sendq);
            q.dead = true;
            q.draining = true;
        }
        self.frames_ready.notify_all();
        self.space_ready.notify_all();
        let _ = self.sock.shutdown(Shutdown::Both);
    }

    /// The graceful end of a connection (reader saw EOF / a hostile
    /// frame): refuse new work, cancel what is in flight, but let the
    /// writer *flush* the queued frames — a protocol-error reply must
    /// still reach the client — before it closes the socket.
    fn finish(&self) {
        if self.open.swap(false, Ordering::AcqRel) {
            self.fire_cancels();
        }
        lock_ok(&self.sendq).draining = true;
        self.frames_ready.notify_all();
        self.space_ready.notify_all();
    }

    fn fire_cancels(&self) {
        for token in lock_ok(&self.cancels).values() {
            token.store(true, Ordering::Release);
        }
    }

    fn register_cancel(&self, id: i64) -> Arc<AtomicBool> {
        let token = Arc::new(AtomicBool::new(false));
        lock_ok(&self.cancels).insert(id, Arc::clone(&token));
        token
    }

    fn forget_cancel(&self, id: i64) {
        lock_ok(&self.cancels).remove(&id);
    }
}

/// `Condvar::wait_timeout` with the lock/condvar pairing inverted so the
/// call site reads naturally; also poison-tolerant like [`lock_ok`].
trait WaitTimeoutOn<T> {
    fn wait_timeout_on<'a>(
        &'a self,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool);
}

impl<T> WaitTimeoutOn<T> for Mutex<T> {
    fn wait_timeout_on<'a>(
        &'a self,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match cv.wait_timeout(guard, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(poisoned) => {
                let (g, t) = poisoned.into_inner();
                (g, t.timed_out())
            }
        }
    }
}

/// The per-connection writer thread: drains the send queue to the socket
/// so producers never block on client I/O. Exits when the queue is hard
/// closed, when draining finishes, or when a write fails / times out
/// (a never-reading client counts as a slow consumer here too).
fn writer_loop(conn: &Arc<ConnShared>, shared: &Arc<Shared>) {
    // Bound every socket write: a client that stops reading eventually
    // zeroes its receive window and `write` would park forever.
    let _ = conn.sock.set_write_timeout(Some(conn.high_water));
    loop {
        let frame = {
            let mut q = lock_ok(&conn.sendq);
            loop {
                if q.dead {
                    return;
                }
                if let Some(frame) = q.frames.pop_front() {
                    conn.space_ready.notify_all();
                    break frame;
                }
                if q.draining {
                    // Flushed everything the reader's lifetime produced.
                    let _ = conn.sock.shutdown(Shutdown::Both);
                    return;
                }
                q = conn
                    .sendq
                    .wait_timeout_on(&conn.frames_ready, q, conn.high_water)
                    .0;
            }
        };
        if let Some(faults) = &shared.faults {
            if faults.fire(Site::SlowWrite) {
                std::thread::sleep(Duration::from_millis(faults.slow_write_ms()));
            }
            if faults.fire(Site::Truncate) {
                // Write only the length prefix, then kill the connection:
                // the client sees a truncated frame.
                let _ = (&conn.sock).write_all(&frame[..4.min(frame.len())]);
                conn.close();
                return;
            }
        }
        match (&conn.sock).write_all(&frame) {
            Ok(()) => {
                let _ = (&conn.sock).flush();
            }
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    shared
                        .counters
                        .slow_consumer_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
                conn.close();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
    calls: AtomicU64,
    queries: AtomicU64,
    streams: AtomicU64,
    rejected_capacity: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_connections: AtomicU64,
    cancelled: AtomicU64,
    /// Request executions that panicked (caught; answered `internal-error`).
    panics: AtomicU64,
    /// Worker threads the supervisor found dead and respawned.
    worker_respawns: AtomicU64,
    /// Requests answered `deadline-exceeded`.
    deadline_exceeded: AtomicU64,
    /// Connections dropped because their send queue stayed full past the
    /// high-water timeout (or a socket write timed out).
    slow_consumer_disconnects: AtomicU64,
}

/// A point-in-time view of the server's counters, cache and tenants.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Connections accepted since start.
    pub connections: u64,
    /// Frames successfully read.
    pub frames: u64,
    /// Frames rejected as protocol violations.
    pub protocol_errors: u64,
    /// Forward calls executed. Like `queries` and `streams`, this counts
    /// the jobs a worker ran: a job cancelled or expired while queued is
    /// not counted.
    pub calls: u64,
    /// Collect queries executed.
    pub queries: u64,
    /// Streams executed.
    pub streams: u64,
    /// Admissions rejected for a full queue.
    pub rejected_capacity: u64,
    /// Admissions rejected for an exhausted tenant pool.
    pub rejected_quota: u64,
    /// Connections refused at the `max_connections` cap.
    pub rejected_connections: u64,
    /// Executed requests that ended by cancellation (an explicit `cancel`
    /// frame or a disconnect): interrupted calls and queries, and streams
    /// cut short. A deadline is counted in `deadline_exceeded` instead.
    pub cancelled: u64,
    /// Request executions that panicked; each was caught, answered with an
    /// `internal-error` frame, and its grant refunded.
    pub panics: u64,
    /// Worker threads the supervisor found dead and respawned.
    pub worker_respawns: u64,
    /// Requests answered `deadline-exceeded` (their `deadline_ms` elapsed
    /// in queue or mid-run).
    pub deadline_exceeded: u64,
    /// Connections dropped as slow consumers (send queue full past the
    /// high-water timeout, or a socket write timed out).
    pub slow_consumer_disconnects: u64,
    /// Jobs currently queued (not yet picked up by a worker).
    pub queued: usize,
    /// Program-cache counters.
    pub cache: CacheStats,
    /// Per-tenant pool accounting.
    pub tenants: Vec<TenantSnapshot>,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    config: ServeConfig,
    cache: ProgramCache,
    quotas: TenantQuotas,
    sched: Sched,
    shutdown: AtomicBool,
    counters: Arc<Counters>,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
    /// The worker pool; behind a mutex so the supervisor can swap a dead
    /// worker's handle for its respawn.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// `(fire_at, cancel_token)` registrations the watchdog scans; `Weak`
    /// so a finished request leaves nothing to collect but a dead pointer.
    deadlines: Mutex<Vec<(Instant, Weak<AtomicBool>)>>,
    /// Seeded fault injection, when chaos-testing; `None` in production.
    faults: Option<FaultInjector>,
}

struct ConnEntry {
    shared: Arc<ConnShared>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

/// A running `jmatch-serve` instance. Dropping (or [`Server::shutdown`])
/// stops accepting, closes every connection, and joins every thread the
/// server spawned — the no-leaked-threads guarantee `tests/serve.rs` pins.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let quotas = TenantQuotas::new(config.quota);
        for (tenant, quota) in &config.tenant_overrides {
            quotas.set_tenant_config(tenant, *quota);
        }
        let faults = config
            .faults
            .as_ref()
            .filter(|f| f.is_active())
            .map(|f| FaultInjector::new(f.clone()));
        let shared = Arc::new(Shared {
            cache: ProgramCache::new(config.cache_capacity),
            quotas,
            sched: Sched {
                state: Mutex::new(SchedState::default()),
                ready: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            counters: Arc::new(Counters::default()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            deadlines: Mutex::new(Vec::new()),
            faults,
            config,
        });
        {
            let mut workers = lock_ok(&shared.workers);
            for i in 0..shared.config.workers {
                workers.push(spawn_worker(&shared, i)?);
            }
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("jmatch-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("jmatch-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))?
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("jmatch-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            supervisor: Some(supervisor),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (resolve the ephemeral port here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time metrics.
    pub fn metrics(&self) -> Metrics {
        let c = &self.shared.counters;
        Metrics {
            connections: c.connections.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            calls: c.calls.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            streams: c.streams.load(Ordering::Relaxed),
            rejected_capacity: c.rejected_capacity.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            rejected_connections: c.rejected_connections.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            slow_consumer_disconnects: c.slow_consumer_disconnects.load(Ordering::Relaxed),
            queued: lock_ok(&self.shared.sched.state).queued,
            cache: self.shared.cache.stats(),
            tenants: self.shared.quotas.snapshot(),
        }
    }

    /// The tenant quota registry (pin per-tenant profiles at runtime).
    pub fn quotas(&self) -> &TenantQuotas {
        &self.shared.quotas
    }

    /// Whether a `shutdown` frame (or a prior [`Server::shutdown`]) has
    /// stopped the server.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until something requests shutdown (a `shutdown` frame with
    /// remote shutdown enabled, or another thread calling
    /// [`Server::shutdown`] via a clone — the bin's main-thread wait).
    pub fn wait_for_shutdown(&self) {
        while !self.is_shut_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Stops accepting, closes every connection, joins every thread.
    /// Queued-but-unstarted jobs refund their tenant step grants.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sched.ready.notify_all();
        // Supervisor and watchdog first: once shutdown is set neither will
        // respawn or cancel anything, and stopping them here means the
        // worker set is stable for the joins below.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        // Closing the sockets unblocks readers parked in `read` and
        // writers parked in `write`.
        let entries: Vec<ConnEntry> = {
            let mut conns = lock_ok(&self.shared.conns);
            conns.drain().map(|(_, e)| e).collect()
        };
        for entry in &entries {
            entry.shared.close();
        }
        for mut entry in entries {
            if let Some(handle) = entry.reader.take() {
                let _ = handle.join();
            }
            if let Some(handle) = entry.writer.take() {
                let _ = handle.join();
            }
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers: Vec<JoinHandle<()>> = lock_ok(&self.shared.workers).drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
        // Drop whatever never ran; each Job's Grant refunds on drop.
        lock_ok(&self.shared.sched.state).queues.clear();
        lock_ok(&self.shared.deadlines).clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("jmatch-serve-worker-{index}"))
        .stack_size(SERVE_THREAD_STACK)
        .spawn(move || {
            crate::declare_thread_stack(SERVE_THREAD_STACK);
            worker_loop(&shared)
        })
}

/// The supervisor: polls the worker pool and respawns any thread that
/// died. Request panics are caught inside the worker, so in practice only
/// an *uncaught* panic (an injected between-jobs fault, or a bug in the
/// worker loop itself) gets here — but the server must outlive those too.
fn supervisor_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        {
            let mut workers = lock_ok(&shared.workers);
            for i in 0..workers.len() {
                if !workers[i].is_finished() || shared.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                match spawn_worker(shared, i) {
                    Ok(fresh) => {
                        let dead = std::mem::replace(&mut workers[i], fresh);
                        let _ = dead.join();
                        shared
                            .counters
                            .worker_respawns
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    // Spawn failure (thread exhaustion): leave the dead
                    // handle in place and retry next tick.
                    Err(_) => continue,
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The deadline watchdog: scans the registry and fires the cancel token
/// of every request past its deadline. The engines poll the token every
/// 256 steps, so enforcement lag is bounded by poll granularity plus the
/// scan interval.
fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        {
            let now = Instant::now();
            let mut deadlines = lock_ok(&shared.deadlines);
            deadlines.retain(|(fire_at, token)| match token.upgrade() {
                // The request finished; its registration is garbage.
                None => false,
                Some(token) => {
                    if now >= *fire_at {
                        token.store(true, Ordering::Release);
                        false
                    } else {
                        true
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Accept loop and connection readers
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Responses are single small frames; waiting for ACKs
                // (Nagle) would serialize the whole protocol at ~40ms RTT.
                let _ = stream.set_nodelay(true);
                // Every connection holds an 8 MiB-stack reader thread (and
                // a writer thread), so the count must be bounded: at the
                // cap, answer with a structured rejection and close
                // instead of spawning.
                let live = lock_ok(&shared.conns).len();
                if live >= shared.config.max_connections {
                    shared
                        .counters
                        .rejected_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let frame = ErrorFrame::new(
                        error_kind::OVER_CAPACITY,
                        format!(
                            "server is at its {}-connection limit; retry shortly",
                            shared.config.max_connections
                        ),
                    )
                    .retry_after(CAPACITY_RETRY_MS)
                    .into_frame(None);
                    let _ = write_frame(&mut stream, &frame);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(ConnShared::new(
                    write_half,
                    &shared.config,
                    Arc::clone(&shared.counters),
                ));
                let writer = {
                    let shared = Arc::clone(shared);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("jmatch-serve-writer-{conn_id}"))
                        .spawn(move || writer_loop(&conn, &shared))
                };
                let Ok(writer) = writer else {
                    conn.close();
                    continue;
                };
                let reader = {
                    let shared = Arc::clone(shared);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("jmatch-serve-conn-{conn_id}"))
                        .stack_size(SERVE_THREAD_STACK)
                        .spawn(move || {
                            reader_loop(stream, &conn, &shared);
                            // Graceful end: queued replies (e.g. the
                            // protocol-error frame for a hostile request)
                            // still flush before the socket closes.
                            conn.finish();
                            // Detach ourselves from the table (drop of our
                            // own JoinHandle just detaches) and reap our
                            // writer.
                            let entry = lock_ok(&shared.conns).remove(&conn_id);
                            if let Some(mut entry) = entry {
                                if let Some(writer) = entry.writer.take() {
                                    let _ = writer.join();
                                }
                            }
                        })
                };
                let Ok(reader) = reader else {
                    conn.close();
                    let _ = writer.join();
                    continue;
                };
                let mut conns = lock_ok(&shared.conns);
                if conn.open.load(Ordering::Acquire) {
                    conns.insert(
                        conn_id,
                        ConnEntry {
                            shared: conn,
                            reader: Some(reader),
                            writer: Some(writer),
                        },
                    );
                } else {
                    // The reader already finished (and found no table
                    // entry to reap); join both threads here so nothing
                    // dangles.
                    drop(conns);
                    let _ = reader.join();
                    let _ = writer.join();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn reader_loop(mut stream: TcpStream, conn: &Arc<ConnShared>, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) || !conn.open.load(Ordering::Acquire) {
            return;
        }
        match read_frame(&mut stream, shared.config.max_frame) {
            Ok(doc) => {
                shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                // Inline work (compiles, admission) panicking must not
                // take the reader down: the client gets `internal-error`
                // and keeps its connection.
                let id = doc.get("id").and_then(Json::as_i64);
                if catch_unwind(AssertUnwindSafe(|| handle_frame(&doc, conn, shared))).is_err() {
                    shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        &ErrorFrame::new(
                            error_kind::INTERNAL,
                            "the server hit an internal error handling this request",
                        )
                        .into_frame(id),
                    );
                }
            }
            Err(FrameError::Eof) => return,
            Err(FrameError::Truncated(_)) => return,
            Err(FrameError::TooLarge { declared }) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let frame = ErrorFrame::new(
                    error_kind::FRAME_TOO_LARGE,
                    format!(
                        "declared frame length {declared} exceeds the {}-byte cap",
                        shared.config.max_frame
                    ),
                )
                .with("max_frame", Json::Int(shared.config.max_frame as i64))
                .into_frame(None);
                conn.send(&frame);
                // Keep the connection when the payload is drainable;
                // beyond the skip cap the framing is hostile.
                if declared <= proto::skip_cap(shared.config.max_frame) {
                    if drain(&mut stream, declared).is_err() {
                        return;
                    }
                } else {
                    return;
                }
            }
            Err(FrameError::Malformed(message)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let frame = ErrorFrame::new(error_kind::PROTOCOL, message).into_frame(None);
                if !conn.send(&frame) {
                    return;
                }
            }
        }
    }
}

fn handle_frame(doc: &Json, conn: &Arc<ConnShared>, shared: &Arc<Shared>) {
    let request = match Request::parse(doc) {
        Ok(request) => request,
        Err((id, message)) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            conn.send(&ErrorFrame::new(error_kind::PROTOCOL, message).into_frame(id));
            return;
        }
    };
    match request {
        Request::Ping { id } => {
            conn.send(&proto::resp_pong(id));
        }
        Request::Shutdown { id } => {
            if shared.config.allow_remote_shutdown {
                conn.send(&proto::resp_ack(id));
                shared.shutdown.store(true, Ordering::Release);
                shared.sched.ready.notify_all();
            } else {
                conn.send(
                    &ErrorFrame::new(
                        error_kind::PROTOCOL,
                        "remote shutdown is not enabled on this server",
                    )
                    .into_frame(Some(id)),
                );
            }
        }
        Request::Compile {
            id,
            tenant,
            source,
            verify,
        } => {
            // When the tenant profile prices compiles, reserve the price
            // up front like any other request (compiles run inline on
            // reader threads, bypassing the admission queue).
            let grant = match shared.quotas.admit_compile(&tenant) {
                Ok(grant) => grant,
                Err(denied) => {
                    shared
                        .counters
                        .rejected_quota
                        .fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        &ErrorFrame::new(
                            error_kind::QUOTA_EXHAUSTED,
                            format!(
                                "tenant `{tenant}` has exhausted its step pool for this window"
                            ),
                        )
                        .retry_after(denied.retry_after_ms)
                        .into_frame(Some(id)),
                    );
                    return;
                }
            };
            match shared.cache.get_or_compile(&source, verify) {
                CacheOutcome::Ready {
                    program,
                    key,
                    cached,
                } => {
                    if let Some(grant) = grant {
                        // A cache hit did no compile work: refund.
                        let used = if cached { 0 } else { grant.granted() };
                        grant.settle(used);
                    }
                    let warnings: Vec<String> =
                        program.warnings().iter().map(|w| w.to_string()).collect();
                    conn.send(&proto::resp_compiled(id, &key, cached, &warnings));
                }
                CacheOutcome::Failed(errors) => {
                    if let Some(grant) = grant {
                        // Failed compiles did the work; charge them.
                        let used = grant.granted();
                        grant.settle(used);
                    }
                    conn.send(&proto::resp_compile_failed(id, &errors));
                }
            }
        }
        Request::Lint {
            id,
            tenant,
            source,
            verify,
            deadline_ms,
        } => {
            // Compilation is not interruptible, so the deadline is checked
            // at the only point it can be: before the work starts. A lint
            // that arrives already expired (client-side queueing) is
            // answered without paying for a compile.
            if deadline_ms == Some(0) {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                conn.send(
                    &ErrorFrame::new(error_kind::DEADLINE_EXCEEDED, "request deadline exceeded")
                        .retry_after(CAPACITY_RETRY_MS)
                        .into_frame(Some(id)),
                );
                return;
            }
            // Linting is compile-shaped work: same inline path, same
            // compile pricing, same cache (a prior `compile` of the same
            // source is a free hit).
            let grant = match shared.quotas.admit_compile(&tenant) {
                Ok(grant) => grant,
                Err(denied) => {
                    shared
                        .counters
                        .rejected_quota
                        .fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        &ErrorFrame::new(
                            error_kind::QUOTA_EXHAUSTED,
                            format!(
                                "tenant `{tenant}` has exhausted its step pool for this window"
                            ),
                        )
                        .retry_after(denied.retry_after_ms)
                        .into_frame(Some(id)),
                    );
                    return;
                }
            };
            match shared.cache.get_or_compile(&source, verify) {
                CacheOutcome::Ready {
                    program,
                    key,
                    cached,
                } => {
                    if let Some(grant) = grant {
                        let used = if cached { 0 } else { grant.granted() };
                        grant.settle(used);
                    }
                    conn.send(&proto::resp_lints(id, &key, cached, program.lints()));
                }
                CacheOutcome::Failed(errors) => {
                    if let Some(grant) = grant {
                        let used = grant.granted();
                        grant.settle(used);
                    }
                    conn.send(&proto::resp_compile_failed(id, &errors));
                }
            }
        }
        Request::Reload {
            id,
            tenant,
            program,
            source,
            deadline_ms,
        } => {
            // Like `lint`, reloads are compile-shaped inline work: the
            // deadline is checked before the (uninterruptible) recompile
            // starts, and the work is priced as a compile. Unlike a full
            // compile, the recompile itself is incremental — the cache
            // keeps each entry's workspace, so only the methods the edit
            // touched are re-lowered and re-verified.
            if deadline_ms == Some(0) {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                conn.send(
                    &ErrorFrame::new(error_kind::DEADLINE_EXCEEDED, "request deadline exceeded")
                        .retry_after(CAPACITY_RETRY_MS)
                        .into_frame(Some(id)),
                );
                return;
            }
            let grant = match shared.quotas.admit_compile(&tenant) {
                Ok(grant) => grant,
                Err(denied) => {
                    shared
                        .counters
                        .rejected_quota
                        .fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        &ErrorFrame::new(
                            error_kind::QUOTA_EXHAUSTED,
                            format!(
                                "tenant `{tenant}` has exhausted its step pool for this window"
                            ),
                        )
                        .retry_after(denied.retry_after_ms)
                        .into_frame(Some(id)),
                    );
                    return;
                }
            };
            match shared.cache.reload(&program, &source) {
                None => {
                    if let Some(grant) = grant {
                        grant.settle(0);
                    }
                    conn.send(
                        &ErrorFrame::new(
                            error_kind::UNKNOWN_PROGRAM,
                            format!("program `{program}` is not resident; re-compile and retry"),
                        )
                        .with("program", Json::Str(program.clone()))
                        .into_frame(Some(id)),
                    );
                }
                Some(ReloadOutcome::Unchanged { key }) => {
                    if let Some(grant) = grant {
                        // No compile work ran: refund.
                        grant.settle(0);
                    }
                    conn.send(&proto::resp_reload_unchanged(id, &key));
                }
                Some(ReloadOutcome::Recompiled {
                    key,
                    program,
                    methods,
                    reverified,
                }) => {
                    if let Some(grant) = grant {
                        let used = grant.granted();
                        grant.settle(used);
                    }
                    let warnings: Vec<String> =
                        program.warnings().iter().map(|w| w.to_string()).collect();
                    conn.send(&proto::resp_reloaded(
                        id,
                        &key,
                        &methods,
                        &reverified,
                        &warnings,
                    ));
                }
                Some(ReloadOutcome::Rejected { diagnostics }) => {
                    if let Some(grant) = grant {
                        // Rejected edits did the compile work; charge them.
                        let used = grant.granted();
                        grant.settle(used);
                    }
                    conn.send(&proto::resp_reload_rejected(id, &diagnostics));
                }
            }
        }
        Request::Cancel { id, target } => {
            if let Some(token) = lock_ok(&conn.cancels).get(&target) {
                token.store(true, Ordering::Release);
            }
            conn.send(&proto::resp_ack(id));
        }
        Request::Call {
            id,
            tenant,
            program,
            method,
            args,
            limits,
            deadline_ms,
        } => admit(
            shared,
            conn,
            id,
            tenant,
            &program,
            limits,
            deadline_ms,
            JobKind::Call { method, args },
        ),
        Request::Query { id, tenant, spec } => {
            let program = spec.program.clone();
            let limits = spec.limits;
            let deadline_ms = spec.deadline_ms;
            admit(
                shared,
                conn,
                id,
                tenant,
                &program,
                limits,
                deadline_ms,
                JobKind::Query { spec },
            )
        }
        Request::Stream {
            id,
            tenant,
            spec,
            batch,
        } => {
            let program = spec.program.clone();
            let limits = spec.limits;
            let deadline_ms = spec.deadline_ms;
            admit(
                shared,
                conn,
                id,
                tenant,
                &program,
                limits,
                deadline_ms,
                JobKind::Stream { spec, batch },
            )
        }
    }
}

/// The admission path every unit of query work goes through: resolve the
/// cached program, clamp limits to the tenant profile, reserve the step
/// grant, register the deadline, and enqueue under the tenant's queue
/// bound.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    id: i64,
    tenant: String,
    program_key: &str,
    limits: LimitsSpec,
    deadline_ms: Option<u64>,
    kind: JobKind,
) {
    let Some(program) = shared.cache.lookup(program_key) else {
        conn.send(
            &ErrorFrame::new(
                error_kind::UNKNOWN_PROGRAM,
                format!("program `{program_key}` is not resident; re-compile and retry"),
            )
            .with("program", Json::Str(program_key.to_owned()))
            .into_frame(Some(id)),
        );
        return;
    };
    let effective = limits.clamp(shared.quotas.limits_of(&tenant));
    let grant = match shared.quotas.admit(&tenant, effective.max_steps) {
        Ok(grant) => grant,
        Err(denied) => {
            shared
                .counters
                .rejected_quota
                .fetch_add(1, Ordering::Relaxed);
            conn.send(
                &ErrorFrame::new(
                    error_kind::QUOTA_EXHAUSTED,
                    format!("tenant `{tenant}` has exhausted its step pool for this window"),
                )
                .retry_after(denied.retry_after_ms)
                .into_frame(Some(id)),
            );
            return;
        }
    };
    let cancel = conn.register_cancel(id);
    // The deadline clock starts at admission and covers queue time: a
    // request stuck behind a backlog expires in place (the watchdog fires
    // its cancel token, and workers check again at pickup).
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    if let Some(deadline) = deadline {
        lock_ok(&shared.deadlines).push((deadline, Arc::downgrade(&cancel)));
    }
    let job = Job {
        tenant,
        kind,
        run: Run {
            id,
            conn: Arc::clone(conn),
            program,
            limits: Limits {
                max_depth: effective.max_depth,
                // The grant may be smaller than asked when the pool is
                // nearly dry; the enumeration then trips `limit-exceeded`
                // honestly.
                max_steps: grant.granted(),
            },
            grant,
            cancel,
            deadline,
        },
    };
    let mut state = lock_ok(&shared.sched.state);
    match state.push(job, shared.config.queue_depth) {
        None => {
            drop(state);
            shared.sched.ready.notify_one();
        }
        Some(job) => {
            drop(state);
            shared
                .counters
                .rejected_capacity
                .fetch_add(1, Ordering::Relaxed);
            conn.forget_cancel(id);
            let frame = ErrorFrame::new(
                error_kind::OVER_CAPACITY,
                format!(
                    "tenant `{}` has {} requests queued; retry shortly",
                    job.tenant, shared.config.queue_depth
                ),
            )
            .retry_after(CAPACITY_RETRY_MS)
            .into_frame(Some(id));
            conn.send(&frame);
            // Dropping the job refunds its grant.
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // The injected between-jobs panic deliberately runs *outside* the
        // dispatch `catch_unwind`: the thread dies with no job in hand
        // (the queue is untouched, no request is lost) and the supervisor
        // must respawn it.
        if let Some(faults) = &shared.faults {
            if faults.fire(Site::PanicWorker) {
                panic!("injected fault: worker panic between jobs");
            }
        }
        let job = {
            let mut state = lock_ok(&shared.sched.state);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = state.pop() {
                    break job;
                }
                state = match shared.sched.ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        if let Some(faults) = &shared.faults {
            if faults.fire(Site::Stall) {
                // A stuck solver: sleep with the job in hand, so deadlines
                // and cancellation race real elapsed time.
                std::thread::sleep(Duration::from_millis(faults.stall_ms()));
            }
        }
        dispatch(shared, job);
    }
}

/// Runs one popped job under `catch_unwind`: a panicking request answers
/// one `internal-error` frame, for its own id, instead of killing the
/// worker. The grant held by the panicking scope refunds through the
/// unwind (`Grant::drop` runs), so quota conservation survives the panic.
fn dispatch(shared: &Arc<Shared>, job: Job) {
    let (id, conn) = (job.run.id, Arc::clone(&job.run.conn));
    if catch_unwind(AssertUnwindSafe(|| run_job(shared, job))).is_err() {
        shared.counters.panics.fetch_add(1, Ordering::Relaxed);
        conn.forget_cancel(id);
        conn.send(
            &ErrorFrame::new(
                error_kind::INTERNAL,
                "the request hit an internal error; its work was abandoned",
            )
            .into_frame(Some(id)),
        );
    }
}

/// The start every job shares. A job whose cancel token fired while it
/// was queued does not run: past its deadline it answers a retryable
/// `deadline-exceeded`; an explicit cancel or a disconnect gets no reply
/// (the client stopped waiting for one); dropping its grant refunds it.
/// Any other job counts as executed in its kind's counter and runs.
fn run_job(shared: &Arc<Shared>, job: Job) {
    let Job { kind, run, .. } = job;
    if run.cancel.load(Ordering::Acquire) {
        run.conn.forget_cancel(run.id);
        if run.deadline.is_some_and(|d| Instant::now() >= d) {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            run.conn.send(
                &ErrorFrame::new(
                    error_kind::DEADLINE_EXCEEDED,
                    "request deadline exceeded while queued",
                )
                .retry_after(CAPACITY_RETRY_MS)
                .into_frame(Some(run.id)),
            );
        }
        return;
    }
    let counters = &shared.counters;
    let executed = match kind {
        JobKind::Call { .. } => &counters.calls,
        JobKind::Query { .. } => &counters.queries,
        JobKind::Stream { .. } => &counters.streams,
    };
    executed.fetch_add(1, Ordering::Relaxed);
    fire_panic_request(shared);
    match kind {
        JobKind::Call { method, args } => run_call(shared, run, &method, args),
        JobKind::Query { spec } => run_query(shared, run, &spec),
        JobKind::Stream { spec, batch } => run_stream(shared, run, &spec, batch),
    }
}

/// The injected mid-request panic: fires *inside* the worker's
/// `catch_unwind`, exercising panic isolation end to end.
fn fire_panic_request(shared: &Arc<Shared>) {
    if let Some(faults) = &shared.faults {
        if faults.fire(Site::PanicRequest) {
            panic!("injected fault: request execution panic");
        }
    }
}

/// Maps a failed run onto the wire, classifying an engine `Interrupted`
/// by *why* the token fired: past the request's deadline it is a
/// retryable `deadline-exceeded`; otherwise an explicit `cancel` frame or
/// a disconnect, reported as `cancelled`.
fn rt_error_frame(shared: &Arc<Shared>, e: &RtError, deadline: Option<Instant>) -> ErrorFrame {
    if matches!(e.kind, RtErrorKind::Interrupted) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return ErrorFrame::new(error_kind::DEADLINE_EXCEEDED, "request deadline exceeded")
                .retry_after(CAPACITY_RETRY_MS);
        }
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return ErrorFrame::new(error_kind::CANCELLED, "the request was cancelled");
    }
    ErrorFrame::from_rt(e)
}

/// Resolves the method a spec names, plus the receiver it runs on (a bare
/// instance for class methods — the serve surface's documented receiver
/// model).
fn resolve_target(program: &Program, spec: &QuerySpec) -> RtResult<(MethodRef, Option<Value>)> {
    match &spec.class {
        Some(class) => Ok((
            program.method(class, &spec.method)?,
            Some(program.instance(class)?),
        )),
        None => Ok((program.free_method(&spec.method)?, None)),
    }
}

fn known_bindings(spec: &QuerySpec) -> Bindings {
    spec.known.iter().cloned().collect()
}

impl Run {
    /// Answers a request that failed before it ran (an unknown method, a
    /// mode mismatch): it spent no steps, so its grant refunds whole.
    fn refuse(self, e: &RtError) {
        let Run {
            id, conn, grant, ..
        } = self;
        conn.forget_cancel(id);
        drop(grant);
        conn.send(&ErrorFrame::from_rt(e).into_frame(Some(id)));
    }

    /// Settles the grant against the steps the run spent and answers:
    /// `ok` renders a success, and an error is classified by
    /// [`rt_error_frame`]. Cached programs run on the plan engine, which
    /// always counts its steps; the ceiling fallback charges unmetered
    /// work in full, never for free.
    fn reply<T>(
        self,
        shared: &Arc<Shared>,
        outcome: RtResult<T>,
        steps: Option<u64>,
        ok: impl FnOnce(i64, &T) -> Json,
    ) {
        self.conn.forget_cancel(self.id);
        self.grant.settle(steps.unwrap_or(self.limits.max_steps));
        let frame = match outcome {
            Ok(value) => ok(self.id, &value),
            Err(e) => rt_error_frame(shared, &e, self.deadline).into_frame(Some(self.id)),
        };
        self.conn.send(&frame);
    }
}

fn run_call(shared: &Arc<Shared>, run: Run, method: &str, args: Vec<Value>) {
    let mref = match run.program.free_method(method) {
        Ok(mref) => mref,
        Err(e) => return run.refuse(&e),
    };
    // The cancel token rides into the engine's interrupt polling, so a
    // fired deadline (or an explicit cancel) interrupts the run within
    // ~256 steps.
    let (outcome, steps) =
        mref.call_counted_interruptible(None, args, run.limits, Some(Arc::clone(&run.cancel)));
    run.reply(shared, outcome, steps, proto::resp_value);
}

fn run_query(shared: &Arc<Shared>, run: Run, spec: &QuerySpec) {
    let (mref, receiver) = match resolve_target(&run.program, spec) {
        Ok(pair) => pair,
        Err(e) => return run.refuse(&e),
    };
    let query = match mref.iterate(receiver.as_ref(), &known_bindings(spec)) {
        Ok(q) => q.limits(run.limits).interrupt(Arc::clone(&run.cancel)),
        Err(e) => return run.refuse(&e),
    };
    let (outcome, steps) = query.try_collect_counted();
    run.reply(shared, outcome, steps, |id, solutions| {
        proto::resp_solutions(id, solutions, steps)
    });
}

fn run_stream(shared: &Arc<Shared>, run: Run, spec: &QuerySpec, batch: usize) {
    let (mref, receiver) = match resolve_target(&run.program, spec) {
        Ok(pair) => pair,
        Err(e) => return run.refuse(&e),
    };
    let query = match mref.iterate(receiver.as_ref(), &known_bindings(spec)) {
        Ok(q) => q.limits(run.limits).interrupt(Arc::clone(&run.cancel)),
        Err(e) => return run.refuse(&e),
    };
    let Run {
        id,
        conn,
        limits,
        grant,
        cancel,
        deadline,
        ..
    } = run;
    let mut solutions = query.solutions();
    let mut count: u64 = 0;
    let mut seq: u64 = 0;
    let mut cancelled = false;
    let mut pending: Vec<Bindings> = Vec::with_capacity(batch);
    loop {
        if cancel.load(Ordering::Acquire) || !conn.open.load(Ordering::Acquire) {
            cancelled = true;
            break;
        }
        match solutions.next() {
            Some(b) => {
                pending.push(b);
                count += 1;
                if pending.len() >= batch {
                    if !conn.send(&proto::resp_batch(id, seq, &pending)) {
                        cancelled = true;
                        break;
                    }
                    seq += 1;
                    pending.clear();
                }
            }
            None => break,
        }
    }
    let steps = solutions.steps();
    let error = solutions.take_error();
    drop(solutions);
    // Whatever the stream actually consumed is charged; the rest of the
    // reservation goes back to the tenant pool — including on disconnect,
    // which is the "return the unused SharedBudget grant" guarantee.
    grant.settle(steps.unwrap_or(limits.max_steps));
    conn.forget_cancel(id);
    // The enumeration can notice the fired token itself (an engine
    // `Interrupted` error) or the loop above can (flag/connection check);
    // both mean the same thing and classify the same way.
    let interrupted =
        cancelled || matches!(&error, Some(e) if matches!(e.kind, RtErrorKind::Interrupted));
    if interrupted {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            conn.send(
                &ErrorFrame::new(error_kind::DEADLINE_EXCEEDED, "request deadline exceeded")
                    .retry_after(CAPACITY_RETRY_MS)
                    .into_frame(Some(id)),
            );
        } else {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            conn.send(&proto::resp_stream_done(id, count, true, steps));
        }
        return;
    }
    if !pending.is_empty() && !conn.send(&proto::resp_batch(id, seq, &pending)) {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return;
    }
    match error {
        Some(e) => {
            conn.send(&ErrorFrame::from_rt(&e).into_frame(Some(id)));
        }
        None => {
            conn.send(&proto::resp_stream_done(id, count, false, steps));
        }
    }
}
