//! A small blocking client for the `jmatch-serve` wire protocol.
//!
//! This is the reference client the load generator, the serve example and
//! the integration tests drive the server with: one frame out, one (or,
//! for streams, many) frames back, everything surfaced as raw [`Json`]
//! documents so callers can assert on exact wire shapes. It is
//! deliberately thin — no connection pooling, no hidden state — because
//! its job is to *exercise* the server, not to hide it. The one
//! convenience it does offer is [`RetryPolicy`]: deterministic, jittered
//! exponential backoff over the protocol's *retryable* rejections
//! (`over-capacity`, `quota-exhausted`, `deadline-exceeded`), because
//! every caller that meets backpressure needs exactly that loop.

use super::fault::Xorshift;
use super::json::Json;
use super::proto::{
    error_kind, read_frame, value_to_json, write_frame, FrameError, DEFAULT_MAX_FRAME,
};
use crate::Value;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server's framing or JSON was unreadable.
    Frame(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(m) => write!(f, "bad frame from server: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated(io) => ClientError::Io(io),
            other => ClientError::Frame(other.to_string()),
        }
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// An enumeration request, as the client-side mirror of the server's
/// `query` / `stream` frame vocabulary.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Tenant the work is accounted to.
    pub tenant: String,
    /// The program cache key (`compile`'s reply).
    pub program: String,
    /// The method to enumerate.
    pub method: String,
    /// Declaring class for instance methods; `None` = free method.
    pub class: Option<String>,
    /// Known (input) bindings.
    pub known: Vec<(String, Value)>,
    /// Step-ceiling override (only ever lowers the tenant's).
    pub max_steps: Option<u64>,
    /// Depth-ceiling override (only ever lowers the tenant's).
    pub max_depth: Option<usize>,
    /// Wall-clock deadline for the whole request, in milliseconds from
    /// admission; past it the server answers `deadline-exceeded`.
    pub deadline_ms: Option<u64>,
}

impl QueryOptions {
    /// A query of `method` in `program` for the default tenant.
    pub fn new(program: &str, method: &str) -> Self {
        QueryOptions {
            tenant: "default".into(),
            program: program.to_owned(),
            method: method.to_owned(),
            class: None,
            known: Vec::new(),
            max_steps: None,
            max_depth: None,
            deadline_ms: None,
        }
    }

    fn extend_doc(&self, pairs: &mut Vec<(String, Json)>) {
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Json::Int(ms as i64)));
        }
        pairs.push(("tenant".into(), Json::Str(self.tenant.clone())));
        pairs.push(("program".into(), Json::Str(self.program.clone())));
        pairs.push(("method".into(), Json::Str(self.method.clone())));
        if let Some(class) = &self.class {
            pairs.push(("class".into(), Json::Str(class.clone())));
        }
        if !self.known.is_empty() {
            pairs.push((
                "known".into(),
                Json::Obj(
                    self.known
                        .iter()
                        .map(|(name, v)| (name.clone(), value_to_json(v)))
                        .collect(),
                ),
            ));
        }
        let mut limits = Vec::new();
        if let Some(d) = self.max_depth {
            limits.push(("max_depth".to_owned(), Json::Int(d as i64)));
        }
        if let Some(s) = self.max_steps {
            limits.push(("max_steps".to_owned(), Json::Int(s as i64)));
        }
        if !limits.is_empty() {
            pairs.push(("limits".into(), Json::Obj(limits)));
        }
    }
}

/// Deterministic, jittered exponential backoff over the protocol's
/// retryable rejections.
///
/// The delay for attempt `n` is `min(max_delay_ms, base_delay_ms << n)`
/// scaled by a jitter factor in `[0.5, 1.0)` drawn from a seeded stream
/// (so a test run's retry timing replays exactly), and never below the
/// server's `retry_after_ms` hint when the rejection carries one.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts; `1` = no retries).
    pub max_attempts: u32,
    /// First retry delay, before jitter.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay.
    pub max_delay_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Whether a reply frame is a *retryable* rejection: the work was
    /// refused or abandoned for a transient reason (`over-capacity`,
    /// `quota-exhausted`, `deadline-exceeded`) and a later identical
    /// request can succeed.
    pub fn is_retryable(frame: &Json) -> bool {
        if frame.get("ok").and_then(Json::as_bool) != Some(false) {
            return false;
        }
        matches!(
            frame
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(error_kind::OVER_CAPACITY)
                | Some(error_kind::QUOTA_EXHAUSTED)
                | Some(error_kind::DEADLINE_EXCEEDED)
        )
    }

    /// The delay before retry number `attempt` (0-based), honoring the
    /// rejected frame's `retry_after_ms` hint as a floor.
    fn delay(&self, attempt: u32, frame: &Json, jitter: &mut Xorshift) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        let jittered = ((exp as f64) * (0.5 + 0.5 * jitter.next_unit())) as u64;
        let hint = frame
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_i64)
            .map_or(0, |ms| ms.max(0) as u64);
        Duration::from_millis(jittered.max(hint))
    }
}

/// One connection to a `jmatch-serve` server.
#[derive(Debug)]
pub struct Client {
    /// Frames are read through the buffer and written straight to the
    /// socket underneath it.
    stream: BufReader<TcpStream>,
    next_id: i64,
    max_frame: usize,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            next_id: 0,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    fn fresh_id(&mut self) -> i64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one raw frame.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send(&mut self, doc: &Json) -> io::Result<()> {
        write_frame(&mut self.stream.get_ref(), doc)
    }

    /// Receives one raw frame.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or unreadable framing.
    pub fn recv(&mut self) -> ClientResult<Json> {
        Ok(read_frame(&mut self.stream, self.max_frame)?)
    }

    fn request(&mut self, op: &str, extra: Vec<(String, Json)>) -> ClientResult<Json> {
        let id = self.fresh_id();
        let mut pairs = vec![
            ("op".to_owned(), Json::Str(op.to_owned())),
            ("id".to_owned(), Json::Int(id)),
        ];
        pairs.extend(extra);
        self.send(&Json::Obj(pairs))?;
        self.recv()
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn ping(&mut self) -> ClientResult<Json> {
        self.request("ping", Vec::new())
    }

    /// Compiles (or fetches from the server's cache) a source text.
    /// The reply carries `program` (the cache key) and `cached`.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors; compile failures come back as a
    /// well-formed error frame, not an `Err`.
    pub fn compile(&mut self, source: &str, verify: bool) -> ClientResult<Json> {
        self.request(
            "compile",
            vec![
                ("source".to_owned(), Json::Str(source.to_owned())),
                ("verify".to_owned(), Json::Bool(verify)),
            ],
        )
    }

    /// Compiles (or fetches from the server's cache) a source text and
    /// returns its plan-analysis lints. The reply carries `program` (the
    /// cache key, shared with [`Client::compile`]), `cached`, and `lints`.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors; compile failures come back as a
    /// well-formed error frame, not an `Err`.
    pub fn lint(&mut self, source: &str, verify: bool) -> ClientResult<Json> {
        self.request(
            "lint",
            vec![
                ("source".to_owned(), Json::Str(source.to_owned())),
                ("verify".to_owned(), Json::Bool(verify)),
            ],
        )
    }

    /// Hot-reloads a resident program: asks the server to incrementally
    /// recompile `program` (a cache key from [`Client::compile`]) against
    /// `new_source`. The reply's `status` is `"unchanged"` or
    /// `"recompiled"` (with `program`, `methods`, `reverified`); an edit
    /// that does not compile comes back as a `reload-rejected` error frame
    /// carrying `errors`, and the previous program stays resident.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors; reload rejections come back as a
    /// well-formed error frame, not an `Err`.
    pub fn reload(&mut self, tenant: &str, program: &str, new_source: &str) -> ClientResult<Json> {
        self.request(
            "reload",
            vec![
                ("tenant".to_owned(), Json::Str(tenant.to_owned())),
                ("program".to_owned(), Json::Str(program.to_owned())),
                ("source".to_owned(), Json::Str(new_source.to_owned())),
            ],
        )
    }

    /// Forward-mode call of a free method.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn call(
        &mut self,
        tenant: &str,
        program: &str,
        method: &str,
        args: &[Value],
    ) -> ClientResult<Json> {
        self.request(
            "call",
            vec![
                ("tenant".to_owned(), Json::Str(tenant.to_owned())),
                ("program".to_owned(), Json::Str(program.to_owned())),
                ("method".to_owned(), Json::Str(method.to_owned())),
                (
                    "args".to_owned(),
                    Json::Arr(args.iter().map(value_to_json).collect()),
                ),
            ],
        )
    }

    /// Forward-mode call of a free method with a request deadline.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn call_with_deadline(
        &mut self,
        tenant: &str,
        program: &str,
        method: &str,
        args: &[Value],
        deadline_ms: u64,
    ) -> ClientResult<Json> {
        self.request(
            "call",
            vec![
                ("tenant".to_owned(), Json::Str(tenant.to_owned())),
                ("program".to_owned(), Json::Str(program.to_owned())),
                ("method".to_owned(), Json::Str(method.to_owned())),
                (
                    "args".to_owned(),
                    Json::Arr(args.iter().map(value_to_json).collect()),
                ),
                ("deadline_ms".to_owned(), Json::Int(deadline_ms as i64)),
            ],
        )
    }

    /// Collect-mode enumeration: every solution in one reply frame.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn query(&mut self, options: &QueryOptions) -> ClientResult<Json> {
        let mut extra = Vec::new();
        options.extend_doc(&mut extra);
        self.request("query", extra)
    }

    /// [`Client::query`] under a [`RetryPolicy`]: retryable rejections
    /// (`over-capacity`, `quota-exhausted`, `deadline-exceeded`) back off
    /// with deterministic jitter and try again, up to the policy's attempt
    /// budget. The last reply — success, non-retryable error, or the
    /// final still-rejected frame — is returned either way.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn query_with_retry(
        &mut self,
        options: &QueryOptions,
        policy: &RetryPolicy,
    ) -> ClientResult<Json> {
        let mut jitter = Xorshift::new(policy.seed);
        let mut attempt = 0;
        loop {
            let frame = self.query(options)?;
            attempt += 1;
            if attempt >= policy.max_attempts.max(1) || !RetryPolicy::is_retryable(&frame) {
                return Ok(frame);
            }
            std::thread::sleep(policy.delay(attempt - 1, &frame, &mut jitter));
        }
    }

    /// [`Client::call`] under a [`RetryPolicy`]; see
    /// [`Client::query_with_retry`] for the loop's semantics.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn call_with_retry(
        &mut self,
        tenant: &str,
        program: &str,
        method: &str,
        args: &[Value],
        policy: &RetryPolicy,
    ) -> ClientResult<Json> {
        let mut jitter = Xorshift::new(policy.seed);
        let mut attempt = 0;
        loop {
            let frame = self.call(tenant, program, method, args)?;
            attempt += 1;
            if attempt >= policy.max_attempts.max(1) || !RetryPolicy::is_retryable(&frame) {
                return Ok(frame);
            }
            std::thread::sleep(policy.delay(attempt - 1, &frame, &mut jitter));
        }
    }

    /// Streamed enumeration: sends one `stream` frame and collects every
    /// reply frame (batches plus the terminal frame) for this request id,
    /// in order.
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn stream(&mut self, options: &QueryOptions, batch: usize) -> ClientResult<Vec<Json>> {
        let mut extra = vec![("batch".to_owned(), Json::Int(batch as i64))];
        options.extend_doc(&mut extra);
        let first = self.request("stream", extra)?;
        let mut frames = vec![first];
        while !is_terminal(frames.last().expect("non-empty")) {
            frames.push(self.recv()?);
        }
        Ok(frames)
    }

    /// Starts a stream without reading any reply frames (for cancel /
    /// disconnect tests). Returns the request id.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn start_stream(&mut self, options: &QueryOptions, batch: usize) -> io::Result<i64> {
        let id = self.fresh_id();
        let mut pairs = vec![
            ("op".to_owned(), Json::Str("stream".to_owned())),
            ("id".to_owned(), Json::Int(id)),
            ("batch".to_owned(), Json::Int(batch as i64)),
        ];
        options.extend_doc(&mut pairs);
        self.send(&Json::Obj(pairs))?;
        Ok(id)
    }

    /// Cancels an in-flight stream on this connection.
    ///
    /// # Errors
    ///
    /// Propagates socket failures (no reply is read here — the ack
    /// interleaves with stream frames; use [`Client::recv`]).
    pub fn cancel(&mut self, target: i64) -> io::Result<i64> {
        let id = self.fresh_id();
        self.send(&Json::Obj(vec![
            ("op".to_owned(), Json::Str("cancel".to_owned())),
            ("id".to_owned(), Json::Int(id)),
            ("target".to_owned(), Json::Int(target)),
        ]))?;
        Ok(id)
    }

    /// Asks the server to shut down (honored only when the server enables
    /// remote shutdown).
    ///
    /// # Errors
    ///
    /// Fails on socket or framing errors.
    pub fn shutdown_server(&mut self) -> ClientResult<Json> {
        self.request("shutdown", Vec::new())
    }
}

/// Whether a reply frame ends its request (an error frame or `done:true`).
pub fn is_terminal(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(false)
        || frame.get("done").and_then(Json::as_bool) == Some(true)
}

/// Polls `addr` with ping until the server answers (CI boot handshake).
///
/// # Errors
///
/// Returns the last failure when `timeout` elapses without a pong.
pub fn wait_ready(addr: SocketAddr, timeout: Duration) -> ClientResult<()> {
    let deadline = Instant::now() + timeout;
    loop {
        let last = match Client::connect(addr) {
            Ok(mut client) => match client.ping() {
                Ok(frame) if frame.get("pong").and_then(Json::as_bool) == Some(true) => {
                    return Ok(());
                }
                Ok(frame) => ClientError::Frame(format!("unexpected pong reply: {frame}")),
                Err(e) => e,
            },
            Err(e) => ClientError::Io(e),
        };
        if Instant::now() >= deadline {
            return Err(last);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejection(kind: &str, retry_after_ms: Option<i64>) -> Json {
        let mut err = vec![("kind".to_owned(), Json::Str(kind.to_owned()))];
        if let Some(ms) = retry_after_ms {
            err.push(("retry_after_ms".to_owned(), Json::Int(ms)));
        }
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(false)),
            ("id".to_owned(), Json::Int(1)),
            ("error".to_owned(), Json::Obj(err)),
        ])
    }

    #[test]
    fn retryable_kinds_are_exactly_the_transient_ones() {
        for kind in ["over-capacity", "quota-exhausted", "deadline-exceeded"] {
            assert!(
                RetryPolicy::is_retryable(&rejection(kind, Some(25))),
                "{kind}"
            );
        }
        for kind in ["protocol", "internal-error", "cancelled", "unknown-program"] {
            assert!(!RetryPolicy::is_retryable(&rejection(kind, None)), "{kind}");
        }
        // A success frame is never retryable.
        assert!(!RetryPolicy::is_retryable(&Json::Obj(vec![(
            "ok".to_owned(),
            Json::Bool(true)
        )])));
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 10,
            max_delay_ms: 100,
            seed: 42,
        };
        let frame = rejection("over-capacity", None);
        let delays = |policy: &RetryPolicy| -> Vec<Duration> {
            let mut jitter = Xorshift::new(policy.seed);
            (0..8)
                .map(|a| policy.delay(a, &frame, &mut jitter))
                .collect()
        };
        let a = delays(&policy);
        let b = delays(&policy);
        assert_eq!(a, b, "same seed, same schedule");
        for (attempt, d) in a.iter().enumerate() {
            let exp = (10u64 << attempt).min(100);
            assert!(*d >= Duration::from_millis(exp / 2), "attempt {attempt}");
            assert!(*d <= Duration::from_millis(exp), "attempt {attempt}");
        }
        // The server's hint is a floor under the jittered delay.
        let hinted = rejection("over-capacity", Some(400));
        let mut jitter = Xorshift::new(42);
        assert!(policy.delay(0, &hinted, &mut jitter) >= Duration::from_millis(400));
    }
}
