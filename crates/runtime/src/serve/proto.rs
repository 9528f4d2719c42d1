//! The `jmatch-serve` wire protocol: length-prefixed JSON frames.
//!
//! Every frame is a 4-byte **big-endian** unsigned length followed by
//! exactly that many bytes of UTF-8 JSON (one document per frame). The
//! full frame vocabulary, error taxonomy and tenant semantics are
//! specified in the repository's `PROTOCOL.md`; this module is the
//! executable form: [`read_frame`] / [`write_frame`] for framing,
//! [`Request::parse`] for the client→server vocabulary, and the
//! `resp_*` builders for the server→client side.
//!
//! Design points the robustness tests pin down:
//!
//! * a declared length above the configured cap is answered with a
//!   structured `frame-too-large` error and the payload is *drained*, so
//!   the connection survives (up to [`skip_cap`]; beyond that the framing
//!   is considered hostile and the connection closes);
//! * malformed JSON inside a well-framed payload is answered with a
//!   `protocol` error frame and the connection survives;
//! * a frame truncated by EOF surfaces as [`FrameError::Truncated`]; only
//!   that connection dies, the server keeps serving.

use super::json::Json;
use crate::{Limits, RtError, RtErrorKind, Value};
use std::io::{self, Read, Write};

/// Default cap on a single frame's payload (1 MiB) — large enough for any
/// corpus program source, small enough that a hostile length prefix cannot
/// balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// How many declared-but-oversized bytes the server is willing to drain to
/// keep a connection alive after a `frame-too-large` error. Beyond this the
/// framing is treated as hostile and the connection closes.
pub fn skip_cap(max_frame: usize) -> u64 {
    (max_frame as u64).saturating_mul(4)
}

/// Ceiling on a `stream` request's per-batch solution count. The batch
/// size pre-sizes a server-side buffer, so a client-supplied value must
/// never translate into an unbounded (or panicking) allocation.
pub const MAX_STREAM_BATCH: usize = 8192;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended (or errored) in the middle of a frame.
    Truncated(io::Error),
    /// The declared payload length exceeds the configured cap; the payload
    /// has **not** been consumed yet.
    TooLarge {
        /// The length the prefix declared.
        declared: u64,
    },
    /// The payload was not valid JSON.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated(e) => write!(f, "truncated frame: {e}"),
            FrameError::TooLarge { declared } => {
                write!(f, "declared frame length {declared} exceeds the cap")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the JSON bytes.
/// Prefix and payload go out as **one** write, so a frame never straddles
/// two TCP segments at the sender (Nagle + delayed-ACK would otherwise
/// park every response for ~40ms).
pub fn write_frame(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    w.write_all(&frame_bytes(doc)?)?;
    w.flush()
}

/// Serializes one frame — 4-byte big-endian length prefix plus the JSON
/// bytes — without writing it anywhere. The server serializes before it
/// takes a connection's send lock, so the lock covers only the write.
pub fn frame_bytes(doc: &Json) -> io::Result<Vec<u8>> {
    let body = doc.to_string().into_bytes();
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(&body);
    Ok(framed)
}

/// Reads one frame, enforcing the payload cap. On [`FrameError::TooLarge`]
/// the caller decides whether to [`drain`] the declared payload (keeping
/// the connection) or drop the connection. It makes three reads per frame
/// (one byte, three bytes, the body), so socket readers pass a
/// [`std::io::BufReader`]: the server's connection readers and the
/// client both do.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Json, FrameError> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is a normal close; anything
    // partial is a truncation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Err(FrameError::Eof),
        Ok(1) => {}
        Ok(_) => unreachable!("single-byte read"),
        Err(e) => return Err(FrameError::Truncated(e)),
    }
    r.read_exact(&mut len_buf[1..])
        .map_err(FrameError::Truncated)?;
    let declared = u32::from_be_bytes(len_buf) as u64;
    if declared > max_frame as u64 {
        return Err(FrameError::TooLarge { declared });
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body).map_err(FrameError::Truncated)?;
    let text = String::from_utf8(body)
        .map_err(|_| FrameError::Malformed("payload is not UTF-8".into()))?;
    Json::parse(&text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Consumes and discards `declared` payload bytes after a
/// [`FrameError::TooLarge`], so the next frame starts at a clean boundary.
pub fn drain(r: &mut impl Read, declared: u64) -> io::Result<()> {
    let copied = io::copy(&mut r.take(declared), &mut io::sink())?;
    if copied == declared {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended while draining an oversized frame",
        ))
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Work-ceiling overrides a request may carry (`{"limits":{"max_depth":…,
/// "max_steps":…}}`); each field only ever *lowers* the tenant's ceiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct LimitsSpec {
    /// Requested depth ceiling.
    pub max_depth: Option<usize>,
    /// Requested step ceiling.
    pub max_steps: Option<u64>,
}

impl LimitsSpec {
    /// The effective limits: the tenant's, lowered by the request's.
    pub fn clamp(&self, tenant: Limits) -> Limits {
        Limits {
            max_depth: self
                .max_depth
                .map_or(tenant.max_depth, |d| d.min(tenant.max_depth)),
            max_steps: self
                .max_steps
                .map_or(tenant.max_steps, |s| s.min(tenant.max_steps)),
        }
    }
}

/// An enumeration target: which method to drive and with what inputs.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The cache key of the compiled program (`compile`'s `program` reply).
    pub program: String,
    /// The method to enumerate.
    pub method: String,
    /// The declaring class for instance methods (the server drives them on
    /// a bare [`crate::Program::instance`] receiver); `None` = free method.
    pub class: Option<String>,
    /// Known (input) bindings, as wire scalars.
    pub known: Vec<(String, Value)>,
    /// Work-ceiling overrides.
    pub limits: LimitsSpec,
    /// Wall-clock deadline for the whole request, in milliseconds from
    /// admission; past it the run is interrupted and answered with a
    /// retryable `deadline-exceeded` error frame.
    pub deadline_ms: Option<u64>,
}

/// A parsed client→server frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered inline with `{"ok":true,"pong":true}`.
    Ping {
        /// Request id, echoed in the reply.
        id: i64,
    },
    /// Compile (or fetch from the program cache) a source text.
    Compile {
        /// Request id, echoed in the reply.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// JMatch source text.
        source: String,
        /// Whether to run the static verification passes.
        verify: bool,
    },
    /// Compile (or fetch from the program cache) a source text and report
    /// the plan-analysis lints (`jmatch_core::analysis`) of the result.
    Lint {
        /// Request id, echoed in the reply.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// JMatch source text.
        source: String,
        /// Whether to also run the static verification passes (their
        /// warnings ride along in the reply).
        verify: bool,
        /// Wall-clock deadline in milliseconds; checked before the compile
        /// starts (compilation itself is not interruptible).
        deadline_ms: Option<u64>,
    },
    /// Forward-mode call of a free method with scalar arguments.
    Call {
        /// Request id, echoed in the reply.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// Program cache key.
        program: String,
        /// Free method name.
        method: String,
        /// Scalar arguments.
        args: Vec<Value>,
        /// Work-ceiling overrides.
        limits: LimitsSpec,
        /// Wall-clock deadline for the whole request, in milliseconds from
        /// admission.
        deadline_ms: Option<u64>,
    },
    /// Iterative-mode enumeration, collected into one response frame.
    Query {
        /// Request id, echoed in the reply.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// What to enumerate.
        spec: QuerySpec,
    },
    /// Iterative-mode enumeration, streamed in solution batches.
    Stream {
        /// Request id, echoed in every batch frame.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// What to enumerate.
        spec: QuerySpec,
        /// Solutions per batch frame (server-clamped to
        /// `1..=`[`MAX_STREAM_BATCH`]).
        batch: usize,
    },
    /// Edit a resident program: recompile `source` incrementally through
    /// the retained workspace of the base program (`program` is the PR 6
    /// cache key the client got from `compile`). Answered with
    /// `status:"unchanged"` / `status:"recompiled"` (listing the
    /// re-lowered methods) or a `reload-rejected` error carrying the
    /// diagnostics, with the base entry staying resident.
    Reload {
        /// Request id, echoed in the reply.
        id: i64,
        /// Tenant the work is accounted to.
        tenant: String,
        /// Cache key of the base program the edit applies to.
        program: String,
        /// The full new source text.
        source: String,
        /// Wall-clock deadline in milliseconds; checked before the
        /// recompile starts (compilation itself is not interruptible).
        deadline_ms: Option<u64>,
    },
    /// Cancel an in-flight `Stream` on the same connection.
    Cancel {
        /// Request id, echoed in the reply.
        id: i64,
        /// The id of the stream to cancel.
        target: i64,
    },
    /// Ask the server to shut down (only honored when the server was
    /// started with remote shutdown enabled — CI harnesses).
    Shutdown {
        /// Request id, echoed in the reply.
        id: i64,
    },
}

impl Request {
    /// The request id, for error replies.
    pub fn id(&self) -> i64 {
        match self {
            Request::Ping { id }
            | Request::Compile { id, .. }
            | Request::Lint { id, .. }
            | Request::Call { id, .. }
            | Request::Query { id, .. }
            | Request::Stream { id, .. }
            | Request::Reload { id, .. }
            | Request::Cancel { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Parses a frame document into a request. `Err` carries a
    /// human-readable protocol violation plus the frame's id when one was
    /// readable (so the error reply can still be correlated).
    pub fn parse(doc: &Json) -> Result<Request, (Option<i64>, String)> {
        let id = doc.get("id").and_then(Json::as_i64);
        let fail = |m: &str| Err((id, m.to_owned()));
        let Some(op) = doc.get("op").and_then(Json::as_str) else {
            return fail("missing string member `op`");
        };
        let Some(id) = id else {
            return fail("missing integer member `id`");
        };
        let tenant = || {
            doc.get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("default")
                .to_owned()
        };
        let limits = parse_limits(doc).map_err(|m| (Some(id), m))?;
        let deadline_ms = match doc.get("deadline_ms").and_then(Json::as_i64) {
            Some(ms) if ms < 0 => {
                return Err((Some(id), "deadline_ms must be non-negative".into()))
            }
            other => other.map(|ms| ms as u64),
        };
        match op {
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "compile" => {
                let Some(source) = doc.get("source").and_then(Json::as_str) else {
                    return Err((Some(id), "compile needs a string `source`".into()));
                };
                Ok(Request::Compile {
                    id,
                    tenant: tenant(),
                    source: source.to_owned(),
                    verify: doc.get("verify").and_then(Json::as_bool).unwrap_or(true),
                })
            }
            "lint" => {
                let Some(source) = doc.get("source").and_then(Json::as_str) else {
                    return Err((Some(id), "lint needs a string `source`".into()));
                };
                Ok(Request::Lint {
                    id,
                    tenant: tenant(),
                    source: source.to_owned(),
                    verify: doc.get("verify").and_then(Json::as_bool).unwrap_or(false),
                    deadline_ms,
                })
            }
            "call" => {
                let (program, method) = program_and_method(doc).map_err(|m| (Some(id), m))?;
                let mut args = Vec::new();
                if let Some(items) = doc.get("args").and_then(Json::as_arr) {
                    for item in items {
                        args.push(json_to_value(item).map_err(|m| (Some(id), m))?);
                    }
                }
                Ok(Request::Call {
                    id,
                    tenant: tenant(),
                    program,
                    method,
                    args,
                    limits,
                    deadline_ms,
                })
            }
            "query" | "stream" => {
                let (program, method) = program_and_method(doc).map_err(|m| (Some(id), m))?;
                let mut known = Vec::new();
                if let Some(pairs) = doc.get("known").and_then(Json::as_obj) {
                    for (name, v) in pairs {
                        known.push((name.clone(), json_to_value(v).map_err(|m| (Some(id), m))?));
                    }
                }
                let spec = QuerySpec {
                    program,
                    method,
                    class: doc.get("class").and_then(Json::as_str).map(str::to_owned),
                    known,
                    limits,
                    deadline_ms,
                };
                if op == "query" {
                    Ok(Request::Query {
                        id,
                        tenant: tenant(),
                        spec,
                    })
                } else {
                    // Clamp before the value ever sizes a buffer: a huge
                    // (or negative) batch must not panic the worker.
                    let batch = doc
                        .get("batch")
                        .and_then(Json::as_i64)
                        .map_or(64, |b| b.clamp(1, MAX_STREAM_BATCH as i64) as usize);
                    Ok(Request::Stream {
                        id,
                        tenant: tenant(),
                        spec,
                        batch,
                    })
                }
            }
            "reload" => {
                let Some(program) = doc.get("program").and_then(Json::as_str) else {
                    return Err((Some(id), "reload needs a string `program`".into()));
                };
                let Some(source) = doc.get("source").and_then(Json::as_str) else {
                    return Err((Some(id), "reload needs a string `source`".into()));
                };
                Ok(Request::Reload {
                    id,
                    tenant: tenant(),
                    program: program.to_owned(),
                    source: source.to_owned(),
                    deadline_ms,
                })
            }
            "cancel" => {
                let Some(target) = doc.get("target").and_then(Json::as_i64) else {
                    return Err((Some(id), "cancel needs an integer `target`".into()));
                };
                Ok(Request::Cancel { id, target })
            }
            other => Err((Some(id), format!("unknown op `{other}`"))),
        }
    }
}

fn program_and_method(doc: &Json) -> Result<(String, String), String> {
    let program = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or("missing string member `program`")?;
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or("missing string member `method`")?;
    Ok((program.to_owned(), method.to_owned()))
}

fn parse_limits(doc: &Json) -> Result<LimitsSpec, String> {
    let Some(spec) = doc.get("limits") else {
        return Ok(LimitsSpec::default());
    };
    let depth = spec.get("max_depth").and_then(Json::as_i64);
    let steps = spec.get("max_steps").and_then(Json::as_i64);
    if depth.is_some_and(|d| d < 0) || steps.is_some_and(|s| s < 0) {
        return Err("limits must be non-negative".into());
    }
    Ok(LimitsSpec {
        max_depth: depth.map(|d| d as usize),
        max_steps: steps.map(|s| s as u64),
    })
}

// ---------------------------------------------------------------------------
// Values on the wire
// ---------------------------------------------------------------------------

/// Encodes a runtime value as wire JSON. Scalars map to JSON natively;
/// objects encode structurally as `{"$class":…,"fields":{…}}` (one-way:
/// the server never needs to reconstruct an object from its wire form).
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(n) => Json::Int(*n),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Null => Json::Null,
        Value::Obj(o) => Json::obj(vec![
            ("$class", Json::Str(o.class().to_owned())),
            (
                "fields",
                Json::Obj(
                    o.layout()
                        .field_names()
                        .iter()
                        .zip(o.fields())
                        .map(|(name, v)| (name.clone(), value_to_json(v)))
                        .collect(),
                ),
            ),
        ]),
        // `Value` is non-exhaustive only outside its crate: adding a
        // variant makes this match fail to compile, forcing a wire form.
    }
}

/// Decodes a wire scalar into a runtime value. Objects are rejected:
/// clients build structured values inside the program (constructors run
/// server-side), not on the wire.
pub fn json_to_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Float(_) => Err("floats have no jmatch value form".into()),
        Json::Arr(_) | Json::Obj(_) => {
            Err("arguments and bindings must be scalars (int/bool/string/null)".into())
        }
    }
}

/// Encodes one solution (bindings, sorted by name for deterministic wire
/// bytes) as a JSON object.
pub fn bindings_to_json(b: &crate::Bindings) -> Json {
    let mut pairs: Vec<(String, Json)> = b
        .iter()
        .map(|(name, v)| (name.clone(), value_to_json(v)))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(pairs)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The `error.kind` of a server-level failure (runtime failures reuse the
/// [`RtErrorKind`] vocabulary).
pub mod error_kind {
    /// The frame violated the protocol (bad JSON, missing members, …).
    pub const PROTOCOL: &str = "protocol";
    /// The declared frame length exceeded the server's cap.
    pub const FRAME_TOO_LARGE: &str = "frame-too-large";
    /// The admission queue is full; retry after `retry_after_ms`.
    pub const OVER_CAPACITY: &str = "over-capacity";
    /// The tenant's step pool for this window is exhausted; retry after
    /// `retry_after_ms`.
    pub const QUOTA_EXHAUSTED: &str = "quota-exhausted";
    /// The referenced program is not in the cache (evicted or never
    /// compiled here); re-`compile` and retry.
    pub const UNKNOWN_PROGRAM: &str = "unknown-program";
    /// The source failed to compile; `errors` lists the diagnostics.
    pub const COMPILE_FAILED: &str = "compile-failed";
    /// A `reload` edit does not compile; `errors` lists the diagnostics
    /// and the base program stays resident and current.
    pub const RELOAD_REJECTED: &str = "reload-rejected";
    /// The server is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request's `deadline_ms` elapsed before it finished; retry after
    /// `retry_after_ms` (the work is admission-bounded, so a retry sees a
    /// fresh deadline).
    pub const DEADLINE_EXCEEDED: &str = "deadline-exceeded";
    /// The request was cancelled (a `cancel` frame, or its connection
    /// closed).
    pub const CANCELLED: &str = "cancelled";
    /// The request crashed inside the server (a worker panic). The worker
    /// survives (or is respawned); the request's quota reservation is
    /// refunded. Not retryable by default — the same input likely crashes
    /// again.
    pub const INTERNAL: &str = "internal-error";
    /// A reply frame was not taken whole within the server's write
    /// timeout (a slow consumer); the server disconnects, freeing the
    /// thread that was writing to it. Only ever observed as a closed
    /// connection — kept here to name the metric.
    pub const SLOW_CONSUMER: &str = "slow-consumer";
}

/// A structured server→client error, carried in `{"ok":false,"error":…}`.
#[derive(Debug, Clone)]
pub struct ErrorFrame {
    /// Stable machine-readable kind (see [`error_kind`] and
    /// [`RtErrorKind`]).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// When to retry, for backpressure/quota rejections.
    pub retry_after_ms: Option<u64>,
    /// Extra structured members (e.g. `method`, `expected`, `limit`).
    pub detail: Vec<(String, Json)>,
}

impl ErrorFrame {
    /// A server-level error.
    pub fn new(kind: &str, message: impl Into<String>) -> Self {
        ErrorFrame {
            kind: kind.to_owned(),
            message: message.into(),
            retry_after_ms: None,
            detail: Vec::new(),
        }
    }

    /// Attaches a retry hint.
    pub fn retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attaches a structured detail member.
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.detail.push((key.to_owned(), value));
        self
    }

    /// Maps a runtime error onto the wire, keeping the structured
    /// [`RtErrorKind`] payload machine-readable.
    pub fn from_rt(e: &RtError) -> Self {
        let mut frame = ErrorFrame::new(&e.kind.to_string(), &e.message);
        match &e.kind {
            RtErrorKind::MethodNotFound { scope, name } => {
                frame.kind = "method-not-found".into();
                frame = frame
                    .with("scope", Json::Str(scope.clone()))
                    .with("name", Json::Str(name.clone()));
            }
            RtErrorKind::ArityMismatch {
                method,
                expected,
                actual,
            } => {
                frame.kind = "arity-mismatch".into();
                frame = frame
                    .with("method", Json::Str(method.clone()))
                    .with("expected", Json::Int(*expected as i64))
                    .with("actual", Json::Int(*actual as i64));
            }
            RtErrorKind::ModeMismatch { method, requested } => {
                frame.kind = "mode-mismatch".into();
                frame = frame
                    .with("method", Json::Str(method.clone()))
                    .with("requested", Json::Str(requested.clone()));
            }
            RtErrorKind::LimitExceeded { resource, limit } => {
                frame.kind = "limit-exceeded".into();
                frame = frame
                    .with("resource", Json::Str(resource.clone()))
                    .with("limit", Json::Int(*limit as i64));
            }
            // The server classifies a fired interrupt into
            // `deadline-exceeded` vs `cancelled` itself (it knows the
            // deadline); this mapping is the fallback for direct callers.
            RtErrorKind::Interrupted => {
                frame.kind = error_kind::CANCELLED.into();
            }
            _ => {
                frame.kind = "runtime".into();
            }
        }
        frame
    }

    /// The full error reply frame.
    pub fn into_frame(self, id: Option<i64>) -> Json {
        let mut err = vec![
            ("kind".to_owned(), Json::Str(self.kind)),
            ("message".to_owned(), Json::Str(self.message)),
        ];
        if let Some(ms) = self.retry_after_ms {
            err.push(("retry_after_ms".to_owned(), Json::Int(ms as i64)));
        }
        err.extend(self.detail);
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("id", id.map_or(Json::Null, Json::Int)),
            ("error", Json::Obj(err)),
        ])
    }
}

/// `ping` reply.
pub fn resp_pong(id: i64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("pong", Json::Bool(true)),
    ])
}

/// `compile` reply: the cache key, whether it was served from cache, and
/// the verifier's warnings.
pub fn resp_compiled(id: i64, key: &str, cached: bool, warnings: &[String]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("program", Json::Str(key.to_owned())),
        ("cached", Json::Bool(cached)),
        (
            "warnings",
            Json::Arr(warnings.iter().map(|w| Json::Str(w.clone())).collect()),
        ),
    ])
}

/// `lint` reply: the cache key, whether it was served from cache, and the
/// plan-analysis lints as structured `{kind, context, message}` objects.
pub fn resp_lints(id: i64, key: &str, cached: bool, lints: &[jmatch_core::Warning]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("program", Json::Str(key.to_owned())),
        ("cached", Json::Bool(cached)),
        (
            "lints",
            Json::Arr(
                lints
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("kind", Json::Str(w.kind.to_string())),
                            ("context", Json::Str(w.context.clone())),
                            ("message", Json::Str(w.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `call` reply: the returned value.
pub fn resp_value(id: i64, v: &Value) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("value", value_to_json(v)),
    ])
}

/// `query` reply: every solution in one frame.
pub fn resp_solutions(id: i64, solutions: &[crate::Bindings], steps: Option<u64>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        (
            "solutions",
            Json::Arr(solutions.iter().map(bindings_to_json).collect()),
        ),
        ("done", Json::Bool(true)),
    ];
    if let Some(steps) = steps {
        pairs.push(("steps", Json::Int(steps as i64)));
    }
    Json::obj(pairs)
}

/// One `stream` batch (`done:false`): `seq` numbers batches from 0 so the
/// client can detect gaps.
pub fn resp_batch(id: i64, seq: u64, solutions: &[crate::Bindings]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("seq", Json::Int(seq as i64)),
        (
            "solutions",
            Json::Arr(solutions.iter().map(bindings_to_json).collect()),
        ),
        ("done", Json::Bool(false)),
    ])
}

/// The terminal `stream` frame: total solution count, whether the stream
/// was cancelled, and the steps spent (when countable).
pub fn resp_stream_done(id: i64, count: u64, cancelled: bool, steps: Option<u64>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("count", Json::Int(count as i64)),
        ("cancelled", Json::Bool(cancelled)),
        ("done", Json::Bool(true)),
    ];
    if let Some(steps) = steps {
        pairs.push(("steps", Json::Int(steps as i64)));
    }
    Json::obj(pairs)
}

/// `cancel` / `shutdown` acknowledgement.
pub fn resp_ack(id: i64) -> Json {
    Json::obj(vec![("ok", Json::Bool(true)), ("id", Json::Int(id))])
}

/// `reload` reply for the `unchanged` case: the edit was byte-identical
/// to the resident source, nothing ran.
pub fn resp_reload_unchanged(id: i64, key: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("status", Json::Str("unchanged".into())),
        ("program", Json::Str(key.to_owned())),
    ])
}

/// `reload` reply for the `recompiled` case: the new generation's key,
/// which methods were re-lowered / re-verified, and the new generation's
/// warnings.
pub fn resp_reloaded(
    id: i64,
    key: &str,
    methods: &[String],
    reverified: &[String],
    warnings: &[String],
) -> Json {
    let strs = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id)),
        ("status", Json::Str("recompiled".into())),
        ("program", Json::Str(key.to_owned())),
        ("methods", strs(methods)),
        ("reverified", strs(reverified)),
        ("warnings", strs(warnings)),
    ])
}

/// `reload` rejection, listing the diagnostics (the base program stays
/// resident and current).
pub fn resp_reload_rejected(id: i64, errors: &[String]) -> Json {
    ErrorFrame::new(
        error_kind::RELOAD_REJECTED,
        "the edit does not compile; the previous program stays active",
    )
    .with(
        "errors",
        Json::Arr(errors.iter().map(|e| Json::Str(e.clone())).collect()),
    )
    .into_frame(Some(id))
}

/// Compile-failure reply, listing the diagnostics.
pub fn resp_compile_failed(id: i64, errors: &[String]) -> Json {
    ErrorFrame::new(error_kind::COMPILE_FAILED, "the source failed to compile")
        .with(
            "errors",
            Json::Arr(errors.iter().map(|e| Json::Str(e.clone())).collect()),
        )
        .into_frame(Some(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let doc = Json::obj(vec![("op", Json::Str("ping".into())), ("id", Json::Int(1))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap(), doc);
        assert!(matches!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn oversized_and_truncated_frames_are_distinguished() {
        let mut big = Vec::new();
        big.extend_from_slice(&(10_000u32).to_be_bytes());
        big.extend_from_slice(&[b'x'; 10_000]);
        let mut cur = Cursor::new(big);
        match read_frame(&mut cur, 1_000) {
            Err(FrameError::TooLarge { declared }) => assert_eq!(declared, 10_000),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        drain(&mut cur, 10_000).unwrap();
        assert!(matches!(read_frame(&mut cur, 1_000), Err(FrameError::Eof)));

        let mut cut = Vec::new();
        cut.extend_from_slice(&(100u32).to_be_bytes());
        cut.extend_from_slice(b"only a little");
        assert!(matches!(
            read_frame(&mut Cursor::new(cut), 1_000),
            Err(FrameError::Truncated(_))
        ));
    }

    #[test]
    fn requests_parse_and_reject() {
        let q = Json::parse(
            r#"{"op":"stream","id":7,"tenant":"t1","program":"p:1","method":"below",
                "class":"Gen","known":{"n":3},"batch":2,"limits":{"max_steps":100}}"#,
        )
        .unwrap();
        match Request::parse(&q).unwrap() {
            Request::Stream {
                id,
                tenant,
                spec,
                batch,
            } => {
                assert_eq!((id, batch), (7, 2));
                assert_eq!(tenant, "t1");
                assert_eq!(spec.class.as_deref(), Some("Gen"));
                assert_eq!(spec.known, vec![("n".into(), Value::Int(3))]);
                assert_eq!(spec.limits.max_steps, Some(100));
                assert_eq!(spec.limits.max_depth, None);
            }
            other => panic!("parsed as {other:?}"),
        }
        for bad in [
            r#"{"id":1}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"nosuch","id":1}"#,
            r#"{"op":"compile","id":1}"#,
            r#"{"op":"query","id":1,"method":"m"}"#,
            r#"{"op":"query","id":1,"program":"p","method":"m","known":{"x":[1]}}"#,
            r#"{"op":"query","id":1,"program":"p","method":"m","limits":{"max_steps":-1}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(Request::parse(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn stream_batch_is_clamped_to_a_sane_range() {
        let parse_batch = |raw: &str| {
            let doc = Json::parse(raw).unwrap();
            match Request::parse(&doc).unwrap() {
                Request::Stream { batch, .. } => batch,
                other => panic!("parsed as {other:?}"),
            }
        };
        // A hostile batch value must clamp, not size a huge allocation.
        let huge = parse_batch(
            r#"{"op":"stream","id":1,"program":"p:1","method":"m","batch":4000000000000}"#,
        );
        assert_eq!(huge, MAX_STREAM_BATCH);
        let negative =
            parse_batch(r#"{"op":"stream","id":1,"program":"p:1","method":"m","batch":-5}"#);
        assert_eq!(negative, 1);
        let absent = parse_batch(r#"{"op":"stream","id":1,"program":"p:1","method":"m"}"#);
        assert_eq!(absent, 64);
    }

    #[test]
    fn rt_errors_map_to_structured_frames() {
        let e = RtError::arity_mismatch("Gen.below", 2, 1);
        let frame = ErrorFrame::from_rt(&e).into_frame(Some(9));
        assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
        let err = frame.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("arity-mismatch")
        );
        assert_eq!(err.get("expected").and_then(Json::as_i64), Some(2));
        let e = RtError::limit("steps", 64, "budget exceeded");
        let err = ErrorFrame::from_rt(&e).into_frame(None);
        let err = err.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("limit-exceeded")
        );
        assert_eq!(err.get("limit").and_then(Json::as_i64), Some(64));
    }
}
