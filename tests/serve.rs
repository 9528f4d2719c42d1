//! End-to-end tests of the `jmatch-serve` subsystem: protocol
//! correctness against the sequential embedding-API oracle, robustness
//! against malformed / oversized / truncated frames, quota accounting
//! (including the refund-on-disconnect guarantee), backpressure, and
//! deterministic thread reclamation.

use jmatch::runtime::serve::json::Json;
use jmatch::runtime::serve::proto::{self, bindings_to_json, read_frame, FrameError};
use jmatch::runtime::serve::{Client, QueryOptions, QuotaConfig, ServeConfig, Server};
use jmatch::{Bindings, Limits, Value, Workspace};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A tiny program with a free generator, a class generator, and a
/// forward function.
const SMALL_SRC: &str = "\
class Gen {
    boolean upto(int n, int x) iterates(x) ( x = 0 || x = 1 || x = 2 )
}
static boolean below(int n, int x) iterates(x) ( x = 0 || x = 1 || x = 2 )
static int add(int a, int b) { return a + b; }
";

/// A generator with `n` solutions, each also carrying the `tag` input
/// binding — with a fat tag, enough wire bytes to overrun any socket
/// buffer and park the streaming worker mid-enumeration.
fn wide_src(n: usize) -> String {
    let opts: Vec<String> = (0..n).map(|i| format!("x = {i}")).collect();
    format!(
        "static boolean wide(string tag, int x) iterates(x) ( {} )",
        opts.join(" || ")
    )
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Boots a server and hands back (server, connected client).
fn boot(config: ServeConfig) -> (Server, Client) {
    let server = Server::start(config).expect("server start");
    let client = Client::connect(server.local_addr()).expect("client connect");
    (server, client)
}

fn compile_ok(client: &mut Client, source: &str) -> String {
    let reply = client.compile(source, false).expect("compile round-trip");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "compile failed: {reply}"
    );
    reply
        .get("program")
        .and_then(Json::as_str)
        .expect("compile reply carries the program key")
        .to_owned()
}

fn error_kind_of(frame: &Json) -> &str {
    assert_eq!(
        frame.get("ok"),
        Some(&Json::Bool(false)),
        "expected an error frame, got: {frame}"
    );
    frame
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error frames carry a kind")
}

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Retrying settle check: other tests in this binary run concurrently
/// with their own transient servers, so the count must *stop exceeding*
/// the baseline, not match it instantaneously.
#[cfg(target_os = "linux")]
fn assert_threads_settle(baseline: usize, what: &str) {
    for _ in 0..250 {
        if live_threads() <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "{what}: thread count stuck at {} (baseline {baseline}) — server threads leaked",
        live_threads()
    );
}

// ---------------------------------------------------------------------------
// Protocol correctness vs the sequential oracle
// ---------------------------------------------------------------------------

#[test]
fn serve_roundtrip_matches_sequential_oracle() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);

    // Second compile of the same source is a cache hit.
    let again = client.compile(SMALL_SRC, false).expect("re-compile");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(again.get("program").and_then(Json::as_str), Some(&*key));

    // Forward call.
    let reply = client
        .call("default", &key, "add", &[Value::Int(20), Value::Int(22)])
        .expect("call");
    assert_eq!(reply.get("value"), Some(&Json::Int(42)));

    // The oracle: the embedding API over the same source.
    let program = Workspace::new().verify(false).compile(SMALL_SRC).unwrap();
    let mut known = Bindings::new();
    known.insert("n".into(), Value::Int(3));
    let expected: Vec<Json> = program
        .free_method("below")
        .unwrap()
        .iterate(None, &known)
        .unwrap()
        .try_collect()
        .unwrap()
        .iter()
        .map(bindings_to_json)
        .collect();

    // Free-method collect query.
    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let reply = client.query(&options).expect("query");
    assert_eq!(
        reply.get("solutions").and_then(Json::as_arr),
        Some(&expected[..]),
        "wire solutions diverge from the oracle"
    );
    assert!(reply.get("steps").and_then(Json::as_i64).unwrap_or(0) > 0);

    // Instance-method query (bare receiver).
    let mut options = QueryOptions::new(&key, "upto");
    options.class = Some("Gen".into());
    options.known = vec![("n".into(), Value::Int(3))];
    let reply = client.query(&options).expect("class query");
    let xs: Vec<i64> = reply
        .get("solutions")
        .and_then(Json::as_arr)
        .expect("solutions")
        .iter()
        .map(|s| s.get("x").and_then(Json::as_i64).expect("x binding"))
        .collect();
    assert_eq!(xs, vec![0, 1, 2]);

    // Streamed enumeration, batch 2: solutions re-assemble identically.
    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let frames = client.stream(&options, 2).expect("stream");
    let streamed: Vec<Json> = frames
        .iter()
        .flat_map(|f| {
            f.get("solutions")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec()
        })
        .collect();
    assert_eq!(streamed, expected);
    let last = frames.last().unwrap();
    assert_eq!(last.get("done"), Some(&Json::Bool(true)));
    assert_eq!(last.get("count"), Some(&Json::Int(expected.len() as i64)));

    let metrics = server.metrics();
    assert_eq!(metrics.cache.misses, 1, "one compile for many requests");
    assert!(metrics.cache.hits >= 4);
    server.shutdown();
}

#[test]
fn lint_op_reports_analysis_lints_and_shares_the_compile_cache() {
    let (server, mut client) = boot(test_config());

    // A lint-clean program: ok, an empty lints array, and a cache key
    // interchangeable with `compile`'s.
    let reply = client.lint(SMALL_SRC, false).expect("lint round-trip");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(
        reply.get("lints").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0),
        "{reply}"
    );
    let key = reply
        .get("program")
        .and_then(Json::as_str)
        .expect("lint reply carries the cache key")
        .to_owned();
    assert_eq!(compile_ok(&mut client, SMALL_SRC), key, "caches diverge");
    let again = client.lint(SMALL_SRC, false).expect("re-lint");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));

    // A left-recursive generator: the unbounded-recursion lint comes back
    // as a structured {kind, context, message} object.
    let reply = client
        .lint("static boolean spin() ( spin() )", false)
        .expect("lint round-trip");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    let lints = reply.get("lints").and_then(Json::as_arr).expect("lints");
    assert!(
        lints
            .iter()
            .any(|l| l.get("kind").and_then(Json::as_str) == Some("unbounded recursion")),
        "{reply}"
    );
    assert!(
        lints
            .iter()
            .all(|l| l.get("context").is_some() && l.get("message").is_some()),
        "{reply}"
    );

    // Source that does not compile: a structured error frame, like compile.
    let reply = client.lint("static int ((", false).expect("round-trip");
    assert_eq!(error_kind_of(&reply), "compile-failed");
    server.shutdown();
}

#[test]
fn compile_failures_and_unknown_programs_are_structured_errors() {
    let (server, mut client) = boot(test_config());

    let reply = client.compile("static int ((", false).expect("round-trip");
    assert_eq!(error_kind_of(&reply), "compile-failed");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("errors"))
        .and_then(Json::as_arr)
        .is_some_and(|errs| !errs.is_empty()));

    let reply = client
        .query(&QueryOptions::new("p:0123456789abcdef", "nope"))
        .expect("round-trip");
    assert_eq!(error_kind_of(&reply), "unknown-program");

    // Runtime errors keep their structured kinds across the wire.
    let key = compile_ok(&mut client, SMALL_SRC);
    let reply = client
        .query(&QueryOptions::new(&key, "nosuch"))
        .expect("round-trip");
    assert_eq!(error_kind_of(&reply), "method-not-found");
    let reply = client
        .call("default", &key, "add", &[Value::Int(1)])
        .expect("round-trip");
    assert_eq!(error_kind_of(&reply), "arity-mismatch");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Robustness: malformed, oversized, truncated frames
// ---------------------------------------------------------------------------

#[test]
fn malformed_json_answers_protocol_error_and_connection_survives() {
    let (server, mut client) = boot(test_config());
    let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");

    for payload in [
        &b"{not json"[..],
        &b"[1,2,3] trailing"[..],
        &b"\xff\xfe"[..],
    ] {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        raw.write_all(&frame).expect("raw write");
        let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("reply frame");
        assert_eq!(error_kind_of(&reply), "protocol");
    }
    // Well-formed JSON that is not a valid request is also survivable.
    let mut frame = (2u32).to_be_bytes().to_vec();
    frame.extend_from_slice(b"{}");
    raw.write_all(&frame).expect("raw write");
    let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("reply frame");
    assert_eq!(error_kind_of(&reply), "protocol");

    // The same connection still serves real requests.
    drop(raw);
    let pong = client.ping().expect("ping");
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
    assert!(server.metrics().protocol_errors >= 4);
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_drained_and_survivable() {
    let config = ServeConfig {
        max_frame: 256,
        ..test_config()
    };
    let (server, _client) = boot(config);
    let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");

    // Over the cap but under the skip cap (4×): error + drain, and the
    // connection keeps working.
    let declared = 600u32;
    let mut frame = declared.to_be_bytes().to_vec();
    frame.extend_from_slice(&vec![b'x'; declared as usize]);
    raw.write_all(&frame).expect("raw write");
    let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("reply frame");
    assert_eq!(error_kind_of(&reply), "frame-too-large");

    // A well-formed ping on the *same* connection still answers: the
    // oversized payload was fully drained, the boundary is clean.
    let ping = Json::obj(vec![("op", Json::Str("ping".into())), ("id", Json::Int(1))]);
    proto::write_frame(&mut raw, &ping).expect("ping write");
    let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("pong frame");
    assert_eq!(reply.get("pong"), Some(&Json::Bool(true)));

    // Beyond the skip cap the framing is hostile: error frame, then the
    // connection closes — but the server keeps accepting new ones.
    let mut frame = (1_000_000u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&[b'x'; 64]);
    raw.write_all(&frame).expect("raw write");
    let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("error frame");
    assert_eq!(error_kind_of(&reply), "frame-too-large");
    match read_frame(&mut raw, proto::DEFAULT_MAX_FRAME) {
        Err(FrameError::Eof) | Err(FrameError::Truncated(_)) => {}
        other => panic!("hostile connection should close, got {other:?}"),
    }

    let mut fresh = Client::connect(server.local_addr()).expect("fresh connect");
    assert_eq!(
        fresh.ping().expect("ping").get("pong"),
        Some(&Json::Bool(true))
    );
    server.shutdown();
}

#[test]
fn truncated_frames_kill_the_connection_not_the_server() {
    let (server, mut client) = boot(test_config());
    {
        let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
        // Declare 100 bytes, send 10, slam the connection shut.
        let mut frame = (100u32).to_be_bytes().to_vec();
        frame.extend_from_slice(b"0123456789");
        raw.write_all(&frame).expect("raw write");
    }
    // The server keeps serving existing and new connections.
    assert_eq!(
        client.ping().expect("ping").get("pong"),
        Some(&Json::Bool(true))
    );
    let key = compile_ok(&mut client, SMALL_SRC);
    assert!(key.starts_with("p:"));
    server.shutdown();
}

#[test]
fn hostile_stream_batch_is_clamped_not_fatal() {
    // The batch size pre-sizes a server-side buffer: a huge value must be
    // clamped at parse time, not panic the (sole) worker with a capacity
    // overflow.
    let config = ServeConfig {
        workers: 1,
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, SMALL_SRC);
    client
        .send(&Json::obj(vec![
            ("op", Json::Str("stream".into())),
            ("id", Json::Int(77)),
            ("program", Json::Str(key.clone())),
            ("method", Json::Str("below".into())),
            ("known", Json::obj(vec![("n", Json::Int(3))])),
            ("batch", Json::Int(1 << 42)),
        ]))
        .expect("send hostile stream");
    let mut total = 0;
    let terminal = loop {
        let frame = client.recv().expect("stream frame");
        assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame}");
        total += frame
            .get("solutions")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        if frame.get("done") == Some(&Json::Bool(true)) {
            break frame;
        }
    };
    assert_eq!(total, 3);
    assert_eq!(terminal.get("count"), Some(&Json::Int(3)));
    // The only worker survived: a follow-up query still answers.
    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let reply = client.query(&options).expect("post-hostile query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    server.shutdown();
}

#[test]
fn connection_cap_refuses_new_connections_with_structured_error() {
    let config = ServeConfig {
        max_connections: 1,
        ..test_config()
    };
    let (server, mut client) = boot(config);
    assert_eq!(
        client.ping().expect("ping").get("pong"),
        Some(&Json::Bool(true))
    );
    // The second connection is refused with an error frame, then closed.
    let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
    let reply = read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).expect("rejection frame");
    assert_eq!(error_kind_of(&reply), "over-capacity");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_i64)
        .is_some_and(|ms| ms > 0));
    match read_frame(&mut raw, proto::DEFAULT_MAX_FRAME) {
        Err(FrameError::Eof) | Err(FrameError::Truncated(_)) => {}
        other => panic!("capped connection should close, got {other:?}"),
    }
    assert_eq!(server.metrics().rejected_connections, 1);
    // The admitted connection is untouched.
    assert_eq!(
        client.ping().expect("ping").get("pong"),
        Some(&Json::Bool(true))
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Quotas and backpressure
// ---------------------------------------------------------------------------

#[test]
fn quota_exhaustion_rejects_with_retry_and_spares_other_tenants() {
    let config = ServeConfig {
        quota: QuotaConfig {
            limits: Limits {
                max_steps: 1_000_000,
                ..Limits::default()
            },
            steps_per_window: 10_000_000,
            window: Duration::from_secs(600),
            ..QuotaConfig::default()
        },
        tenant_overrides: vec![(
            "starved".into(),
            QuotaConfig {
                steps_per_window: 40,
                window: Duration::from_secs(600),
                ..QuotaConfig::default()
            },
        )],
        ..test_config()
    };
    let (server, mut client) = boot(config);
    // Enough solutions that enumerating under a 40-step pool must trip
    // the ceiling rather than finish early.
    let key = compile_ok(&mut client, &wide_src(200));

    // The starved tenant's first query gets the whole (tiny) pool and
    // burns it: the enumeration trips the step ceiling.
    let mut options = QueryOptions::new(&key, "wide");
    options.tenant = "starved".into();
    options.known = vec![("tag".into(), Value::Str("s".into()))];
    let reply = client.query(&options).expect("first query");
    assert_eq!(error_kind_of(&reply), "limit-exceeded");

    // The pool is empty for the rest of the long window: structured
    // quota rejection with a retry hint.
    let reply = client.query(&options).expect("second query");
    assert_eq!(error_kind_of(&reply), "quota-exhausted");
    let retry = reply
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_i64)
        .expect("quota rejections carry retry_after_ms");
    assert!(retry > 0);

    // Another tenant on the same server is untouched.
    let mut options = QueryOptions::new(&key, "wide");
    options.tenant = "healthy".into();
    options.known = vec![("tag".into(), Value::Str("s".into()))];
    let reply = client.query(&options).expect("healthy query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

    assert_eq!(server.metrics().rejected_quota, 1);
    server.shutdown();
}

#[test]
fn metered_compiles_draw_from_the_tenant_pool() {
    let config = ServeConfig {
        quota: QuotaConfig {
            steps_per_window: 150,
            window: Duration::from_secs(600),
            compile_steps: 100,
            ..QuotaConfig::default()
        },
        ..test_config()
    };
    let (server, mut client) = boot(config);
    // The first compile pays the full 100-step price...
    let _key = compile_ok(&mut client, SMALL_SRC);
    // ...re-compiling the same source is a cache hit: reserved, refunded.
    let again = client.compile(SMALL_SRC, false).expect("re-compile");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
    // A distinct source drains the 50-step remainder (a partial grant)...
    let other = client
        .compile("static int g() { return 7; }", false)
        .expect("second compile");
    assert_eq!(other.get("ok"), Some(&Json::Bool(true)), "{other}");
    // ...and the next distinct compile is refused for the window.
    let reply = client
        .compile("static int h() { return 8; }", false)
        .expect("third compile round-trip");
    assert_eq!(error_kind_of(&reply), "quota-exhausted");
    assert!(server.metrics().rejected_quota >= 1);
    server.shutdown();
}

#[test]
fn full_queues_reject_with_over_capacity_not_unbounded_memory() {
    // No workers: admitted jobs queue forever, so the queue bound is the
    // only thing between the client and unbounded growth.
    let config = ServeConfig {
        workers: 0,
        queue_depth: 2,
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, SMALL_SRC);

    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    // Two fill the queue; the third must be rejected immediately.
    for _ in 0..2 {
        client.start_stream(&options, 1).expect("enqueue");
    }
    let reply = client.query(&options).expect("third query");
    assert_eq!(error_kind_of(&reply), "over-capacity");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_i64)
        .is_some_and(|ms| ms > 0));

    let metrics = server.metrics();
    assert_eq!(metrics.rejected_capacity, 1);
    assert_eq!(metrics.queued, 2);
    // Queued-but-never-run jobs hold reservations; shutdown drops them
    // and their grants refund (exercised here, asserted via clean join).
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Disconnects, cancellation, thread reclamation
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
#[test]
fn mid_stream_disconnect_reclaims_worker_and_refunds_grant() {
    let baseline = live_threads();
    let pool_ceiling = 1_000_000u64;
    let config = ServeConfig {
        workers: 1,
        quota: QuotaConfig {
            limits: Limits {
                max_steps: pool_ceiling,
                ..Limits::default()
            },
            steps_per_window: pool_ceiling,
            window: Duration::from_secs(600),
            ..QuotaConfig::default()
        },
        ..test_config()
    };
    let (server, mut client) = boot(config);
    // ~1200 solutions, each echoing a 2 KiB input binding: far more wire
    // bytes than the socket buffers hold, so the worker is parked in a
    // blocked send when the client vanishes.
    let key = compile_ok(&mut client, &wide_src(1200));
    {
        let mut victim = Client::connect(server.local_addr()).expect("victim connect");
        let mut opts = QueryOptions::new(&key, "wide");
        opts.tenant = "dropper".into();
        opts.known = vec![("tag".into(), Value::Str("t".repeat(2048)))];
        victim.start_stream(&opts, 1).expect("start stream");
        // Read one batch so the stream is demonstrably in flight...
        let first = victim.recv().expect("first batch");
        assert_eq!(first.get("done"), Some(&Json::Bool(false)));
        // ...then vanish without reading the rest.
    }
    // The worker notices, abandons the stream, and serves the next
    // request — on the sole worker thread, so this only answers if the
    // dead stream released it. (Small tag: the collect reply must fit
    // the client's frame cap.)
    let mut opts = QueryOptions::new(&key, "wide");
    opts.tenant = "survivor".into();
    opts.known = vec![("tag".into(), Value::Str("s".into()))];
    let reply = client.query(&opts).expect("post-disconnect query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    // The abandoned stream settled its grant: the dropper tenant's pool
    // refunded everything the enumeration did not actually spend. (A
    // leak would leave remaining pinned at 0 for the 600s window.)
    let tenants = server.quotas().snapshot();
    let dropper = tenants
        .iter()
        .find(|t| t.tenant == "dropper")
        .expect("dropper tenant exists");
    assert!(
        dropper.pool_remaining > pool_ceiling / 2,
        "grant not refunded: {} of {} steps left",
        dropper.pool_remaining,
        dropper.pool_ceiling,
    );
    assert!(dropper.spent > 0, "the stream did real work before dying");
    assert!(server.metrics().cancelled >= 1);

    server.shutdown();
    assert_threads_settle(baseline, "serve disconnect");
}

#[test]
fn cancel_frames_stop_streams_and_leave_the_connection_usable() {
    let config = ServeConfig {
        workers: 1,
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, &wide_src(1200));
    let mut options = QueryOptions::new(&key, "wide");
    options.known = vec![("tag".into(), Value::Str("t".repeat(2048)))];

    let stream_id = client.start_stream(&options, 1).expect("start stream");
    let first = client.recv().expect("first batch");
    assert_eq!(first.get("id"), Some(&Json::Int(stream_id)));
    let cancel_id = client.cancel(stream_id).expect("cancel");

    // Drain until both the stream's terminal frame and the cancel ack
    // arrive — the ack comes from the connection reader and the terminal
    // frame from the worker, so either wire order is legal.
    let mut saw_ack = false;
    let mut terminal = None;
    for _ in 0..5000 {
        if saw_ack && terminal.is_some() {
            break;
        }
        let frame = client.recv().expect("frame");
        if frame.get("id") == Some(&Json::Int(cancel_id)) {
            saw_ack = true;
        } else if frame.get("done") == Some(&Json::Bool(true)) {
            terminal = Some(frame);
        }
    }
    let terminal = terminal.expect("stream reached a terminal frame");
    assert!(saw_ack, "cancel was acknowledged");
    assert_eq!(terminal.get("cancelled"), Some(&Json::Bool(true)));
    let count = terminal.get("count").and_then(Json::as_i64).unwrap();
    assert!(count < 1200, "cancel should cut the stream short ({count})");

    // Same connection, next request: fully usable.
    let mut options = QueryOptions::new(&key, "wide");
    options.known = vec![("tag".into(), Value::Str("s".into()))];
    let reply = client.query(&options).expect("post-cancel query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert!(server.metrics().cancelled >= 1);
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn shutdown_joins_accept_workers_and_connection_readers() {
    let baseline = live_threads();
    let (server, mut client) = boot(test_config());
    // A few extra idle connections whose readers are parked in `read`.
    let _idle: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.local_addr()).expect("idle connect"))
        .collect();
    let key = compile_ok(&mut client, SMALL_SRC);
    assert!(key.starts_with("p:"));
    server.shutdown();
    assert_threads_settle(baseline, "server shutdown");
}

// ---------------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------------

#[test]
fn reload_recompiles_in_place_and_keeps_both_generations_resident() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);

    // Reloading with the identical source is a no-op: same key back.
    let reply = client
        .reload("default", &key, SMALL_SRC)
        .expect("no-op reload");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("unchanged")
    );
    assert_eq!(reply.get("program").and_then(Json::as_str), Some(&*key));

    // A body-only edit of `add`: incremental recompile, and the reply
    // names exactly the changed method.
    let edited = SMALL_SRC.replace("return a + b;", "return a + b + 100;");
    let reply = client.reload("default", &key, &edited).expect("reload");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("recompiled")
    );
    let new_key = reply
        .get("program")
        .and_then(Json::as_str)
        .expect("recompiled replies carry the new key")
        .to_owned();
    assert_ne!(new_key, key, "a real edit must mint a new cache key");
    assert_eq!(
        reply.get("methods").and_then(Json::as_arr),
        Some(&[Json::Str("<toplevel>.add".into())][..]),
        "{reply}"
    );

    // The new generation serves the edited behavior...
    let reply = client
        .call(
            "default",
            &new_key,
            "add",
            &[Value::Int(20), Value::Int(22)],
        )
        .expect("call new generation");
    assert_eq!(reply.get("value"), Some(&Json::Int(142)), "{reply}");
    // ...and the old generation stays resident with the old behavior.
    let reply = client
        .call("default", &key, "add", &[Value::Int(20), Value::Int(22)])
        .expect("call old generation");
    assert_eq!(reply.get("value"), Some(&Json::Int(42)), "{reply}");
    // The new key is also a compile-cache citizen: compiling the edited
    // source verbatim is a hit on the reloaded entry.
    let again = client.compile(&edited, false).expect("re-compile edited");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "{again}");
    assert_eq!(again.get("program").and_then(Json::as_str), Some(&*new_key));
    server.shutdown();
}

/// Each generation memoizes its own iterative forms: after a reload that
/// edits an iterative body, a query on the new key enumerates the new
/// body even though the same shape was just served from the old one.
#[test]
fn reload_of_an_iterative_body_serves_the_new_solutions() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);
    let xs = |client: &mut Client, key: &str| -> Vec<i64> {
        let mut options = QueryOptions::new(key, "below");
        options.known = vec![("n".into(), Value::Int(3))];
        let reply = client.query(&options).expect("query");
        reply
            .get("solutions")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no solutions: {reply}"))
            .iter()
            .map(|s| s.get("x").and_then(Json::as_i64).expect("x binding"))
            .collect()
    };
    assert_eq!(xs(&mut client, &key), [0, 1, 2]);

    let edited = SMALL_SRC.replace(
        "static boolean below(int n, int x) iterates(x) ( x = 0 || x = 1 || x = 2 )",
        "static boolean below(int n, int x) iterates(x) ( x = n || x = n + 1 )",
    );
    assert_ne!(edited, SMALL_SRC);
    let reply = client.reload("default", &key, &edited).expect("reload");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("recompiled"),
        "{reply}"
    );
    let new_key = reply
        .get("program")
        .and_then(Json::as_str)
        .expect("recompiled replies carry the new key")
        .to_owned();
    assert_eq!(xs(&mut client, &new_key), [3, 4]);
    assert_eq!(xs(&mut client, &key), [0, 1, 2]);
    server.shutdown();
}

/// A served query recurses as deep as the worker's declared 8 MiB stack
/// allows, not the 2 MiB std default: `size()` over a list longer than a
/// default thread can hold (about 735 levels in a release build, 70 in a
/// debug build, where a level costs ten times the stack) answers with
/// the right count on two connections at once.
#[test]
fn deep_queries_run_on_the_workers_declared_stack() {
    use jmatch::corpus::jmatch::{CONS_LIST, EMPTY_LIST, LIST_INTERFACE};
    // Past the 2 MiB default and within 8 MiB in either profile.
    const N: i64 = if cfg!(debug_assertions) { 200 } else { 1_500 };
    let source = format!(
        "{LIST_INTERFACE}{EMPTY_LIST}{CONS_LIST}
static List build(int n) {{
    List l = EmptyList.nil();
    int i = n;
    while (i > 0) {{ l = ConsList.cons(i, l); i = i - 1; }}
    return l;
}}
static boolean deep(int n, int k) iterates(k) ( k = build(n).size() )
"
    );
    let config = ServeConfig {
        workers: 2,
        quota: QuotaConfig {
            // Raised out of the way, so only the stack guard could stop
            // the recursion.
            limits: Limits {
                max_depth: 1_000_000,
                max_steps: 1_000_000,
            },
            ..QuotaConfig::default()
        },
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, &source);
    let addr = server.local_addr();
    let connections: Vec<_> = (0..2)
        .map(|_| {
            let key = key.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connect");
                let mut options = QueryOptions::new(&key, "deep");
                options.known = vec![("n".into(), Value::Int(N))];
                (0..3)
                    .map(|_| client.query(&options).expect("query round-trip"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for connection in connections {
        for reply in connection.join().expect("connection thread") {
            let ks: Vec<i64> = reply
                .get("solutions")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no solutions: {reply}"))
                .iter()
                .map(|s| s.get("k").and_then(Json::as_i64).expect("k binding"))
                .collect();
            assert_eq!(ks, [N]);
        }
    }
    server.shutdown();
}

#[test]
fn rejected_reloads_keep_the_previous_program_active() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);

    // An edit that does not parse: structured rejection, nothing replaced.
    let reply = client
        .reload("default", &key, "static int ((")
        .expect("broken reload round-trip");
    assert_eq!(error_kind_of(&reply), "reload-rejected");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("errors"))
        .and_then(Json::as_arr)
        .is_some_and(|errs| !errs.is_empty()));

    // The previous generation still answers under its old key.
    let reply = client
        .call("default", &key, "add", &[Value::Int(1), Value::Int(2)])
        .expect("call after rejected reload");
    assert_eq!(reply.get("value"), Some(&Json::Int(3)), "{reply}");

    // Reloading a key that was never compiled here is unknown-program.
    let reply = client
        .reload("default", "p:0123456789abcdef", SMALL_SRC)
        .expect("unknown reload round-trip");
    assert_eq!(error_kind_of(&reply), "unknown-program");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Request deadlines (wire-level; timing-dependent paths live in
// tests/fault_injection.rs)
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_is_rejected_before_any_work_with_a_retry_hint() {
    let (server, mut client) = boot(test_config());
    // A deadline that has already elapsed is rejected up front — even on
    // `lint`, whose compilation phase is not interruptible — without
    // spending a compile on it.
    client
        .send(&Json::obj(vec![
            ("op", Json::Str("lint".into())),
            ("id", Json::Int(9)),
            ("source", Json::Str(SMALL_SRC.into())),
            ("deadline_ms", Json::Int(0)),
        ]))
        .expect("send lint");
    let reply = client.recv().expect("lint verdict");
    assert_eq!(reply.get("id"), Some(&Json::Int(9)));
    assert_eq!(error_kind_of(&reply), "deadline-exceeded");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_i64)
        .is_some_and(|ms| ms > 0));
    assert_eq!(server.metrics().deadline_exceeded, 1);
    assert_eq!(server.metrics().cache.misses, 0, "no compile was spent");
    server.shutdown();
}

#[test]
fn negative_deadline_is_a_protocol_error() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);
    client
        .send(&Json::obj(vec![
            ("op", Json::Str("query".into())),
            ("id", Json::Int(11)),
            ("program", Json::Str(key)),
            ("method", Json::Str("below".into())),
            ("known", Json::obj(vec![("n", Json::Int(3))])),
            ("deadline_ms", Json::Int(-5)),
        ]))
        .expect("send query");
    let reply = client.recv().expect("verdict");
    assert_eq!(reply.get("id"), Some(&Json::Int(11)));
    assert_eq!(error_kind_of(&reply), "protocol");
    server.shutdown();
}

#[test]
fn generous_deadlines_do_not_perturb_results() {
    let (server, mut client) = boot(test_config());
    let key = compile_ok(&mut client, SMALL_SRC);
    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let plain = client.query(&options).expect("undeadlined query");
    options.deadline_ms = Some(60_000);
    let deadlined = client.query(&options).expect("deadlined query");
    assert_eq!(deadlined.get("ok"), Some(&Json::Bool(true)), "{deadlined}");
    assert_eq!(
        deadlined.get("solutions"),
        plain.get("solutions"),
        "a generous deadline changed the solution transcript"
    );
    let reply = client
        .call_with_deadline(
            "default",
            &key,
            "add",
            &[Value::Int(20), Value::Int(22)],
            60_000,
        )
        .expect("deadlined call");
    assert_eq!(reply.get("value"), Some(&Json::Int(42)), "{reply}");
    assert_eq!(server.metrics().deadline_exceeded, 0);
    server.shutdown();
}
