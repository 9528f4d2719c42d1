//! Deterministic chaos tests of the `jmatch-serve` fault-tolerance
//! machinery: seeded fault injection (request panics, worker panics,
//! solver stalls, slow writes) driven through real connections, with
//! three invariants checked throughout —
//!
//! 1. **no hangs**: every request is answered (a result frame or a
//!    structured error frame), and the server shuts down cleanly;
//! 2. **no leaks**: all server threads (workers, respawned workers,
//!    readers, writers, supervisor, watchdog) are joined on shutdown;
//! 3. **quota conservation**: once no grants are in flight, every
//!    tenant satisfies `reserved == spent + refunded` — each admission
//!    settles or refunds exactly once, even when the request panicked,
//!    timed out, or its connection was convicted as a slow consumer.

use jmatch::runtime::serve::json::Json;
use jmatch::runtime::serve::proto::bindings_to_json;
use jmatch::runtime::serve::{Client, FaultConfig, QueryOptions, RetryPolicy, ServeConfig, Server};
use jmatch::{Bindings, Value, Workspace};
use std::time::Duration;

const SMALL_SRC: &str = "\
static boolean below(int n, int x) iterates(x) ( x = 0 || x = 1 || x = 2 )
static int add(int a, int b) { return a + b; }
";

/// A generator with `n` solutions, each echoing the `tag` input binding —
/// with a fat tag, enough wire bytes to park a writer behind a consumer
/// that never reads.
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

/// The sequential embedding-API oracle for `below` with `n = 3`.
fn below_oracle() -> Vec<Json> {
    let program = Workspace::new().verify(false).compile(SMALL_SRC).unwrap();
    let mut known = Bindings::new();
    known.insert("n".into(), Value::Int(3));
    program
        .free_method("below")
        .unwrap()
        .iterate(None, &known)
        .unwrap()
        .try_collect()
        .unwrap()
        .iter()
        .map(bindings_to_json)
        .collect()
}

/// Waits for in-flight grants to settle, then asserts the conservation
/// invariant for every tenant the server has seen.
fn assert_quota_conserved(server: &Server) {
    for _ in 0..500 {
        if server
            .quotas()
            .snapshot()
            .iter()
            .all(|t| t.outstanding == 0)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for t in server.quotas().snapshot() {
        assert_eq!(
            t.outstanding, 0,
            "tenant `{}` still has grants in flight",
            t.tenant
        );
        assert_eq!(
            t.reserved,
            t.spent + t.refunded,
            "tenant `{}` violates settle-or-refund-exactly-once: \
             reserved {} != spent {} + refunded {}",
            t.tenant,
            t.reserved,
            t.spent,
            t.refunded
        );
    }
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
// Panic isolation
// ---------------------------------------------------------------------------

/// Injected request-execution panics are caught and answered as
/// `internal-error` frames; every clean reply stays transcript-identical
/// to the oracle, and the panicked requests' grants refund.
#[test]
fn panicking_requests_become_error_frames_and_clean_replies_match_the_oracle() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let config = ServeConfig {
        workers: 2,
        faults: Some(FaultConfig {
            seed: 0xC4A0_57E5,
            panic_request: 0.3,
            ..FaultConfig::default()
        }),
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, SMALL_SRC);
    let expected = below_oracle();

    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let (mut clean, mut panicked) = (0u64, 0u64);
    for _ in 0..40 {
        let reply = client.query(&options).expect("query round-trip");
        if reply.get("ok") == Some(&Json::Bool(true)) {
            assert_eq!(
                reply.get("solutions").and_then(Json::as_arr),
                Some(&expected[..]),
                "a clean reply diverged from the oracle under fault injection"
            );
            clean += 1;
        } else {
            assert_eq!(error_kind_of(&reply), "internal-error");
            panicked += 1;
        }
    }
    assert!(clean > 0, "no request survived a 0.3 panic rate");
    assert!(panicked > 0, "a 0.3 panic rate never fired in 40 requests");
    assert!(server.metrics().panics >= panicked);

    assert_quota_conserved(&server);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "request-panic chaos");
}

/// Workers that die between jobs are respawned by the supervisor, and no
/// queued request is lost to the death.
#[test]
fn between_job_worker_panics_are_respawned_without_losing_requests() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let config = ServeConfig {
        workers: 2,
        faults: Some(FaultConfig {
            seed: 0x5EED_0002,
            panic_worker: 0.2,
            ..FaultConfig::default()
        }),
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, SMALL_SRC);

    // Between-job panics never hold a request, so every call completes —
    // at worst it waits out a supervisor respawn tick.
    for _ in 0..40 {
        let reply = client
            .call("default", &key, "add", &[Value::Int(20), Value::Int(22)])
            .expect("call round-trip");
        assert_eq!(reply.get("value"), Some(&Json::Int(42)), "{reply}");
    }
    assert!(
        server.metrics().worker_respawns > 0,
        "a 0.2 worker-panic rate never fired across 40 requests"
    );

    assert_quota_conserved(&server);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "worker-respawn chaos");
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// A stalled worker makes the deadline deterministic: the watchdog fires
/// the cancel token while the job is queued/stalled, and pickup answers
/// `deadline-exceeded` with a retry hint — for collect queries, calls,
/// and streams alike. The expired requests' grants refund in full.
#[test]
fn deadlines_fire_under_stall_and_answer_retryable_deadline_exceeded() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let config = ServeConfig {
        workers: 1,
        faults: Some(FaultConfig {
            seed: 0x5EED_0003,
            stall: 1.0,
            stall_ms: 120,
            ..FaultConfig::default()
        }),
        ..test_config()
    };
    let (server, mut client) = boot(config);
    let key = compile_ok(&mut client, SMALL_SRC);

    // Collect query: stalled 120ms, deadline 25ms — expired at pickup.
    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    options.deadline_ms = Some(25);
    let reply = client.query(&options).expect("query round-trip");
    assert_eq!(error_kind_of(&reply), "deadline-exceeded");
    assert!(
        reply
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_i64)
            .is_some_and(|ms| ms > 0),
        "deadline-exceeded must carry a retry hint: {reply}"
    );

    // Forward call with a deadline: same verdict.
    let reply = client
        .call_with_deadline("default", &key, "add", &[Value::Int(1), Value::Int(2)], 25)
        .expect("call round-trip");
    assert_eq!(error_kind_of(&reply), "deadline-exceeded");

    // Stream: the deadline verdict arrives as the stream's reply frame.
    let id = client.start_stream(&options, 1).expect("start stream");
    let reply = client.recv().expect("stream verdict");
    assert_eq!(reply.get("id"), Some(&Json::Int(id)));
    assert_eq!(error_kind_of(&reply), "deadline-exceeded");

    // Without a deadline the same stalled worker still answers.
    options.deadline_ms = None;
    let reply = client.query(&options).expect("query round-trip");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    // A job that expired in the queue never ran: only the clean query
    // counts as executed.
    let metrics = server.metrics();
    assert!(metrics.deadline_exceeded >= 3);
    assert_eq!(
        (metrics.calls, metrics.queries, metrics.streams),
        (0, 1, 0),
        "expired jobs must not count as executed"
    );
    assert_quota_conserved(&server);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "deadline chaos");
}

// ---------------------------------------------------------------------------
// Backpressure: slow consumers
// ---------------------------------------------------------------------------

/// A consumer that never reads its stream is convicted at the send-queue
/// high-water mark and disconnected; other connections stay served, and
/// the convicted stream's grant settles.
#[test]
fn slow_consumers_are_disconnected_and_spare_other_connections() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let config = ServeConfig {
        workers: 2,
        send_queue_depth: 2,
        send_queue_wait_ms: 50,
        ..test_config()
    };
    let (server, mut client) = boot(config);
    // ~1200 solutions, each echoing a 16 KiB binding (~20 MB of wire
    // bytes): far more than the loopback socket buffers plus a 2-frame
    // send queue can absorb.
    let key = compile_ok(&mut client, &wide_src(1200));

    let victim = {
        let mut victim = Client::connect(server.local_addr()).expect("victim connect");
        let mut opts = QueryOptions::new(&key, "wide");
        opts.tenant = "sluggish".into();
        opts.known = vec![("tag".into(), Value::Str("t".repeat(16 * 1024)))];
        victim.start_stream(&opts, 1).expect("start stream");
        victim // held open, never read: the writer must convict it.
    };

    // The server convicts the slow consumer within the high-water window.
    let mut convicted = false;
    for _ in 0..400 {
        if server.metrics().slow_consumer_disconnects >= 1 {
            convicted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(convicted, "slow consumer was never disconnected");

    // A healthy connection is unaffected, before and after the verdict.
    let mut opts = QueryOptions::new(&key, "wide");
    opts.tenant = "healthy".into();
    opts.known = vec![("tag".into(), Value::Str("s".into()))];
    let reply = client.query(&opts).expect("healthy query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    // The convicted stream's grant settled (or refunded) exactly once.
    assert_quota_conserved(&server);
    drop(victim);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "slow-consumer chaos");
}

// ---------------------------------------------------------------------------
// The full chaos mix
// ---------------------------------------------------------------------------

/// Every fault class at once, against concurrent retrying clients that
/// reconnect when their connection is killed: no request hangs, every
/// clean reply is transcript-identical to the oracle, every error is one
/// of the structured kinds, and quota conservation holds at the end.
#[test]
fn chaos_mix_preserves_transcripts_and_conserves_quota() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let config = ServeConfig {
        workers: 3,
        faults: Some(FaultConfig {
            seed: 0xD15E_A5E0,
            panic_request: 0.08,
            panic_worker: 0.05,
            slow_write: 0.10,
            slow_write_ms: 5,
            stall: 0.10,
            stall_ms: 10,
            truncate: 0.03,
        }),
        ..test_config()
    };
    let (server, mut setup) = boot(config);
    let key = compile_ok(&mut setup, SMALL_SRC);
    let expected = below_oracle();
    let addr = server.local_addr();

    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|worker| {
                let key = key.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 4,
                        base_delay_ms: 5,
                        max_delay_ms: 50,
                        seed: 0xBAD5_EED0 + worker,
                    };
                    let mut options = QueryOptions::new(&key, "below");
                    options.tenant = format!("chaos-{worker}");
                    options.known = vec![("n".into(), Value::Int(3))];
                    options.deadline_ms = Some(2_000);
                    let (mut ok, mut errors) = (0u64, 0u64);
                    let mut session: Option<Client> = None;
                    for i in 0..16 {
                        if session.is_none() {
                            match Client::connect(addr) {
                                Ok(fresh) => session = Some(fresh),
                                Err(_) => {
                                    std::thread::sleep(Duration::from_millis(10));
                                    continue;
                                }
                            }
                        }
                        let client = session.as_mut().expect("session established");
                        let outcome = if i % 2 == 0 {
                            client.call_with_retry(
                                &format!("chaos-{worker}"),
                                &key,
                                "add",
                                &[Value::Int(20), Value::Int(22)],
                                &policy,
                            )
                        } else {
                            client.query_with_retry(&options, &policy)
                        };
                        let reply = match outcome {
                            Ok(reply) => reply,
                            Err(_) => {
                                // Truncation or conviction killed the
                                // connection; reconnect and move on.
                                session = None;
                                continue;
                            }
                        };
                        if reply.get("ok") == Some(&Json::Bool(true)) {
                            if i % 2 == 0 {
                                assert_eq!(
                                    reply.get("value"),
                                    Some(&Json::Int(42)),
                                    "chaos corrupted a clean call reply"
                                );
                            } else {
                                assert_eq!(
                                    reply.get("solutions").and_then(Json::as_arr),
                                    Some(&expected[..]),
                                    "chaos corrupted a clean query reply"
                                );
                            }
                            ok += 1;
                        } else {
                            let kind = error_kind_of(&reply);
                            assert!(
                                matches!(
                                    kind,
                                    "internal-error"
                                        | "deadline-exceeded"
                                        | "cancelled"
                                        | "over-capacity"
                                        | "quota-exhausted"
                                ),
                                "unstructured failure under chaos: {reply}"
                            );
                            errors += 1;
                        }
                    }
                    (ok, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client thread"))
            .collect()
    });

    let total_ok: u64 = outcomes.iter().map(|(ok, _)| ok).sum();
    assert!(
        total_ok > 0,
        "no request ever succeeded under the chaos mix"
    );

    assert_quota_conserved(&server);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "full chaos mix");
}
