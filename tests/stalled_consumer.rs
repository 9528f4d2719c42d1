//! Backpressure isolation in `jmatch-serve`: each reply is written by the
//! thread that made it, so a client that stops reading parks only the
//! thread writing to it. This test keeps a server up for a whole write
//! timeout (5 s), so it is its own test binary: run beside the other
//! serve suites, its threads would outlive their thread-settle checks.

use jmatch::runtime::serve::json::Json;
use jmatch::runtime::serve::{Client, QueryOptions, ServeConfig, Server};
use jmatch::Value;
use std::time::{Duration, Instant};

/// A generator with `n` solutions, each echoing the `tag` input binding —
/// with a fat tag, enough wire bytes to park the worker writing them
/// behind a consumer that never reads.
fn wide_src(n: usize) -> String {
    let opts: Vec<String> = (0..n).map(|i| format!("x = {i}")).collect();
    format!(
        "static boolean wide(string tag, int x) iterates(x) ( {} )",
        opts.join(" || ")
    )
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
            "tenant `{}` violates settle-or-refund-exactly-once",
            t.tenant
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

/// While the victim's worker is stalled in its write, and before the write
/// timeout convicts the victim, another tenant's query on another
/// connection is answered by the other worker. The victim is then
/// convicted within the timeout.
#[test]
fn a_consumer_that_stops_reading_parks_only_the_thread_writing_to_it() {
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    let write_timeout = Duration::from_millis(5_000);
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        write_timeout_ms: write_timeout.as_millis() as u64,
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("client connect");
    let key = compile_ok(&mut client, &wide_src(1200));

    let mut victim = Client::connect(server.local_addr()).expect("victim connect");
    let mut opts = QueryOptions::new(&key, "wide");
    opts.tenant = "stalled".into();
    opts.known = vec![("tag".into(), Value::Str("t".repeat(16 * 1024)))];
    let started = Instant::now();
    victim.start_stream(&opts, 1).expect("start stream");
    // ~20 MB of replies overrun the loopback socket buffers within
    // milliseconds of pickup; from then on the victim's worker is parked
    // in its write.
    while server.metrics().streams == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));

    let mut opts = QueryOptions::new(&key, "wide");
    opts.tenant = "healthy".into();
    opts.known = vec![("tag".into(), Value::Str("s".into()))];
    let asked = Instant::now();
    let reply = client.query(&opts).expect("healthy query");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "a stalled consumer held up another connection's query for {:?}",
        asked.elapsed()
    );
    assert_eq!(
        server.metrics().slow_consumer_disconnects,
        0,
        "the healthy query must be answered while the victim's write is stalled"
    );

    while server.metrics().slow_consumer_disconnects == 0 {
        assert!(
            started.elapsed() < write_timeout + Duration::from_secs(2),
            "the stalled consumer was not convicted within the write timeout"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_quota_conserved(&server);
    drop(victim);
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "stalled-consumer isolation");
}
