//! `jmatch-loadgen` — load generator and smoke checker for `jmatch-serve`.
//!
//! Three modes:
//!
//! * `--smoke`: eight concurrent connections drive compile / call / query /
//!   stream against a small program and compare **every** wire frame with
//!   a sequential in-process oracle (the embedding API run over the same
//!   source). Any mismatch, unparsable frame, or socket error exits
//!   nonzero — this is the CI `serve-smoke` gate.
//! * `--chaos`: the fault-tolerant variant of the smoke, for servers
//!   running with injected faults (`jmatch-serve --faults …`). Clients
//!   retry retryable rejections, reconnect through disconnects and
//!   truncated frames, and tally every fault-path outcome they observe
//!   (internal errors, deadline rejections, dropped connections). The
//!   gate is: every *successful* reply still matches the oracle, and
//!   enough requests succeed overall — this is the CI `chaos-smoke` gate.
//! * bench (default): for each concurrency level (default 1, 8, 64),
//!   measures cold-compile latency (every request compiles a distinct
//!   source), cached-compile latency (every request re-compiles the same
//!   source — a cache hit after the first), and cached-query latency,
//!   recording p50/p99 microseconds and throughput into a JSON report
//!   (`--out`, default `BENCH_serve.json` in the working directory; the CI
//!   `serve-smoke` job uploads it as an artifact). It fails unless the
//!   cached-compile p50 beats the cold p50 by at least 10x at every level,
//!   so a zero request count or concurrency level, which would measure
//!   nothing, is a usage error.

use jmatch_runtime::serve::json::Json;
use jmatch_runtime::serve::proto::bindings_to_json;
use jmatch_runtime::serve::{wait_ready, Client, QueryOptions, RetryPolicy};
use jmatch_runtime::{Bindings, Value, Workspace};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
jmatch-loadgen — load generator / smoke checker for jmatch-serve

USAGE:
    jmatch-loadgen --addr HOST:PORT [OPTIONS]

OPTIONS:
    --addr HOST:PORT     server address (required)
    --smoke              run the 8-client correctness smoke instead of the bench
    --chaos              run the fault-tolerant smoke (for --faults servers)
    --chaos-requests N   requests per chaos client          [default: 64]
    --clients LIST       comma-separated concurrency levels [default: 1,8,64]
    --cold-requests N    cold compiles per client           [default: 16]
    --cached-requests N  cached compiles / queries per client [default: 128]
    --out PATH           write the JSON report here [default: BENCH_serve.json]
    --shutdown           send a shutdown frame when done (server must allow it)
    --help               print this help
";

/// The smoke program: one iterative generator, one forward function.
const SMOKE_SRC: &str = "\
static boolean below(int n, int x) iterates(x)
    ( x = 0 || x = 1 || x = 2 || x = 3 || x = 4 )
static int add(int a, int b) { return a + b; }
";

struct Flags {
    addr: SocketAddr,
    smoke: bool,
    chaos: bool,
    chaos_requests: usize,
    clients: Vec<usize>,
    cold_requests: usize,
    cached_requests: usize,
    out: String,
    shutdown: bool,
}

fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let mut addr = None;
    let mut flags = Flags {
        addr: "127.0.0.1:7733".parse().expect("literal addr"),
        smoke: false,
        chaos: false,
        chaos_requests: 64,
        clients: vec![1, 8, 64],
        cold_requests: 16,
        cached_requests: 128,
        out: "BENCH_serve.json".into(),
        shutdown: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => {
                addr = Some(
                    value("--addr")?
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad --addr: {e}"))?,
                );
            }
            "--smoke" => flags.smoke = true,
            "--chaos" => flags.chaos = true,
            "--chaos-requests" => {
                flags.chaos_requests = value("--chaos-requests")?
                    .parse()
                    .map_err(|e| format!("bad --chaos-requests: {e}"))?;
            }
            "--clients" => {
                flags.clients = value("--clients")?
                    .split(',')
                    .map(|c| c.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --clients: {e}"))?;
            }
            "--cold-requests" => {
                flags.cold_requests = value("--cold-requests")?
                    .parse()
                    .map_err(|e| format!("bad --cold-requests: {e}"))?;
            }
            "--cached-requests" => {
                flags.cached_requests = value("--cached-requests")?
                    .parse()
                    .map_err(|e| format!("bad --cached-requests: {e}"))?;
            }
            "--out" => flags.out = value("--out")?,
            "--shutdown" => flags.shutdown = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if let Some(addr) = addr {
        flags.addr = addr;
    } else {
        return Err(format!("--addr is required\n\n{USAGE}"));
    }
    for (flag, zero) in [
        ("--clients", flags.clients.contains(&0)),
        ("--cold-requests", flags.cold_requests == 0),
        ("--cached-requests", flags.cached_requests == 0),
    ] {
        if zero {
            return Err(format!("{flag} must be at least 1\n\n{USAGE}"));
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let flags = match parse_flags(std::env::args().skip(1)) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("jmatch-loadgen: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = wait_ready(flags.addr, Duration::from_secs(30)) {
        eprintln!(
            "jmatch-loadgen: server at {} never became ready: {e}",
            flags.addr
        );
        return ExitCode::FAILURE;
    }
    let outcome = if flags.chaos {
        run_chaos(&flags)
    } else if flags.smoke {
        run_smoke(&flags)
    } else {
        run_bench(&flags)
    };
    if flags.shutdown {
        match Client::connect(flags.addr)
            .map_err(Into::into)
            .and_then(|mut client: Client| client.shutdown_server())
        {
            Ok(reply) if reply.get("ok") == Some(&Json::Bool(true)) => {}
            Ok(reply) => eprintln!("jmatch-loadgen: shutdown rejected: {reply}"),
            Err(e) => eprintln!("jmatch-loadgen: shutdown failed: {e}"),
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("jmatch-loadgen: FAIL: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Smoke mode
// ---------------------------------------------------------------------------

/// The sequential oracle: the embedding API run in-process over the same
/// source the server compiles, producing the exact wire JSON the solutions
/// should serialize to.
fn oracle_solutions(n: i64) -> Result<Vec<Json>, String> {
    let program = Workspace::new()
        .verify(false)
        .compile(SMOKE_SRC)
        .map_err(|e| format!("oracle compile failed: {e}"))?;
    let below = program
        .free_method("below")
        .map_err(|e| format!("oracle resolve failed: {e}"))?;
    let mut known = Bindings::new();
    known.insert("n".into(), Value::Int(n));
    let query = below
        .iterate(None, &known)
        .map_err(|e| format!("oracle iterate failed: {e}"))?;
    query
        .try_collect()
        .map_err(|e| format!("oracle enumeration failed: {e}"))
        .map(|all| all.iter().map(bindings_to_json).collect())
}

fn run_smoke(flags: &Flags) -> Result<(), String> {
    let expected = oracle_solutions(3)?;
    let errors = Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let errors = &errors;
            let expected = &expected;
            let addr = flags.addr;
            scope.spawn(move || {
                if let Err(e) = smoke_connection(addr, expected) {
                    errors
                        .lock()
                        .expect("error list poisoned")
                        .push(format!("client {worker}: {e}"));
                }
            });
        }
    });
    let errors = errors.into_inner().expect("error list poisoned");
    if errors.is_empty() {
        println!("jmatch-loadgen: smoke OK (8 clients, transcript matches oracle)");
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// One smoke client: compile, forward call, collect query, streamed query
/// — every reply checked against the oracle.
fn smoke_connection(addr: SocketAddr, expected: &[Json]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;

    let reply = client
        .compile(SMOKE_SRC, false)
        .map_err(|e| format!("compile: {e}"))?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("compile rejected: {reply}"));
    }
    let key = reply
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("compile reply lacks `program`: {reply}"))?
        .to_owned();

    let reply = client
        .call("default", &key, "add", &[Value::Int(2), Value::Int(3)])
        .map_err(|e| format!("call: {e}"))?;
    if reply.get("value") != Some(&Json::Int(5)) {
        return Err(format!("add(2,3) should be 5, got: {reply}"));
    }

    let mut options = QueryOptions::new(&key, "below");
    options.known = vec![("n".into(), Value::Int(3))];
    let reply = client.query(&options).map_err(|e| format!("query: {e}"))?;
    let solutions = reply
        .get("solutions")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("query reply lacks `solutions`: {reply}"))?;
    if solutions != expected {
        return Err(format!(
            "query solutions diverge from the sequential oracle: got {}, want {}",
            Json::Arr(solutions.to_vec()),
            Json::Arr(expected.to_vec()),
        ));
    }

    let frames = client
        .stream(&options, 2)
        .map_err(|e| format!("stream: {e}"))?;
    let mut streamed = Vec::new();
    for frame in &frames {
        if frame.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("stream errored: {frame}"));
        }
        if let Some(batch) = frame.get("solutions").and_then(Json::as_arr) {
            streamed.extend(batch.iter().cloned());
        }
    }
    if streamed != expected {
        return Err(format!(
            "streamed solutions diverge from the sequential oracle: got {}, want {}",
            Json::Arr(streamed),
            Json::Arr(expected.to_vec()),
        ));
    }
    let last = frames.last().expect("stream returns at least one frame");
    if last.get("done") != Some(&Json::Bool(true))
        || last.get("count") != Some(&Json::Int(expected.len() as i64))
        || last.get("cancelled") != Some(&Json::Bool(false))
    {
        return Err(format!("bad terminal stream frame: {last}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// Client-side tallies of every fault-path outcome the chaos run
/// observes. The server's own counters (panics, respawns, slow-consumer
/// disconnects) live in its exit summary; these are the wire-visible
/// complements.
#[derive(Default)]
struct ChaosTally {
    ok: AtomicU64,
    internal_errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    backpressure: AtomicU64,
    cancelled: AtomicU64,
    other_errors: AtomicU64,
    reconnects: AtomicU64,
}

impl ChaosTally {
    fn count_error(&self, frame: &Json) {
        let kind = frame
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("");
        let counter = match kind {
            "internal-error" => &self.internal_errors,
            "deadline-exceeded" => &self.deadline_exceeded,
            "over-capacity" | "quota-exhausted" => &self.backpressure,
            "cancelled" => &self.cancelled,
            _ => &self.other_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

fn run_chaos(flags: &Flags) -> Result<(), String> {
    let expected = oracle_solutions(3)?;
    let tally = ChaosTally::default();
    let errors = Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            let tally = &tally;
            let errors = &errors;
            let expected = expected.as_slice();
            let addr = flags.addr;
            let requests = flags.chaos_requests;
            scope.spawn(move || {
                if let Err(e) = chaos_connection(addr, expected, requests, tally, worker) {
                    errors
                        .lock()
                        .expect("error list poisoned")
                        .push(format!("client {worker}: {e}"));
                }
            });
        }
    });
    let errors = errors.into_inner().expect("error list poisoned");
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let ok = tally.ok.load(Ordering::Relaxed);
    println!(
        "jmatch-loadgen: chaos OK — {ok} ok, {} internal-error, \
         {} deadline-exceeded, {} backpressure, {} cancelled, {} other, \
         {} reconnects (every successful reply matched the oracle)",
        tally.internal_errors.load(Ordering::Relaxed),
        tally.deadline_exceeded.load(Ordering::Relaxed),
        tally.backpressure.load(Ordering::Relaxed),
        tally.cancelled.load(Ordering::Relaxed),
        tally.other_errors.load(Ordering::Relaxed),
        tally.reconnects.load(Ordering::Relaxed),
    );
    if ok == 0 {
        return Err("no request ever succeeded under fault injection".into());
    }
    Ok(())
}

/// One chaos client: alternating forward calls and deadline-carrying
/// queries under a retry policy, reconnecting through whatever the fault
/// schedule does to the connection. Wrong *answers* are fatal; faults are
/// tallied.
fn chaos_connection(
    addr: SocketAddr,
    expected: &[Json],
    requests: usize,
    tally: &ChaosTally,
    seed: u64,
) -> Result<(), String> {
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay_ms: 5,
        max_delay_ms: 100,
        seed,
    };
    let mut session: Option<(Client, String)> = None;
    for i in 0..requests {
        if session.is_none() {
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
            let Ok(mut client) = Client::connect(addr) else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let Ok(reply) = client.compile(SMOKE_SRC, false) else {
                continue;
            };
            let Some(key) = reply.get("program").and_then(Json::as_str) else {
                tally.count_error(&reply);
                continue;
            };
            session = Some((client, key.to_owned()));
        }
        let (client, key) = session.as_mut().expect("session was just established");
        let outcome = if i % 2 == 0 {
            client.call_with_retry(
                "default",
                key,
                "add",
                &[Value::Int(2), Value::Int(3)],
                &policy,
            )
        } else {
            let mut options = QueryOptions::new(key, "below");
            options.known = vec![("n".into(), Value::Int(3))];
            options.deadline_ms = Some(2_000);
            client.query_with_retry(&options, &policy)
        };
        match outcome {
            // Socket/framing breakage (a truncated frame, a slow-consumer
            // or fault-injected disconnect): start a fresh connection.
            Err(_) => session = None,
            Ok(frame) => {
                if frame.get("ok") == Some(&Json::Bool(true)) {
                    if i % 2 == 0 {
                        if frame.get("value") != Some(&Json::Int(5)) {
                            return Err(format!(
                                "add(2,3) gave a wrong answer under faults: {frame}"
                            ));
                        }
                    } else {
                        let solutions = frame
                            .get("solutions")
                            .and_then(Json::as_arr)
                            .unwrap_or_default();
                        if solutions != expected {
                            return Err(format!(
                                "query solutions diverged from the oracle under faults: {frame}"
                            ));
                        }
                    }
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    tally.count_error(&frame);
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bench mode
// ---------------------------------------------------------------------------

/// A template whose compile is heavy enough (with verification) for the
/// cold/cached gap to dwarf the socket round-trip. `{N}` is substituted to
/// make each cold request a distinct source.
fn bench_source(tag: &str) -> String {
    // A compile that does real work: several invariant-bearing classes so
    // `verify:true` runs the exhaustiveness/invariant VC passes through
    // the solver. A cold compile must cost enough CPU that the
    // cold-vs-cached ratio measures the program cache, not scheduler
    // queueing, even at 64 concurrent connections.
    let mut source = String::new();
    for copy in 0..4 {
        source.push_str(&format!(
            "\
interface Nat{copy}_{tag} {{
    invariant(this = zero() | succ(_));
    constructor zero() returns();
    constructor succ(Nat{copy}_{tag} n) returns(n);
}}
class ZNat{copy}_{tag} implements Nat{copy}_{tag} {{
    int val;
    private invariant(val >= 0);
    private ZNat{copy}_{tag}(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
    constructor zero() returns() ( val = 0 )
    constructor succ(Nat{copy}_{tag} n) returns(n) ( val >= 1 && ZNat{copy}_{tag}(val - 1) = n )
}}
static int toInt{copy}_{tag}(Nat{copy}_{tag} m) {{
    switch (m) {{
        case zero(): return 0;
        case succ(Nat{copy}_{tag} k): return toInt{copy}_{tag}(k) + 1;
    }}
}}
",
        ));
    }
    source.push_str(&format!(
        "\
static boolean gen_{tag}(int x) iterates(x)
    ( x = 0 || x = 1 || x = 2 || x = 3 || x = 4 || x = 5 || x = 6 || x = 7 )
static int poke_{tag}(int a) {{ return a + {len}; }}
",
        len = tag.len(),
    ));
    source
}

struct Scenario {
    clients: usize,
    mode: &'static str,
    latencies_us: Vec<u64>,
    elapsed: Duration,
}

impl Scenario {
    fn percentile(&self, p: f64) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.latencies_us.len() as f64 / secs
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clients", Json::Int(self.clients as i64)),
            ("mode", Json::Str(self.mode.to_owned())),
            ("requests", Json::Int(self.latencies_us.len() as i64)),
            ("p50_us", Json::Int(self.percentile(0.50) as i64)),
            ("p99_us", Json::Int(self.percentile(0.99) as i64)),
            (
                "throughput_rps",
                Json::Float((self.throughput_rps() * 100.0).round() / 100.0),
            ),
        ])
    }
}

/// Runs `requests` round-trips on each of `clients` concurrent
/// connections, returning every request's latency and the wall-clock of
/// the whole phase.
fn run_phase(
    addr: SocketAddr,
    clients: usize,
    mode: &'static str,
    requests: usize,
    work: impl Fn(&mut Client, usize, usize) -> Result<(), String> + Sync,
) -> Result<Scenario, String> {
    let all = Mutex::new(Vec::<u64>::with_capacity(clients * requests));
    let errors = Mutex::new(Vec::<String>::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let all = &all;
            let errors = &errors;
            let work = &work;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(requests);
                let outcome = (|| -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for i in 0..requests {
                        let t0 = Instant::now();
                        work(&mut client, c, i)?;
                        mine.push(t0.elapsed().as_micros() as u64);
                    }
                    Ok(())
                })();
                if let Err(e) = outcome {
                    errors
                        .lock()
                        .expect("error list poisoned")
                        .push(format!("client {c}: {e}"));
                }
                all.lock().expect("latency list poisoned").extend(mine);
            });
        }
    });
    let elapsed = started.elapsed();
    let errors = errors.into_inner().expect("error list poisoned");
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(Scenario {
        clients,
        mode,
        latencies_us: all.into_inner().expect("latency list poisoned"),
        elapsed,
    })
}

fn expect_ok(frame: &Json, what: &str) -> Result<(), String> {
    if frame.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(format!("{what} failed: {frame}"))
    }
}

fn run_bench(flags: &Flags) -> Result<(), String> {
    let mut scenarios = Vec::new();
    let mut speedups = Vec::new();
    for &clients in &flags.clients {
        // Cold: every request compiles a distinct source (verification on,
        // like a first-time production compile).
        let cold = run_phase(
            flags.addr,
            clients,
            "compile-cold",
            flags.cold_requests,
            |client, c, i| {
                let source = bench_source(&format!("c{clients}w{c}r{i}"));
                let frame = client
                    .compile(&source, true)
                    .map_err(|e| format!("cold compile: {e}"))?;
                expect_ok(&frame, "cold compile")?;
                if frame.get("cached") == Some(&Json::Bool(true)) {
                    return Err("cold compile unexpectedly hit the cache".into());
                }
                Ok(())
            },
        )?;

        // Cached: every request compiles the same source; after the first
        // miss the round-trip is a hash lookup.
        let warm_src = bench_source(&format!("warm{clients}"));
        {
            let mut client =
                Client::connect(flags.addr).map_err(|e| format!("warmup connect: {e}"))?;
            let frame = client
                .compile(&warm_src, true)
                .map_err(|e| format!("warmup compile: {e}"))?;
            expect_ok(&frame, "warmup compile")?;
        }
        let cached = run_phase(
            flags.addr,
            clients,
            "compile-cached",
            flags.cached_requests,
            |client, _c, _i| {
                let frame = client
                    .compile(&warm_src, true)
                    .map_err(|e| format!("cached compile: {e}"))?;
                expect_ok(&frame, "cached compile")?;
                if frame.get("cached") != Some(&Json::Bool(true)) {
                    return Err("cached compile missed the cache".into());
                }
                Ok(())
            },
        )?;

        // Query: enumeration round-trips over the cached program.
        let warm_key = {
            let mut client =
                Client::connect(flags.addr).map_err(|e| format!("key connect: {e}"))?;
            let frame = client
                .compile(&warm_src, true)
                .map_err(|e| format!("key compile: {e}"))?;
            frame
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("no program key in {frame}"))?
                .to_owned()
        };
        let method = format!("gen_warm{clients}");
        let query = run_phase(
            flags.addr,
            clients,
            "query-cached",
            flags.cached_requests,
            |client, _c, _i| {
                // The workload is a few hundred steps; request a modest
                // ceiling so 64 concurrent admissions don't each reserve
                // the tenant-default 1M steps and trip the shared pool.
                let mut options = QueryOptions::new(&warm_key, &method);
                options.max_steps = Some(50_000);
                let frame = client.query(&options).map_err(|e| format!("query: {e}"))?;
                expect_ok(&frame, "query")?;
                let n = frame
                    .get("solutions")
                    .and_then(Json::as_arr)
                    .map_or(0, <[Json]>::len);
                if n != 8 {
                    return Err(format!("query returned {n} solutions, want 8"));
                }
                Ok(())
            },
        )?;

        let cold_p50 = cold.percentile(0.50).max(1);
        let cached_p50 = cached.percentile(0.50).max(1);
        let speedup = cold_p50 as f64 / cached_p50 as f64;
        println!(
            "clients={clients:>3}  cold p50={cold_p50}us p99={}us  \
             cached p50={cached_p50}us p99={}us  query p50={}us  \
             cached-compile speedup {speedup:.1}x",
            cold.percentile(0.99),
            cached.percentile(0.99),
            query.percentile(0.50),
        );
        speedups.push(speedup);
        scenarios.extend([cold, cached, query]);
    }

    let report = Json::obj(vec![
        ("bench", Json::Str("jmatch-loadgen".into())),
        ("unit", Json::Str("microseconds".into())),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(Scenario::to_json).collect()),
        ),
        (
            "cached_compile_speedup_p50",
            Json::Arr(
                speedups
                    .iter()
                    .map(|s| Json::Float((s * 10.0).round() / 10.0))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&flags.out, format!("{report}\n"))
        .map_err(|e| format!("could not write {}: {e}", flags.out))?;
    println!("jmatch-loadgen: wrote {}", flags.out);

    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    if min_speedup < 10.0 {
        return Err(format!(
            "cached-compile p50 is only {min_speedup:.1}x better than cold (want >= 10x)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    /// A zero count or concurrency level would pass the speedup check
    /// without measuring anything, so each is rejected up front.
    #[test]
    fn zero_counts_are_usage_errors() {
        for (flag, value) in [
            ("--clients", "1,0,8"),
            ("--cold-requests", "0"),
            ("--cached-requests", "0"),
        ] {
            let err = parse(&["--addr", "127.0.0.1:7733", flag, value])
                .err()
                .expect("a zero must be rejected");
            assert!(
                err.starts_with(&format!("{flag} must be at least 1")),
                "{err}"
            );
        }
        let flags = parse(&[
            "--addr",
            "127.0.0.1:7733",
            "--clients",
            "1,2",
            "--cold-requests",
            "1",
            "--cached-requests",
            "1",
        ])
        .expect("counts of one are valid");
        assert_eq!(flags.clients, [1, 2]);
        assert_eq!((flags.cold_requests, flags.cached_requests), (1, 1));
    }
}
