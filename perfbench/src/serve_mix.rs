//! `serve_mix`: an in-process `serve::Server` driven over loopback by two
//! closed-loop client connections from one process.
//!
//! The seeded op mix is mostly cached `query` / `call` / `stream` against a
//! program made resident in set-up. It also holds cold `compile`s (with
//! verification) of the mid-weight ConsList corpus program, made distinct
//! by a seeded tag, and `reload` body edits against one resident workspace
//! per connection. A cold compile makes every unit red and opens fresh
//! solver sessions; a reload makes one unit red and reuses its session and
//! VC cache. Cold compiles run inline on reader threads and compete with
//! queries for the cores. Every reply is compared with the in-process
//! embedding API run over the same source.

use crate::report::Outcome;
use crate::stats::{geomean, median, percentile, Rng};
use crate::trace::Tracer;
use crate::{timed, Config};
use jmatch_runtime::serve::json::Json;
use jmatch_runtime::serve::proto::{bindings_to_json, value_to_json};
use jmatch_runtime::serve::{
    Client, Metrics, ProgramCache, QueryOptions, QuotaConfig, ServeConfig, Server,
};
use jmatch_runtime::{args, Bindings, Program, Value, Workspace};
use std::collections::BTreeMap;
use std::time::Instant;

/// The resident program the cached ops run against.
const SERVE_SRC: &str = "\
static boolean pick(int n, int x) iterates(x)
    ( x = n || x = n + 1 || x = n + 2 || x = n + 3
      || x = n + 4 || x = n + 5 || x = n + 6 || x = n + 7 )
static int mix(int a, int b) {
    int total = 0;
    int i = 0;
    while (i < 16) {
        total = total + a * i + b;
        i = i + 1;
    }
    return total;
}
";

/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Query inputs `n` and call arguments are drawn from `0..ARG_RANGE`.
const ARG_RANGE: i64 = 32;
/// Distinct reload edits per connection, applied in a cycle.
const EDITS: usize = 4;
/// Measured segments of a run; a set-up sample is taken between two.
const SEGMENTS: usize = 6;
/// Solutions per `stream` batch.
const STREAM_BATCH: usize = 3;

/// One round of a connection: this multiset of ops in a seeded order.
///
/// The weights are a choice, not a measured traffic share: mostly cached
/// ops (34 of 40), and three cold compiles and three reloads, so that each
/// connection gets enough of those for a steady median in a run. Each
/// kind's time per round is reported as `serve.round_<kind>_ms`.
const ROUND: &[(Op, usize)] = &[
    (Op::Query, 16),
    (Op::Call, 12),
    (Op::Stream, 6),
    (Op::Compile, 3),
    (Op::Reload, 3),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Query,
    Call,
    Stream,
    Compile,
    Reload,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Call => "call",
            Op::Stream => "stream",
            Op::Compile => "compile",
            Op::Reload => "reload",
        }
    }

    /// Answered from a resident program: no compile, no verification.
    fn cached(self) -> bool {
        matches!(self, Op::Query | Op::Call | Op::Stream)
    }

    fn span(self) -> &'static str {
        match self {
            Op::Query => "serve.query",
            Op::Call => "serve.call",
            Op::Stream => "serve.stream",
            Op::Compile => "serve.compile",
            Op::Reload => "serve.reload",
        }
    }
}

/// Server workers: never more than the host's cores.
pub fn workers(cfg: &Config) -> usize {
    cfg.nproc.clamp(1, 2)
}

fn server_config(cfg: &Config) -> ServeConfig {
    ServeConfig {
        workers: workers(cfg),
        inner_threads: 1,
        // Room for every resident program plus the cold compiles between
        // two touches of a resident one, so residents are never evicted.
        cache_capacity: 32,
        quota: QuotaConfig {
            steps_per_window: 1 << 40,
            ..QuotaConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// The ConsList corpus program plus one connection's probe method, whose
/// `return` in the nil() arm is the body the reloads edit.
fn lineage_source(client: usize, k: usize) -> String {
    let cons_list = jmatch_corpus::entry("ConsList")
        .expect("ConsList is a corpus row")
        .combined_jmatch();
    format!(
        "{cons_list}
static int probe{client}(List l) {{
    switch (l) {{
        case nil(): return {k};
        case cons(_, List t): return probe{client}(t) + 1;
    }}
}}
"
    )
}

fn cold_source(tag: &str) -> String {
    let cons_list = jmatch_corpus::entry("ConsList")
        .expect("ConsList is a corpus row")
        .combined_jmatch();
    format!("{cons_list}\n// cold compile {tag}\n")
}

fn warnings_json(program: &Program) -> Json {
    Json::Arr(
        program
            .warnings()
            .iter()
            .map(|w| Json::Str(w.to_string()))
            .collect(),
    )
}

fn strs(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect())
}

/// Expected replies, from the embedding API over the same sources.
struct Oracle {
    program: Program,
    /// `pick(n)` solutions by `n`.
    picks: Vec<Vec<Json>>,
    /// `mix(a, b)` by `(a, b)`.
    mixes: BTreeMap<(i64, i64), Json>,
    /// Warnings of a cold compile of the ConsList program.
    cold_warnings: Json,
    /// Per connection, the expected reload reply fields
    /// `(key, methods, reverified, warnings)` of the transition into edit
    /// `k` from the previous one (index 0: from the base into edit 1).
    reloads: Vec<Vec<[Json; 4]>>,
    /// Rebuild counts of a steady-state reload:
    /// (reverified, reused verifications, recompiled, reused plans).
    reload_counts: [usize; 4],
}

fn oracle() -> Result<Oracle, String> {
    let program = Workspace::new()
        .compile(SERVE_SRC)
        .map_err(|e| format!("serve program: {e}"))?;
    let pick = program.free_method("pick").map_err(|e| e.to_string())?;
    let mix = program.free_method("mix").map_err(|e| e.to_string())?;
    let mut picks = Vec::new();
    for n in 0..ARG_RANGE {
        let mut known = Bindings::new();
        known.insert("n".into(), Value::Int(n));
        let all = pick
            .iterate(None, &known)
            .and_then(|q| q.try_collect())
            .map_err(|e| e.to_string())?;
        picks.push(all.iter().map(bindings_to_json).collect());
    }
    let mut mixes = BTreeMap::new();
    for a in 0..ARG_RANGE {
        for b in 0..ARG_RANGE {
            let v = mix.call(None, args![a, b]).map_err(|e| e.to_string())?;
            mixes.insert((a, b), value_to_json(&v));
        }
    }
    let cold = Workspace::new()
        .compile(&cold_source("oracle"))
        .map_err(|e| e.to_string())?;
    let mut reloads = Vec::new();
    let mut reload_counts = [0; 4];
    for client in 0..CLIENTS {
        let mut ws = Workspace::new();
        ws.load(&lineage_source(client, 0))
            .map_err(|e| e.to_string())?;
        let mut expected = Vec::new();
        // Edits 1..=EDITS, then back to 1: the cycle a connection repeats.
        for k in (1..=EDITS).chain([1]) {
            let source = lineage_source(client, k);
            let g = ws.update_source(&source).map_err(|e| e.to_string())?;
            let r = g.report();
            reload_counts = [
                r.reverified.len(),
                r.reused_verifications,
                r.recompiled.len(),
                r.reused_plans,
            ];
            expected.push([
                Json::Str(ProgramCache::key_of(&source, true)),
                strs(&r.recompiled),
                strs(&r.reverified),
                warnings_json(g.program()),
            ]);
        }
        reloads.push(expected);
    }
    Ok(Oracle {
        picks,
        mixes,
        cold_warnings: warnings_json(&cold),
        reloads,
        reload_counts,
        program,
    })
}

/// A started server, the query program's key, and the connections.
type Setup = Result<(Server, String, Vec<Conn>), String>;

/// The user's set-up: start the server, connect, and make the query
/// program and each connection's reload base resident.
fn setup(cfg: &Config) -> Setup {
    let server = Server::start(server_config(cfg)).map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::new();
    let mut query_key = String::new();
    for c in 0..CLIENTS {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let reply = client
            .compile(SERVE_SRC, true)
            .map_err(|e| format!("compile: {e}"))?;
        query_key = key_of(&reply).ok_or_else(|| format!("compile rejected: {reply}"))?;
        let reply = client
            .compile(&lineage_source(c, 0), true)
            .map_err(|e| format!("compile: {e}"))?;
        let base = key_of(&reply).ok_or_else(|| format!("compile rejected: {reply}"))?;
        clients.push(Conn {
            client,
            base,
            rng: Rng::new(cfg.seed ^ (0xC11E_0000 + c as u64)),
            reloads: 0,
            colds: 0,
        });
    }
    Ok((server, query_key, clients))
}

fn key_of(reply: &Json) -> Option<String> {
    (reply.get("ok") == Some(&Json::Bool(true)))
        .then(|| {
            reply
                .get("program")
                .and_then(Json::as_str)
                .map(str::to_owned)
        })
        .flatten()
}

/// One connection and the state its op sequence carries across phases.
struct Conn {
    client: Client,
    /// Cache key of this connection's reload base.
    base: String,
    rng: Rng,
    /// Reloads sent so far (the edit cycle position).
    reloads: usize,
    /// Cold compiles sent so far (part of each one's distinct tag).
    colds: u64,
}

/// What one connection measured.
#[derive(Default)]
struct ClientLog {
    latencies_us: BTreeMap<Op, Vec<f64>>,
    rounds_s: Vec<f64>,
    attempted: u64,
    problems: Vec<String>,
}

/// One connection's closed loop: rounds of the seeded op mix until the
/// budget is spent (at least one round).
fn drive(
    cfg: &Config,
    client_idx: usize,
    conn: &mut Conn,
    query_key: &str,
    oracle: &Oracle,
    tracer: &mut Tracer,
    budget: f64,
) -> ClientLog {
    let Conn {
        client,
        base,
        rng,
        reloads,
        colds,
    } = conn;
    let mut log = ClientLog::default();
    let mut op_id = (client_idx as u64 + 1) << 40;
    let start = Instant::now();
    while cfg.keep_going(start, budget, log.rounds_s.len(), 1) {
        let mut ops: Vec<Op> = ROUND
            .iter()
            .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
            .collect();
        rng.shuffle(&mut ops);
        let round = Instant::now();
        for op in ops {
            op_id += 1;
            let a = rng.below(ARG_RANGE as u64) as i64;
            let b = rng.below(ARG_RANGE as u64) as i64;
            let t = Instant::now();
            let verdict = tracer.span(op.span(), "", op_id, |_| match op {
                Op::Query => {
                    let mut options = QueryOptions::new(query_key, "pick");
                    options.known = vec![("n".into(), Value::Int(a))];
                    let reply = client.query(&options).map_err(|e| e.to_string())?;
                    let got = reply.get("solutions").and_then(Json::as_arr);
                    (got == Some(oracle.picks[a as usize].as_slice()))
                        .then_some(())
                        .ok_or_else(|| format!("query pick({a}): {reply}"))
                }
                Op::Call => {
                    let reply = client
                        .call("default", query_key, "mix", &[Value::Int(a), Value::Int(b)])
                        .map_err(|e| e.to_string())?;
                    (reply.get("value") == oracle.mixes.get(&(a, b)))
                        .then_some(())
                        .ok_or_else(|| format!("call mix({a}, {b}): {reply}"))
                }
                Op::Stream => {
                    let mut options = QueryOptions::new(query_key, "pick");
                    options.known = vec![("n".into(), Value::Int(a))];
                    let frames = client
                        .stream(&options, STREAM_BATCH)
                        .map_err(|e| e.to_string())?;
                    let streamed: Vec<Json> = frames
                        .iter()
                        .filter_map(|f| f.get("solutions").and_then(Json::as_arr))
                        .flatten()
                        .cloned()
                        .collect();
                    let last = frames.last();
                    let want = &oracle.picks[a as usize];
                    let done = last.and_then(|f| f.get("count"))
                        == Some(&Json::Int(want.len() as i64))
                        && last.and_then(|f| f.get("cancelled")) == Some(&Json::Bool(false));
                    (streamed == *want && done)
                        .then_some(())
                        .ok_or_else(|| format!("stream pick({a}): {frames:?}"))
                }
                Op::Compile => {
                    *colds += 1;
                    let source = cold_source(&format!("{:x}-{client_idx}-{colds}", cfg.seed));
                    let reply = client.compile(&source, true).map_err(|e| e.to_string())?;
                    let ok = reply.get("program")
                        == Some(&Json::Str(ProgramCache::key_of(&source, true)))
                        && reply.get("cached") == Some(&Json::Bool(false))
                        && reply.get("warnings") == Some(&oracle.cold_warnings);
                    ok.then_some(())
                        .ok_or_else(|| format!("cold compile: {reply}"))
                }
                Op::Reload => {
                    // Edits cycle 1..=EDITS; the first reload leaves the
                    // base, later ones into edit 1 leave edit EDITS.
                    let k = *reloads % EDITS + 1;
                    let transition = match (*reloads, k) {
                        (0, _) => 0,
                        (_, 1) => EDITS,
                        _ => k - 1,
                    };
                    let expected = &oracle.reloads[client_idx][transition];
                    *reloads += 1;
                    let reply = client
                        .reload("default", base, &lineage_source(client_idx, k))
                        .map_err(|e| e.to_string())?;
                    let [key, methods, reverified, warnings] = expected;
                    let ok = reply.get("status") == Some(&Json::Str("recompiled".into()))
                        && reply.get("program") == Some(key)
                        && reply.get("methods") == Some(methods)
                        && reply.get("reverified") == Some(reverified)
                        && reply.get("warnings") == Some(warnings);
                    ok.then_some(())
                        .ok_or_else(|| format!("reload edit {k}: {reply}"))
                }
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            log.attempted += 1;
            match verdict {
                Ok(()) => log.latencies_us.entry(op).or_default().push(us),
                Err(e) => {
                    if log.problems.len() < 8 {
                        log.problems.push(e);
                    }
                }
            }
        }
        log.rounds_s.push(round.elapsed().as_secs_f64());
    }
    log
}

/// Runs both connections concurrently for `budget` seconds.
fn phase(
    cfg: &Config,
    clients: &mut [Conn],
    query_key: &str,
    oracle: &Oracle,
    tracer: &mut Tracer,
    traced: bool,
    budget: f64,
) -> Vec<ClientLog> {
    let origin = tracer.origin();
    let results: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let mut t = Tracer::new(traced, origin);
                    let log = drive(cfg, i, conn, query_key, oracle, &mut t, budget);
                    (log, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    results
        .into_iter()
        .map(|(log, t)| {
            tracer.absorb(t);
            log
        })
        .collect()
}

/// Per-op-kind latencies (µs) and round times (s) over every connection.
fn merge(logs: &[ClientLog], out: &mut Outcome) -> (BTreeMap<Op, Vec<f64>>, Vec<f64>) {
    let mut lat: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    let mut rounds = Vec::new();
    for log in logs {
        for (op, v) in &log.latencies_us {
            lat.entry(*op).or_default().extend(v);
        }
        rounds.extend(&log.rounds_s);
        let ok: usize = log.latencies_us.values().map(Vec::len).sum();
        out.attempted += log.attempted;
        out.failed += log.attempted - ok as u64;
        for p in &log.problems {
            if out.problems.len() < 8 {
                out.problems.push(p.clone());
            }
        }
    }
    (lat, rounds)
}

fn p50(lat: &BTreeMap<Op, Vec<f64>>, op: Op) -> f64 {
    lat.get(&op).map_or(0.0, |v| median(v))
}

/// The cached-op time of one round, in seconds: each cached kind's count
/// per round times its median latency, summed. The serve layer and
/// execution make it up; no compile or verification runs in these ops.
fn cached_round_s(lat: &BTreeMap<Op, Vec<f64>>) -> f64 {
    ROUND
        .iter()
        .filter(|(op, _)| op.cached())
        .map(|&(op, n)| n as f64 * p50(lat, op))
        .sum::<f64>()
        / 1e6
}

pub fn run(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut built: Option<Setup> = None;
    for _ in 0..cfg.setup_reps() {
        if let Some(Ok((server, _, _))) = built.take() {
            server.shutdown();
        }
        built = Some(timed(&mut setups, || setup(cfg)));
    }
    let (server, query_key, mut clients) = match built.expect("at least one set-up") {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("set-up failed: {e}"));
            return;
        }
    };
    let oracle = match oracle() {
        Ok(o) => o,
        Err(e) => {
            out.fail(format!("oracle failed: {e}"));
            server.shutdown();
            return;
        }
    };

    // The measured window, in segments with one more set-up sample between
    // two of them (while the connections are idle).
    let before = server.metrics();
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let segments = cfg.reps(SEGMENTS);
    let mut logs = Vec::new();
    let mut wall = 0.0;
    for segment in 0..segments {
        let t = Instant::now();
        logs.extend(phase(
            cfg,
            &mut clients,
            &query_key,
            &oracle,
            tracer,
            false,
            budget / segments as f64,
        ));
        wall += t.elapsed().as_secs_f64();
        if segment + 1 < segments {
            match timed(&mut setups, || setup(cfg)) {
                Ok((extra, _, _)) => extra.shutdown(),
                Err(e) => out.fail(format!("set-up failed: {e}")),
            }
        }
    }
    out.set("setup_s", median(&setups));
    let (lat, rounds) = merge(&logs, out);
    let ops: usize = lat.values().map(Vec::len).sum();
    let kinds: Vec<f64> = lat.values().map(|v| median(v) / 1e3).collect();
    out.set("pass_s", cached_round_s(&lat));
    out.set("geomean_ms", geomean(&kinds));
    out.set("serve_query_p50_us", p50(&lat, Op::Query));
    out.set("serve_call_p50_us", p50(&lat, Op::Call));
    out.set("serve_compile_cold_p50_ms", p50(&lat, Op::Compile) / 1e3);
    out.set("serve_reload_p50_ms", p50(&lat, Op::Reload) / 1e3);
    out.set("serve_ops_per_s", ops as f64 / wall);

    if cfg.trace {
        let traced = phase(cfg, &mut clients, &query_key, &oracle, tracer, true, budget);
        let (traced_lat, traced_rounds) = merge(&traced, out);
        let after = server.metrics();
        layer_metrics(out, &lat, &traced_lat, &before, &after, &oracle, tracer);
        out.set("serve.round_ms", median(&rounds) * 1e3);
        out.set(
            "trace.overhead_ms",
            (median(&traced_rounds) - median(&rounds)) * 1e3,
        );
    }
    drop(clients);
    server.shutdown();
}

fn layer_metrics(
    out: &mut Outcome,
    lat: &BTreeMap<Op, Vec<f64>>,
    traced_lat: &BTreeMap<Op, Vec<f64>>,
    before: &Metrics,
    after: &Metrics,
    oracle: &Oracle,
    tracer: &mut Tracer,
) {
    let ops: usize = lat.values().chain(traced_lat.values()).map(Vec::len).sum();
    out.set("serve.ops", ops as f64);
    // What a round spends in each kind: its count per round times its mean
    // latency, so the five add up to the mean round's op time.
    for &(op, n) in ROUND {
        let mean = lat
            .get(&op)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64);
        out.set(
            &format!("serve.round_{}_ms", op.name()),
            n as f64 * mean / 1e3,
        );
    }
    out.set(
        "serve.cache_hits",
        (after.cache.hits - before.cache.hits) as f64,
    );
    out.set(
        "serve.cache_misses",
        (after.cache.misses - before.cache.misses) as f64,
    );
    out.set(
        "serve.cache_evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    let rejected = |m: &Metrics| m.rejected_capacity + m.rejected_quota + m.rejected_connections;
    out.set(
        "serve.rejected",
        (rejected(after) - rejected(before)) as f64,
    );
    out.set(
        "serve.deadline_exceeded",
        (after.deadline_exceeded - before.deadline_exceeded) as f64,
    );
    out.set("serve.panics", (after.panics - before.panics) as f64);
    let tail = |op: Op, p: f64| lat.get(&op).map_or(0.0, |v| percentile(v, p));
    out.set("serve.query_p99_us", tail(Op::Query, 0.99));
    out.set("serve.call_p99_us", tail(Op::Call, 0.99));
    out.set("serve.compile_cold_p90_ms", tail(Op::Compile, 0.90) / 1e3);
    let [reverified, reused, recompiled, reused_plans] = oracle.reload_counts;
    out.set("verify.reload_reverified", reverified as f64);
    out.set("verify.reload_reused", reused as f64);
    out.set("plan.reload_recompiled", recompiled as f64);
    out.set("plan.reload_reused", reused_plans as f64);

    // The same query in-process on the same program: what a reply costs
    // without the wire.
    let mut exec_us = Vec::new();
    if let Ok(pick) = oracle.program.free_method("pick") {
        for i in 0..2000u64 {
            let n = (i % ARG_RANGE as u64) as i64;
            let mut known = Bindings::new();
            known.insert("n".into(), Value::Int(n));
            let t = Instant::now();
            let got = tracer.span("exec", "pick", 1 << 50 | i, |_| {
                pick.iterate(None, &known).and_then(|q| q.try_collect())
            });
            exec_us.push(t.elapsed().as_secs_f64() * 1e6);
            let ok = matches!(&got, Ok(all) if all.iter().map(bindings_to_json).collect::<Vec<_>>() == oracle.picks[n as usize]);
            out.check(ok, || {
                format!("in-process pick({n}) disagrees with the oracle")
            });
        }
    }
    let exec = median(&exec_us);
    out.set("serve.exec_query_us", exec);
    out.set(
        "serve.wire_overhead_us",
        lat.get(&Op::Query).map_or(0.0, |v| median(v)) - exec,
    );
}
