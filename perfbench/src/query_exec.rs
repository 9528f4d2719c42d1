//! `query_exec`: already-compiled programs (verification off) driven
//! through the embedding API — a seeded mix of eight query kinds, plus one
//! large OR-parallel tree enumeration through `par_solutions`.
//!
//! Essentially all time is in the runtime's evaluator, machine and
//! parallel pool; no verifier and no sockets run. Every result is checked
//! against the tree-walker oracle (`Engine::TreeWalk`), computed once in
//! set-up outside the set-up time.

use crate::report::{Outcome, EXEC_KINDS};
use crate::stats::{geomean, median, ms, Rng};
use crate::trace::Tracer;
use crate::{timed, Config};
use jmatch_bench::{
    balanced_disjunction, repr_dispatch_source, runtime_workload_source, DET_TREE_SOURCE,
    PARALLEL_TREE_SOURCE, REPR_DISPATCH_ARMS, REPR_FIELD_SOURCE,
};
use jmatch_runtime::{args, Bindings, Engine, Program, RtError, Value, Workspace};
use jmatch_syntax::ast::Formula;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes, chosen so that no kind dominates a pass (each takes about
/// a millisecond on a 2-core host). The two-worker enumeration runs after
/// the kinds in every pass but stays out of the gated `pass_s` and
/// `geomean_ms`: its timing follows the load that other tenants put on
/// the second core, and with it in the pass ten runs of the same code
/// spread by about 0.4 of their median.
const NAT_N: i64 = 8;
const LIST_LEN: i64 = 20;
const DISPATCH_ROUNDS: usize = 14;
const FIELD_ROUNDS: i64 = 1800;
const DECONSTRUCT_LEN: i64 = 1100;
const DET_DEPTH: i64 = 240;
const ENUM_ROUNDS: i64 = 450;
const FIRST_WIDTH: i64 = 64;
const FIRST_REPEATS: usize = 450;
const PAR_DEPTH: u32 = 9;
/// Workers of the OR-parallel enumeration.
pub const PAR_THREADS: usize = 2;
/// Passes between two set-up samples (about a second apart).
const SETUP_EVERY: usize = 64;

/// The compiled programs of the mix.
#[derive(Clone)]
struct Programs {
    runtime: Program,
    field: Program,
    dispatch: Program,
    det: Program,
    par: Program,
}

impl Programs {
    fn with_engine(&self, engine: Engine) -> Programs {
        Programs {
            runtime: self.runtime.clone().with_engine(engine),
            field: self.field.clone().with_engine(engine),
            dispatch: self.dispatch.clone().with_engine(engine),
            det: self.det.clone().with_engine(engine),
            par: self.par.clone().with_engine(engine),
        }
    }
}

/// The seeded inputs of every kind, built once in set-up.
struct Inputs {
    kinds: Vec<&'static str>,
    nats: Vec<Value>,
    nat_pairs: Vec<(usize, usize)>,
    list_a: Value,
    list_b: Value,
    list_probes: Vec<i64>,
    dispatch: Vec<(usize, i64)>,
    point: [i64; 4],
    deconstruct_list: Value,
    det_tree: Value,
    first: Formula,
    par_tree: Value,
}

/// Why a kind failed: a runtime error or a malformed result.
#[derive(Debug)]
struct Fail(String);

impl From<RtError> for Fail {
    fn from(e: RtError) -> Self {
        Fail(e.to_string())
    }
}

type Res<T> = Result<T, Fail>;

/// Expected outputs by kind (and `par_enum`), from the tree walker.
type Oracle = BTreeMap<&'static str, Vec<i64>>;

/// Work counters the plan engine reports; they must repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Meter {
    steps: u64,
    choice_points_created: u64,
    live_choice_points: u64,
}

impl Meter {
    fn steps(&mut self, steps: Option<u64>) {
        self.steps += steps.unwrap_or(0);
    }
}

fn compile(cfg: &Config, source: &str) -> Program {
    let program = Workspace::new()
        .verify(false)
        .max_expansion_depth(cfg.depth)
        .verify_threads(cfg.nproc)
        .compile(source)
        .expect("benchmark program parses");
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    program
}

fn cons_list(program: &Program, values: impl Iterator<Item = i64>) -> Res<Value> {
    let nil = program.ctor("EmptyList", "nil")?;
    let cons = program.ctor("ConsList", "cons")?;
    let values: Vec<i64> = values.collect();
    let mut l = nil.construct(args![])?;
    for v in values.into_iter().rev() {
        l = cons.construct(args![v, l])?;
    }
    Ok(l)
}

/// The user's set-up: compile every program and build the inputs.
fn setup(cfg: &Config) -> Res<(Programs, Inputs)> {
    let programs = Programs {
        runtime: compile(cfg, &runtime_workload_source()),
        field: compile(cfg, REPR_FIELD_SOURCE),
        dispatch: compile(cfg, &repr_dispatch_source()),
        det: compile(cfg, DET_TREE_SOURCE),
        par: compile(cfg, PARALLEL_TREE_SOURCE),
    };
    let mut rng = Rng::new(cfg.seed);
    let base = rng.below(1000) as i64;

    let mut kinds = EXEC_KINDS.to_vec();
    rng.shuffle(&mut kinds);

    let zero = programs.runtime.ctor("ZNat", "zero")?;
    let succ = programs.runtime.ctor("ZNat", "succ")?;
    let mut nats = vec![zero.construct(args![])?];
    for i in 0..NAT_N as usize {
        let next = succ.construct(args![nats[i].clone()])?;
        nats.push(next);
    }
    let mut nat_pairs: Vec<(usize, usize)> = (0..nats.len())
        .flat_map(|a| (0..nats.len()).map(move |b| (a, b)))
        .collect();
    rng.shuffle(&mut nat_pairs);

    let list_a = cons_list(&programs.runtime, base..base + LIST_LEN)?;
    let list_b = cons_list(&programs.runtime, base..base + LIST_LEN)?;
    let mut list_probes: Vec<i64> = (base - LIST_LEN / 4..base + LIST_LEN).collect();
    rng.shuffle(&mut list_probes);

    let mut dispatch: Vec<(usize, i64)> = (0..REPR_DISPATCH_ARMS)
        .map(|k| (k, base + k as i64))
        .collect();
    rng.shuffle(&mut dispatch);

    let point = [
        base % 17,
        rng.below(100) as i64,
        rng.below(100) as i64,
        rng.below(100) as i64,
    ];

    let deconstruct_list = cons_list(&programs.runtime, base..base + DECONSTRUCT_LEN)?;

    let leaf = programs.det.ctor("Leaf", "leaf")?;
    let node = programs.det.ctor("Node", "node")?;
    let mut det_tree = leaf.construct(args![])?;
    for i in (0..DET_DEPTH).rev() {
        let sibling = leaf.construct(args![])?;
        det_tree = node.construct(args![base + i, det_tree, sibling])?;
    }

    let first = balanced_disjunction(base, base + FIRST_WIDTH - 1);
    let par_tree = jmatch_bench::parallel_tree_from(&programs.par, PAR_DEPTH, base);

    Ok((
        programs,
        Inputs {
            kinds,
            nats,
            nat_pairs,
            list_a,
            list_b,
            list_probes,
            dispatch,
            point,
            deconstruct_list,
            det_tree,
            first,
            par_tree,
        },
    ))
}

fn int(v: Result<Value, RtError>) -> Res<i64> {
    v?.as_int().ok_or_else(|| Fail("expected an int".into()))
}

/// Runs one kind of the mix; returns its outputs for the oracle check.
fn run_kind(kind: &str, p: &Programs, inp: &Inputs, meter: &mut Meter) -> Res<Vec<i64>> {
    let mut out = Vec::new();
    match kind {
        "nat_plus" => {
            let rt = &p.runtime;
            let plus = rt.free_method("plus")?;
            let to_int = rt.method("ZNat", "toInt")?;
            for &(a, b) in &inp.nat_pairs {
                let (sum, steps) = plus.call_counted(
                    None,
                    args![inp.nats[a].clone(), inp.nats[b].clone()],
                    rt.limits(),
                );
                meter.steps(steps);
                let (n, steps) = to_int.call_counted(Some(&sum?), args![], rt.limits());
                meter.steps(steps);
                out.push(int(n)?);
            }
        }
        "list_ops" => {
            let rt = &p.runtime;
            let size = rt.method("ConsList", "size")?;
            let contains = rt.method("ConsList", "contains")?;
            let (n, steps) = size.call_counted(Some(&inp.list_a), args![], rt.limits());
            meter.steps(steps);
            out.push(int(n)?);
            for &probe in &inp.list_probes {
                let (hit, steps) =
                    contains.call_counted(Some(&inp.list_a), args![probe], rt.limits());
                meter.steps(steps);
                out.push(i64::from(hit?.as_bool() == Some(true)));
            }
            out.push(i64::from(rt.values_equal(&inp.list_a, &inp.list_b)?));
        }
        "ctor_dispatch" => {
            let d = &p.dispatch;
            let route = d.free_method("route")?;
            for _ in 0..DISPATCH_ROUNDS {
                for &(k, v) in &inp.dispatch {
                    let class = format!("C{k}");
                    let value = d.ctor(&class, &class)?.construct(args![v])?;
                    let (r, steps) = route.call_counted(None, args![value], d.limits());
                    meter.steps(steps);
                    out.push(int(r)?);
                }
            }
        }
        "field_access" => {
            let f = &p.field;
            let [a, b, c, d] = inp.point;
            let point = f.ctor("Point", "at")?.construct(args![a, b, c, d])?;
            let (r, steps) =
                f.free_method("churn")?
                    .call_counted(None, args![point, FIELD_ROUNDS], f.limits());
            meter.steps(steps);
            out.push(int(r)?);
        }
        "deconstruct" => {
            let rt = &p.runtime;
            let mut cur = inp.deconstruct_list.clone();
            while !rt.matches(&cur, "nil")? {
                let rows = rt.deconstruct(&cur, "cons")?.try_collect_rows()?;
                let row = rows
                    .first()
                    .ok_or_else(|| Fail("cons cell did not match".into()))?;
                out.push(row[0].as_int().unwrap_or(i64::MIN));
                cur = row[1].clone();
            }
        }
        "det_tree" => {
            let min = p.det.method("Node", "min")?;
            let query = min.iterate(Some(&inp.det_tree), &Bindings::new())?;
            let mut solutions = query.solutions();
            let first = solutions
                .next()
                .ok_or_else(|| Fail("min has no solution".into()))?;
            out.push(first["m"].as_int().unwrap_or(i64::MIN));
            meter.steps(solutions.steps());
            meter.choice_points_created += solutions.choice_points_created().unwrap_or(0);
            meter.live_choice_points += solutions.choice_points().unwrap_or(0) as u64;
        }
        "or_enum" => {
            let rt = &p.runtime;
            let gen = rt.instance("Gen")?;
            let (r, steps) =
                rt.method("Gen", "burn")?
                    .call_counted(Some(&gen), args![ENUM_ROUNDS], rt.limits());
            meter.steps(steps);
            out.push(int(r)?);
        }
        "first_solution" => {
            let query = p.runtime.solve(&inp.first, &Bindings::new(), None);
            let mut total = 0;
            for _ in 0..FIRST_REPEATS {
                let mut solutions = query.solutions();
                let b = solutions
                    .next()
                    .ok_or_else(|| Fail("no first solution".into()))?;
                total += b["x"].as_int().unwrap_or(i64::MIN);
                meter.steps(solutions.steps());
                meter.choice_points_created += solutions.choice_points_created().unwrap_or(0);
            }
            out.push(total);
        }
        other => unreachable!("unknown kind {other}"),
    }
    Ok(out)
}

/// Enumerates every leaf of the parallel tree, in sequential order, on
/// `threads` workers (0 = the sequential iterator).
fn enumerate(p: &Programs, inp: &Inputs, threads: usize) -> Res<Vec<i64>> {
    let vals = p.par.method("Node", "vals")?;
    let query = vals.iterate(Some(&inp.par_tree), &Bindings::new())?;
    let mut solutions = if threads == 0 {
        query.solutions()
    } else {
        query.par_solutions(threads)
    };
    let out: Vec<i64> = solutions
        .by_ref()
        .map(|b| b["x"].as_int().unwrap_or(i64::MIN))
        .collect();
    match solutions.take_error() {
        Some(e) => Err(e.into()),
        None => Ok(out),
    }
}

/// One pass: every kind once in the seeded order, then the parallel
/// enumeration. Returns per-kind times (ms) and the enumeration time.
fn pass(
    (p, inp, oracle): (&Programs, &Inputs, &Oracle),
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: u64,
    meter: &mut Meter,
) -> (BTreeMap<&'static str, f64>, f64) {
    let mut times = BTreeMap::new();
    for &kind in &inp.kinds {
        let t = Instant::now();
        let got = tracer.span("exec", kind, op, |_| run_kind(kind, p, inp, meter));
        times.insert(kind, ms(t.elapsed()));
        out.check(got.as_ref().ok() == oracle.get(kind), || {
            format!(
                "{kind}: {:?} differs from the tree-walker oracle",
                got.map(|v| v.len())
            )
        });
    }
    let t = Instant::now();
    let got = tracer.span("par", "par_solutions", op, |_| {
        enumerate(p, inp, PAR_THREADS)
    });
    let par_ms = ms(t.elapsed());
    out.check(got.as_ref().ok() == oracle.get("par_enum"), || {
        "par_enum: parallel enumeration differs from the oracle".to_owned()
    });
    (times, par_ms)
}

pub fn run(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_reps() {
        built = Some(timed(&mut setups, || setup(cfg)));
    }
    let (programs, inputs) = match built.expect("at least one set-up") {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("set-up failed: {}", e.0));
            return;
        }
    };

    // The oracle: the same kinds on the tree walker.
    let walker = programs.with_engine(Engine::TreeWalk);
    let mut oracle = Oracle::new();
    for &kind in EXEC_KINDS {
        match run_kind(kind, &walker, &inputs, &mut Meter::default()) {
            Ok(v) => {
                oracle.insert(kind, v);
            }
            Err(e) => out.fail(format!("{kind}: oracle failed: {}", e.0)),
        }
    }
    match enumerate(&walker, &inputs, 0) {
        Ok(v) => {
            oracle.insert("par_enum", v);
        }
        Err(e) => out.fail(format!("par_enum: oracle failed: {}", e.0)),
    }

    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut untraced = Tracer::new(false, tracer.origin());
    let mut kind_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut mix = Vec::new();
    let mut par = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while cfg.keep_going(start, budget, passes.len(), 1) {
        let (times, par_ms) = pass(
            (&programs, &inputs, &oracle),
            out,
            &mut untraced,
            0,
            &mut Meter::default(),
        );
        let mix_ms: f64 = times.values().sum();
        for (kind, t) in times {
            kind_ms.entry(kind).or_default().push(t);
        }
        mix.push(mix_ms);
        par.push(par_ms);
        passes.push(mix_ms + par_ms);
        if passes.len() % SETUP_EVERY == 0 {
            let _ = timed(&mut setups, || setup(cfg));
        }
    }
    out.set("setup_s", median(&setups));
    let medians: Vec<f64> = kind_ms.values().map(|v| median(v)).collect();
    // The gated figures are the single-threaded kinds alone; see NAT_N.
    out.set("pass_s", median(&mix) / 1e3);
    out.set("geomean_ms", geomean(&medians));
    out.set("query_mix_s", median(&mix) / 1e3);
    out.set("par_enum_s", median(&par) / 1e3);

    if !cfg.trace {
        return;
    }
    let start = Instant::now();
    let mut meters: Vec<Meter> = Vec::new();
    let mut traced_pass = Vec::new();
    let mut exec: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut seq = Vec::new();
    let mut par_traced = Vec::new();
    while cfg.keep_going(start, cfg.seconds / 2.0, meters.len(), 2) {
        let op = meters.len() as u64 + 1;
        let mut t = Tracer::new(true, tracer.origin());
        let mut meter = Meter::default();
        t.span("pass", "", op, |t| {
            pass((&programs, &inputs, &oracle), out, t, op, &mut meter);
        });
        // The same tree enumerated sequentially: the base of par.speedup.
        let got = t.span("par.seq", "solutions", op + 1_000_000, |_| {
            enumerate(&programs, &inputs, 0)
        });
        out.check(got.as_ref().ok() == oracle.get("par_enum"), || {
            "par_enum: sequential enumeration differs from the oracle".to_owned()
        });
        let own = t.self_ns();
        for (s, self_ns) in t.spans().iter().zip(own) {
            let v = self_ns as f64 / 1e6;
            match s.name {
                "exec" => exec.entry(s.detail.clone()).or_default().push(v),
                "par" => par_traced.push(v),
                "par.seq" => seq.push(v),
                "pass" => traced_pass.push(s.dur_ns() as f64 / 1e6),
                _ => {}
            }
        }
        tracer.absorb(t);
        meters.push(meter);
    }
    if meters.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "execution counters differ between traced passes: {meters:?}"
        ));
    }
    for (kind, samples) in &exec {
        out.set(&format!("exec.{kind}_ms"), median(samples));
    }
    let m = meters[0];
    out.set("exec.steps", m.steps as f64);
    out.set("exec.choice_points_created", m.choice_points_created as f64);
    out.set("exec.live_choice_points", m.live_choice_points as f64);
    let seq_ms = median(&seq);
    out.set("par.seq_ms", seq_ms);
    out.set("par.speedup", seq_ms / median(&par_traced));
    out.set("trace.overhead_ms", median(&traced_pass) - median(&passes));
}
