//! `corpus_compile`: every Table 1 corpus row compiled cold by a fresh
//! one-shot `Workspace::compile`, once with verification and once without.
//!
//! With verification on, the verifier is nearly the whole pass; with it
//! off, parse, class table and plan are. No runtime or serve code runs.
//! The traced run replays each verified compile layer by layer (parse,
//! table, fingerprint, verify per unit, plan) and the unverified compile
//! next to its own layers, so the part of `Workspace::compile` outside the
//! named layers shows as `workspace.residual_ms`.

use crate::report::{verify_counters, Outcome, VERIFY_COUNTERS};
use crate::stats::{geomean, median, ms, Rng};
use crate::trace::Tracer;
use crate::{timed, Config};
use jmatch_core::incremental::units;
use jmatch_core::lower::PlanOptions;
use jmatch_core::{
    ClassTable, Diagnostics, Fingerprints, ProgramPlan, SessionStats, Verifier, VerifyOptions,
};
use jmatch_runtime::Workspace;
use jmatch_syntax::{count_tokens, parse_program};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-row diagnostics every verified compile must reproduce.
const EXPECTED: &str = include_str!("../expected_diagnostics.txt");

/// Unverified passes per verified pass: the unverified pass is ~300x
/// cheaper, so it is repeated to give its median as many samples.
const UNVERIFIED_REPS: usize = 8;

struct Row {
    name: &'static str,
    source: String,
}

/// The user's set-up: the corpus sources assembled with their
/// dependencies, in the seeded order the passes compile them in.
fn setup(seed: u64) -> Vec<Row> {
    let mut rows: Vec<Row> = jmatch_corpus::entries()
        .into_iter()
        .map(|e| Row {
            name: e.name,
            source: e.combined_jmatch(),
        })
        .collect();
    Rng::new(seed).shuffle(&mut rows);
    rows
}

/// Diagnostics rendered one per line, warnings first, in verifier order.
fn render(d: &Diagnostics) -> Vec<String> {
    d.warnings
        .iter()
        .map(ToString::to_string)
        .chain(d.errors.iter().map(ToString::to_string))
        .collect()
}

/// Parses the expected-diagnostics file: `[Row]` headers, each followed by
/// that row's rendered diagnostics; `#` lines are comments.
pub fn expected() -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in EXPECTED.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            out.insert(name.to_owned(), Vec::new());
            current = Some(name.to_owned());
        } else if let Some(row) = &current {
            out.get_mut(row)
                .expect("row inserted")
                .push(line.to_owned());
        }
    }
    out
}

fn workspace(cfg: &Config, verify: bool) -> Workspace {
    Workspace::new()
        .verify(verify)
        .max_expansion_depth(cfg.depth)
        .verify_threads(cfg.nproc)
}

/// What one traced verified compile of a row produced: its name, its
/// `SessionStats` counters and its rendered diagnostics.
type RowFacts = (&'static str, [u64; 8], Vec<String>);

pub fn run(cfg: &Config, out: &mut Outcome, tracer: &mut Tracer) {
    let mut setups = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..cfg.setup_reps() {
        rows = timed(&mut setups, || setup(cfg.seed));
    }

    // Oracles, outside the set-up time: the expected diagnostics and the
    // paper's §7.3 effectiveness expectations.
    let expected = expected();
    for row in &rows {
        if !expected.contains_key(row.name) {
            out.fail(format!("{}: no expected diagnostics listed", row.name));
        }
    }
    let effectiveness = jmatch_bench::effectiveness();
    out.check(effectiveness.all_pass(), || {
        format!("effectiveness checks fail: {:?}", effectiveness.checks)
    });

    // Untraced passes. A traced run spends half its time here, for the
    // tracing overhead and the ungated end-to-end figures.
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut verified: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut verified_pass = Vec::new();
    let mut unverified_pass = Vec::new();
    let start = Instant::now();
    while cfg.keep_going(start, budget, verified_pass.len(), 1) {
        let mut sum = 0.0;
        for (i, row) in rows.iter().enumerate() {
            let t = Instant::now();
            let program = workspace(cfg, true).compile(&row.source);
            let dt = ms(t.elapsed());
            sum += dt;
            verified[i].push(dt);
            let got = program.map(|p| render(p.diagnostics()));
            out.check(
                matches!((&got, expected.get(row.name)), (Ok(g), Some(e)) if g == e),
                || {
                    format!(
                        "{}: verified diagnostics {got:?} differ from the expected file",
                        row.name
                    )
                },
            );
        }
        verified_pass.push(sum);
        for _ in 0..cfg.setup_reps() {
            std::hint::black_box(timed(&mut setups, || setup(cfg.seed)));
        }
        for _ in 0..cfg.reps(UNVERIFIED_REPS) {
            let mut sum = 0.0;
            for row in &rows {
                let t = Instant::now();
                let program = workspace(cfg, false).compile(&row.source);
                sum += ms(t.elapsed());
                out.check(
                    matches!(&program, Ok(p) if p.diagnostics().errors.is_empty() && p.warnings().is_empty()),
                    || format!("{}: unverified compile failed or warned", row.name),
                );
            }
            unverified_pass.push(sum);
        }
    }
    let verified_med: Vec<f64> = verified.iter().map(|v| median(v)).collect();
    out.set("setup_s", median(&setups));
    out.set(
        "pass_s",
        (median(&verified_pass) + median(&unverified_pass)) / 1e3,
    );
    // The geometric mean covers the verified compiles only: the
    // sub-millisecond unverified ones shift by a third from one process to
    // the next on a shared host, which would swamp it.
    out.set("geomean_ms", geomean(&verified_med));
    out.set("verify_total_s", median(&verified_pass) / 1e3);
    out.set("verify_geomean_ms", geomean(&verified_med));
    out.set("compile_unverified_ms", median(&unverified_pass));

    if cfg.trace {
        traced(cfg, out, tracer, &rows, &expected);
    }
}

/// One verified compile of every row, replayed layer by layer (parse,
/// table, fingerprint, verify per unit, plan) under `t`, with each row's
/// diagnostics checked. Returns each row's facts, their summed
/// `SessionStats`, and the number of planned methods.
fn replay_verified(
    cfg: &Config,
    out: &mut Outcome,
    t: &mut Tracer,
    rows: &[Row],
    expected: &BTreeMap<String, Vec<String>>,
    next_op: &mut u64,
) -> (Vec<RowFacts>, SessionStats, usize) {
    let mut pass_facts = Vec::new();
    let mut pass_stats = SessionStats::default();
    let mut methods = 0;
    for row in rows {
        *next_op += 1;
        let op = *next_op;
        let mut stats = SessionStats::default();
        let mut diags = Diagnostics::new();
        let parsed = t.span("compile.verified", row.name, op, |t| {
            let ast = t
                .span("parse", "", op, |_| parse_program(&row.source))
                .ok()?;
            let table = t.span("table", "", op, |_| ClassTable::build(&ast, &mut diags));
            t.span("fingerprint", "", op, |_| {
                std::hint::black_box(Fingerprints::of(&table))
            });
            t.span("verify", row.name, op, |t| {
                let verifier = Verifier::new(
                    Arc::clone(&table),
                    VerifyOptions {
                        max_expansion_depth: cfg.depth,
                        report_unknown: false,
                        session_reuse: true,
                    },
                );
                for (owner, m) in units(&table) {
                    t.span("verify.unit", &m.qualified_name(), op, |_| {
                        // The per-unit session shape `VerifyEngine` uses.
                        let mut sess = verifier.new_session();
                        verifier.verify_method_in(&mut sess, owner, m, &mut diags);
                        stats.absorb(sess.stats());
                    });
                }
            });
            let plan = t.span("plan", "", op, |_| {
                ProgramPlan::compile_with(Arc::clone(&table), PlanOptions::default())
            });
            methods += plan.methods().len();
            Some(())
        });
        let rendered = render(&diags);
        out.check(
            parsed.is_some() && expected.get(row.name) == Some(&rendered),
            || {
                format!(
                    "{}: replayed diagnostics {rendered:?} differ from the expected file",
                    row.name
                )
            },
        );
        pass_stats.absorb(stats);
        pass_facts.push((row.name, verify_counters(&stats), rendered));
    }
    (pass_facts, pass_stats, methods)
}

/// The traced passes: at least two, so the deterministic counters can be
/// compared between them. Every layer figure is derived from the spans.
fn traced(
    cfg: &Config,
    out: &mut Outcome,
    tracer: &mut Tracer,
    rows: &[Row],
    expected: &BTreeMap<String, Vec<String>>,
) {
    let budget = cfg.seconds / 2.0;
    let start = Instant::now();
    let mut facts: Vec<Vec<RowFacts>> = Vec::new();
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut row_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut traced_pass = Vec::new();
    let mut plain_pass = Vec::new();
    let mut max_unit = Vec::new();
    let mut residual = Vec::new();
    let mut units_per_pass = 0usize;
    let mut methods = 0usize;
    let mut totals = SessionStats::default();
    let mut op = 0u64;
    while cfg.keep_going(start, budget, traced_pass.len(), 2) {
        // The same replay with the tracer off is the baseline of the
        // tracing overhead: both make the same calls on one thread.
        let mut off = Tracer::new(false, tracer.origin());
        let t0 = Instant::now();
        let (plain_facts, _, _) = replay_verified(cfg, out, &mut off, rows, expected, &mut op);
        plain_pass.push(ms(t0.elapsed()));
        facts.push(plain_facts);

        let mut t = Tracer::new(true, tracer.origin());
        let t0 = Instant::now();
        let (pass_facts, pass_stats, pass_methods) =
            replay_verified(cfg, out, &mut t, rows, expected, &mut op);
        traced_pass.push(ms(t0.elapsed()));
        facts.push(pass_facts);
        totals = pass_stats;
        methods = pass_methods;
        let span_ms = |s: &crate::trace::Span| s.dur_ns() as f64 / 1e6;
        let spans = t.spans();
        for s in spans.iter().filter(|s| s.name == "verify") {
            row_ms.entry(s.detail.clone()).or_default().push(span_ms(s));
        }
        let units: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "verify.unit")
            .map(span_ms)
            .collect();
        units_per_pass = units.len();
        max_unit.push(units.iter().copied().fold(0.0, f64::max));
        let self_ms = t.layer_self_ms();
        let get = |k: &str| self_ms.get(k).copied().unwrap_or(0.0);
        layer
            .entry("verify.ms")
            .or_default()
            .push(get("verify") + get("verify.unit"));
        tracer.absorb(t);

        // The unverified compile next to its own layers, repeated.
        for _ in 0..cfg.reps(UNVERIFIED_REPS) {
            let mut t = Tracer::new(true, tracer.origin());
            for row in rows {
                op += 1;
                match t.span("workspace", row.name, op, |_| {
                    workspace(cfg, false).compile(&row.source)
                }) {
                    Ok(p) => out.check(p.diagnostics().errors.is_empty(), || {
                        format!("{}: unverified compile reported errors", row.name)
                    }),
                    Err(e) => out.fail(format!("{}: {e}", row.name)),
                }
                op += 1;
                t.span("compile.unverified", row.name, op, |t| {
                    let Ok(ast) = t.span("parse", "", op, |_| parse_program(&row.source)) else {
                        return;
                    };
                    let mut diags = Diagnostics::new();
                    let table = t.span("table", "", op, |_| ClassTable::build(&ast, &mut diags));
                    t.span("fingerprint", "", op, |_| {
                        std::hint::black_box(Fingerprints::of(&table))
                    });
                    t.span("plan", "", op, |_| {
                        ProgramPlan::compile_with(Arc::clone(&table), PlanOptions::default())
                    });
                    t.span("plan.lower_only", "", op, |_| {
                        ProgramPlan::compile_with(
                            Arc::clone(&table),
                            PlanOptions {
                                bytecode: false,
                                analysis: false,
                                smt_prune_check: false,
                            },
                        )
                    });
                });
            }
            let self_ms = t.layer_self_ms();
            let get = |k: &str| self_ms.get(k).copied().unwrap_or(0.0);
            for (metric, span) in [
                ("parse.ms", "parse"),
                ("table.ms", "table"),
                ("fingerprint.ms", "fingerprint"),
                ("plan.ms", "plan"),
                ("plan.lower_only_ms", "plan.lower_only"),
            ] {
                layer.entry(metric).or_default().push(get(span));
            }
            residual.push(
                get("workspace") - get("parse") - get("table") - get("fingerprint") - get("plan"),
            );
            tracer.absorb(t);
        }
    }

    if facts.windows(2).any(|w| w[0] != w[1]) {
        out.fail("verify counters or diagnostics differ between two replays".into());
    }
    for (metric, samples) in &layer {
        out.set(metric, median(samples));
    }
    let verify_ms = median(&layer["verify.ms"]);
    let tokens: usize = rows
        .iter()
        .map(|r| count_tokens(&r.source).unwrap_or(0))
        .sum();
    out.set("parse.tokens", tokens as f64);
    out.set("plan.methods", methods as f64);
    out.set("workspace.residual_ms", median(&residual));
    out.set("verify.units", units_per_pass as f64);
    for (name, value) in VERIFY_COUNTERS.iter().zip(verify_counters(&totals)) {
        out.set(&format!("verify.{name}"), value as f64);
    }
    let vc = (totals.solver_queries + totals.cache_hits) as f64;
    out.set("verify.vc_queries", vc);
    out.set(
        "verify.cache_hit_ratio",
        if vc > 0.0 {
            totals.cache_hits as f64 / vc
        } else {
            0.0
        },
    );
    let max_unit_ms = median(&max_unit);
    out.set("verify.max_unit_ms", max_unit_ms);
    out.set(
        "verify.max_unit_share",
        if verify_ms > 0.0 {
            max_unit_ms / verify_ms
        } else {
            0.0
        },
    );
    for (row, samples) in &row_ms {
        out.set(&format!("verify.row.{row}_ms"), median(samples));
    }
    out.set(
        "trace.overhead_ms",
        median(&traced_pass) - median(&plain_pass),
    );
}
