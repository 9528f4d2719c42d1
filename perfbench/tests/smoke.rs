//! The benchmark's smoke mode: every workload once at minimal size,
//! untraced and traced, with every output check — under two seeds, so no
//! check depends on the default one. Also checks that each result line
//! carries exactly the metrics `BENCHMARK.json` declares, and that the
//! deterministic counters repeat exactly in a second process.

use jmatch_runtime::serve::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Counters that must not change between two runs of the same seed.
const DETERMINISTIC: &[&str] = &[
    "parse.tokens",
    "plan.methods",
    "verify.units",
    "verify.solver_queries",
    "verify.cache_hits",
    "verify.rounds",
    "verify.theory_conflicts",
    "verify.lemmas",
    "verify.sat_conflicts",
    "verify.sat_decisions",
    "verify.sat_propagations",
    "verify.vc_queries",
    "verify.reload_reverified",
    "verify.reload_reused",
    "plan.reload_recompiled",
    "plan.reload_reused",
    "exec.steps",
    "exec.choice_points_created",
    "exec.live_choice_points",
];

/// `(name, unit)` of every metric of one kind declared in BENCHMARK.json.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the smoke; returns each `<workload> trace=<t>` line's metrics.
fn smoke(seed: u64) -> BTreeMap<String, Vec<(String, String, f64)>> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seed", &seed.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed (seed {seed}):\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = Json::parse(stdout.lines().last().expect("output")).expect("result line parses");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(last.get("failed"), Some(&Json::Int(0)));

    let mut runs = BTreeMap::new();
    for line in stdout.lines() {
        let Some((label, json)) = line.split_once(": {") else {
            continue;
        };
        if !label.contains(" trace=") {
            continue;
        }
        let doc = Json::parse(&format!("{{{json}")).expect("workload line parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
        assert!(doc.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned();
                let value = match m.get("value") {
                    Some(Json::Int(i)) => *i as f64,
                    Some(Json::Float(f)) => *f,
                    other => panic!("{name}: value {other:?} is not a number"),
                };
                (name.clone(), unit, value)
            })
            .collect();
        runs.insert(label.to_owned(), metrics);
    }
    assert_eq!(
        runs.len(),
        6,
        "three workloads, untraced and traced:\n{stdout}"
    );
    runs
}

fn check_catalogue(runs: &BTreeMap<String, Vec<(String, String, f64)>>) {
    for (label, metrics) in runs {
        let kind = if label.ends_with("trace=1") {
            "per_layer"
        } else {
            "end_to_end"
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(
            got,
            declared(kind),
            "{label}: metrics differ from BENCHMARK.json {kind}"
        );
        if kind == "end_to_end" {
            for (name, _, value) in metrics {
                assert!(
                    *value > 0.0,
                    "{label}: end-to-end metric {name} reads {value}"
                );
            }
        }
    }
}

fn counters(runs: &BTreeMap<String, Vec<(String, String, f64)>>) -> Vec<(String, String, f64)> {
    runs.iter()
        .filter(|(label, _)| label.ends_with("trace=1"))
        .flat_map(|(label, metrics)| {
            metrics
                .iter()
                .filter(|(n, _, _)| DETERMINISTIC.contains(&n.as_str()))
                .map(move |(n, _, v)| (label.clone(), n.clone(), *v))
        })
        .collect()
}

#[test]
fn smoke_passes_under_two_seeds_and_counters_repeat() {
    let first = smoke(1);
    check_catalogue(&first);
    let again = smoke(1);
    assert_eq!(
        counters(&first),
        counters(&again),
        "deterministic counters changed between runs"
    );
    let other = smoke(2);
    check_catalogue(&other);
}
