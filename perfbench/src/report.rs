//! The metric catalogue and the result line the benchmark prints.
//!
//! Every run prints every metric of its kind: the end-to-end metrics with
//! tracing off, the per-layer metrics with tracing on. A per-layer metric
//! whose layer the workload never calls reads 0 (that layer did no work on
//! that workload).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("pass_s", "s"), ("geomean_ms", "ms")];

/// The query-execution kinds, in catalogue order.
pub const EXEC_KINDS: &[&str] = &[
    "nat_plus",
    "list_ops",
    "ctor_dispatch",
    "field_access",
    "deconstruct",
    "det_tree",
    "or_enum",
    "first_solution",
];

/// Per-layer metrics: `(name, unit)`, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    add("error_rate", "ratio");
    add("trace.overhead_ms", "ms");
    add("trace.spans", "count");
    add("verify_total_s", "s");
    add("verify_geomean_ms", "ms");
    add("compile_unverified_ms", "ms");
    add("query_mix_s", "s");
    add("par_enum_s", "s");
    add("serve_query_p50_us", "us");
    add("serve_call_p50_us", "us");
    add("serve_compile_cold_p50_ms", "ms");
    add("serve_reload_p50_ms", "ms");
    add("serve_ops_per_s", "1/s");
    add("parse.ms", "ms");
    add("parse.tokens", "count");
    add("table.ms", "ms");
    add("fingerprint.ms", "ms");
    add("plan.ms", "ms");
    add("plan.lower_only_ms", "ms");
    add("plan.methods", "count");
    add("workspace.residual_ms", "ms");
    add("verify.ms", "ms");
    add("verify.units", "count");
    for counter in VERIFY_COUNTERS {
        add(&format!("verify.{counter}"), "count");
    }
    add("verify.vc_queries", "count");
    add("verify.cache_hit_ratio", "ratio");
    add("verify.max_unit_ms", "ms");
    add("verify.max_unit_share", "ratio");
    for entry in jmatch_corpus::entries() {
        add(&format!("verify.row.{}_ms", entry.name), "ms");
    }
    add("verify.reload_reverified", "count");
    add("verify.reload_reused", "count");
    add("plan.reload_recompiled", "count");
    add("plan.reload_reused", "count");
    for kind in EXEC_KINDS {
        add(&format!("exec.{kind}_ms"), "ms");
    }
    add("exec.steps", "count");
    add("exec.choice_points_created", "count");
    add("exec.live_choice_points", "count");
    add("par.seq_ms", "ms");
    add("par.speedup", "ratio");
    add("serve.ops", "count");
    add("serve.round_ms", "ms");
    for kind in ["query", "call", "stream", "compile", "reload"] {
        add(&format!("serve.round_{kind}_ms"), "ms");
    }
    add("serve.cache_hits", "count");
    add("serve.cache_misses", "count");
    add("serve.cache_evictions", "count");
    add("serve.rejected", "count");
    add("serve.deadline_exceeded", "count");
    add("serve.panics", "count");
    add("serve.query_p99_us", "us");
    add("serve.call_p99_us", "us");
    add("serve.compile_cold_p90_ms", "ms");
    add("serve.exec_query_us", "us");
    add("serve.wire_overhead_us", "us");
    out
}

/// The `SessionStats` counters, as named in the catalogue.
pub const VERIFY_COUNTERS: &[&str] = &[
    "solver_queries",
    "cache_hits",
    "rounds",
    "theory_conflicts",
    "lemmas",
    "sat_conflicts",
    "sat_decisions",
    "sat_propagations",
];

pub fn verify_counters(s: &jmatch_core::SessionStats) -> [u64; 8] {
    [
        s.solver_queries,
        s.cache_hits,
        s.rounds,
        s.theory_conflicts,
        s.lemmas,
        s.sat_conflicts,
        s.sat_decisions,
        s.sat_propagations,
    ]
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window (checks included).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not tied to one operation (a broken
    /// invariant of the run); it still counts as a failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the run's kind.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| ((*n).to_owned(), *u))
                .collect()
        };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

impl Outcome {
    /// The combined line of a multi-workload run: every metric measured,
    /// keyed `<workload>/<metric>`.
    pub fn summary_line(&self) -> String {
        let units: BTreeMap<String, &str> = per_layer()
            .into_iter()
            .chain(END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(key, value)| {
                let name = key.rsplit('/').next().unwrap_or(key);
                let unit = units.get(name).copied().unwrap_or("");
                format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::BTreeSet::new();
        for n in &names {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("pass_s", 1.25);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\""));
    }
}
