//! The verifier's verdicts on every Table 1 corpus row, pinned.
//!
//! Two goldens hold, for each row of `jmatch_corpus::entries()`, a `[Row]`
//! header followed by the row's rendered warnings and errors:
//! `tests/golden/corpus_diagnostics.txt` at expansion depth 2, and
//! `perfbench/expected_diagnostics.txt` at depth 3 (the default, and the
//! depth the repository benchmark compiles at). Every row is rebuilt here
//! at both depths through a fresh one-worker `Workspace` and compared byte
//! for byte, so a change to the verification driver, the VC generator or
//! the solver that moves any verdict shows up in the tier-1 suite.
//!
//! At depth 3 the summed solver counters of the rebuilds are pinned too
//! ([`DEPTH3_SEARCH`]): a change that keeps every verdict but makes the
//! solver search differently (other rounds, lemmas, conflicts, decisions
//! or propagations) fails here as well. So does one that changes how often
//! the congruence closure is extended instead of rebuilt
//! ([`DEPTH3_EUF_REUSED`]), the share the EUF layer's cost depends on.

use jmatch::core::{Diagnostics, SessionStats, WarningKind};
use jmatch::Workspace;
use std::sync::OnceLock;
use std::time::Instant;

const GOLDEN: &str = include_str!("golden/corpus_diagnostics.txt");

/// The depth-3 golden, shared with the repository benchmark.
const GOLDEN_DEPTH3: &str = include_str!("../perfbench/expected_diagnostics.txt");

/// Expansion depth `GOLDEN` was generated at.
const DEPTH: u32 = 2;

/// The summed `RebuildReport::verify_stats` of the depth-3 rebuilds of every
/// row: solver queries, rounds, theory conflicts, lemmas, SAT conflicts,
/// SAT decisions, SAT propagations.
const DEPTH3_SEARCH: [u64; 7] = [267, 992, 27, 11023, 261, 68777, 257016];

/// The congruence-closure checks of the same rebuilds that extended the
/// previous check's closure instead of rebuilding it
/// (`SessionStats::euf_reused`).
const DEPTH3_EUF_REUSED: u64 = 608;

/// One verified rebuild per corpus row: its diagnostics and its solver
/// counters.
type Rows = (Vec<(&'static str, Diagnostics)>, SessionStats);

/// Rebuilds every row at `depth` with one verification worker.
fn verify_corpus(depth: u32) -> Rows {
    let mut total = SessionStats::default();
    let rows = jmatch::corpus::entries()
        .into_iter()
        .map(|e| {
            let generation = Workspace::new()
                .max_expansion_depth(depth)
                .verify_threads(1)
                .load(&e.combined_jmatch())
                .unwrap_or_else(|err| panic!("{} fails to parse: {err}", e.name));
            total.absorb(generation.report().verify_stats);
            (e.name, generation.program().diagnostics().clone())
        })
        .collect();
    (rows, total)
}

/// Every row's verified diagnostics at depth 2, computed once and shared by
/// the tests below.
fn verified() -> &'static [(&'static str, Diagnostics)] {
    static ROWS: OnceLock<Rows> = OnceLock::new();
    &ROWS.get_or_init(|| verify_corpus(DEPTH)).0
}

/// A golden's text without its `#` comment lines and blank lines.
fn golden_body(golden: &str) -> String {
    golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `[Row]` headers, each followed by that row's warnings then errors.
fn render(rows: &[(&str, Diagnostics)]) -> String {
    let mut out = String::new();
    for (name, d) in rows {
        out.push_str(&format!("[{name}]\n"));
        for w in &d.warnings {
            out.push_str(&format!("{w}\n"));
        }
        for e in &d.errors {
            out.push_str(&format!("{e}\n"));
        }
    }
    out
}

/// Compares rendered rows with a golden body, naming the first difference.
fn assert_matches_golden(rows: &[(&str, Diagnostics)], golden: &str) {
    let actual = render(rows);
    let expected = golden_body(golden);
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "first difference at body line {}", i + 1);
        }
        panic!("line counts differ:\n--- actual ---\n{actual}--- golden ---\n{expected}");
    }
}

#[test]
fn verdicts_match_the_golden() {
    assert_matches_golden(verified(), GOLDEN);
}

#[test]
fn depth3_verdicts_and_search_are_pinned() {
    let (rows, stats) = verify_corpus(3);
    assert_matches_golden(&rows, GOLDEN_DEPTH3);
    let search = [
        stats.solver_queries,
        stats.rounds,
        stats.theory_conflicts,
        stats.lemmas,
        stats.sat_conflicts,
        stats.sat_decisions,
        stats.sat_propagations,
    ];
    assert_eq!(
        search, DEPTH3_SEARCH,
        "depth-3 solver counters moved: [queries, rounds, theory conflicts, \
         lemmas, SAT conflicts, SAT decisions, SAT propagations]"
    );
    assert_eq!(
        stats.euf_reused, DEPTH3_EUF_REUSED,
        "depth-3 congruence-closure reuse moved"
    );
}

#[test]
fn per_theory_times_are_reported_within_wall_time() {
    let e = jmatch::corpus::entry("AVLTree").expect("AVLTree is a corpus row");
    let source = e.combined_jmatch();
    let clock = Instant::now();
    let generation = Workspace::new().verify_threads(1).load(&source).unwrap();
    let wall = clock.elapsed().as_nanos() as u64;
    let s = generation.report().verify_stats;
    let layers = [s.sat_ns, s.lia_ns, s.euf_ns, s.expand_ns, s.scope_ns];
    assert!(layers.iter().all(|&ns| ns > 0), "{s:?}");
    assert!(layers.iter().sum::<u64>() <= wall, "{s:?} vs {wall} ns");
    // The plugin's share is a part of the expansion layer.
    assert!(s.plugin_ns > 0 && s.plugin_ns <= s.expand_ns, "{s:?}");
}

#[test]
fn every_entry_parses_and_resolves() {
    for e in jmatch::corpus::entries() {
        let program = Workspace::new()
            .verify(false)
            .compile(&e.combined_jmatch())
            .unwrap_or_else(|err| panic!("{} fails to parse: {err}", e.name));
        assert!(
            program.diagnostics().errors.is_empty(),
            "{} has resolution errors: {:?}",
            e.name,
            program.diagnostics().errors
        );
    }
}

#[test]
fn every_entry_verifies_without_hard_errors() {
    for (name, d) in verified() {
        assert!(
            d.errors.is_empty(),
            "{name} has errors under verification: {:?}",
            d.errors
        );
    }
}

#[test]
fn nat_switch_has_no_redundant_arms() {
    // At the default depth, unlike the golden.
    let e = jmatch::corpus::entry("ZNat").expect("ZNat is a corpus row");
    let program = Workspace::new().compile(&e.combined_jmatch()).unwrap();
    let d = program.diagnostics();
    assert!(
        !d.has_warning(WarningKind::RedundantArm),
        "{:?}",
        d.warnings
    );
}
