//! The verifier's verdicts on every Table 1 corpus row, pinned.
//!
//! `tests/golden/corpus_diagnostics.txt` holds, for each row of
//! `jmatch_corpus::entries()`, a `[Row]` header followed by the row's
//! rendered warnings and errors at expansion depth 2 (the format of
//! `perfbench/expected_diagnostics.txt`, which pins depth 3). Every row is
//! rebuilt here through a fresh one-worker `Workspace` and compared byte
//! for byte, so a change to the verification driver, the VC generator or
//! the solver that moves any verdict shows up in the tier-1 suite.

use jmatch::core::{Diagnostics, WarningKind};
use jmatch::Workspace;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/corpus_diagnostics.txt");

/// Expansion depth the golden was generated at.
const DEPTH: u32 = 2;

/// Every row's verified diagnostics, computed once and shared by the
/// tests below.
fn verified() -> &'static [(&'static str, Diagnostics)] {
    static ROWS: OnceLock<Vec<(&'static str, Diagnostics)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        jmatch::corpus::entries()
            .into_iter()
            .map(|e| {
                let program = Workspace::new()
                    .max_expansion_depth(DEPTH)
                    .verify_threads(1)
                    .compile(&e.combined_jmatch())
                    .unwrap_or_else(|err| panic!("{} fails to parse: {err}", e.name));
                (e.name, program.diagnostics().clone())
            })
            .collect()
    })
}

/// The golden text without its `#` comment lines and blank lines.
fn golden_body() -> String {
    GOLDEN
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

#[test]
fn verdicts_match_the_golden() {
    let actual = render(verified());
    let expected = golden_body();
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "first difference at body line {}", i + 1);
        }
        panic!("line counts differ:\n--- actual ---\n{actual}--- golden ---\n{expected}");
    }
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
