//! Prints the §7.3 effectiveness checks: the paper's positive examples stay
//! warning-free and its negative examples (Figure 6, Figure 12, a missing
//! case) produce the expected warnings. Exits nonzero if any check deviates.
//!
//! Run with `cargo run -p jmatch-bench --bin effectiveness`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let report = jmatch_bench::effectiveness();
    println!("§7.3 effectiveness checks\n");
    for (description, expected, observed) in &report.checks {
        let status = if expected == observed {
            "ok "
        } else {
            "MISMATCH"
        };
        println!("[{status}] {description} (expected warning: {expected}, observed: {observed})");
    }
    if report.all_pass() {
        println!("\nall effectiveness checks reproduce the paper's reported behaviour");
        ExitCode::SUCCESS
    } else {
        println!("\nsome checks deviate from the paper; see the MISMATCH lines above");
        ExitCode::FAILURE
    }
}
