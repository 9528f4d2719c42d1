//! The repository's benchmark: three seeded workloads over the public entry
//! points a user calls (`Workspace`, `Program`/`Query`, and
//! `serve::Server` + `serve::Client`).
//!
//! ```text
//! perfbench --workload <corpus_compile|query_exec|serve_mix|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --smoke [--seed <n>]
//! ```
//!
//! With `--trace 0` the last line of standard output is the result with
//! every end-to-end metric; with `--trace 1` it carries every per-layer
//! metric instead, and the spans are written to
//! `.perfbench/trace-<workload>-seed<n>.jsonl` under the working directory.
//! The line before the result records the host and configuration.
//! `--smoke` runs each workload once at minimal size, untraced and traced,
//! with every output check. See `NOTES.md` for what each metric means.

mod corpus_compile;
mod query_exec;
mod report;
mod serve_mix;
mod stats;
mod trace;

use report::{escape, Outcome};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `all` and `--smoke` run them.
pub const WORKLOADS: &[&str] = &["corpus_compile", "query_exec", "serve_mix"];

/// How often a run repeats its set-up before measuring. Each workload also
/// repeats it between measured passes, so the reported median set-up time
/// samples the same span of the run as the other metrics.
const SETUP_REPS: usize = 5;

/// Everything a run is parameterized on. Worker counts and the expansion
/// depth are set here explicitly, never left to `JMATCH_PAR_THREADS`.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The host's cores: the verify-worker count everywhere.
    pub nproc: usize,
    /// The verifier's expansion depth: the library default.
    pub depth: u32,
}

impl Config {
    /// Whether a measuring loop that has done `done` passes (and must do at
    /// least `min`) should run another one within `budget` seconds.
    pub fn keep_going(&self, start: Instant, budget: f64, done: usize, min: usize) -> bool {
        done < min || (!self.smoke && start.elapsed().as_secs_f64() < budget)
    }

    /// A repetition count, cut to one in smoke mode.
    pub fn reps(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }

    pub fn setup_reps(&self) -> usize {
        self.reps(SETUP_REPS)
    }
}

/// Runs `f` (one set-up) and records how long it took, in seconds.
pub fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64());
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.smoke && args.workload.is_empty() {
        args.workload = "all".into();
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Output of a helper command, or `unknown` (no git checkout, no rustc).
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn config_line(cfg: &Config, workload: &str) -> String {
    format!(
        "{{\"config\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"nproc\": {}, \"verify_threads\": {}, \"par_threads\": {}, \
         \"serve_workers\": {}, \"max_expansion_depth\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        cfg.nproc,
        cfg.nproc,
        query_exec::PAR_THREADS,
        serve_mix::workers(cfg),
        cfg.depth,
        escape(&command_output("git", &["rev-parse", "HEAD"])),
        escape(&command_output("rustc", &["--version"])),
    )
}

/// Runs one workload; a traced run also checks and writes its spans.
fn run_workload(cfg: &Config, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    match workload {
        "corpus_compile" => corpus_compile::run(cfg, &mut out, &mut tracer),
        "query_exec" => query_exec::run(cfg, &mut out, &mut tracer),
        "serve_mix" => serve_mix::run(cfg, &mut out, &mut tracer),
        other => unreachable!("workload `{other}` was validated"),
    }
    if cfg.trace {
        if let Err(e) = tracer.check() {
            out.fail(e);
        }
        out.set("trace.spans", tracer.spans().len() as f64);
        let path = format!(".perfbench/trace-{workload}-seed{}.jsonl", cfg.seed);
        if let Err(e) = tracer.write(std::path::Path::new(&path)) {
            out.fail(format!("could not write {path}: {e}"));
        }
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    for p in &out.problems {
        eprintln!("perfbench: {workload}: {p}");
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every pool the measured program might size from the environment gets
    // the same explicit count, whatever the caller's JMATCH_PAR_THREADS.
    std::env::set_var("JMATCH_PAR_THREADS", nproc.to_string());
    let mut cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        nproc,
        depth: jmatch_core::CompileOptions::default().max_expansion_depth,
    };
    println!("{}", config_line(&cfg, &args.workload));
    if args.workload != "all" && !args.smoke {
        let out = run_workload(&cfg, &args.workload);
        println!("{}", out.result_line(cfg.trace));
        return exit_code(out.correct());
    }

    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let traces: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut total = Outcome::default();
    for workload in &workloads {
        for &trace in traces {
            cfg.trace = trace;
            let out = run_workload(&cfg, workload);
            println!(
                "{workload} trace={}: {}",
                trace as u8,
                out.result_line(trace)
            );
            total.attempted += out.attempted;
            total.failed += out.failed;
            for (name, value) in out.metrics {
                total.set(&format!("{workload}/{name}"), value);
            }
        }
    }
    println!("{}", total.summary_line());
    exit_code(total.correct())
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
