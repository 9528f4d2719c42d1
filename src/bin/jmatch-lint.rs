//! `jmatch-lint` — the standalone lint driver over `jmatch_core::analysis`.
//!
//! Compiles each input (files, inline `--source`, or the built-in Table 1
//! corpus via `--corpus`), runs the plan-analysis pass, and reports its
//! lints: unused bindings, always-failing invokes, dead modes, unbounded
//! left recursion. Verification is off by default (`--verify` turns it on,
//! folding the §5 verifier warnings into the report). `--timings` (with
//! `--verify`) verifies with one worker and reports, per input, the
//! solver's deterministic counters and the wall-clock time of each solver
//! layer (SAT, LIA, EUF, lazy expansion, and within expansion the plugin
//! deriving lemmas) plus the scope layer around the checks (push, query
//! assertions, pop): the one-worker verification profile.
//!
//! Output is human-readable by default; `--json` emits one stable JSON
//! document for the whole run (the CI `lint-corpus` golden uses this).

use jmatch_core::SessionStats;
use jmatch_runtime::serve::json::Json;
use jmatch_runtime::Workspace;
use std::process::ExitCode;

const USAGE: &str = "\
jmatch-lint — static lints over compiled JMatch plans

USAGE:
    jmatch-lint [OPTIONS] [FILES...]

OPTIONS:
    --corpus         lint every built-in Table 1 corpus entry
    --source SRC     lint an inline source string
    --json           emit one JSON document instead of human-readable lines
    --verify         also run the static verification passes (their
                     warnings are folded into the report)
    --timings        with --verify: verify with one worker and report each
                     input's solver counters and SAT/LIA/EUF/expansion ms
                     (plugin ms: the part of expansion inside the plugin;
                     scope ms: push, query assertions and pop)
    -h, --help       print this help

EXIT STATUS:
    0  no lints (and no compile errors)
    1  at least one lint was reported
    2  a compile error or bad usage
";

struct Options {
    corpus: bool,
    json: bool,
    verify: bool,
    timings: bool,
    sources: Vec<(String, String)>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        corpus: false,
        json: false,
        verify: false,
        timings: false,
        sources: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => opts.corpus = true,
            "--json" => opts.json = true,
            "--verify" => opts.verify = true,
            "--timings" => opts.timings = true,
            "--source" => {
                let src = args.next().ok_or("--source needs an argument")?;
                opts.sources.push(("<source>".to_owned(), src));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                opts.sources.push((path.to_owned(), text));
            }
        }
    }
    if opts.corpus {
        for entry in jmatch_corpus::entries() {
            opts.sources
                .push((entry.name.to_owned(), entry.combined_jmatch()));
        }
    }
    if opts.timings && !opts.verify {
        return Err("--timings needs --verify".into());
    }
    if opts.sources.is_empty() {
        return Err("nothing to lint: pass FILES, --source, or --corpus".into());
    }
    Ok(opts)
}

/// One input's lint report: analysis lints first, then (with `--verify`)
/// the verifier's warnings, in production order; plus the solver work its
/// verification spent.
fn lint_one(name: &str, source: &str, opts: &Options) -> Result<(Vec<Json>, SessionStats), String> {
    let mut workspace = Workspace::new().verify(opts.verify);
    if opts.timings {
        workspace = workspace.verify_threads(1);
    }
    let generation = workspace
        .load(source)
        .map_err(|e| format!("{name}: parse error: {e}"))?;
    let program = generation.program();
    let errors = &program.diagnostics().errors;
    if !errors.is_empty() {
        return Err(format!("{name}: compile error: {}", errors[0]));
    }
    let mut out = Vec::new();
    for w in program.lints().iter().chain(program.warnings()) {
        out.push(Json::obj(vec![
            ("kind", Json::Str(w.kind.to_string())),
            ("context", Json::Str(w.context.clone())),
            ("message", Json::Str(w.message.clone())),
        ]));
    }
    Ok((out, generation.report().verify_stats))
}

/// The `--timings` report of one input: the summed solver counters, then
/// the per-layer wall-clock milliseconds.
fn timings_json(s: &SessionStats) -> Json {
    let count = |n: u64| Json::Int(n as i64);
    let ms = |ns: u64| Json::Float((ns as f64 / 1e5).round() / 10.0);
    Json::obj(vec![
        ("solver_queries", count(s.solver_queries)),
        ("cache_hits", count(s.cache_hits)),
        ("rounds", count(s.rounds)),
        ("theory_conflicts", count(s.theory_conflicts)),
        ("lemmas", count(s.lemmas)),
        ("euf_reused", count(s.euf_reused)),
        ("sat_conflicts", count(s.sat_conflicts)),
        ("sat_decisions", count(s.sat_decisions)),
        ("sat_propagations", count(s.sat_propagations)),
        ("sat_ms", ms(s.sat_ns)),
        ("lia_ms", ms(s.lia_ns)),
        ("euf_ms", ms(s.euf_ns)),
        ("expand_ms", ms(s.expand_ns)),
        ("plugin_ms", ms(s.plugin_ns)),
        ("scope_ms", ms(s.scope_ns)),
    ])
}

/// One human-readable `--timings` line: the fields of [`timings_json`].
fn timings_line(name: &str, s: &SessionStats) -> String {
    let Json::Obj(fields) = timings_json(s) else {
        unreachable!("timings_json builds an object")
    };
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
    format!("{name}: timings: {}", fields.join(", "))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("jmatch-lint: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut total = 0usize;
    let mut inputs = Vec::new();
    let mut summed = SessionStats::default();
    for (name, source) in &opts.sources {
        match lint_one(name, source, &opts) {
            Ok((lints, stats)) => {
                total += lints.len();
                summed.absorb(stats);
                if !opts.json {
                    for l in &lints {
                        let kind = l.get("kind").and_then(Json::as_str).unwrap_or("");
                        let context = l.get("context").and_then(Json::as_str).unwrap_or("");
                        let message = l.get("message").and_then(Json::as_str).unwrap_or("");
                        println!("{name}: warning[{kind}] {context}: {message}");
                    }
                    if opts.timings {
                        println!("{}", timings_line(name, &stats));
                    }
                }
                let mut fields = vec![
                    ("name", Json::Str(name.clone())),
                    ("lints", Json::Arr(lints)),
                ];
                if opts.timings {
                    fields.push(("timings", timings_json(&stats)));
                }
                inputs.push(Json::obj(fields));
            }
            Err(message) => {
                eprintln!("jmatch-lint: {message}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.json {
        let mut fields = vec![
            ("total", Json::Int(total as i64)),
            ("inputs", Json::Arr(inputs)),
        ];
        if opts.timings {
            fields.push(("timings", timings_json(&summed)));
        }
        println!("{}", Json::obj(fields));
    } else if opts.timings {
        println!("{}", timings_line("total", &summed));
    }
    if !opts.json && total == 0 {
        println!("jmatch-lint: clean ({} input(s))", opts.sources.len());
    }
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
