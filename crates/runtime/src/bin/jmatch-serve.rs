//! `jmatch-serve` — the multi-tenant JMatch query server.
//!
//! Binds a TCP listener, serves the length-prefixed JSON protocol of
//! `PROTOCOL.md`, and runs until interrupted (or until a `shutdown` frame
//! arrives, when `--allow-remote-shutdown` is set — the CI harness uses
//! that for clean teardown). All configuration is flags; see `--help`.

use jmatch_runtime::serve::{FaultConfig, QuotaConfig, ServeConfig, Server};
use jmatch_runtime::Limits;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
jmatch-serve — multi-tenant JMatch query server

USAGE:
    jmatch-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT          listen address        [default: 127.0.0.1:7733]
    --workers N               query worker threads  [default: 4]
    --queue-depth N           per-tenant admission queue bound  [default: 64]
    --max-connections N       concurrent connection cap         [default: 256]
    --cache-capacity N        max cached programs (LRU)         [default: 64]
    --max-frame BYTES         frame payload cap                 [default: 1048576]
    --max-steps N             per-request step ceiling          [default: 1000000]
    --steps-per-window N      per-tenant step pool per window   [default: 10000000]
    --window-ms MS            quota window length               [default: 1000]
    --compile-steps N         step price of a compile (0 = unmetered) [default: 0]
    --send-queue-depth N      per-connection response queue bound     [default: 64]
    --send-queue-wait-ms MS   slow-consumer high-water timeout        [default: 2000]
    --faults SPEC             deterministic fault injection, e.g.
                              seed=42,panic_request=0.05,slow_write=0.1:20
                              (also read from JMATCH_FAULTS when unset)
    --allow-remote-shutdown   honor `shutdown` frames (CI harnesses)
    --help                    print this help
";

fn parse_flags() -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7733".into(),
        ..ServeConfig::default()
    };
    let mut quota = QuotaConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse(&value("--workers")?)?,
            "--queue-depth" => config.queue_depth = parse(&value("--queue-depth")?)?,
            "--max-connections" => config.max_connections = parse(&value("--max-connections")?)?,
            "--cache-capacity" => config.cache_capacity = parse(&value("--cache-capacity")?)?,
            "--max-frame" => config.max_frame = parse(&value("--max-frame")?)?,
            "--max-steps" => {
                quota.limits = Limits {
                    max_steps: parse(&value("--max-steps")?)?,
                    ..quota.limits
                };
            }
            "--steps-per-window" => {
                quota.steps_per_window = parse(&value("--steps-per-window")?)?;
            }
            "--window-ms" => {
                quota.window = Duration::from_millis(parse(&value("--window-ms")?)?);
            }
            "--compile-steps" => {
                quota.compile_steps = parse(&value("--compile-steps")?)?;
            }
            "--send-queue-depth" => {
                config.send_queue_depth = parse(&value("--send-queue-depth")?)?;
            }
            "--send-queue-wait-ms" => {
                config.send_queue_wait_ms = parse(&value("--send-queue-wait-ms")?)?;
            }
            "--faults" => {
                config.faults = Some(
                    FaultConfig::parse(&value("--faults")?)
                        .map_err(|m| format!("bad --faults spec: {m}"))?,
                );
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if config.faults.is_none() {
        config.faults = FaultConfig::from_env();
    }
    config.quota = quota;
    Ok(config)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse `{s}`\n\n{USAGE}"))
}

fn main() -> ExitCode {
    let config = match parse_flags() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("jmatch-serve: {message}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("jmatch-serve: could not bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("jmatch-serve listening on {}", server.local_addr());
    server.wait_for_shutdown();
    let metrics = server.metrics();
    eprintln!(
        "jmatch-serve: shutting down — {} connections, {} frames, \
         {} calls, {} queries, {} streams, cache {}h/{}m/{}e, \
         {} capacity rejections, {} quota rejections, \
         {} connection rejections, {} cancelled, \
         {} panics, {} worker respawns, {} deadline exceeded, \
         {} slow consumers dropped",
        metrics.connections,
        metrics.frames,
        metrics.calls,
        metrics.queries,
        metrics.streams,
        metrics.cache.hits,
        metrics.cache.misses,
        metrics.cache.evictions,
        metrics.rejected_capacity,
        metrics.rejected_quota,
        metrics.rejected_connections,
        metrics.cancelled,
        metrics.panics,
        metrics.worker_respawns,
        metrics.deadline_exceeded,
        metrics.slow_consumer_disconnects,
    );
    server.shutdown();
    ExitCode::SUCCESS
}
