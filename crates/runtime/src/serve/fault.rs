//! Deterministic fault injection for the serve layer.
//!
//! Chaos testing only works when it can be replayed: every injection site
//! draws from its own seeded xorshift stream, so a given
//! `(seed, rates)` configuration produces the *same* fault schedule on
//! every run — a failing chaos test is reproducible with its seed, and CI
//! can assert exact properties (the server survived, every grant settled)
//! under a known storm.
//!
//! Faults are configured by a compact spec string — from the
//! `jmatch-serve --faults` flag or the `JMATCH_FAULTS` environment
//! variable — e.g.:
//!
//! ```text
//! seed=42,panic_request=0.05,panic_worker=0.01,slow_write=0.1:20,truncate=0.02,stall=0.05:50
//! ```
//!
//! The sites:
//!
//! * `panic_request` — panic inside request execution (caught by the
//!   worker's `catch_unwind`; the client sees `internal-error`).
//! * `panic_worker` — panic a worker *between* jobs (uncaught: the thread
//!   dies and the supervisor must respawn it; no request is lost because
//!   the job queue is untouched).
//! * `slow_write` — sleep `ms` on the thread writing a reply (a worker, or
//!   the connection's reader for inline replies), holding the connection's
//!   send lock, before the frame goes out (exercises producers queueing on
//!   the lock and slow-consumer detection).
//! * `truncate` — write only the frame's length prefix, then hard-close
//!   the connection (the client sees a truncated frame).
//! * `stall` — sleep `ms` in the worker before running a request
//!   (simulates a stuck solver; exercises the deadline watchdog).

use std::sync::Mutex;

/// Fault-injection configuration: a seed plus per-site probabilities
/// (`0.0` = never, `1.0` = always) and durations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Base seed; every site derives its own deterministic stream from it.
    pub seed: u64,
    /// Probability a request execution panics mid-run.
    pub panic_request: f64,
    /// Probability a worker panics between jobs.
    pub panic_worker: f64,
    /// Probability a frame write is delayed by [`FaultConfig::slow_write_ms`].
    pub slow_write: f64,
    /// Delay per injected slow write, in milliseconds.
    pub slow_write_ms: u64,
    /// Probability a frame is truncated after its length prefix (the
    /// connection is then closed).
    pub truncate: f64,
    /// Probability a request stalls for [`FaultConfig::stall_ms`] before
    /// running.
    pub stall: f64,
    /// Stall duration, in milliseconds.
    pub stall_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            panic_request: 0.0,
            panic_worker: 0.0,
            slow_write: 0.0,
            slow_write_ms: 10,
            truncate: 0.0,
            stall: 0.0,
            stall_ms: 20,
        }
    }
}

impl FaultConfig {
    /// Parses a `key=value,…` spec string (see the module docs). Rate
    /// entries accept an optional `:ms` suffix where a duration applies.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys or unparseable
    /// numbers.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut config = FaultConfig::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not key=value"))?;
            let (rate_str, ms_str) = match value.split_once(':') {
                Some((r, m)) => (r, Some(m)),
                None => (value, None),
            };
            let rate = |s: &str| -> Result<f64, String> {
                let r: f64 = s
                    .parse()
                    .map_err(|_| format!("fault rate `{s}` is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate `{s}` is not in 0..=1"));
                }
                Ok(r)
            };
            let ms = |s: Option<&str>| -> Result<Option<u64>, String> {
                s.map(|m| {
                    m.parse()
                        .map_err(|_| format!("fault duration `{m}` is not a number"))
                })
                .transpose()
            };
            match key.trim() {
                "seed" => {
                    config.seed = rate_str
                        .parse()
                        .map_err(|_| format!("seed `{rate_str}` is not a number"))?;
                }
                "panic_request" => config.panic_request = rate(rate_str)?,
                "panic_worker" => config.panic_worker = rate(rate_str)?,
                "slow_write" => {
                    config.slow_write = rate(rate_str)?;
                    if let Some(m) = ms(ms_str)? {
                        config.slow_write_ms = m;
                    }
                }
                "truncate" => config.truncate = rate(rate_str)?,
                "stall" => {
                    config.stall = rate(rate_str)?;
                    if let Some(m) = ms(ms_str)? {
                        config.stall_ms = m;
                    }
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(config)
    }

    /// The configuration from the `JMATCH_FAULTS` environment variable,
    /// when set and parseable (a malformed spec is reported and ignored —
    /// fault injection must never take a production server down by
    /// itself).
    pub fn from_env() -> Option<FaultConfig> {
        let spec = std::env::var("JMATCH_FAULTS").ok()?;
        match FaultConfig::parse(&spec) {
            Ok(config) => Some(config),
            Err(m) => {
                eprintln!("jmatch-serve: ignoring JMATCH_FAULTS: {m}");
                None
            }
        }
    }

    /// Whether any site has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.panic_request > 0.0
            || self.panic_worker > 0.0
            || self.slow_write > 0.0
            || self.truncate > 0.0
            || self.stall > 0.0
    }
}

/// An injection site; each draws from its own deterministic stream so
/// adding traffic to one site never perturbs another's schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Site {
    PanicRequest,
    PanicWorker,
    SlowWrite,
    Truncate,
    Stall,
}

/// The runtime half: seeded per-site xorshift streams behind mutexes
/// (contention is irrelevant — every draw is a fault-injection decision,
/// not a hot path).
#[derive(Debug)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
    streams: [Mutex<Xorshift>; 5],
}

impl FaultInjector {
    pub(crate) fn new(config: FaultConfig) -> Self {
        let stream = |salt: u64| Mutex::new(Xorshift::new(config.seed ^ salt));
        FaultInjector {
            streams: [
                stream(0x9E37_79B9_7F4A_7C15),
                stream(0xBF58_476D_1CE4_E5B9),
                stream(0x94D0_49BB_1331_11EB),
                stream(0xD6E8_FEB8_6659_FD93),
                stream(0xA5A3_564E_4690_39BB),
            ],
            config,
        }
    }

    fn rate_of(&self, site: Site) -> f64 {
        match site {
            Site::PanicRequest => self.config.panic_request,
            Site::PanicWorker => self.config.panic_worker,
            Site::SlowWrite => self.config.slow_write,
            Site::Truncate => self.config.truncate,
            Site::Stall => self.config.stall,
        }
    }

    /// Draws the site's next decision: `true` = inject the fault here.
    pub(crate) fn fire(&self, site: Site) -> bool {
        let rate = self.rate_of(site);
        if rate <= 0.0 {
            return false;
        }
        let mut stream = self.streams[site as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        stream.next_unit() < rate
    }

    /// The configured slow-write delay.
    pub(crate) fn slow_write_ms(&self) -> u64 {
        self.config.slow_write_ms
    }

    /// The configured stall duration.
    pub(crate) fn stall_ms(&self) -> u64 {
        self.config.stall_ms
    }
}

/// xorshift64* — tiny, seedable, and good enough for fault scheduling
/// (this repo takes no external dependencies, so no `rand`).
#[derive(Debug)]
pub(crate) struct Xorshift {
    state: u64,
}

impl Xorshift {
    pub(crate) fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; displace it determinately.
        Xorshift {
            state: seed | 0x0DDB_1A5E_5BAD_5EED,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)`.
    pub(crate) fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_round_trip() {
        let config = FaultConfig::parse(
            "seed=42,panic_request=0.05,panic_worker=0.01,slow_write=0.1:20,truncate=0.02,stall=0.5:50",
        )
        .expect("spec parses");
        assert_eq!(config.seed, 42);
        assert_eq!(config.panic_request, 0.05);
        assert_eq!(config.panic_worker, 0.01);
        assert_eq!(config.slow_write, 0.1);
        assert_eq!(config.slow_write_ms, 20);
        assert_eq!(config.truncate, 0.02);
        assert_eq!(config.stall, 0.5);
        assert_eq!(config.stall_ms, 50);
        assert!(config.is_active());
        assert!(!FaultConfig::default().is_active());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultConfig::parse("panic_request").is_err());
        assert!(FaultConfig::parse("panic_request=2.0").is_err());
        assert!(FaultConfig::parse("panic_request=-0.5").is_err());
        assert!(FaultConfig::parse("warp_core_breach=0.5").is_err());
        assert!(FaultConfig::parse("stall=0.5:abc").is_err());
        assert!(FaultConfig::parse("").is_ok());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let config = FaultConfig {
            seed: 7,
            panic_request: 0.3,
            stall: 0.3,
            ..FaultConfig::default()
        };
        let draw = |inj: &FaultInjector, site: Site| -> Vec<bool> {
            (0..64).map(|_| inj.fire(site)).collect()
        };
        let a = FaultInjector::new(config.clone());
        let b = FaultInjector::new(config.clone());
        assert_eq!(draw(&a, Site::PanicRequest), draw(&b, Site::PanicRequest));
        assert_eq!(draw(&a, Site::Stall), draw(&b, Site::Stall));
        // Distinct sites see distinct streams (same rate, different salt).
        let c = FaultInjector::new(config.clone());
        let d = FaultInjector::new(config);
        assert_ne!(draw(&c, Site::PanicRequest), draw(&d, Site::Stall));
        // A different seed reschedules.
        let e = FaultInjector::new(FaultConfig {
            seed: 8,
            panic_request: 0.3,
            ..FaultConfig::default()
        });
        assert_ne!(draw(&a, Site::PanicRequest), draw(&e, Site::PanicRequest));
    }

    #[test]
    fn zero_rate_sites_never_fire() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 1,
            panic_request: 1.0,
            ..FaultConfig::default()
        });
        assert!((0..64).all(|_| !inj.fire(Site::Truncate)));
        assert!((0..64).all(|_| inj.fire(Site::PanicRequest)));
    }
}
