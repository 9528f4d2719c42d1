//! The compile-once program cache.
//!
//! Serving is only cheaper than embedding when compilation (parse +
//! resolve + verify + lower) happens **once** per distinct source: the
//! cache keys on a 64-bit FNV-1a hash of `(source, verify)`, stores the
//! shared [`Program`] behind an `Arc`, and bounds itself with an LRU
//! eviction policy. Concurrent first compiles of the same source are
//! **single-flighted** — one connection compiles while the others wait on
//! a condvar, so a thundering herd of identical cold compiles does the
//! work exactly once.

use crate::{Program, Workspace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// FNV-1a, the std-only stable hash the cache keys on (`DefaultHasher`'s
/// output is not documented as stable across releases, and the key leaks
/// into the wire protocol as the program id).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a compile attempt produced.
#[derive(Debug, Clone)]
pub enum CacheOutcome {
    /// A ready program: its wire key, and whether it came from cache.
    Ready {
        /// The shared compiled program.
        program: Arc<Program>,
        /// The wire key (`"p:"` + 16 hex digits).
        key: String,
        /// `true` when no compilation ran for this request.
        cached: bool,
    },
    /// The source failed to compile; the diagnostics, rendered.
    Failed(Vec<String>),
}

/// What a [`ProgramCache::reload`] produced.
///
/// A reload is an *edit* against a resident program: the server keeps the
/// base entry's [`Workspace`], so recompilation is incremental — only the
/// methods the source delta touched are re-lowered and re-verified, and
/// the response says which.
#[derive(Debug, Clone)]
pub enum ReloadOutcome {
    /// The new source is byte-identical to the resident one: nothing ran.
    Unchanged {
        /// The (unchanged) wire key.
        key: String,
    },
    /// Incrementally recompiled: the new generation is resident under
    /// `key` (the base entry stays resident under its old key).
    Recompiled {
        /// The new wire key (`"p:"` + 16 hex digits of the new source).
        key: String,
        /// The new program generation.
        program: Arc<Program>,
        /// Qualified names of the methods whose compiled plan changed.
        methods: Vec<String>,
        /// Qualified names of the methods that were re-verified.
        reverified: Vec<String>,
    },
    /// The edit does not compile (parse error or semantic errors); the
    /// base entry stays resident and current.
    Rejected {
        /// Rendered diagnostics.
        diagnostics: Vec<String>,
    },
}

/// Counters the metrics endpoint snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache (compiles *and* key lookups).
    pub hits: u64,
    /// Requests that had to compile (or missed a key lookup).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

struct Entry {
    program: Arc<Program>,
    /// The full source, kept to disambiguate hash collisions.
    source: String,
    verify: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
    /// The workspace that built this program, kept so `reload` edits are
    /// incremental. Shared (`Arc`) between an entry and the generations
    /// reloaded from it; locked only while a reload recompiles.
    workspace: Arc<Mutex<Workspace>>,
}

#[derive(Default)]
struct Inner {
    ready: HashMap<u64, Entry>,
    /// Keys with a compile in flight; waiters block on the condvar.
    pending: HashMap<u64, ()>,
    tick: u64,
}

/// A bounded, thread-safe, single-flight LRU cache of compiled programs.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    done: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// A cache holding at most `capacity` compiled programs (at least 1).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            inner: Mutex::new(Inner::default()),
            done: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wire key for a source text (stable across servers).
    pub fn key_of(source: &str, verify: bool) -> String {
        format!("p:{:016x}", Self::hash_of(source, verify))
    }

    fn hash_of(source: &str, verify: bool) -> u64 {
        // Fold the verify flag into the hash: the same text compiled with
        // and without verification is two distinct programs (different
        // diagnostics), so they get distinct wire keys.
        fnv1a(source.as_bytes()) ^ (verify as u64)
    }

    /// Returns the cached program for `source`, compiling (and lowering)
    /// it exactly once across all concurrent callers on a miss.
    pub fn get_or_compile(&self, source: &str, verify: bool) -> CacheOutcome {
        let hash = Self::hash_of(source, verify);
        let key = format!("p:{hash:016x}");
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            loop {
                if let Some(entry) = inner.ready.get(&hash) {
                    if entry.source == source && entry.verify == verify {
                        inner.tick += 1;
                        let tick = inner.tick;
                        let entry = inner.ready.get_mut(&hash).expect("entry just found");
                        entry.stamp = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return CacheOutcome::Ready {
                            program: Arc::clone(&entry.program),
                            key,
                            cached: true,
                        };
                    }
                    // A genuine 64-bit collision: evict the older claimant
                    // and recompile. (Counted as a miss.)
                    inner.ready.remove(&hash);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    inner.pending.insert(hash, ());
                    break;
                }
                if inner.pending.contains_key(&hash) {
                    // Someone else is compiling this source: wait for the
                    // slot to resolve, then re-check.
                    inner = self.done.wait(inner).expect("cache lock poisoned");
                    continue;
                }
                inner.pending.insert(hash, ());
                break;
            }
        }
        // Compile outside the lock; other keys stay servable meanwhile.
        // The workspace compiles bytecode by default, so the cached
        // program amortizes the pass-4 cost across every tenant that hits
        // this key: their queries all run on the flat form — and the
        // workspace itself is kept resident so a later `reload` of this
        // entry recompiles only what the edit touched.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut ws = Workspace::new().verify(verify);
        let compiled = ws.load(source);
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.pending.remove(&hash);
        self.done.notify_all();
        match compiled {
            Err(parse_error) => CacheOutcome::Failed(vec![parse_error.to_string()]),
            Ok(generation) => {
                let program = generation.into_program();
                if !program.diagnostics().errors.is_empty() {
                    return CacheOutcome::Failed(
                        program
                            .diagnostics()
                            .errors
                            .iter()
                            .map(|e| e.to_string())
                            .collect(),
                    );
                }
                let program = Arc::new(program);
                Self::insert(
                    &mut inner,
                    self,
                    hash,
                    Entry {
                        program: Arc::clone(&program),
                        source: source.to_owned(),
                        verify,
                        stamp: 0,
                        workspace: Arc::new(Mutex::new(ws)),
                    },
                );
                CacheOutcome::Ready {
                    program,
                    key,
                    cached: false,
                }
            }
        }
    }

    /// Inserts `entry` (stamping it most-recent) and applies the LRU bound.
    fn insert(inner: &mut Inner, cache: &ProgramCache, hash: u64, mut entry: Entry) {
        inner.tick += 1;
        entry.stamp = inner.tick;
        inner.ready.insert(hash, entry);
        while inner.ready.len() > cache.capacity {
            let oldest = inner
                .ready
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty over-capacity cache");
            inner.ready.remove(&oldest);
            cache.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies a source edit against the resident program `base_key` and
    /// caches the result under the *new* source's key, recompiling
    /// incrementally through the entry's retained [`Workspace`] — only
    /// methods the delta touched are re-lowered/re-verified.
    ///
    /// Returns `None` when `base_key` is not resident (evicted or never
    /// compiled here); the caller should answer like any unknown-program
    /// lookup. The verify flag is inherited from the base entry (it is
    /// part of the program's identity).
    pub fn reload(&self, base_key: &str, new_source: &str) -> Option<ReloadOutcome> {
        let base_hash = base_key
            .strip_prefix("p:")
            .and_then(|h| u64::from_str_radix(h, 16).ok())?;
        let (workspace, verify) = {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            let entry = match inner.ready.get_mut(&base_hash) {
                Some(e) => e,
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
            entry.stamp = tick;
            if entry.source == new_source {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(ReloadOutcome::Unchanged {
                    key: base_key.to_owned(),
                });
            }
            (Arc::clone(&entry.workspace), entry.verify)
        };
        // Recompile outside the cache lock; concurrent reloads of the same
        // lineage serialize on the workspace mutex.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut ws = workspace.lock().expect("workspace lock poisoned");
        let generation = match ws.update_source(new_source) {
            Err(parse_error) => {
                return Some(ReloadOutcome::Rejected {
                    diagnostics: vec![parse_error.to_string()],
                })
            }
            Ok(g) => g,
        };
        drop(ws);
        let program = generation.program().clone();
        if !program.diagnostics().errors.is_empty() {
            return Some(ReloadOutcome::Rejected {
                diagnostics: program
                    .diagnostics()
                    .errors
                    .iter()
                    .map(|e| e.to_string())
                    .collect(),
            });
        }
        let program = Arc::new(program);
        let new_hash = Self::hash_of(new_source, verify);
        let key = format!("p:{new_hash:016x}");
        let report = generation.report();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        Self::insert(
            &mut inner,
            self,
            new_hash,
            Entry {
                program: Arc::clone(&program),
                source: new_source.to_owned(),
                verify,
                stamp: 0,
                // The reloaded generation shares the lineage's workspace:
                // a reload against either key continues incrementally from
                // the newest generation.
                workspace,
            },
        );
        Some(ReloadOutcome::Recompiled {
            key,
            program,
            methods: report.recompiled.clone(),
            reverified: report.reverified.clone(),
        })
    }

    /// Looks up a program by its wire key (`query`/`call`/`stream`
    /// frames). Touches the LRU stamp on hit; a miss means the entry was
    /// evicted (or never compiled here) and the client must re-`compile`.
    pub fn lookup(&self, key: &str) -> Option<Arc<Program>> {
        let hash = key
            .strip_prefix("p:")
            .and_then(|h| u64::from_str_radix(h, 16).ok())?;
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.ready.get_mut(&hash) {
            Some(entry) => {
                entry.stamp = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.program))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// How many programs are resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").ready.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_A: &str = "static int one() { return 1; }";
    const SRC_B: &str = "static int two() { return 2; }";
    const SRC_C: &str = "static int three() { return 3; }";

    #[test]
    fn compiles_once_then_hits() {
        let cache = ProgramCache::new(4);
        let CacheOutcome::Ready { key, cached, .. } = cache.get_or_compile(SRC_A, false) else {
            panic!("compile failed");
        };
        assert!(!cached);
        let CacheOutcome::Ready {
            key: key2, cached, ..
        } = cache.get_or_compile(SRC_A, false)
        else {
            panic!("compile failed");
        };
        assert!(cached);
        assert_eq!(key, key2);
        assert!(cache.lookup(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // The verify flag is part of the identity.
        let CacheOutcome::Ready {
            key: kv, cached, ..
        } = cache.get_or_compile(SRC_A, true)
        else {
            panic!("compile failed");
        };
        assert!(!cached);
        assert_ne!(kv, key);
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let cache = ProgramCache::new(2);
        let key_of = |outcome: CacheOutcome| match outcome {
            CacheOutcome::Ready { key, .. } => key,
            CacheOutcome::Failed(e) => panic!("compile failed: {e:?}"),
        };
        let ka = key_of(cache.get_or_compile(SRC_A, false));
        let _kb = key_of(cache.get_or_compile(SRC_B, false));
        // Touch A so B is the LRU victim when C arrives.
        assert!(cache.lookup(&ka).is_some());
        let kb = ProgramCache::key_of(SRC_B, false);
        let _kc = key_of(cache.get_or_compile(SRC_C, false));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&ka).is_some());
        assert!(cache.lookup(&kb).is_none(), "B survived eviction");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn single_flight_compiles_concurrently_requested_source_once() {
        let cache = Arc::new(ProgramCache::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let CacheOutcome::Ready { program, .. } = cache.get_or_compile(SRC_A, false)
                    else {
                        panic!("compile failed");
                    };
                    assert!(program.free_method("one").is_ok());
                });
            }
        });
        // All eight callers resolved, but at most one compiled: with
        // single-flight, every concurrent waiter re-checks and hits.
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reload_unchanged_recompiled_and_rejected() {
        let cache = ProgramCache::new(4);
        let CacheOutcome::Ready { key, .. } = cache.get_or_compile(SRC_A, false) else {
            panic!("compile failed");
        };
        // Identical source: nothing runs.
        let Some(ReloadOutcome::Unchanged { key: k }) = cache.reload(&key, SRC_A) else {
            panic!("expected unchanged");
        };
        assert_eq!(k, key);
        // A body edit recompiles exactly the edited method.
        let edited = "static int one() { return 1 + 0; }";
        let Some(ReloadOutcome::Recompiled {
            key: k2,
            program,
            methods,
            ..
        }) = cache.reload(&key, edited)
        else {
            panic!("expected recompiled");
        };
        assert_eq!(k2, ProgramCache::key_of(edited, false));
        assert_ne!(k2, key);
        assert_eq!(methods, vec!["<toplevel>.one"]);
        assert!(program.free_method("one").is_ok());
        // Both generations stay resident and servable.
        assert!(cache.lookup(&key).is_some());
        assert!(cache.lookup(&k2).is_some());
        // A broken edit is rejected; the base entry survives.
        let Some(ReloadOutcome::Rejected { diagnostics }) = cache.reload(&key, "static int ((")
        else {
            panic!("expected rejected");
        };
        assert!(!diagnostics.is_empty());
        assert!(cache.lookup(&key).is_some());
        // An unknown base key is a miss.
        assert!(cache.reload("p:0000000000000000", SRC_B).is_none());
    }

    #[test]
    fn compile_failures_are_reported_not_cached() {
        let cache = ProgramCache::new(4);
        let CacheOutcome::Failed(errors) = cache.get_or_compile("static int ((", false) else {
            panic!("expected failure");
        };
        assert!(!errors.is_empty());
        assert!(cache.is_empty());
        assert!(cache
            .lookup(&ProgramCache::key_of("static int ((", false))
            .is_none());
    }
}
