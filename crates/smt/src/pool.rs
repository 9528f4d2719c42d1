//! A tiny scoped worker pool for sharding independent solver workloads.
//!
//! Verification of distinct methods is embarrassingly parallel: each method
//! owns its solver session, so the only coordination needed is handing out
//! work items and putting the results back in input order (scoped
//! threads, an atomic next-index dispenser, slot-per-item result storage).
//! This module is also the **one place** worker-count configuration lives:
//!
//! * [`configured_threads`] reads `JMATCH_PAR_THREADS` — the variable the
//!   CI parallel-stress matrix pins — and falls back to the machine's
//!   available parallelism;
//! * [`map_ordered`] runs a closure over every item on up to `threads`
//!   workers and returns the results **in input order**, so callers get
//!   deterministic output (identical at any worker count) by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable that pins the worker count of the verify
/// workers (this pool), the workspace's only pool.
pub const THREADS_ENV: &str = "JMATCH_PAR_THREADS";

/// The worker count to use when a caller passes `0` ("configured"):
/// `JMATCH_PAR_THREADS` when set to a positive integer, otherwise the
/// machine's available parallelism, otherwise 1.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => fallback_threads(),
        },
        Err(_) => fallback_threads(),
    }
}

fn fallback_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` scoped workers
/// (`0` = [`configured_threads`]) and returns the results in input order.
///
/// `f` receives the item's input index alongside the item, so workers can
/// produce position-tagged results without the caller re-sorting. Items are
/// dispensed through an atomic counter — idle workers pull the next
/// unclaimed index — and each result lands in its own slot, so the output
/// order (and therefore anything the caller derives from it, like
/// concatenated diagnostics) is identical at any worker count.
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = if threads == 0 {
        configured_threads()
    } else {
        threads
    }
    .min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each input index is dispensed exactly once");
                let r = f(i, item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_preserves_input_order() {
        for threads in [1, 2, 8] {
            let out = map_ordered((0..100).collect::<Vec<i32>>(), threads, |i, x| {
                assert_eq!(i as i32, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn map_ordered_handles_empty_and_oversized_pools() {
        let out: Vec<i32> = map_ordered(Vec::<i32>::new(), 8, |_, x| x);
        assert!(out.is_empty());
        let out = map_ordered(vec![7], 64, |_, x: i32| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
