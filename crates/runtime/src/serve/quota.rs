//! Per-tenant work quotas.
//!
//! Every tenant id maps to a [`Limits`] profile plus a windowed atomic step
//! pool (`SharedBudget`): admission **reserves** a request's whole
//! step ceiling from the tenant's pool up front, execution runs under that
//! grant, and settlement returns whatever the enumeration did not use —
//! including when a client disconnects mid-stream, so an abandoned query
//! cannot strand its tenant's budget. Pools refill to their ceiling once
//! per configured window.
//!
//! Fairness across tenants is the scheduler's job (round-robin draining in
//! [`crate::serve::server`]); the quota layer's job is that one tenant's
//! spend can never draw down another's pool.

use crate::Limits;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A tenant's quota profile.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Per-request work ceilings (requests may lower, never raise them).
    pub limits: Limits,
    /// Solver steps the tenant may spend per window.
    pub steps_per_window: u64,
    /// How often the step pool refills to its ceiling.
    pub window: Duration,
    /// Step-equivalent price of one compile drawn from the same pool
    /// (charged only when the source actually compiles; cache hits
    /// refund). `0` leaves compiles unmetered.
    pub compile_steps: u64,
}

impl Default for QuotaConfig {
    /// One million steps a second per tenant, default engine limits —
    /// roomy for interactive use, finite for runaways. Compiles are
    /// unmetered by default (they run inline on connection readers, which
    /// the server's connection cap bounds); set `compile_steps` to price
    /// them into the tenant pool.
    fn default() -> Self {
        QuotaConfig {
            limits: Limits {
                max_depth: Limits::default().max_depth,
                max_steps: 1_000_000,
            },
            steps_per_window: 10_000_000,
            window: Duration::from_secs(1),
            compile_steps: 0,
        }
    }
}

/// A tenant's atomic step pool: admission takes a request's reservation
/// from it, settlement and dropped grants give the unspent part back, and
/// each window refills it.
#[derive(Debug)]
struct SharedBudget {
    remaining: AtomicU64,
    /// The configured ceiling: steps per window.
    ceiling: u64,
}

impl SharedBudget {
    fn new(ceiling: u64) -> Self {
        SharedBudget {
            remaining: AtomicU64::new(ceiling),
            ceiling,
        }
    }

    /// Takes up to `want` steps from the pool; returns how many were
    /// actually granted (0 when the pool is empty).
    fn take(&self, want: u64) -> u64 {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                if r == 0 {
                    None
                } else {
                    Some(r - r.min(want))
                }
            })
            .map(|r| r.min(want))
            .unwrap_or(0)
    }

    /// Returns unspent steps to the pool.
    fn give(&self, n: u64) {
        if n > 0 {
            self.remaining.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Steps currently left in the pool (racy snapshot; exact only when no
    /// request is drawing concurrently).
    fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Resets the pool to `n` steps, clamped to the ceiling (the window
    /// refill, which discounts reservations still in flight so their later
    /// refunds cannot push the pool past its ceiling).
    fn refill_to(&self, n: u64) {
        self.remaining.store(n.min(self.ceiling), Ordering::Relaxed);
    }
}

/// One tenant's live accounting.
#[derive(Debug)]
struct TenantState {
    config: QuotaConfig,
    pool: SharedBudget,
    window_start: Mutex<Instant>,
    /// Steps reserved by grants that have not settled or dropped yet.
    /// Window refills subtract this from the ceiling, so a grant held
    /// across a window boundary cannot refund on top of a full pool and
    /// bank budget beyond the per-window quota.
    outstanding: AtomicU64,
    /// Steps actually consumed over the tenant's lifetime (metrics).
    spent: AtomicU64,
    /// Steps ever reserved by admission, cumulatively. With `refunded`
    /// this pins the conservation invariant the chaos suite checks:
    /// `reserved == spent + refunded` whenever `outstanding == 0` — every
    /// grant settles or refunds exactly once, panics and disconnects
    /// included.
    reserved: AtomicU64,
    /// Steps ever handed back — settlement remainders plus whole dropped
    /// grants — cumulatively.
    refunded: AtomicU64,
}

/// Why admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaDenied {
    /// Milliseconds until the tenant's pool refills.
    pub retry_after_ms: u64,
}

/// An admitted request's step reservation. Settle it with the steps the
/// enumeration actually spent; dropping it unsettled refunds the whole
/// grant (the disconnect/cancel path).
#[derive(Debug)]
pub struct Grant {
    state: Arc<TenantStateHandle>,
    granted: u64,
    settled: bool,
}

/// Newtype so [`Grant`] can hold the tenant state without exposing it.
#[derive(Debug)]
pub struct TenantStateHandle(TenantState);

impl Grant {
    /// The steps this grant reserved.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Returns the unused part of the reservation to the tenant pool and
    /// records the spend. `used` is clamped to the grant.
    pub fn settle(mut self, used: u64) {
        let used = used.min(self.granted);
        // Refund before releasing the reservation: a window refill that
        // interleaves sees either the refund (and overwrites it) or the
        // still-held reservation (and discounts it) — never a pool above
        // its ceiling.
        self.state.0.pool.give(self.granted - used);
        self.state
            .0
            .outstanding
            .fetch_sub(self.granted, Ordering::Relaxed);
        self.state.0.spent.fetch_add(used, Ordering::Relaxed);
        self.state
            .0
            .refunded
            .fetch_add(self.granted - used, Ordering::Relaxed);
        self.settled = true;
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        if !self.settled {
            // Never settled: the request died before (or instead of)
            // running — a disconnect, a cancel at pickup, or a panic
            // unwinding through the worker — hand the whole reservation
            // back.
            self.state.0.pool.give(self.granted);
            self.state
                .0
                .outstanding
                .fetch_sub(self.granted, Ordering::Relaxed);
            self.state
                .0
                .refunded
                .fetch_add(self.granted, Ordering::Relaxed);
        }
    }
}

/// Point-in-time view of one tenant, for metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant id.
    pub tenant: String,
    /// Steps left in the current window's pool.
    pub pool_remaining: u64,
    /// The pool's per-window ceiling.
    pub pool_ceiling: u64,
    /// Steps consumed over the tenant's lifetime.
    pub spent: u64,
    /// Steps ever reserved by admission, cumulatively.
    pub reserved: u64,
    /// Steps ever handed back (settlement remainders + dropped grants),
    /// cumulatively.
    pub refunded: u64,
    /// Steps reserved by grants still in flight. When this is zero,
    /// `reserved == spent + refunded` — the settle-or-refund-exactly-once
    /// conservation invariant.
    pub outstanding: u64,
}

/// The tenant registry: id → quota state, created on first sight.
#[derive(Debug)]
pub struct TenantQuotas {
    default_config: QuotaConfig,
    overrides: Mutex<HashMap<String, QuotaConfig>>,
    tenants: Mutex<HashMap<String, Arc<TenantStateHandle>>>,
}

impl TenantQuotas {
    /// A registry handing every new tenant `default_config`.
    pub fn new(default_config: QuotaConfig) -> Self {
        TenantQuotas {
            default_config,
            overrides: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Pins a per-tenant profile (takes effect when the tenant is next
    /// created; existing state is replaced).
    pub fn set_tenant_config(&self, tenant: &str, config: QuotaConfig) {
        self.overrides
            .lock()
            .expect("quota overrides poisoned")
            .insert(tenant.to_owned(), config);
        self.tenants
            .lock()
            .expect("quota registry poisoned")
            .remove(tenant);
    }

    fn state(&self, tenant: &str) -> Arc<TenantStateHandle> {
        let mut tenants = self.tenants.lock().expect("quota registry poisoned");
        if let Some(state) = tenants.get(tenant) {
            return Arc::clone(state);
        }
        let config = self
            .overrides
            .lock()
            .expect("quota overrides poisoned")
            .get(tenant)
            .copied()
            .unwrap_or(self.default_config);
        let state = Arc::new(TenantStateHandle(TenantState {
            config,
            pool: SharedBudget::new(config.steps_per_window),
            window_start: Mutex::new(Instant::now()),
            outstanding: AtomicU64::new(0),
            spent: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            refunded: AtomicU64::new(0),
        }));
        tenants.insert(tenant.to_owned(), Arc::clone(&state));
        state
    }

    /// The tenant's per-request limits profile.
    pub fn limits_of(&self, tenant: &str) -> Limits {
        self.state(tenant).0.config.limits
    }

    /// Admits a request that wants to reserve `want` steps. Refills the
    /// window first when it has elapsed; partial grants are returned
    /// whole-or-nothing is deliberately *not* the policy — a nearly-empty
    /// pool still admits a (smaller) grant, and the enumeration hits
    /// `limit-exceeded` if it outruns it.
    pub fn admit(&self, tenant: &str, want: u64) -> Result<Grant, QuotaDenied> {
        let state = self.state(tenant);
        let inner = &state.0;
        let granted = {
            let mut start = inner.window_start.lock().expect("quota window poisoned");
            if start.elapsed() >= inner.config.window {
                *start = Instant::now();
                // Refill to the ceiling *minus* reservations still in
                // flight: their later refunds land on top of whatever we
                // store here, so refilling to the full ceiling would let
                // a grant held across the boundary bank budget beyond
                // the per-window quota.
                let outstanding = inner.outstanding.load(Ordering::Relaxed);
                inner
                    .pool
                    .refill_to(inner.pool.ceiling.saturating_sub(outstanding));
            }
            // Take and reserve under the window lock, so a concurrent
            // refill always sees a consistent (pool, outstanding) pair.
            let granted = inner.pool.take(want.max(1));
            inner.outstanding.fetch_add(granted, Ordering::Relaxed);
            inner.reserved.fetch_add(granted, Ordering::Relaxed);
            granted
        };
        if granted == 0 {
            let start = inner.window_start.lock().expect("quota window poisoned");
            let elapsed = start.elapsed();
            let retry = inner.config.window.saturating_sub(elapsed);
            return Err(QuotaDenied {
                retry_after_ms: (retry.as_millis() as u64).max(1),
            });
        }
        Ok(Grant {
            state,
            granted,
            settled: false,
        })
    }

    /// Admits a compile for `tenant` under its `compile_steps` price.
    /// Returns `Ok(None)` when the tenant's profile leaves compiles
    /// unmetered; otherwise reserves the price from the step pool like
    /// any other request (the caller settles the grant at zero on a
    /// cache hit, refunding it).
    pub fn admit_compile(&self, tenant: &str) -> Result<Option<Grant>, QuotaDenied> {
        let cost = self.state(tenant).0.config.compile_steps;
        if cost == 0 {
            return Ok(None);
        }
        self.admit(tenant, cost).map(Some)
    }

    /// Snapshots every tenant seen so far, sorted by id.
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let tenants = self.tenants.lock().expect("quota registry poisoned");
        let mut out: Vec<TenantSnapshot> = tenants
            .iter()
            .map(|(id, state)| TenantSnapshot {
                tenant: id.clone(),
                pool_remaining: state.0.pool.remaining(),
                pool_ceiling: state.0.pool.ceiling,
                spent: state.0.spent.load(Ordering::Relaxed),
                reserved: state.0.reserved.load(Ordering::Relaxed),
                refunded: state.0.refunded.load(Ordering::Relaxed),
                outstanding: state.0.outstanding.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(steps: u64, window_ms: u64) -> QuotaConfig {
        QuotaConfig {
            steps_per_window: steps,
            window: Duration::from_millis(window_ms),
            ..QuotaConfig::default()
        }
    }

    #[test]
    fn grants_reserve_and_settlement_refunds() {
        let quotas = TenantQuotas::new(config(1_000, 60_000));
        let grant = quotas.admit("t1", 600).unwrap();
        assert_eq!(grant.granted(), 600);
        assert_eq!(quotas.snapshot()[0].pool_remaining, 400);
        grant.settle(100);
        let snap = &quotas.snapshot()[0];
        assert_eq!(snap.pool_remaining, 900);
        assert_eq!(snap.spent, 100);
    }

    #[test]
    fn dropped_grants_refund_everything() {
        let quotas = TenantQuotas::new(config(1_000, 60_000));
        drop(quotas.admit("t1", 750).unwrap());
        assert_eq!(quotas.snapshot()[0].pool_remaining, 1_000);
        assert_eq!(quotas.snapshot()[0].spent, 0);
    }

    #[test]
    fn exhaustion_denies_with_retry_and_is_per_tenant() {
        let quotas = TenantQuotas::new(config(100, 60_000));
        let g = quotas.admit("hot", 100).unwrap();
        let denied = quotas.admit("hot", 1).unwrap_err();
        assert!(denied.retry_after_ms > 0);
        // Another tenant's pool is untouched.
        assert!(quotas.admit("cold", 50).is_ok());
        g.settle(100);
        assert_eq!(quotas.snapshot()[1].pool_remaining, 0);
    }

    #[test]
    fn windows_refill_the_pool() {
        let quotas = TenantQuotas::new(config(100, 30));
        quotas.admit("t", 100).unwrap().settle(100);
        assert!(quotas.admit("t", 1).is_err());
        std::thread::sleep(Duration::from_millis(40));
        let grant = quotas.admit("t", 100).unwrap();
        assert_eq!(grant.granted(), 100);
    }

    #[test]
    fn refills_discount_outstanding_grants() {
        let quotas = TenantQuotas::new(config(1_000, 30));
        // Reserve 600, hold the grant across the window boundary.
        let held = quotas.admit("t", 600).unwrap();
        assert_eq!(quotas.snapshot()[0].pool_remaining, 400);
        std::thread::sleep(Duration::from_millis(40));
        // The rolled-over window refills to ceiling − outstanding (400),
        // of which this admission takes 1.
        let fresh = quotas.admit("t", 1).unwrap();
        assert_eq!(quotas.snapshot()[0].pool_remaining, 399);
        // The held grant's refund lands on top of the discounted pool —
        // never past the ceiling.
        held.settle(0);
        drop(fresh);
        let snap = &quotas.snapshot()[0];
        assert_eq!(snap.pool_remaining, 1_000);
        assert!(snap.pool_remaining <= snap.pool_ceiling);
    }

    #[test]
    fn compile_admission_prices_compiles_when_configured() {
        // Unmetered by default.
        let free = TenantQuotas::new(config(1_000, 60_000));
        assert!(free.admit_compile("t").unwrap().is_none());

        let quotas = TenantQuotas::new(QuotaConfig {
            compile_steps: 100,
            ..config(150, 60_000)
        });
        // First compile reserves the full price...
        let g1 = quotas.admit_compile("t").unwrap().expect("metered");
        assert_eq!(g1.granted(), 100);
        g1.settle(100);
        // ...the second gets the partial remainder...
        let g2 = quotas.admit_compile("t").unwrap().expect("metered");
        assert_eq!(g2.granted(), 50);
        // ...a cache hit settles at zero and refunds...
        g2.settle(0);
        assert_eq!(quotas.snapshot()[0].pool_remaining, 50);
        // ...and an empty pool denies with a retry hint.
        quotas
            .admit_compile("t")
            .unwrap()
            .expect("metered")
            .settle(50);
        let denied = quotas.admit_compile("t").unwrap_err();
        assert!(denied.retry_after_ms > 0);
    }

    #[test]
    fn partial_grants_drain_the_tail_of_a_pool() {
        let quotas = TenantQuotas::new(config(100, 60_000));
        let g1 = quotas.admit("t", 80).unwrap();
        let g2 = quotas.admit("t", 80).unwrap();
        assert_eq!((g1.granted(), g2.granted()), (80, 20));
    }

    #[test]
    fn conservation_holds_across_settle_drop_and_panic() {
        let quotas = TenantQuotas::new(config(10_000, 60_000));
        // Settled grants: remainder counts as refund.
        quotas.admit("t", 600).unwrap().settle(100);
        // Dropped grants: the whole reservation counts as refund.
        drop(quotas.admit("t", 300).unwrap());
        // Grants dropped by a panic's unwind count the same way.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _grant = quotas.admit("t", 200).unwrap();
            panic!("request died mid-run");
        }));
        let snap = &quotas.snapshot()[0];
        assert_eq!(snap.outstanding, 0);
        assert_eq!(snap.reserved, 1_100);
        assert_eq!(snap.spent, 100);
        assert_eq!(snap.refunded, 1_000);
        assert_eq!(snap.reserved, snap.spent + snap.refunded);
    }

    #[test]
    fn snapshots_expose_in_flight_reservations() {
        let quotas = TenantQuotas::new(config(1_000, 60_000));
        let held = quotas.admit("t", 400).unwrap();
        let snap = &quotas.snapshot()[0];
        assert_eq!(snap.outstanding, 400);
        assert_eq!(snap.reserved, 400);
        assert_eq!(snap.spent + snap.refunded, 0);
        held.settle(400);
        let snap = &quotas.snapshot()[0];
        assert_eq!(snap.outstanding, 0);
        assert_eq!(snap.reserved, snap.spent + snap.refunded);
    }

    #[test]
    fn per_tenant_overrides_apply() {
        let quotas = TenantQuotas::new(config(1_000, 60_000));
        quotas.set_tenant_config("small", config(10, 60_000));
        let g = quotas.admit("small", 500).unwrap();
        assert_eq!(g.granted(), 10);
        assert_eq!(quotas.limits_of("small").max_steps, 1_000_000);
    }
}
