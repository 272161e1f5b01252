//! Per-tenant admission control: inflight caps with a bounded wait queue.
//!
//! Serving "millions of users" from one shared snapshot means one hot
//! tenant must not monopolize the server. Each tenant gets a cap on
//! concurrently executing requests; excess arrivals wait in a bounded
//! per-tenant queue (blocking the submitting session — backpressure), and
//! once the queue is full too, further arrivals are rejected outright so
//! the server sheds load instead of accumulating unbounded latency.
//!
//! [`AdmissionController::acquire`] returns an RAII [`Permit`] that borrows
//! the caller's tenant name; dropping it releases the slot and, when that
//! tenant has queued waiters, wakes them. A tenant keeps its entry once
//! seen, so an already-seen tenant's acquire + release allocates nothing,
//! and a release with no one queued makes no wake syscall.

use av_sched::{Mutex, Rank};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Condvar;

/// Per-tenant concurrency policy.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Requests a tenant may have executing at once.
    pub max_inflight_per_tenant: usize,
    /// Requests a tenant may have *waiting* for a slot; arrivals beyond
    /// this are rejected with [`Rejection::QueueFull`].
    pub max_queued_per_tenant: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_per_tenant: 8,
            max_queued_per_tenant: 64,
        }
    }
}

/// Why an arrival was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Inflight cap reached and the wait queue is full.
    QueueFull { tenant: String },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull { tenant } => {
                write!(f, "tenant `{tenant}`: admission queue full")
            }
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TenantState {
    inflight: usize,
    queued: usize,
}

/// Snapshot of one tenant's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    pub inflight: usize,
    pub queued: usize,
}

/// The controller. Thread-safe; share by reference.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// One entry per tenant ever seen, idle ones included: only a tenant's
    /// first request allocates its key. Bounded by the number of distinct
    /// tenants, as `av-obs` keeps one SLO window per tenant.
    state: Mutex<BTreeMap<String, TenantState>>,
    /// Shared by every tenant's waiters; each re-checks its own cap.
    freed: Condvar,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            config,
            state: Mutex::new(Rank::AdmissionState, BTreeMap::new()),
            freed: Condvar::new(),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Admit one request for `tenant`, blocking while the tenant is at its
    /// inflight cap but has queue room. Returns an RAII permit, or
    /// [`Rejection::QueueFull`] when both the cap and the queue are
    /// exhausted. A zero cap grants nothing, so every arrival is shed
    /// rather than queued behind a release that can never come.
    pub fn acquire<'a>(&'a self, tenant: &'a str) -> Result<Permit<'a>, Rejection> {
        let shed = || Rejection::QueueFull {
            tenant: tenant.to_string(),
        };
        let cap = self.config.max_inflight_per_tenant;
        if cap == 0 {
            return Err(shed());
        }
        let mut state = self.state.lock();
        let entry = tenant_entry(&mut state, tenant);
        if entry.inflight < cap {
            entry.inflight += 1;
            return Ok(self.permit(tenant));
        }
        if entry.queued >= self.config.max_queued_per_tenant {
            return Err(shed());
        }
        entry.queued += 1;
        loop {
            state = state.wait(&self.freed);
            let entry = tenant_entry(&mut state, tenant);
            if entry.inflight < cap {
                entry.queued -= 1;
                entry.inflight += 1;
                return Ok(self.permit(tenant));
            }
        }
    }

    /// Current counters for a tenant.
    pub fn load_of(&self, tenant: &str) -> TenantLoad {
        let s = self.state.lock().get(tenant).copied().unwrap_or_default();
        TenantLoad {
            inflight: s.inflight,
            queued: s.queued,
        }
    }

    /// Called at both grant sites (fast path, wait loop), after
    /// the tenant's `inflight` count was bumped under the state lock.
    fn permit<'a>(&'a self, tenant: &'a str) -> Permit<'a> {
        Permit {
            controller: self,
            tenant,
        }
    }

    fn release(&self, tenant: &str) {
        let mut state = self.state.lock();
        let Some(entry) = state.get_mut(tenant) else {
            return;
        };
        entry.inflight = entry.inflight.saturating_sub(1);
        let waiters = entry.queued > 0;
        drop(state);
        // Only this tenant's waiters can use the freed slot, and each
        // incremented `queued` under the lock before waiting, so a release
        // that sees none has no one to wake. Skipping the notify skips the
        // FUTEX_WAKE std's condvar would issue even with no waiter.
        if waiters {
            self.freed.notify_all();
        }
    }
}

/// `tenant`'s entry, inserted (the one allocation) on its first request.
#[allow(
    clippy::expect_used,
    reason = "the entry is inserted just above when missing"
)]
fn tenant_entry<'m>(
    state: &'m mut BTreeMap<String, TenantState>,
    tenant: &str,
) -> &'m mut TenantState {
    if !state.contains_key(tenant) {
        state.insert(tenant.to_string(), TenantState::default());
    }
    state
        .get_mut(tenant)
        .expect("the tenant's entry was just ensured")
}

/// An admitted request's slot; releases on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    controller: &'a AdmissionController,
    tenant: &'a str,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.controller.release(self.tenant);
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the test drives the type from several threads"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn permits_enforce_inflight_cap() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight_per_tenant: 2,
            max_queued_per_tenant: 0,
        });
        let a = ctl.acquire("t").expect("first");
        let _b = ctl.acquire("t").expect("second");
        assert_eq!(ctl.load_of("t").inflight, 2);
        // Cap reached, zero queue: reject.
        assert_eq!(
            ctl.acquire("t").expect_err("third"),
            Rejection::QueueFull { tenant: "t".into() }
        );
        drop(a);
        assert_eq!(ctl.load_of("t").inflight, 1);
        let _c = ctl.acquire("t").expect("slot freed");
    }

    /// A zero cap can never grant a slot, so a queued arrival would wait
    /// for a release that never comes. The request runs on its own thread
    /// so that a wedge fails the test instead of hanging it.
    #[test]
    fn a_zero_inflight_cap_sheds_instead_of_wedging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ctl = AdmissionController::new(AdmissionConfig {
                max_inflight_per_tenant: 0,
                max_queued_per_tenant: 4,
            });
            let outcome = ctl.acquire("t").map(drop);
            tx.send((outcome, ctl.load_of("t")))
                .expect("test thread listens");
        });
        let (outcome, load) = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("acquire returned instead of waiting forever");
        assert_eq!(outcome, Err(Rejection::QueueFull { tenant: "t".into() }));
        assert_eq!(
            load,
            TenantLoad {
                inflight: 0,
                queued: 0
            }
        );
    }

    #[test]
    fn tenants_are_isolated() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight_per_tenant: 1,
            max_queued_per_tenant: 0,
        });
        let _a = ctl.acquire("a").expect("a admitted");
        // `a` being saturated does not affect `b`.
        let _b = ctl.acquire("b").expect("b admitted");
        assert!(ctl.acquire("a").is_err());
        assert_eq!(ctl.load_of("b").inflight, 1);
    }

    /// Hammer the condvar path: many threads, several acquisitions each,
    /// against a tight cap. Tracks the high-water mark of concurrently held
    /// permits with a CAS loop; if the wait loop ever admitted past the cap
    /// (e.g. a woken waiter skipping the re-check), the mark would exceed
    /// it.
    fn hammer(ctl: &AdmissionController) {
        let cap = ctl.config().max_inflight_per_tenant;
        let current = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let _p = ctl.acquire("t").expect("queue has room");
                        let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::hint::black_box(now);
                        current.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 12 * 25, "cap {cap}");
        let peak = high_water.load(Ordering::SeqCst);
        assert!(
            peak <= cap,
            "cap {cap} exceeded: saw {peak} concurrent permits"
        );
        assert!(peak >= 1, "hammer never ran");
        assert_eq!(ctl.load_of("t").inflight, 0, "all permits released");
        assert_eq!(ctl.load_of("t").queued, 0, "no waiter stranded");
    }

    fn queued_controller(cap: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_inflight_per_tenant: cap,
            max_queued_per_tenant: 64,
        })
    }

    /// Cap 1 is mutual exclusion; cap 2 is the smallest cap where two
    /// waiters can race for the same freed slot.
    #[test]
    fn hammer_never_exceeds_inflight_cap() {
        for cap in [1usize, 2] {
            hammer(&queued_controller(cap));
        }
    }

    #[test]
    fn a_panicking_state_holder_does_not_wedge_admission() {
        let ctl = queued_controller(2);
        let held = ctl.acquire("t").expect("admitted before the panic");
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _state = ctl.state.lock();
                panic!("holder dies with the admission state");
            })
            .join()
        });
        assert!(died.is_err() && ctl.state.is_poisoned());
        drop(held);
        assert_eq!(
            ctl.load_of("t"),
            TenantLoad {
                inflight: 0,
                queued: 0
            }
        );
        hammer(&ctl);
    }

    #[test]
    fn queued_waiters_run_eventually() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight_per_tenant: 1,
            max_queued_per_tenant: 16,
        });
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _p = ctl.acquire("t").expect("queue has room");
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(ctl.load_of("t").inflight, 0, "all permits released");
        assert_eq!(ctl.load_of("t").queued, 0);
    }
}
