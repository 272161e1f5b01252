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
//! tenant has queued waiters, wakes them.
//!
//! Each tenant's counters are one shared `TenantSlot` of two atomics,
//! `inflight` and `queued`, kept once seen. A thread caches the last slot
//! it used (with its controller's id), so below the cap a seen tenant's
//! acquire is one compare-and-swap on `inflight` and its release one
//! `fetch_sub` plus one load of `queued`: no lock, no allocation, no wake.
//! A cache miss for a seen tenant takes the state mutex to find the slot
//! and clones its `Arc`, which allocates nothing either. The mutex and
//! condvar are used only at the cap, or by a release that sees `queued > 0`.
//!
//! **No lost wakeup.** A waiter bumps `queued` under the state mutex and
//! then re-checks `inflight`, still under the mutex, before it waits (which
//! releases the mutex atomically). A releaser decrements `inflight`, then
//! loads `queued`. All four operations are `SeqCst`, so they fall in one
//! total order. If the releaser's load comes before the waiter's bump, its
//! decrement comes before the waiter's re-check too, and the waiter sees
//! the freed slot (or a request that took it, whose own release is then
//! the one that must wake the waiter, by the same argument). Otherwise the
//! releaser sees `queued > 0` and takes the mutex to notify; it can only
//! get the mutex once the waiter has either taken a slot or started
//! waiting, so the notify cannot fall between the waiter's check and its
//! wait.

use av_sched::{Mutex, Rank};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};

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

/// One tenant's counters, shared by every thread serving it.
#[derive(Debug)]
struct TenantSlot {
    tenant: String,
    /// Permits held. Changed by CAS below the cap, never past it.
    inflight: AtomicUsize,
    /// Requests waiting for a permit. Changed only under the state mutex.
    queued: AtomicUsize,
}

impl TenantSlot {
    /// Take a permit if the tenant is below `cap`.
    fn try_take(&self, cap: usize) -> bool {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }
}

/// Snapshot of one tenant's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    pub inflight: usize,
    pub queued: usize,
}

/// Source of controller ids, unique for the life of the process, so a
/// thread's cached slot is never taken for another controller's.
static NEXT_CONTROLLER_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The last tenant slot this thread used, with its controller's id. An
    /// idle thread keeps one slot (a few dozen bytes) alive.
    static SLOT: RefCell<Option<(u64, Arc<TenantSlot>)>> = const { RefCell::new(None) };
}

/// The controller. Thread-safe; share by reference.
#[derive(Debug)]
pub struct AdmissionController {
    id: u64,
    config: AdmissionConfig,
    /// One slot per tenant ever seen, idle ones included: only a tenant's
    /// first request allocates. Bounded by the number of distinct tenants,
    /// as `av-obs` keeps one SLO window per tenant. Also the mutex waiters
    /// and notifying releasers synchronize on.
    state: Mutex<BTreeMap<String, Arc<TenantSlot>>>,
    /// Shared by every tenant's waiters; each re-checks its own cap.
    freed: Condvar,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            id: NEXT_CONTROLLER_ID.fetch_add(1, Ordering::Relaxed),
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
        let cap = self.config.max_inflight_per_tenant;
        let admitted = cap > 0 && self.with_slot(tenant, |slot| self.admit(slot, cap));
        if !admitted {
            return Err(Rejection::QueueFull {
                tenant: tenant.to_string(),
            });
        }
        Ok(Permit {
            controller: self,
            tenant,
        })
    }

    /// Take a permit on `slot`: the CAS below the cap, else wait in the
    /// queue under the state mutex (see the module doc for why no release
    /// is missed). False when the queue is full.
    fn admit(&self, slot: &TenantSlot, cap: usize) -> bool {
        if slot.try_take(cap) {
            return true;
        }
        let mut state = self.state.lock();
        if slot.try_take(cap) {
            return true;
        }
        if slot.queued.load(Ordering::SeqCst) >= self.config.max_queued_per_tenant {
            return false;
        }
        slot.queued.fetch_add(1, Ordering::SeqCst);
        while !slot.try_take(cap) {
            state = state.wait(&self.freed);
        }
        slot.queued.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Current counters for a tenant.
    pub fn load_of(&self, tenant: &str) -> TenantLoad {
        self.state.lock().get(tenant).map_or(
            TenantLoad {
                inflight: 0,
                queued: 0,
            },
            |s| TenantLoad {
                inflight: s.inflight.load(Ordering::SeqCst),
                queued: s.queued.load(Ordering::SeqCst),
            },
        )
    }

    /// Run `op` on `tenant`'s slot: this thread's cached one if it is
    /// `tenant`'s on this controller, else the one in the map (inserted on
    /// the tenant's first request), which then becomes the cached one.
    fn with_slot<R>(&self, tenant: &str, op: impl Fn(&TenantSlot) -> R) -> R {
        let cached = SLOT.try_with(|cache| {
            let mut cache = cache.try_borrow_mut().ok()?;
            match &*cache {
                Some((id, slot)) if *id == self.id && slot.tenant == tenant => {}
                _ => *cache = Some((self.id, self.slot(tenant))),
            }
            cache.as_ref().map(|(_, slot)| op(slot))
        });
        match cached {
            Ok(Some(out)) => out,
            _ => op(&self.slot(tenant)),
        }
    }

    /// `tenant`'s slot from the map, inserted (the one allocation) on its
    /// first request.
    fn slot(&self, tenant: &str) -> Arc<TenantSlot> {
        let mut state = self.state.lock();
        if let Some(slot) = state.get(tenant) {
            return slot.clone();
        }
        let slot = Arc::new(TenantSlot {
            tenant: tenant.to_string(),
            inflight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
        });
        state.insert(tenant.to_string(), slot.clone());
        slot
    }

    fn release(&self, tenant: &str) {
        let waiters = self.with_slot(tenant, |slot| {
            slot.inflight.fetch_sub(1, Ordering::SeqCst);
            slot.queued.load(Ordering::SeqCst) > 0
        });
        // Only this tenant's waiters can use the freed slot, so a release
        // that sees none queued has no one to wake and skips the mutex and
        // the FUTEX_WAKE std's condvar would issue even with no waiter.
        if waiters {
            let _state = self.state.lock();
            self.freed.notify_all();
        }
    }
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
