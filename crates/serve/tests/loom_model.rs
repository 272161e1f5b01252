//! Model checks for the serve layer's concurrency protocols: the epoch
//! swap under concurrent readers of the thread-cached handle, and
//! admission's atomic counters with their queued waiters.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p av-serve --test loom_model --release
//! ```
//!
//! Against the workspace's std-backed loom shim this is a stress test
//! (each model body reruns many times with real threads); against the real
//! loom crate the same sources become exhaustive interleaving checks.

#![cfg(loom)]
#![allow(
    clippy::disallowed_methods,
    reason = "each model runs its protocol on threads"
)]

use av_engine::Catalog;
use av_serve::{AdmissionConfig, AdmissionController, Deployment, DeploymentCell};
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

fn empty_deployment(epoch: u64) -> Deployment {
    Deployment::new(epoch, std::sync::Arc::new(Catalog::new()), Vec::new())
}

/// Reads go through the thread-cached handle (`with_current`). A borrowed
/// snapshot keeps its epoch across a concurrent swap, every read observes
/// exactly one of the published epochs, never going back, and once the
/// reader knows `swap` has returned its next read sees epoch 2.
#[test]
fn deployment_swap_vs_concurrent_readers() {
    loom::model(|| {
        let cell = Arc::new(DeploymentCell::new(empty_deployment(1)));
        let swapped = Arc::new(AtomicBool::new(false));

        let reader = {
            let (cell, swapped) = (cell.clone(), swapped.clone());
            thread::spawn(move || {
                let e1 = cell.with_current(|before| {
                    let e1 = before.epoch();
                    thread::yield_now();
                    // The snapshot is immutable: its epoch cannot move even
                    // if the writer swapped underneath us.
                    assert_eq!(before.epoch(), e1);
                    e1
                });
                let swap_returned = swapped.load(Ordering::SeqCst);
                let e2 = cell.with_current(Deployment::epoch);
                assert!(
                    (e2 == 1 || e2 == 2) && e2 >= e1,
                    "read epoch {e2} after seeing {e1}"
                );
                if swap_returned {
                    assert_eq!(e2, 2, "a read after the swap returned saw epoch 1");
                }
            })
        };
        let writer = {
            let (cell, swapped) = (cell.clone(), swapped.clone());
            thread::spawn(move || {
                let old = cell.swap(std::sync::Arc::new(empty_deployment(2)));
                swapped.store(true, Ordering::SeqCst);
                assert_eq!(old.epoch(), 1, "swap must return the displaced snapshot");
            })
        };

        reader.join().expect("reader");
        writer.join().expect("writer");
        assert_eq!(
            cell.with_current(Deployment::epoch),
            2,
            "the swap must be visible once quiescent"
        );
    });
}

/// Run one request per entry of `tenants`, each on its own thread, against
/// a controller with an inflight cap of 1, so every request after the first
/// of its tenant races the atomic fast path against the queue. Checks that every request ran,
/// that no tenant ever held two permits at once, and that every tenant's
/// counters drained to zero.
fn cap_one_requests(tenants: &'static [&'static str]) {
    let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
        max_inflight_per_tenant: 1,
        max_queued_per_tenant: 4,
    }));
    let ran = Arc::new(AtomicUsize::new(0));
    // Per tenant: permits held right now, and the most ever held at once.
    let held: Arc<Vec<(AtomicUsize, AtomicUsize)>> = Arc::new(
        tenants
            .iter()
            .map(|_| (AtomicUsize::new(0), AtomicUsize::new(0)))
            .collect(),
    );

    let workers: Vec<_> = tenants
        .iter()
        .map(|&tenant| {
            let (ctl, ran, held) = (ctl.clone(), ran.clone(), held.clone());
            let slot = tenants.iter().position(|t| *t == tenant).expect("listed");
            thread::spawn(move || {
                let permit = ctl.acquire(tenant).expect("queue has room");
                let (now, peak) = &held[slot];
                peak.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                thread::yield_now();
                now.fetch_sub(1, Ordering::SeqCst);
                ran.fetch_add(1, Ordering::SeqCst);
                drop(permit);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    assert_eq!(
        ran.load(Ordering::SeqCst),
        tenants.len(),
        "every request must run"
    );
    for (i, tenant) in tenants.iter().enumerate() {
        assert!(
            held[i].1.load(Ordering::SeqCst) <= 1,
            "cap of 1 must serialize tenant {tenant}"
        );
        let load = ctl.load_of(tenant);
        assert_eq!(
            (load.inflight, load.queued),
            (0, 0),
            "{tenant}'s counters must drain"
        );
    }
}

/// With an inflight cap of 1, a release must wake the queued waiter: both
/// requests eventually run, one at a time, and the counters drain to zero.
#[test]
fn admission_release_wakes_queued_waiter() {
    loom::model(|| cap_one_requests(&["tenant", "tenant"]));
}

/// A release wakes waiters only when its own tenant has some queued. Tenant
/// B's request never queues and its release wakes no one, so A's queued
/// waiters must each be woken by an A release.
#[test]
fn admission_wakes_only_the_releasing_tenants_waiters() {
    loom::model(|| cap_one_requests(&["a", "a", "a", "b"]));
}

/// The lost-wakeup window: at cap 1 one request holds the permit while a
/// second enqueues, and the release races the enqueue. Whichever comes
/// first, the waiter must either see the freed slot on its re-check or be
/// woken, and the counters must drain to (0, 0).
#[test]
fn admission_release_races_a_waiters_enqueue() {
    loom::model(|| {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_inflight_per_tenant: 1,
            max_queued_per_tenant: 4,
        }));
        let ran = Arc::new(AtomicUsize::new(0));
        let held = ctl.acquire("t").expect("the first request is admitted");
        let waiter = {
            let (ctl, ran) = (ctl.clone(), ran.clone());
            thread::spawn(move || {
                let permit = ctl.acquire("t").expect("queue has room");
                ran.fetch_add(1, Ordering::SeqCst);
                drop(permit);
            })
        };
        thread::yield_now();
        ran.fetch_add(1, Ordering::SeqCst);
        drop(held);
        waiter.join().expect("waiter");

        assert_eq!(ran.load(Ordering::SeqCst), 2, "every request must run");
        let load = ctl.load_of("t");
        assert_eq!((load.inflight, load.queued), (0, 0), "counters must drain");
    });
}
