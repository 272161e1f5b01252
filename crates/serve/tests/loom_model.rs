//! Model checks for the serve layer's concurrency protocols: the epoch
//! swap under concurrent readers, and admission's queued waiters.
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
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

fn empty_deployment(epoch: u64) -> Deployment {
    Deployment::new(epoch, std::sync::Arc::new(Catalog::new()), Vec::new())
}

/// A reader's handle must keep its epoch across a concurrent swap, and the
/// cell must never expose a torn or intermediate state: every load observes
/// exactly one of the published epochs.
#[test]
fn deployment_swap_vs_concurrent_readers() {
    loom::model(|| {
        let cell = Arc::new(DeploymentCell::new(empty_deployment(1)));

        let reader = {
            let cell = cell.clone();
            thread::spawn(move || {
                let before = cell.load();
                let e1 = before.epoch();
                thread::yield_now();
                // The handle is immutable: its epoch cannot move even if
                // the writer swapped underneath us.
                assert_eq!(before.epoch(), e1);
                let after = cell.load();
                assert!(
                    (after.epoch() == 1 || after.epoch() == 2) && after.epoch() >= e1,
                    "load observed epoch {} after seeing {e1}",
                    after.epoch()
                );
            })
        };
        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                let old = cell.swap(std::sync::Arc::new(empty_deployment(2)));
                assert_eq!(old.epoch(), 1, "swap must return the displaced snapshot");
            })
        };

        reader.join().expect("reader");
        writer.join().expect("writer");
        assert_eq!(cell.epoch(), 2, "the swap must be visible once quiescent");
    });
}

/// Run one request per entry of `tenants`, each on its own thread, against
/// a controller with an inflight cap of 1. Checks that every request ran,
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
