//! A warm request allocates nothing.
//!
//! A counting global allocator tallies the allocations each thread makes.
//! Admission for a tenant it has seen before allocates nothing, also on a
//! thread that alternates between two such tenants, and a warm cache-hit
//! `execute` allocates nothing at all: the permit, the snapshot load, the
//! route memo and the telemetry record add none, and the response shares
//! the cache entry's batch instead of copying it.

#![allow(
    unsafe_code,
    reason = "the counting global allocator forwards to System"
)]

use av_cost::OptimizerEstimator;
use av_online::LifecycleConfig;
use av_serve::{AdmissionConfig, AdmissionController, ServeConfig, ViewServer};
use av_workload::cloud::mini;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's own
// arguments; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn admission_of_a_seen_tenant_allocates_nothing() {
    let ctl = AdmissionController::new(AdmissionConfig::default());
    drop(ctl.acquire("t").expect("first request admitted"));
    for _ in 0..3 {
        let ((), n) = counted(|| drop(ctl.acquire("t").expect("admitted")));
        assert_eq!(n, 0, "acquire + release of a seen tenant allocated");
    }
}

/// A thread caches one tenant's slot; switching tenants swaps the cached
/// slot for the seen tenant's own, which must not allocate either.
#[test]
fn a_thread_alternating_two_seen_tenants_allocates_nothing() {
    let ctl = AdmissionController::new(AdmissionConfig::default());
    for tenant in ["a", "tenant-b"] {
        drop(ctl.acquire(tenant).expect("first request admitted"));
    }
    for _ in 0..3 {
        for tenant in ["a", "tenant-b"] {
            let ((), n) = counted(|| drop(ctl.acquire(tenant).expect("admitted")));
            assert_eq!(n, 0, "acquire + release of seen tenant {tenant} allocated");
        }
    }
}

/// Telemetry keeps bounded rings that grow by doubling until full, so a
/// warm request can occasionally pay one amortized growth step; each plan
/// is timed a few times and its cheapest request compared.
#[test]
fn a_warm_cache_hit_allocates_nothing() {
    let w = mini(79);
    let plans = w.plans();
    let server = ViewServer::new(
        w.catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            ..ServeConfig::default()
        },
    );
    server.reoptimize(&plans, None).expect("reoptimizes");
    for p in &plans {
        server.execute("t", p).expect("cold request");
    }
    let mut routed = 0;
    for p in &plans {
        let (resp, request) = (0..4)
            .map(|_| counted(|| server.execute("t", p).expect("warm request")))
            .min_by_key(|(_, n)| *n)
            .expect("four requests ran");
        assert_eq!(
            request, 0,
            "a warm hit allocated ({} rewrite hits)",
            resp.rewrite_hits
        );
        routed += usize::from(resp.rewrite_hits > 0);
    }
    assert!(routed > 0, "some warm requests go through a view");
}
