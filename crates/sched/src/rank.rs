//! Ranked locks: lock order by construction.
//!
//! Every lock in `av-engine`, `av-serve` and `av-obs` is one of these thin
//! wrappers over `std::sync::{Mutex, RwLock}`, built with its [`Rank`]. A
//! thread may acquire a lock only while every lock it already holds ranks
//! strictly lower, so two threads can never wait on each other in a cycle,
//! and two locks of one rank (two shards of one table) never nest. Debug
//! builds keep a thread-local set of held ranks and panic on the acquisition
//! that breaks the order, naming both ranks, so every debug test checks every
//! acquisition it executes. Release builds keep no set and no rank: each call
//! is the bare `std` call.
//!
//! Taking a lock never fails. A lock whose holder panicked is recovered, not
//! propagated, because every ranked lock guards state that each critical
//! section leaves whole (see [`Rank`]).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError};

/// A lock's place in the one acquisition order: while holding a lock of
/// rank `r`, a thread may only acquire locks ranked above `r`.
///
/// Two acquisitions nest, both on the re-optimization path under the
/// planner:
///
/// - `Planner → DeploymentCell`: publishing the next epoch swaps the cell
///   while the planner is held. The cell's write lock is taken nowhere else,
///   and readers hold the cell only to clone its `Arc`, taking nothing
///   inside it. A served request takes the read lock only on a slow path:
///   the first read on a thread, or the first after a swap; otherwise it
///   reads its thread's cached handle.
/// - `Planner → CacheShard`: the planner's dry-run cache prices candidates
///   during re-optimization. That cache is owned by the planner, so no
///   other thread reaches its shards, and execution runs outside the shard
///   lock.
///
/// Every other lock is a leaf: taken and released inside one short method
/// that takes no other lock. A crate below `av-serve` cannot call back up
/// into it while holding a guard, so the crate layering is already this
/// order. The leaves are listed in the order a served request meets them.
///
/// Poison is recovered because each guarded state is whole at every step:
/// the planner's catalog and lifecycle are assigned only after a preflight
/// passes, the cell holds one whole `Arc`, the route memo and result cache
/// are pure caches written one whole entry at a time, admission's map only
/// gains whole tenant slots, whose counters are atomics outside the lock.
/// The telemetry state is counters, sketches and rings that each step
/// leaves readable: a panic mid-fold loses at most one request's counts,
/// which must not cost the server its telemetry.
///
/// Known limit: only executed paths are checked, so an inversion on a path
/// no test runs goes unseen. The locks of `av-trace` and
/// `av-cost`'s `EncoderCache` (`av-cost` does not depend on `av-sched`)
/// stay plain `std` and unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `ViewServer.planner`: serializes re-optimization and publication.
    Planner,
    /// `DeploymentCell.current`: the published epoch. A slow path for
    /// requests: they read a thread-cached handle while the epoch holds.
    DeploymentCell,
    /// `AdmissionController.state`: the map of per-tenant slots, and the
    /// lock queued waiters wait under. A slow path for requests: below the
    /// cap with no one queued, acquire and release touch only the slot's
    /// atomic counters.
    AdmissionState,
    /// One shard of `Deployment.route_memo`.
    RouteMemoShard,
    /// One shard of the result cache (`CacheShard.state`).
    CacheShard,
    /// `Obs.state`: the serving telemetry (flight ring, SLO windows,
    /// residuals, request totals, alerts, dumps). The one lock every
    /// served request takes.
    Obs,
}

#[cfg(debug_assertions)]
impl Rank {
    /// Every rank, indexed by its position in the order.
    const ALL: [Rank; 6] = [
        Rank::Planner,
        Rank::DeploymentCell,
        Rank::AdmissionState,
        Rank::RouteMemoShard,
        Rank::CacheShard,
        Rank::Obs,
    ];

    fn bit(self) -> u32 {
        1 << self as u32
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks of the locks this thread holds, one bit per rank.
    static HELD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// A lock's rank, kept only in builds that check it.
#[derive(Clone, Copy)]
struct Order {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Order {
    const fn new(rank: Rank) -> Order {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Order {
            #[cfg(debug_assertions)]
            rank,
        }
    }

    /// Check an acquisition against this thread's held ranks and record it.
    /// Called before blocking on the lock, so a violation panics without
    /// having taken it, at the caller's acquisition site.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    fn enter(self) -> Held {
        #[cfg(debug_assertions)]
        {
            let set = HELD.with(std::cell::Cell::get);
            if set >= self.rank.bit() {
                let top = Rank::ALL[(u32::BITS - 1 - set.leading_zeros()) as usize];
                panic!(
                    "lock order violation: acquiring {:?} while holding {top:?}",
                    self.rank
                );
            }
            HELD.with(|held| held.set(set | self.rank.bit()));
        }
        Held {
            #[cfg(debug_assertions)]
            rank: self.rank,
        }
    }
}

/// This thread holds a lock of one rank; dropping it clears that rank, in
/// whatever order guards are dropped.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() & !self.rank.bit()));
    }
}

/// A held ranked lock: derefs to the guarded value, releases on drop.
pub struct Guard<G> {
    inner: G,
    _held: Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

impl<'a, T> Guard<std::sync::MutexGuard<'a, T>> {
    /// Block on `cv`, releasing the lock while waiting ([`Condvar::wait`]).
    /// The rank stays recorded: this thread acquires nothing while it waits.
    pub fn wait(self, cv: &Condvar) -> Guard<std::sync::MutexGuard<'a, T>> {
        Guard {
            inner: cv.wait(self.inner).unwrap_or_else(PoisonError::into_inner),
            _held: self._held,
        }
    }
}

/// A `std::sync::Mutex` with a [`Rank`].
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    order: Order,
}

impl<T> Mutex<T> {
    pub const fn new(rank: Rank, value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
            order: Order::new(rank),
        }
    }

    /// Block until this thread holds the lock; recovers a poisoned lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> Guard<std::sync::MutexGuard<'_, T>> {
        let held = self.order.enter();
        Guard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Whether a holder panicked (the lock still works).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A `std::sync::RwLock` with a [`Rank`]; readers and writers share it.
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
    order: Order,
}

impl<T> RwLock<T> {
    pub const fn new(rank: Rank, value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
            order: Order::new(rank),
        }
    }

    /// Shared access; recovers a poisoned lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> Guard<std::sync::RwLockReadGuard<'_, T>> {
        let held = self.order.enter();
        Guard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Exclusive access; recovers a poisoned lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> Guard<std::sync::RwLockWriteGuard<'_, T>> {
        let held = self.order.enter();
        Guard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Whether a writer panicked (the lock still works).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "ranked locks are taken on a second thread"
)]
mod tests {
    use super::*;

    /// This thread's held ranks (debug builds only keep them).
    #[cfg(debug_assertions)]
    fn held() -> u32 {
        HELD.with(std::cell::Cell::get)
    }

    #[test]
    fn in_order_nesting_succeeds() {
        let planner = Mutex::new(Rank::Planner, 0);
        let cell = RwLock::new(Rank::DeploymentCell, 1);
        let shard = Mutex::new(Rank::CacheShard, 2);
        let obs = Mutex::new(Rank::Obs, 3);
        let p = planner.lock();
        let c = cell.write();
        let s = shard.lock();
        let l = obs.lock();
        assert_eq!(*p + *c + *s + *l, 6);
        drop((l, s, c));
        assert_eq!(*cell.read(), 1, "a released rank may be taken again");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order violation: acquiring Planner while holding CacheShard")]
    fn out_of_order_nesting_panics() {
        let planner = Mutex::new(Rank::Planner, ());
        let shard = Mutex::new(Rank::CacheShard, ());
        let _s = shard.lock();
        let _p = planner.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "lock order violation: acquiring RouteMemoShard while holding RouteMemoShard"
    )]
    fn same_rank_nesting_panics() {
        let shards = [
            Mutex::new(Rank::RouteMemoShard, ()),
            Mutex::new(Rank::RouteMemoShard, ()),
        ];
        let _one = shards[1].lock();
        let _zero = shards[0].lock();
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_held_set_correct() {
        let planner = Mutex::new(Rank::Planner, ());
        let cell = RwLock::new(Rank::DeploymentCell, ());
        let admission = Mutex::new(Rank::AdmissionState, ());
        let p = planner.lock();
        let c = cell.read();
        let a = admission.lock();
        drop(p);
        #[cfg(debug_assertions)]
        assert_eq!(
            held(),
            Rank::DeploymentCell.bit() | Rank::AdmissionState.bit()
        );
        drop(a);
        #[cfg(debug_assertions)]
        assert_eq!(held(), Rank::DeploymentCell.bit());
        drop(c);
        #[cfg(debug_assertions)]
        assert_eq!(held(), 0);
        // Nothing is held, so the lowest rank is takeable again.
        drop(planner.lock());
    }

    #[test]
    fn condvar_wait_neither_trips_the_check_nor_leaks_a_bit() {
        let planner = Mutex::new(Rank::Planner, ());
        let ready = Mutex::new(Rank::AdmissionState, false);
        let cv = Condvar::new();
        let p = planner.lock();
        std::thread::scope(|s| {
            let mut flag = ready.lock();
            s.spawn(|| {
                *ready.lock() = true;
                cv.notify_all();
            });
            while !*flag {
                flag = flag.wait(&cv);
            }
            #[cfg(debug_assertions)]
            assert_eq!(held(), Rank::Planner.bit() | Rank::AdmissionState.bit());
        });
        #[cfg(debug_assertions)]
        assert_eq!(held(), Rank::Planner.bit());
        drop(p);
        #[cfg(debug_assertions)]
        assert_eq!(held(), 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_do_not_check_the_order() {
        let planner = Mutex::new(Rank::Planner, ());
        let shard = Mutex::new(Rank::CacheShard, ());
        let _s = shard.lock();
        let _p = planner.lock();
    }
}
