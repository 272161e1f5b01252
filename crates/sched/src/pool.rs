//! The work-stealing morsel pool.
//!
//! One process-wide set of persistent workers replaces per-query
//! `std::thread::scope` fan-outs. A submitted *job* is a closure over task
//! indices `0..total`; indices are claimed from a single atomic counter, so
//! which thread runs which index is racy, but **what** each index computes
//! and **how results are folded** (by index, on the caller) is not — that is
//! the entire determinism contract.
//!
//! Scheduling shape: each worker owns a deque; submission pushes one
//! *ticket* per helper round-robin across the deques and wakes parked
//! workers. A worker pops from the back of its own deque (LIFO, cache-warm),
//! then drains the shared injector, then steals from the front of a sibling
//! deque (FIFO, oldest first). A ticket is not a task: it is an invitation
//! to drain the job's claim counter until empty, so a stale ticket for a
//! finished job costs one atomic load. The submitting thread always
//! participates in its own job and blocks on a completion latch — workers
//! being busy can delay a job but never deadlock it.

use crate::rank::{Mutex, Rank};
use crate::task::ErasedTask;
use av_trace::sketch::{bucket_index, BUCKETS};
use av_trace::{Clock, MonotonicClock, QuantileSketch};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

/// One submitted job: an erased closure plus the claim/completion counters.
struct Job {
    task: ErasedTask,
    /// Next task index to claim. May overshoot `total`; claims at or past
    /// `total` are no-ops.
    next: AtomicUsize,
    /// Completed task count; the job is done when this reaches `total`.
    done: AtomicUsize,
    total: usize,
    /// Set if any task body panicked; the submitter re-panics after the
    /// latch trips so the failure is not swallowed.
    panicked: AtomicBool,
    finished: Mutex<bool>,
    latch: Condvar,
}

impl Job {
    /// Claim and run task indices until the counter is exhausted. Returns
    /// how many tasks this thread executed. Panics in task bodies are
    /// caught and recorded so `done` still reaches `total` — otherwise the
    /// submitter (whose stack owns the closure) could unblock while a
    /// sibling still runs, or never unblock at all.
    fn drain(&self) -> usize {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.total {
                break;
            }
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.task.call(i)));
            if outcome.is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            ran += 1;
            if self.done.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
                let mut fin = self.finished.lock();
                *fin = true;
                self.latch.notify_all();
            }
        }
        ran
    }
}

/// Point-in-time scheduler telemetry, exported through av-trace metrics and
/// the Prometheus endpoint by the serving layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Persistent worker threads owned by the pool.
    pub workers: usize,
    /// Tickets currently queued (injector + all deques).
    pub queue_depth: usize,
    /// Workers currently draining a job.
    pub active_workers: usize,
    /// Tickets taken from a sibling worker's deque.
    pub steals: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Tasks (morsels) executed, across workers and submitters.
    pub tasks: u64,
    /// Nanoseconds spent draining jobs, across workers and submitters.
    pub busy_nanos: u64,
    /// Median per-drain latency (quantile-sketch estimate), nanos.
    pub drain_nanos_p50: u64,
    /// p95 per-drain latency estimate, nanos.
    pub drain_nanos_p95: u64,
}

struct Inner {
    /// One deque per worker; `Mutex<VecDeque>` because tickets are coarse
    /// (one per helper, not one per morsel) so contention is negligible.
    deques: Vec<Mutex<VecDeque<Arc<Job>>>>,
    /// Overflow queue drained by any worker when its own deque is empty.
    injector: Mutex<VecDeque<Arc<Job>>>,
    park: Mutex<()>,
    wake: Condvar,
    /// Tickets in `deques` + `injector`; parking gate.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Round-robin cursor for spreading a job's tickets across deques.
    rr: AtomicUsize,
    started: Mutex<Vec<std::thread::JoinHandle<()>>>,
    steals: AtomicU64,
    jobs: AtomicU64,
    tasks: AtomicU64,
    active: AtomicUsize,
    busy_nanos: AtomicU64,
    /// Drain latencies (nanos) as bare sketch counters: bumped lock-free
    /// at [`bucket_index`], read back as a [`QuantileSketch`] in `stats`.
    lat: Box<[AtomicU64]>,
    clock: MonotonicClock,
}

impl Inner {
    /// Pop local (LIFO), else injector, else steal (FIFO) from siblings.
    fn find_work(&self, me: usize) -> Option<Arc<Job>> {
        if let Some(job) = self.deques[me].lock().pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(job) = self.deques[victim].lock().pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    /// Time one drain and fold it into the busy/latency counters.
    fn timed_drain(&self, job: &Job) {
        let t0 = self.clock.now_nanos();
        let ran = job.drain();
        if ran > 0 {
            let dt = self.clock.now_nanos().saturating_sub(t0);
            self.tasks.fetch_add(ran as u64, Ordering::SeqCst);
            self.busy_nanos.fetch_add(dt, Ordering::SeqCst);
            self.lat[bucket_index(dt as f64)].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(job) = self.find_work(me) {
                self.active.fetch_add(1, Ordering::SeqCst);
                self.timed_drain(&job);
                self.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            // Park until a submitter posts tickets. `queued` is re-checked
            // under the park lock and submitters bump it *before* taking
            // the lock to notify, so a wakeup can never be lost.
            let guard = self.park.lock();
            if self.queued.load(Ordering::SeqCst) == 0 && !self.shutdown.load(Ordering::SeqCst) {
                drop(guard.wait(&self.wake));
            }
        }
    }
}

/// A morsel scheduler with a fixed worker count. Use [`Pool::global`] for
/// the process-wide instance; dedicated instances are for tests.
pub struct Pool {
    inner: Arc<Inner>,
    workers: usize,
}

/// Default worker count for the global pool: one per available core, capped
/// to bound stealing fan-out on very wide machines.
pub fn default_workers() -> usize {
    // Cached: `available_parallelism` is a syscall (`sched_getaffinity`),
    // and every default-policy executor reads this census when it is
    // built.
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

/// The process-wide pool, created (but not yet started) on first use.
/// Worker threads spawn lazily on the first job submission.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_workers()))
}

impl Pool {
    /// A pool with `workers` persistent threads (minimum 1). Threads are
    /// not spawned until the first [`Pool::run`] that needs helpers.
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            deques: (0..workers)
                .map(|_| Mutex::new(Rank::PoolDeque, VecDeque::new()))
                .collect(),
            injector: Mutex::new(Rank::PoolInjector, VecDeque::new()),
            park: Mutex::new(Rank::PoolPark, ()),
            wake: Condvar::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            started: Mutex::new(Rank::PoolStarted, Vec::new()),
            steals: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            busy_nanos: AtomicU64::new(0),
            lat: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            clock: MonotonicClock::new(),
        });
        Pool { inner, workers }
    }

    /// Persistent worker threads owned by this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn ensure_started(&self) {
        let mut handles = self.inner.started.lock();
        if !handles.is_empty() {
            return;
        }
        for w in 0..self.workers {
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("av-sched-{w}"))
                .spawn(move || inner.worker_loop(w))
                .expect("spawn pool worker");
            handles.push(handle);
        }
    }

    /// Run `total` tasks with up to `dop` participating threads (including
    /// the caller) and block until every task has executed exactly once.
    ///
    /// `f(i)` is invoked once per index in `0..total`; indices are claimed
    /// from one atomic counter so assignment is racy but coverage is exact.
    /// With `dop <= 1` (or a single task) everything runs inline on the
    /// caller in ascending order — byte-for-byte the serial path.
    ///
    /// Panics in `f` are re-raised on the caller *after* all tasks finish,
    /// preserving the borrow-validity invariant of [`crate::task`].
    pub fn run<F>(&self, total: usize, dop: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if total == 0 {
            return;
        }
        let helpers = dop
            .saturating_sub(1)
            .min(self.workers)
            .min(total.saturating_sub(1));
        if helpers == 0 {
            for i in 0..total {
                f(i);
            }
            return;
        }
        self.ensure_started();
        let inner = &self.inner;
        inner.jobs.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(Job {
            task: ErasedTask::erase(&f),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            total,
            panicked: AtomicBool::new(false),
            finished: Mutex::new(Rank::JobLatch, false),
            latch: Condvar::new(),
        });
        // One ticket per helper, spread round-robin so idle workers pick
        // them up without all colliding on one deque.
        let base = inner.rr.fetch_add(helpers, Ordering::SeqCst);
        for k in 0..helpers {
            let target = (base + k) % self.workers;
            inner.deques[target].lock().push_back(Arc::clone(&job));
        }
        inner.queued.fetch_add(helpers, Ordering::SeqCst);
        // Empty critical section pairs with the re-check in `worker_loop`:
        // `queued` is visible before any parked worker can decide to sleep.
        drop(inner.park.lock());
        inner.wake.notify_all();

        // The submitter works on its own job too, then blocks on the latch.
        inner.timed_drain(&job);
        let mut fin = job.finished.lock();
        while !*fin {
            fin = fin.wait(&job.latch);
        }
        drop(fin);
        if job.panicked.load(Ordering::SeqCst) {
            panic!("av-sched: a pooled task panicked (re-raised on submitter)");
        }
    }

    /// Snapshot the scheduler counters.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.inner;
        let counts: Vec<u64> = inner
            .lat
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .collect();
        let lat = QuantileSketch::from_counts(counts);
        let lat_nanos = |q| lat.quantile(q).unwrap_or(0.0) as u64;
        PoolStats {
            workers: self.workers,
            queue_depth: inner.queued.load(Ordering::SeqCst),
            active_workers: inner.active.load(Ordering::SeqCst),
            steals: inner.steals.load(Ordering::SeqCst),
            jobs: inner.jobs.load(Ordering::SeqCst),
            tasks: inner.tasks.load(Ordering::SeqCst),
            busy_nanos: inner.busy_nanos.load(Ordering::SeqCst),
            drain_nanos_p50: lat_nanos(0.50),
            drain_nanos_p95: lat_nanos(0.95),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        drop(self.inner.park.lock());
        self.inner.wake.notify_all();
        let handles = std::mem::take(&mut *self.inner.started.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stale tickets are popped (and discarded) by workers asynchronously
    /// after a job completes; give them a moment before asserting depth 0.
    fn wait_for_drain(pool: &Pool) -> usize {
        for _ in 0..10_000 {
            if pool.stats().queue_depth == 0 {
                return 0;
            }
            std::thread::yield_now();
        }
        pool.stats().queue_depth
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = Pool::new(4);
        for total in [1usize, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            pool.run(total, 4, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "index {i} of {total}");
            }
        }
    }

    #[test]
    fn dop_one_runs_inline_in_order() {
        let pool = Pool::new(4);
        let order = std::sync::Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        pool.run(8, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        // No helper tickets were posted, so workers never even started.
        assert_eq!(pool.stats().jobs, 0);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = Pool::new(2);
        pool.run(0, 4, |_| panic!("must not run"));
    }

    #[test]
    fn submitter_panics_after_all_tasks_complete() {
        let pool = Pool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, 4, |i| {
                done.fetch_add(1, Ordering::SeqCst);
                if i == 3 {
                    panic!("task 3 fails");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the submitter");
        assert_eq!(done.load(Ordering::SeqCst), 16, "all tasks still ran");
    }

    #[test]
    fn stats_count_jobs_and_tasks() {
        let pool = Pool::new(2);
        pool.run(32, 4, |_| {});
        pool.run(32, 4, |_| {});
        let s = pool.stats();
        assert_eq!(s.workers, 2);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.tasks, 64);
        assert_eq!(wait_for_drain(&pool), 0, "no tickets left behind");
    }

    /// Hammer the deques: many submitters race many workers over thousands
    /// of jobs; every task of every job must run exactly once — no lost or
    /// duplicated chunk despite steal-vs-pop races.
    #[test]
    fn hammer_no_lost_or_duplicated_chunks() {
        let pool = Arc::new(Pool::new(4));
        let submitters = 8;
        let rounds = 50;
        std::thread::scope(|s| {
            for t in 0..submitters {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for r in 0..rounds {
                        let total = 1 + (t * 7 + r * 13) % 40;
                        let hits: Vec<AtomicUsize> =
                            (0..total).map(|_| AtomicUsize::new(0)).collect();
                        pool.run(total, 1 + (r % 5), |i| {
                            hits[i].fetch_add(1, Ordering::SeqCst);
                        });
                        for h in &hits {
                            assert_eq!(h.load(Ordering::SeqCst), 1);
                        }
                    }
                });
            }
        });
        assert_eq!(wait_for_drain(&pool), 0, "all tickets consumed");
    }

    /// Stale tickets — a job fully drained by its submitter before any
    /// worker wakes — must be harmless no-ops.
    #[test]
    fn stale_tickets_are_noops() {
        let pool = Pool::new(2);
        for _ in 0..200 {
            let sum = AtomicUsize::new(0);
            pool.run(2, 4, |i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn latency_quantiles_are_monotone() {
        let pool = Pool::new(2);
        for _ in 0..16 {
            pool.run(8, 2, |_| std::hint::black_box(()));
        }
        let s = pool.stats();
        assert!(s.drain_nanos_p95 >= s.drain_nanos_p50);
        assert!(s.busy_nanos > 0);
    }
}
