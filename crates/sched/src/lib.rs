//! av-sched — shared work-stealing morsel scheduler.
//!
//! One process-wide pool of persistent workers replaces the per-query
//! `std::thread::scope` fan-outs that previously burned a spawn/join cycle
//! on every parallel query, minibatch, and dry-run. The design follows the
//! morsel-driven execution model (Leis et al., SIGMOD'14) as specialized by
//! this workspace's determinism contract:
//!
//! - **Tasks are indices, not closures.** A job is one closure over
//!   `0..total`; chunk boundaries are decided by the caller (`CHUNK_ROWS`
//!   in av-engine) and never by the scheduler, so results folded in
//!   ascending index order are bitwise identical at any worker count.
//! - **Submitters participate.** `Pool::run` drains its own claim counter
//!   and blocks on a completion latch, so a saturated pool degrades to
//!   caller-runs-everything instead of deadlocking, and `dop = 1` is
//!   exactly the serial path.
//! - **Elastic degree-of-parallelism.** `Pool::run` caps each job at its
//!   own `dop` (caller plus at most `dop - 1` helper tickets), never more
//!   helpers than the pool has workers. Concurrent jobs therefore share the
//!   workers instead of oversubscribing them: a helper ticket that finds
//!   its job already drained is a no-op, and a job whose helpers are busy
//!   elsewhere is run by its submitter alone.
//!
//! The crate denies unsafe code except for the single lifetime-erasure
//! module ([`task`]) that lets borrowed closures ride on `'static` workers;
//! see that module for the soundness argument. Raw `thread::spawn` /
//! `thread::scope` elsewhere in the workspace libraries is rejected by
//! av-analyze's `raw-spawn` lint — this crate is the allowlisted home for
//! thread creation.
//!
//! Modules: `pool` (the workers and their queues), `task` (the lifetime
//! erasure) and `rank` (ranked locks: every lock in `av-sched`, `av-engine`,
//! `av-serve` and `av-obs` is a [`Mutex`] or [`RwLock`] built with its
//! [`Rank`] in one acquisition order, checked in debug builds).

#![deny(unsafe_code)]

mod pool;
mod rank;
mod task;

pub use pool::{default_workers, global, Pool, PoolStats};
pub use rank::{Guard, Mutex, Rank, RwLock};
