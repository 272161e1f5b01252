//! av-sched — ranked locks.
//!
//! Every lock in `av-engine`, `av-serve` and `av-obs` is a [`Mutex`] or
//! [`RwLock`] built with its [`Rank`] in one acquisition order, checked in
//! debug builds.

#![forbid(unsafe_code)]

mod rank;

pub use rank::{Guard, Mutex, Rank, RwLock};
