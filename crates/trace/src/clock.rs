//! Injectable time source for the tracer.
//!
//! Library code must never read the wall clock directly — `crates/clippy.toml`
//! lists `Instant::now` / `SystemTime::now` as disallowed methods for every
//! crate under `crates/`. All time flows through the [`Clock`] trait instead:
//! production code installs a [`MonotonicClock`] (whose constructor is the
//! one library site that allows the lint), tests install a [`TestClock`] and
//! advance it by hand, so span durations are exactly reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone, non-decreasing nanosecond counter with an arbitrary
/// per-clock origin. Implementations must be cheap: the serving path reads
/// the clock on every request.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since this clock's origin.
    fn now_nanos(&self) -> u64;
}

/// Real wall-clock time, anchored at construction so readings start near
/// zero. [`MonotonicClock::new`] is the **only** place in the workspace
/// libraries that is allowed to call `Instant::now`.
///
/// Readings go through `Instant` (vDSO `clock_gettime` on Linux, itself a
/// timestamp-counter read where the kernel's clocksource is `tsc`). The
/// reads that matter are per request, not per span: `ViewServer::execute`
/// reads the clock at most three times — start, then either shed or
/// admitted and executed.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    #[allow(
        clippy::disallowed_methods,
        reason = "the Clock trait's one sanctioned wall-clock read"
    )]
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // u64 nanoseconds covers ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock for tests: time only moves when the test says so.
/// Cloning shares the underlying counter, so the test can keep a handle
/// while the tracer owns another.
#[derive(Debug, Clone, Default)]
pub struct TestClock {
    nanos: Arc<AtomicU64>,
}

impl TestClock {
    pub fn new() -> TestClock {
        TestClock::default()
    }

    /// Move time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jump to an absolute reading. Panics if that would move time backwards
    /// (the Clock contract is monotone).
    pub fn set(&self, nanos: u64) {
        let prev = self.nanos.swap(nanos, Ordering::SeqCst);
        assert!(prev <= nanos, "TestClock must not move backwards");
    }
}

impl Clock for TestClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_manual() {
        let c = TestClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(100);
        assert_eq!(c.now_nanos(), 100);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
