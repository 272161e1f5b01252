//! Injectable time source for the tracer.
//!
//! Library code must never read the wall clock directly — `av-analyze`'s
//! determinism lint rejects `Instant::now` / `SystemTime::now` in `crates/*`
//! library sources. All time flows through the [`Clock`] trait instead:
//! production code installs a [`MonotonicClock`] (this module is the single
//! lint-exempt call site), tests install a [`TestClock`] and advance it by
//! hand, so span durations are exactly reproducible.

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
/// zero. This is the **only** place in the workspace libraries that is
/// allowed to call `Instant::now` (the determinism lint exempts exactly
/// this file).
///
/// On x86_64 hosts with an invariant TSC the clock reads the timestamp
/// counter directly (~8ns) instead of `clock_gettime` (~25ns). The reads
/// that matter are per request, not per span: `ViewServer::execute` reads
/// the clock at four sites — start, then either shed or admitted and
/// executed — and the scheduler pool twice per task. Hosts without an
/// invariant TSC (or non-x86_64) fall back to `Instant` transparently.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: std::time::Instant,
    #[cfg(target_arch = "x86_64")]
    tsc: Option<TscOrigin>,
}

/// Per-clock TSC anchor: the tick count at construction plus the process
/// calibration (ticks → nanoseconds).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct TscOrigin {
    origin_ticks: u64,
    ns_per_tick: f64,
}

impl MonotonicClock {
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: std::time::Instant::now(), // det-lint: allow — the Clock trait's sanctioned wall-clock read
            #[cfg(target_arch = "x86_64")]
            tsc: tsc::ns_per_tick().map(|ns_per_tick| TscOrigin {
                origin_ticks: tsc::read(),
                ns_per_tick,
            }),
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
        #[cfg(target_arch = "x86_64")]
        if let Some(t) = &self.tsc {
            // `saturating_sub` clamps the (hardware-rare) case of a reading
            // from a core whose TSC sits a few ticks behind the origin
            // read; consumers' duration math saturates as well, so a tiny
            // backward wiggle costs one zero-length measurement, never a
            // wrap to ~584 years.
            let ticks = tsc::read().saturating_sub(t.origin_ticks);
            return (ticks as f64 * t.ns_per_tick) as u64;
        }
        // u64 nanoseconds covers ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The TSC fast path. The one `allow(unsafe_code)` scope in `av-trace`:
/// `_rdtsc`/`__cpuid` are intrinsics with no memory effects, exposed by
/// `core::arch` as `unsafe fn` only because they are target-specific.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tsc {
    use std::sync::OnceLock;

    /// Current timestamp-counter reading.
    pub(super) fn read() -> u64 {
        // SAFETY: `_rdtsc` is available on every x86_64 CPU and has no
        // preconditions or memory effects.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Does the CPU advertise an invariant TSC (constant rate, never stops
    /// in deep sleep states)? CPUID.80000007H:EDX[8]. Querying an
    /// unsupported leaf returns the highest basic leaf's values, which the
    /// max-leaf check rules out.
    fn invariant_tsc() -> bool {
        if core::arch::x86_64::__cpuid(0x8000_0000).eax < 0x8000_0007 {
            return false;
        }
        core::arch::x86_64::__cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    /// Once-per-process calibration: nanoseconds per TSC tick, or `None`
    /// when the TSC is not invariant (fall back to `Instant`). The first
    /// caller pays a ~200µs timed spin against the OS clock; every later
    /// clock construction reuses the cached rate.
    pub(super) fn ns_per_tick() -> Option<f64> {
        static SCALE: OnceLock<Option<f64>> = OnceLock::new();
        *SCALE.get_or_init(|| {
            if !invariant_tsc() {
                return None;
            }
            let spin = std::time::Duration::from_micros(200);
            let t0 = std::time::Instant::now(); // det-lint: allow — TSC calibration against the sanctioned clock
            let c0 = read();
            while t0.elapsed() < spin {
                std::hint::spin_loop();
            }
            let c1 = read();
            let nanos = t0.elapsed().as_nanos() as f64;
            let ticks = c1.saturating_sub(c0);
            if ticks == 0 {
                return None; // paused VM or non-monotone counter: fall back
            }
            Some(nanos / ticks as f64)
        })
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn calibration_yields_a_plausible_rate() {
            // On hosts with an invariant TSC the rate must correspond to a
            // clock between 100 MHz and 10 GHz; on others, None is correct.
            if let Some(ns) = super::ns_per_tick() {
                assert!((0.1..=10.0).contains(&ns), "ns/tick {ns}");
            }
        }

        #[test]
        fn tsc_readings_are_non_decreasing_enough_to_time_with() {
            let a = super::read();
            let b = super::read();
            assert!(b >= a, "invariant TSC readings went backwards on one core");
        }
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
