//! Thread-safe metrics registry: counters, gauges, histograms (one
//! [`QuantileSketch`] per series) and per-phase timing accumulators,
//! exportable as a JSON snapshot.
//!
//! Everything is name-addressed and lazily created so call sites stay
//! one-liners (`metrics.inc("serve.swaps")`); the state sits
//! behind one `Mutex`, so multi-threaded harnesses can record into one
//! registry through `&self`. That lock is
//! why the registry is for planner-rate events and pipeline series
//! only: per-request serving numbers stay with their owners (cache shards,
//! admission, `av-obs`) and are folded in at snapshot time.
//!
//! Naming convention: `subsystem.noun_verb` (e.g. `engine.cache_hit`,
//! `cost.epoch_loss`, `select.episode_reward`). See DESIGN.md §Observability.

use crate::sketch::{QuantileSketch, SketchSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Counter bumped whenever a NaN observation is rejected, so silent data
/// problems still leave a visible trail in the snapshot.
pub const NAN_REJECTED: &str = "trace.nan_rejected";

/// Accumulated wall-clock time of one named phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub count: u64,
    pub total_seconds: f64,
}

impl Timing {
    /// Serializable form, with the mean filled in.
    pub fn snapshot(&self) -> TimingSnapshot {
        TimingSnapshot {
            count: self.count,
            total_seconds: self.total_seconds,
            mean_seconds: if self.count == 0 {
                0.0
            } else {
                self.total_seconds / self.count as f64
            },
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, QuantileSketch>,
    timings: BTreeMap<String, Timing>,
}

/// The registry. Interior-mutable and thread-safe: share one per run via
/// `&Metrics` (or clone the owning [`crate::Tracer`]) across threads.
#[derive(Debug, Default)]
pub struct Metrics {
    state: Mutex<State>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn with<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        f(&mut state)
    }

    /// Increment a counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment a counter by `by`.
    pub fn add(&self, name: &str, by: u64) {
        // get_mut-first keeps the steady state allocation-free: the name is
        // only cloned when a key is seen for the first time.
        self.with(|s| match s.counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                s.counters.insert(name.to_string(), by);
            }
        });
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|s| s.counters.get(name).copied().unwrap_or(0))
    }

    /// Set a gauge to the latest value (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.with(|s| {
            s.gauges.insert(name.to_string(), value);
        });
    }

    /// Latest gauge value (None if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with(|s| s.gauges.get(name).copied())
    }

    /// Record one observation into a histogram. NaN observations are
    /// rejected and tallied under the [`NAN_REJECTED`] counter.
    pub fn observe(&self, name: &str, value: f64) {
        let ok = self.with(|s| match s.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = QuantileSketch::new();
                let ok = h.observe(value);
                s.histograms.insert(name.to_string(), h);
                ok
            }
        });
        if !ok {
            self.add(NAN_REJECTED, 1);
        }
    }

    /// Clone of a histogram (None if nothing was observed under that name).
    /// Returns an owned copy because the live one sits behind the lock.
    pub fn histogram(&self, name: &str) -> Option<QuantileSketch> {
        self.with(|s| s.histograms.get(name).cloned())
    }

    /// Record an externally measured duration under a phase name. Durations
    /// come from a [`crate::Clock`] (or `Tracer::time`), never from a direct
    /// wall-clock read in library code.
    pub fn record_seconds(&self, name: &str, seconds: f64) {
        self.with(|s| {
            let t = match s.timings.get_mut(name) {
                Some(t) => t,
                None => {
                    s.timings.insert(name.to_string(), Timing::default());
                    s.timings.get_mut(name).expect("just inserted")
                }
            };
            t.count += 1;
            t.total_seconds += seconds;
        });
    }

    /// Accumulated timing for a phase (None if never recorded).
    pub fn timing(&self, name: &str) -> Option<Timing> {
        self.with(|s| s.timings.get(name).copied())
    }

    /// Immutable snapshot of everything, for export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|s| MetricsSnapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timings: s
                .timings
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        })
    }
}

/// Serializable form of the registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, SketchSnapshot>,
    pub timings: BTreeMap<String, TimingSnapshot>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingSnapshot {
    pub count: u64,
    pub total_seconds: f64,
    pub mean_seconds: f64,
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the registry is exercised from several threads"
)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = Metrics::new();
        assert_eq!(m.gauge("eps"), None);
        m.set_gauge("eps", 0.9);
        m.set_gauge("eps", 0.1);
        assert_eq!(m.gauge("eps"), Some(0.1));
    }

    #[test]
    fn histogram_summary_is_correct() {
        let m = Metrics::new();
        for v in [0.5, 1.5, 2.0] {
            m.observe("cost", v);
        }
        let h = m.histogram("cost").expect("exists");
        assert_eq!(h.count(), 3);
        assert!((h.mean() - (4.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn nan_observations_are_rejected() {
        let m = Metrics::new();
        m.observe("cost", 1.0);
        m.observe("cost", f64::NAN);
        m.observe("cost", 3.0);
        let h = m.histogram("cost").expect("exists");
        assert_eq!(h.count(), 2, "NaN must not be counted");
        assert!((h.sum() - 4.0).abs() < 1e-12, "NaN must not corrupt sum");
        assert!(h.mean().is_finite());
        assert_eq!(m.counter(NAN_REJECTED), 1);
    }

    #[test]
    fn timings_record_phases() {
        let m = Metrics::new();
        m.record_seconds("phase", 0.25);
        m.record_seconds("phase", 0.75);
        let t = m.timing("phase").expect("exists");
        assert_eq!(t.count, 2);
        assert!((t.total_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn registry_is_thread_safe() {
        let m = std::sync::Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.inc("shared");
                        m.observe("dist", 0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        assert_eq!(m.counter("shared"), 4000);
        assert_eq!(m.histogram("dist").expect("exists").count(), 4000);
    }

    #[test]
    fn json_snapshot_parses_and_has_fields() {
        let m = Metrics::new();
        m.inc("serve.swaps");
        m.observe("select.utility", 0.002);
        m.record_seconds("serve.reopt", 0.001);
        let text = serde_json::to_string_pretty(&m.snapshot()).expect("snapshot serializes");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["counters", "gauges", "histograms", "timings"]);
    }
}
