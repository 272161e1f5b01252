//! Estimator-residual telemetry: every routed query appends
//! `(estimated cost, measured cost, plan fingerprint, view id)` to a
//! bounded store, and per-view / per-operator quantile sketches accumulate
//! the estimator's **q-error** — `max(est/meas, meas/est)`, the standard
//! multiplicative accuracy measure for cost and cardinality models
//! (q = 1 is a perfect estimate; q = 2 means off by 2× in either
//! direction).
//!
//! The raw ring keeps the newest `capacity` residuals for offline
//! retraining dumps; the aggregates are unbounded in time but bounded in
//! cardinality (one entry per view / per root operator) and survive ring
//! eviction, so long-run drift is visible even when the raw samples have
//! rotated out.

use av_trace::QuantileSketch;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One (estimate, measurement) pair from a routed query.
///
/// Serialize-only: `root_op` is a `&'static str` borrowed from the plan
/// node's operator table, which keeps recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Residual {
    /// Fingerprint of the *original* (pre-rewrite) plan.
    pub plan_fp: u64,
    /// Fingerprint of the materialized view the query was routed through.
    pub view_fp: u64,
    /// Root operator of the plan, e.g. `"Aggregate"` or `"Join"`.
    pub root_op: &'static str,
    /// Model-estimated execution cost.
    pub estimated: f64,
    /// Measured execution cost (same unit as the estimate).
    pub measured: f64,
}

impl Residual {
    /// q-error of this pair; `None` when either side is non-positive or
    /// non-finite (the ratio is meaningless there — tracked separately as
    /// `degenerate` in the aggregates).
    pub fn q_error(&self) -> Option<f64> {
        if !(self.estimated.is_finite() && self.measured.is_finite()) {
            return None;
        }
        if self.estimated <= 0.0 || self.measured <= 0.0 {
            return None;
        }
        Some((self.estimated / self.measured).max(self.measured / self.estimated))
    }
}

/// q-error aggregate for one key (a view or an operator), as exported in a
/// [`ResidualSummary`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorAggregate {
    pub samples: u64,
    /// Pairs whose q-error was undefined (zero/negative/non-finite cost).
    pub degenerate: u64,
    pub q_sum: f64,
    pub q_max: f64,
    /// Estimates that exceeded the measurement (the rest undershot).
    pub overestimates: u64,
    /// Median q-error (1 = perfect), from the key's quantile sketch.
    pub q_p50: f64,
    /// 95th-percentile q-error.
    pub q_p95: f64,
}

impl ErrorAggregate {
    pub fn q_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.q_sum / self.samples as f64
        }
    }
}

/// Streaming state behind one [`ErrorAggregate`]: the q-error distribution
/// lives in the workspace's one quantile sketch.
#[derive(Debug, Default)]
struct KeyState {
    q: QuantileSketch,
    degenerate: u64,
    overestimates: u64,
}

impl KeyState {
    fn fold(&mut self, r: &Residual) {
        match r.q_error() {
            Some(q) => {
                self.q.observe(q);
                if r.estimated > r.measured {
                    self.overestimates += 1;
                }
            }
            None => self.degenerate += 1,
        }
    }

    fn aggregate(&self) -> ErrorAggregate {
        let at = |q| self.q.quantile(q).unwrap_or(0.0);
        ErrorAggregate {
            samples: self.q.count(),
            degenerate: self.degenerate,
            q_sum: self.q.sum(),
            q_max: at(1.0),
            overestimates: self.overestimates,
            q_p50: at(0.50),
            q_p95: at(0.95),
        }
    }
}

/// Serializable snapshot of the whole store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualSummary {
    /// Total residuals ever recorded (including ones rotated out).
    pub recorded: u64,
    /// Residuals currently held in the raw ring.
    pub retained: usize,
    pub per_view: Vec<(u64, ErrorAggregate)>,
    pub per_op: Vec<(String, ErrorAggregate)>,
}

/// Bounded residual store; record is O(1) amortized. Not internally
/// synchronized: owners serialize access themselves (`av-obs` keeps it
/// under its one lock).
#[derive(Debug)]
pub struct ResidualStore {
    capacity: usize,
    ring: VecDeque<Residual>,
    recorded: u64,
    per_view: BTreeMap<u64, KeyState>,
    per_op: BTreeMap<&'static str, KeyState>,
}

impl ResidualStore {
    pub fn new(capacity: usize) -> ResidualStore {
        ResidualStore {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            recorded: 0,
            per_view: BTreeMap::new(),
            per_op: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, r: Residual) {
        self.recorded += 1;
        self.per_view.entry(r.view_fp).or_default().fold(&r);
        self.per_op.entry(r.root_op).or_default().fold(&r);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(r);
    }

    /// Newest-first copy of the raw ring (for retraining dumps).
    pub fn recent(&self, n: usize) -> Vec<Residual> {
        self.ring.iter().rev().take(n).copied().collect()
    }

    pub fn summary(&self) -> ResidualSummary {
        ResidualSummary {
            recorded: self.recorded,
            retained: self.ring.len(),
            per_view: self
                .per_view
                .iter()
                .map(|(k, v)| (*k, v.aggregate()))
                .collect(),
            per_op: self
                .per_op
                .iter()
                .map(|(k, v)| (k.to_string(), v.aggregate()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(plan: u64, view: u64, op: &'static str, est: f64, meas: f64) -> Residual {
        Residual {
            plan_fp: plan,
            view_fp: view,
            root_op: op,
            estimated: est,
            measured: meas,
        }
    }

    #[test]
    fn q_error_is_symmetric_and_guards_degenerates() {
        assert_eq!(res(1, 1, "Join", 10.0, 5.0).q_error(), Some(2.0));
        assert_eq!(res(1, 1, "Join", 5.0, 10.0).q_error(), Some(2.0));
        assert_eq!(res(1, 1, "Join", 7.0, 7.0).q_error(), Some(1.0));
        assert_eq!(res(1, 1, "Join", 0.0, 7.0).q_error(), None);
        assert_eq!(res(1, 1, "Join", f64::NAN, 7.0).q_error(), None);
        assert_eq!(res(1, 1, "Join", 7.0, -1.0).q_error(), None);
    }

    #[test]
    fn ring_is_bounded_but_aggregates_survive_eviction() {
        let mut store = ResidualStore::new(4);
        for i in 0..10u64 {
            store.record(res(i, 42, "Aggregate", 2.0, 1.0));
        }
        let s = store.summary();
        assert_eq!(s.recorded, 10);
        assert_eq!(s.retained, 4);
        let recent = store.recent(100);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].plan_fp, 9, "newest first");
        let (_, agg) = &s.per_view[0];
        assert_eq!(agg.samples, 10, "aggregate counts evicted samples too");
        assert_eq!(agg.q_mean(), 2.0);
        assert_eq!(agg.overestimates, 10);
        assert_eq!((agg.q_p50, agg.q_p95), (2.0, 2.0), "every pair is off by 2x");
    }

    #[test]
    fn per_view_and_per_op_keys_partition_the_stream() {
        let mut store = ResidualStore::new(16);
        store.record(res(1, 100, "Join", 3.0, 1.0));
        store.record(res(2, 100, "Aggregate", 1.0, 1.0));
        store.record(res(3, 200, "Join", 1.0, 8.0));
        let s = store.summary();
        assert_eq!(s.per_view.len(), 2);
        assert_eq!(s.per_op.len(), 2);
        let v100 = &s.per_view.iter().find(|(k, _)| *k == 100).expect("v100").1;
        assert_eq!(v100.samples, 2);
        let join = &s.per_op.iter().find(|(k, _)| k == "Join").expect("join").1;
        assert_eq!(join.samples, 2);
        assert_eq!(join.q_max, 8.0);
        assert_eq!(join.overestimates, 1);
        assert_eq!((join.q_p50, join.q_p95), (3.0, 8.0), "q=3 and q=8");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut store = ResidualStore::new(8);
        store.record(res(7, 9, "Scan", 1.5, 1.0));
        let s = store.summary();
        let text = serde_json::to_string(&s).expect("serialize");
        let back: ResidualSummary = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back.recorded, 1);
        assert_eq!(back.per_op[0].0, "Scan");
        assert_eq!(back.per_view[0].1, s.per_view[0].1);
    }
}
