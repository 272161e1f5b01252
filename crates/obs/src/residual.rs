//! Estimator-residual telemetry: every routed query's (estimated cost,
//! measured cost) pair folds into per-view / per-operator quantile sketches
//! of the estimator's **q-error** — `max(est/meas, meas/est)`, the standard
//! multiplicative accuracy measure for cost and cardinality models
//! (q = 1 is a perfect estimate; q = 2 means off by 2× in either
//! direction).
//!
//! The aggregates are unbounded in time but bounded in cardinality (one
//! entry per view / per root operator), so long-run drift stays visible.
//! The raw pairs are not kept here: the flight ring already holds each
//! request's plan and view fingerprints with its estimate and measurement.

use av_trace::QuantileSketch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One (estimate, measurement) pair from a routed query.
///
/// Serialize-only: `root_op` is a `&'static str` borrowed from the plan
/// node's operator table, which keeps recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Residual {
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
    /// Total residuals ever recorded.
    pub recorded: u64,
    pub per_view: Vec<(u64, ErrorAggregate)>,
    pub per_op: Vec<(String, ErrorAggregate)>,
}

/// The per-view and per-operator q-error aggregates. Not internally
/// synchronized: owners serialize access themselves (`av-obs` keeps it
/// under a lock).
#[derive(Debug, Default)]
pub struct ResidualStore {
    recorded: u64,
    per_view: BTreeMap<u64, KeyState>,
    per_op: BTreeMap<&'static str, KeyState>,
}

impl ResidualStore {
    pub fn new() -> ResidualStore {
        ResidualStore::default()
    }

    pub fn record(&mut self, r: Residual) {
        self.recorded += 1;
        self.per_view.entry(r.view_fp).or_default().fold(&r);
        self.per_op.entry(r.root_op).or_default().fold(&r);
    }

    pub fn summary(&self) -> ResidualSummary {
        ResidualSummary {
            recorded: self.recorded,
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

    fn res(view: u64, op: &'static str, est: f64, meas: f64) -> Residual {
        Residual {
            view_fp: view,
            root_op: op,
            estimated: est,
            measured: meas,
        }
    }

    #[test]
    fn q_error_is_symmetric_and_guards_degenerates() {
        assert_eq!(res(1, "Join", 10.0, 5.0).q_error(), Some(2.0));
        assert_eq!(res(1, "Join", 5.0, 10.0).q_error(), Some(2.0));
        assert_eq!(res(1, "Join", 7.0, 7.0).q_error(), Some(1.0));
        assert_eq!(res(1, "Join", 0.0, 7.0).q_error(), None);
        assert_eq!(res(1, "Join", f64::NAN, 7.0).q_error(), None);
        assert_eq!(res(1, "Join", 7.0, -1.0).q_error(), None);
    }

    #[test]
    fn aggregates_count_every_sample() {
        let mut store = ResidualStore::new();
        for _ in 0..10 {
            store.record(res(42, "Aggregate", 2.0, 1.0));
        }
        store.record(res(42, "Aggregate", 0.0, 1.0));
        let s = store.summary();
        assert_eq!(s.recorded, 11);
        let (_, agg) = &s.per_view[0];
        assert_eq!((agg.samples, agg.degenerate), (10, 1));
        assert_eq!(agg.q_mean(), 2.0);
        assert_eq!(agg.overestimates, 10);
        assert_eq!(
            (agg.q_p50, agg.q_p95),
            (2.0, 2.0),
            "every pair is off by 2x"
        );
    }

    #[test]
    fn per_view_and_per_op_keys_partition_the_stream() {
        let mut store = ResidualStore::new();
        store.record(res(100, "Join", 3.0, 1.0));
        store.record(res(100, "Aggregate", 1.0, 1.0));
        store.record(res(200, "Join", 1.0, 8.0));
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
        let mut store = ResidualStore::new();
        store.record(res(9, "Scan", 1.5, 1.0));
        let s = store.summary();
        let text = serde_json::to_string(&s).expect("serialize");
        let back: ResidualSummary = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back.recorded, 1);
        assert_eq!(back.per_op[0].0, "Scan");
        assert_eq!(back.per_view[0].1, s.per_view[0].1);
    }
}
