//! Streaming workload ingestion with a sliding window.
//!
//! [`WorkloadStream`] keeps the most recent `window_size` arrivals together
//! with their measured execution cost, and exposes the per-candidate *cost
//! mass* distribution that [`crate::drift::DriftDetector`] compares window
//! over window.

use av_equiv::{Analyzer, WorkloadAnalysis};
use av_plan::{Fingerprint, PlanRef};
use std::collections::{BTreeMap, VecDeque};

/// One query that arrived on the stream.
#[derive(Debug, Clone)]
pub struct ArrivedQuery {
    /// Monotonic arrival sequence number (0-based).
    pub seq: u64,
    pub plan: PlanRef,
    /// Measured (or estimated) unrewritten execution cost in dollars,
    /// used as the frequency weight in the drift signal.
    pub cost: f64,
}

/// Sliding window over the arriving workload.
#[derive(Debug)]
pub struct WorkloadStream {
    window: VecDeque<ArrivedQuery>,
    window_size: usize,
    total_seen: u64,
    /// Clusters must span at least this many distinct queries to count as
    /// candidates. Fixed at construction from the setting selection uses,
    /// so the drift analysis and the selection analysis cannot disagree.
    min_query_frequency: usize,
}

impl WorkloadStream {
    pub fn new(window_size: usize, min_query_frequency: usize) -> WorkloadStream {
        assert!(window_size > 0, "window_size must be positive");
        WorkloadStream {
            window: VecDeque::with_capacity(window_size),
            window_size,
            total_seen: 0,
            min_query_frequency,
        }
    }

    /// Record one arrival; evicts the oldest entry once the window is full.
    /// Returns the arrival's sequence number.
    pub fn ingest(&mut self, plan: PlanRef, cost: f64) -> u64 {
        let seq = self.total_seen;
        self.total_seen += 1;
        if self.window.len() == self.window_size {
            self.window.pop_front();
        }
        self.window.push_back(ArrivedQuery { seq, plan, cost });
        seq
    }

    /// True once the window holds `window_size` queries.
    pub fn is_full(&self) -> bool {
        self.window.len() == self.window_size
    }

    /// Plans currently in the window, oldest first.
    pub fn plans(&self) -> Vec<PlanRef> {
        self.window.iter().map(|a| a.plan.clone()).collect()
    }

    /// Measured costs currently in the window, aligned with [`plans`].
    ///
    /// [`plans`]: WorkloadStream::plans
    #[cfg(test)]
    fn costs(&self) -> Vec<f64> {
        self.window.iter().map(|a| a.cost).collect()
    }

    /// Run the equivalence analysis over the current window.
    fn analyze(&self) -> WorkloadAnalysis {
        let mut analyzer = Analyzer::new();
        analyzer.min_query_frequency = self.min_query_frequency;
        analyzer.analyze(&self.plans())
    }

    /// The drift signal: for each candidate subquery of the window's analysis
    /// (keyed by its canonical fingerprint), the total unrewritten cost of
    /// the window queries that could use it. Shifts in this distribution
    /// mean the *reusable* part of the workload changed — exactly when
    /// re-selection can pay off.
    pub fn candidate_mass(&self) -> BTreeMap<Fingerprint, f64> {
        let analysis = self.analyze();
        let mut mass: BTreeMap<Fingerprint, f64> = BTreeMap::new();
        for (i, matches) in analysis.query_matches.iter().enumerate() {
            let cost = self.window[i].cost;
            for m in matches {
                let fp = Fingerprint::of(&analysis.candidates[m.candidate].canonical);
                *mass.entry(fp).or_insert(0.0) += cost;
            }
        }
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_workload::cloud::mini;

    #[test]
    fn window_slides_and_counts() {
        let w = mini(7);
        let plans = w.plans();
        let mut s = WorkloadStream::new(4, 2);
        for (i, p) in plans.iter().take(6).enumerate() {
            let seq = s.ingest(p.clone(), 1.0 + i as f64);
            assert_eq!(seq, i as u64);
        }
        assert!(s.is_full());
        // Oldest two evicted: window holds arrivals 2..6.
        assert_eq!(s.costs(), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn analysis_matches_batch_pipeline_on_same_queries() {
        let w = mini(8);
        let plans = w.plans();
        let mut s = WorkloadStream::new(plans.len(), 2);
        for p in &plans {
            s.ingest(p.clone(), 1.0);
        }
        let stream_analysis = s.analyze();
        let mut analyzer = Analyzer::new();
        analyzer.min_query_frequency = 2;
        let batch_analysis = analyzer.analyze(&plans);
        assert_eq!(
            stream_analysis.candidates.len(),
            batch_analysis.candidates.len()
        );
        assert_eq!(
            stream_analysis.total_subqueries,
            batch_analysis.total_subqueries
        );
    }

    #[test]
    fn candidate_mass_weights_by_cost() {
        let w = mini(9);
        let plans = w.plans();
        let mut s = WorkloadStream::new(plans.len(), 2);
        for p in &plans {
            s.ingest(p.clone(), 2.0);
        }
        let mass = s.candidate_mass();
        assert!(!mass.is_empty(), "mini workload has shared subqueries");
        // Every mass entry is a positive multiple of the per-query cost.
        for (&fp, &m) in &mass {
            assert!(m >= 2.0, "mass of {fp:?} must cover >= 1 query");
            assert!((m / 2.0).fract().abs() < 1e-9);
        }
    }
}
