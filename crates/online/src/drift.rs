//! Workload drift detection.
//!
//! [`DriftDetector`] compares the window's candidate cost-mass distribution
//! (see [`crate::stream::WorkloadStream::candidate_mass`]) against a pinned
//! reference distribution using total-variation distance. Re-selection is
//! expensive, so the detector only fires when the shift exceeds a threshold,
//! and rebases its reference on every trigger so a single phase change
//! fires exactly once.

use av_plan::Fingerprint;
use std::collections::BTreeMap;

/// Tuning knobs for drift detection.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Total-variation distance in `[0, 1]` above which drift is declared.
    /// 0 fires on any change; 1 (or `f64::INFINITY`) never fires.
    pub threshold: f64,
    /// Minimum arrivals between two triggers (cooldown), so a noisy
    /// boundary between phases cannot fire repeatedly.
    pub min_queries_between: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.3,
            min_queries_between: 16,
        }
    }
}

/// A declared drift event.
#[derive(Debug, Clone, Copy)]
pub struct DriftReport {
    /// Arrival sequence number at which drift was declared.
    pub at_seq: u64,
    /// Measured total-variation distance from the reference window.
    pub distance: f64,
    /// The threshold that was exceeded.
    pub threshold: f64,
}

/// Window-over-window drift detector.
#[derive(Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    /// The distribution the current view selection was made for. `None`
    /// until the first observation pins it.
    reference: Option<BTreeMap<Fingerprint, f64>>,
    last_trigger: Option<u64>,
}

impl DriftDetector {
    pub fn new(config: DriftConfig) -> DriftDetector {
        DriftDetector {
            config,
            reference: None,
            last_trigger: None,
        }
    }

    /// Observe the current window's candidate mass at arrival `seq`.
    ///
    /// The first observation pins the reference and never triggers. Later
    /// observations return a [`DriftReport`] when the distance exceeds the
    /// threshold and the cooldown has elapsed; the reference is then rebased
    /// to the drifted distribution, so a completed phase shift triggers
    /// exactly once.
    pub fn observe(&mut self, seq: u64, mass: &BTreeMap<Fingerprint, f64>) -> Option<DriftReport> {
        let Some(reference) = &self.reference else {
            self.reference = Some(mass.clone());
            return None;
        };
        let distance = total_variation(reference, mass);
        if distance <= self.config.threshold {
            return None;
        }
        if let Some(last) = self.last_trigger {
            if seq.saturating_sub(last) < self.config.min_queries_between {
                return None;
            }
        }
        self.last_trigger = Some(seq);
        self.reference = Some(mass.clone());
        Some(DriftReport {
            at_seq: seq,
            distance,
            threshold: self.config.threshold,
        })
    }

    /// Pin the reference to `mass` without triggering — called after a
    /// re-optimization so subsequent drift is measured against the
    /// distribution the new selection was made for.
    pub fn rebase(&mut self, mass: &BTreeMap<Fingerprint, f64>) {
        self.reference = Some(mass.clone());
    }
}

/// Total-variation distance between two non-negative mass maps after
/// normalization: `0.5 * Σ |p(k) − q(k)|` over the key union. Ranges over
/// `[0, 1]`; an empty map is treated as the zero distribution (distance 1
/// from any non-empty one, 0 from another empty one).
pub fn total_variation(a: &BTreeMap<Fingerprint, f64>, b: &BTreeMap<Fingerprint, f64>) -> f64 {
    let ta: f64 = a.values().sum();
    let tb: f64 = b.values().sum();
    match (ta > 0.0, tb > 0.0) {
        (false, false) => return 0.0,
        (false, true) | (true, false) => return 1.0,
        (true, true) => {}
    }
    let mut dist = 0.0;
    for (k, &va) in a {
        let vb = b.get(k).copied().unwrap_or(0.0);
        dist += (va / ta - vb / tb).abs();
    }
    for (k, &vb) in b {
        if !a.contains_key(k) {
            dist += (vb / tb).abs();
        }
    }
    0.5 * dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::{Expr, Fingerprint, PlanBuilder};

    fn fp(table: &str) -> Fingerprint {
        let plan = PlanBuilder::scan(table, "t")
            .filter(Expr::col("t.a").eq(Expr::int(1)))
            .build();
        Fingerprint::of(&plan)
    }

    fn mass(entries: &[(Fingerprint, f64)]) -> BTreeMap<Fingerprint, f64> {
        entries.iter().copied().collect()
    }

    #[test]
    fn total_variation_bounds() {
        let p = mass(&[(fp("a"), 1.0), (fp("b"), 1.0)]);
        let q = mass(&[(fp("c"), 5.0)]);
        assert_eq!(total_variation(&p, &p), 0.0);
        assert!(
            (total_variation(&p, &q) - 1.0).abs() < 1e-12,
            "disjoint supports"
        );
        let empty = BTreeMap::new();
        assert_eq!(total_variation(&empty, &empty), 0.0);
        assert_eq!(total_variation(&p, &empty), 1.0);
    }

    #[test]
    fn scaling_does_not_count_as_drift() {
        // Same shape, 10x the cost: normalized distributions are identical.
        let p = mass(&[(fp("a"), 1.0), (fp("b"), 3.0)]);
        let q = mass(&[(fp("a"), 10.0), (fp("b"), 30.0)]);
        assert!(total_variation(&p, &q) < 1e-12);
    }

    #[test]
    fn no_drift_never_triggers() {
        let mut d = DriftDetector::new(DriftConfig {
            threshold: 0.2,
            min_queries_between: 0,
        });
        let stable = mass(&[(fp("a"), 2.0), (fp("b"), 1.0)]);
        for seq in 0..200 {
            // Costs wobble but the distribution stays fixed.
            let scaled: BTreeMap<_, _> = stable
                .iter()
                .map(|(&k, &v)| (k, v * (1.0 + (seq % 3) as f64)))
                .collect();
            assert!(
                d.observe(seq, &scaled).is_none(),
                "seq {seq} must not trigger"
            );
        }
    }

    #[test]
    fn phase_shift_triggers_exactly_once() {
        let mut d = DriftDetector::new(DriftConfig {
            threshold: 0.3,
            min_queries_between: 4,
        });
        let phase_a = mass(&[(fp("a"), 4.0), (fp("b"), 1.0)]);
        let phase_b = mass(&[(fp("c"), 3.0), (fp("d"), 2.0)]);
        let mut triggers = Vec::new();
        for seq in 0..100 {
            let m = if seq < 50 { &phase_a } else { &phase_b };
            if let Some(r) = d.observe(seq, m) {
                triggers.push(r);
            }
        }
        assert_eq!(triggers.len(), 1, "one phase shift => one trigger");
        assert_eq!(triggers[0].at_seq, 50);
        assert!(triggers[0].distance > 0.3);
    }

    #[test]
    fn cooldown_suppresses_rapid_refires() {
        let mut d = DriftDetector::new(DriftConfig {
            threshold: 0.1,
            min_queries_between: 10,
        });
        let a = mass(&[(fp("a"), 1.0)]);
        let b = mass(&[(fp("b"), 1.0)]);
        assert!(d.observe(0, &a).is_none(), "first observation pins");
        assert!(d.observe(1, &b).is_some(), "flip triggers");
        // Oscillate every arrival. Reference is now `b`, so only the `a`
        // observations (even seqs) measure any distance; the cooldown from
        // the seq-1 trigger holds fire until seq 12.
        let mut next = None;
        for seq in 2..=12 {
            let m = if seq % 2 == 0 { &a } else { &b };
            if let Some(r) = d.observe(seq, m) {
                next = Some(r.at_seq);
                break;
            }
        }
        assert_eq!(next, Some(12));
    }

    #[test]
    fn rebase_resets_the_reference() {
        let mut d = DriftDetector::new(DriftConfig {
            threshold: 0.3,
            min_queries_between: 0,
        });
        let a = mass(&[(fp("a"), 1.0)]);
        let b = mass(&[(fp("b"), 1.0)]);
        d.observe(0, &a);
        d.rebase(&b);
        assert!(d.observe(1, &b).is_none(), "rebase pinned to b");
        assert!(d.observe(2, &a).is_some(), "a now counts as drift");
    }
}
