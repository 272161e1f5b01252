//! Per-tenant SLO monitoring: mergeable deterministic quantile sketches
//! over sliding windows, and multi-window error-budget burn-rate alerting.
//!
//! Two objectives per tenant, in the classic SRE formulation:
//!
//! - **Latency**: a request is *bad* when its latency exceeds
//!   [`SloConfig::latency_threshold_us`]. The target
//!   ([`SloConfig::latency_target`], e.g. 0.99 for "p99 under threshold")
//!   leaves an error budget of `1 - target`.
//! - **Availability**: a request is *bad* when it was shed by admission
//!   control or failed ([`SloConfig::availability_target`]).
//!
//! The *burn rate* of a window is `bad_fraction / (1 - target)` — 1.0 means
//! the error budget is being spent exactly as provisioned; `N` means `N`×
//! too fast. An alert fires only when **both** a short window (reacting in
//! seconds) and the long window (filtering blips) burn above their
//! thresholds — the standard multi-window guard against both slow leaks
//! and one-interval spikes.
//!
//! Latency distributions are kept as [`av_trace::QuantileSketch`]es, so any
//! quantile is deterministic, mergeable by counter addition, and within
//! ~3% relative error. Each window interval owns one sketch; whole-window
//! quantiles merge the interval sketches.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::recorder::TenantTag;
use av_trace::QuantileSketch;

/// SLO objectives and alerting thresholds.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// A request slower than this (total latency, µs) is a latency-budget
    /// violation.
    pub latency_threshold_us: u64,
    /// Fraction of requests that must meet the latency threshold (0.99 =
    /// "p99 under threshold").
    pub latency_target: f64,
    /// Fraction of requests that must not be shed or fail.
    pub availability_target: f64,
    /// Width of one window interval, in clock nanoseconds.
    pub interval_nanos: u64,
    /// Intervals in the (long) sliding window.
    pub intervals: usize,
    /// Intervals in the short window (must be ≤ `intervals`).
    pub fast_intervals: usize,
    /// Short-window burn rate that, together with `slow_burn`, fires an
    /// alert. The defaults follow the SRE-workbook "page" tuning.
    pub fast_burn: f64,
    /// Long-window burn rate required to fire.
    pub slow_burn: f64,
    /// Minimum events in the long window before alerting (an empty window
    /// never pages).
    pub min_events: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_threshold_us: 10_000,
            latency_target: 0.99,
            availability_target: 0.999,
            interval_nanos: 1_000_000_000,
            intervals: 12,
            fast_intervals: 2,
            fast_burn: 6.0,
            slow_burn: 3.0,
            min_events: 64,
        }
    }
}

/// Which objective an alert is about. The discriminant (`as usize`)
/// indexes [`crate::Obs`]'s per-objective dump slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    LatencyP99,
    Availability,
}

/// One burn-rate alert, fired on the transition into breach.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloAlert {
    pub tenant: String,
    pub objective: Objective,
    /// Short-window burn rate at fire time.
    pub fast_burn: f64,
    /// Long-window burn rate at fire time.
    pub slow_burn: f64,
    /// Clock timestamp of the observation that fired the alert.
    pub at_nanos: u64,
}

/// How one request ended, from the SLO's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    Served,
    Shed,
    Failed,
}

/// One window interval's counts, in one cache line: the whole interval is
/// what a request writes here. Its request count is derived (every served
/// request is a latency sample, every other one is availability-bad)
/// rather than stored.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Interval {
    sketch: QuantileSketch,
    lat_bad: u64,
    avail_bad: u64,
}

const _: () = assert!(std::mem::size_of::<Interval>() == 64);

impl Interval {
    fn new() -> Interval {
        Interval {
            sketch: QuantileSketch::new(),
            lat_bad: 0,
            avail_bad: 0,
        }
    }

    /// Requests observed in the interval: served plus shed or failed.
    fn requests(&self) -> u64 {
        self.sketch.count() + self.avail_bad
    }

    fn clear(&mut self) {
        self.sketch.clear();
        self.lat_bad = 0;
        self.avail_bad = 0;
    }
}

/// Sliding window of per-interval sketches/counters for one tenant.
#[derive(Debug)]
struct TenantWindow {
    intervals: Vec<Interval>,
    /// Absolute interval number currently being written.
    head: u64,
    /// Whether each objective is currently in the alerting state (dedup:
    /// re-fire only after recovery below burn 1.0).
    breached: [bool; 2],
    alerts_fired: u64,
}

impl TenantWindow {
    fn new(n: usize) -> TenantWindow {
        TenantWindow {
            intervals: (0..n.max(1)).map(|_| Interval::new()).collect(),
            head: 0,
            breached: [false; 2],
            alerts_fired: 0,
        }
    }

    /// Advance the head to interval `abs`, clearing the intervals it
    /// reuses. A cleared interval's latencies fold into `retired` first,
    /// so the served-latency sketch since startup is never lost.
    fn rotate_to(&mut self, abs: u64, retired: &mut QuantileSketch) {
        if abs <= self.head {
            return; // same interval (clocks are monotone; never rotate back)
        }
        let n = self.intervals.len() as u64;
        let steps = (abs - self.head).min(n);
        for s in 1..=steps {
            let iv = &mut self.intervals[((self.head + s) % n) as usize];
            if iv.sketch.count() > 0 {
                retired.merge(&iv.sketch);
            }
            iv.clear();
        }
        self.head = abs;
    }

    /// Sum of (total, bad) over the newest `k` intervals.
    fn window_counts(&self, k: usize, lat: bool) -> (u64, u64) {
        let n = self.intervals.len() as u64;
        let k = (k as u64).min(n);
        let mut total = 0;
        let mut bad = 0;
        for back in 0..k {
            if back > self.head {
                break;
            }
            let iv = &self.intervals[((self.head - back) % n) as usize];
            total += iv.requests();
            bad += if lat { iv.lat_bad } else { iv.avail_bad };
        }
        (total, bad)
    }

    fn merged_sketch(&self) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        for iv in &self.intervals {
            out.merge(&iv.sketch);
        }
        out
    }
}

fn burn_rate(total: u64, bad: u64, target: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let budget = (1.0 - target).max(1e-9);
    (bad as f64 / total as f64) / budget
}

/// Point-in-time SLO state of one tenant, for dashboards and exposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantSloStats {
    pub tenant: String,
    pub requests: u64,
    pub shed_or_failed: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub latency_fast_burn: f64,
    pub latency_slow_burn: f64,
    pub availability_fast_burn: f64,
    pub availability_slow_burn: f64,
    pub alerts_fired: u64,
}

/// Unsynchronized SLO state: per-tenant sliding windows plus the config.
/// Observation is O(1) (a sketch increment plus counter bumps) and
/// allocation-free — windows are keyed by the fixed-width [`TenantTag`],
/// and burn rates are only evaluated when an observation can change the
/// alert decision (a budget-burning event, or a window already in breach
/// that may recover).
///
/// Not internally synchronized: the [`crate::Obs`] façade embeds it in its
/// one lock, shared with the flight ring, the residual store and the
/// cumulative request aggregates.
#[derive(Debug, Default)]
pub struct SloState {
    config: SloConfig,
    tenants: BTreeMap<TenantTag, TenantWindow>,
    /// Served latencies (µs) of every interval the windows have rotated
    /// out, all tenants together.
    retired: QuantileSketch,
}

impl SloState {
    pub fn new(config: SloConfig) -> SloState {
        SloState {
            config,
            tenants: BTreeMap::new(),
            retired: QuantileSketch::new(),
        }
    }

    /// Every served latency (µs) observed since startup, all tenants: the
    /// rotated-out intervals plus every live one. The windows hold these
    /// samples anyway, so the cumulative sketch is folded here when read
    /// instead of being written a second time per request.
    pub fn served_latency_us(&self) -> QuantileSketch {
        let mut out = self.retired.clone();
        for win in self.tenants.values() {
            for iv in &win.intervals {
                out.merge(&iv.sketch);
            }
        }
        out
    }

    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Feed one request. `now_nanos` comes from the caller's injected
    /// clock; `latency_nanos` is the total latency charged to the tenant
    /// (admission wait included), compared with the threshold in
    /// nanoseconds and observed in fractional microseconds. Returns the alerts that fired *at this
    /// observation* (usually none — the vector is empty and unallocated).
    pub fn observe(
        &mut self,
        tenant: TenantTag,
        now_nanos: u64,
        latency_nanos: u64,
        outcome: RequestOutcome,
    ) -> Vec<SloAlert> {
        let cfg = &self.config;
        let win = self
            .tenants
            .entry(tenant)
            .or_insert_with(|| TenantWindow::new(cfg.intervals));
        win.rotate_to(now_nanos / cfg.interval_nanos.max(1), &mut self.retired);

        let n = win.intervals.len() as u64;
        let head = (win.head % n) as usize;
        let iv = &mut win.intervals[head];
        let mut bad = false;
        match outcome {
            RequestOutcome::Served => {
                iv.sketch.observe(latency_nanos as f64 / 1e3);
                if latency_nanos > cfg.latency_threshold_us.saturating_mul(1_000) {
                    iv.lat_bad += 1;
                    bad = true;
                }
            }
            RequestOutcome::Shed | RequestOutcome::Failed => {
                // Shed/failed requests have no meaningful latency sample but
                // do burn both budgets: the tenant saw no result.
                iv.lat_bad += 1;
                iv.avail_bad += 1;
                bad = true;
            }
        }

        // A good observation can only lower burn rates, so it cannot fire
        // an alert — the full evaluation is needed only when budget was
        // burned, or while a breach is latched and may need to recover.
        // Healthy traffic pays one branch here, nothing more.
        if !bad && !win.breached[0] && !win.breached[1] {
            return Vec::new();
        }

        let mut alerts = Vec::new();
        for (slot, (objective, lat)) in [
            (0, (Objective::LatencyP99, true)),
            (1, (Objective::Availability, false)),
        ] {
            let target = if lat {
                cfg.latency_target
            } else {
                cfg.availability_target
            };
            let (slow_total, slow_bad) = win.window_counts(cfg.intervals, lat);
            let (fast_total, fast_bad) = win.window_counts(cfg.fast_intervals, lat);
            let slow = burn_rate(slow_total, slow_bad, target);
            let fast = burn_rate(fast_total, fast_bad, target);
            let firing =
                slow_total >= cfg.min_events && fast >= cfg.fast_burn && slow >= cfg.slow_burn;
            if firing && !win.breached[slot] {
                win.breached[slot] = true;
                win.alerts_fired += 1;
                alerts.push(SloAlert {
                    tenant: tenant.decode(),
                    objective,
                    fast_burn: fast,
                    slow_burn: slow,
                    at_nanos: now_nanos,
                });
            } else if !firing && fast < 1.0 && slow < 1.0 {
                // Recovered: both windows back under budget-neutral burn.
                win.breached[slot] = false;
            }
        }
        alerts
    }

    /// Snapshot of every tenant's window.
    pub fn stats(&self) -> Vec<TenantSloStats> {
        let cfg = &self.config;
        self.tenants
            .iter()
            .map(|(tag, win)| {
                let merged = win.merged_sketch();
                let (lt, lb) = win.window_counts(cfg.intervals, true);
                let (ltf, lbf) = win.window_counts(cfg.fast_intervals, true);
                let (at, ab) = win.window_counts(cfg.intervals, false);
                let (atf, abf) = win.window_counts(cfg.fast_intervals, false);
                TenantSloStats {
                    tenant: tag.decode(),
                    requests: lt,
                    shed_or_failed: ab,
                    p50_us: merged.quantile(0.50).unwrap_or(0.0),
                    p95_us: merged.quantile(0.95).unwrap_or(0.0),
                    p99_us: merged.quantile(0.99).unwrap_or(0.0),
                    latency_fast_burn: burn_rate(ltf, lbf, cfg.latency_target),
                    latency_slow_burn: burn_rate(lt, lb, cfg.latency_target),
                    availability_fast_burn: burn_rate(atf, abf, cfg.availability_target),
                    availability_slow_burn: burn_rate(at, ab, cfg.availability_target),
                    alerts_fired: win.alerts_fired,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            latency_threshold_us: 100,
            latency_target: 0.99,
            availability_target: 0.99,
            interval_nanos: 1_000,
            intervals: 4,
            fast_intervals: 1,
            fast_burn: 6.0,
            slow_burn: 3.0,
            min_events: 10,
        }
    }

    fn us(v: u64) -> u64 {
        v * 1_000
    }

    #[test]
    fn sub_microsecond_latencies_keep_their_fraction() {
        let mut m = SloState::new(cfg());
        let t0 = TenantTag::new("t0");
        m.observe(t0, 0, 500, RequestOutcome::Served);
        let win = &m.tenants[&t0];
        assert_eq!(win.merged_sketch().quantile(0.5), Some(0.5));
    }

    #[test]
    fn stats_report_sub_microsecond_quantiles() {
        let mut m = SloState::new(cfg());
        for i in 0..100u64 {
            m.observe(TenantTag::new("t0"), i, 600, RequestOutcome::Served);
        }
        let p50 = m.stats()[0].p50_us;
        let tolerance = 0.6 / av_trace::sketch::SUB_BUCKETS as f64;
        assert!(
            (p50 - 0.6).abs() <= tolerance,
            "0.6 µs requests report p50 {p50}"
        );
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let mut m = SloState::new(cfg());
        for i in 0..1000u64 {
            let alerts = m.observe(TenantTag::new("t0"), i * 10, us(50), RequestOutcome::Served);
            assert!(alerts.is_empty(), "healthy request {i} alerted");
        }
        let stats = m.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].alerts_fired, 0);
        assert!(stats[0].latency_slow_burn < 1e-12);
        assert!(stats[0].p99_us <= 50.0);
    }

    #[test]
    fn sustained_breach_fires_once_until_recovery() {
        let mut m = SloState::new(cfg());
        let t0 = TenantTag::new("t0");
        // Healthy base load in interval 0.
        for i in 0..50u64 {
            m.observe(t0, i, us(10), RequestOutcome::Served);
        }
        // Regression: every request blows the threshold.
        let mut fired = 0;
        for i in 0..200u64 {
            fired += m
                .observe(t0, 500 + i, us(5_000), RequestOutcome::Served)
                .len();
        }
        assert_eq!(fired, 1, "breach fires exactly once while it persists");
        let stats = m.stats();
        assert_eq!(stats[0].alerts_fired, 1);
        assert!(stats[0].latency_fast_burn >= 6.0);

        // Recovery: healthy traffic long enough to clear every window (the
        // rotation clears old intervals), then a second breach re-fires.
        for i in 0..400u64 {
            m.observe(t0, 10_000 + i * 20, us(10), RequestOutcome::Served);
        }
        let mut refired = 0;
        for i in 0..200u64 {
            refired += m
                .observe(t0, 30_000 + i, us(5_000), RequestOutcome::Served)
                .len();
        }
        assert_eq!(refired, 1, "a fresh breach after recovery re-fires");
    }

    #[test]
    fn shed_requests_burn_the_availability_budget() {
        let mut m = SloState::new(cfg());
        let mut objectives = Vec::new();
        for i in 0..100u64 {
            for a in m.observe(TenantTag::new("t0"), i, us(10), RequestOutcome::Shed) {
                objectives.push(a.objective);
            }
        }
        assert!(
            objectives.contains(&Objective::Availability),
            "shedding must page availability: {objectives:?}"
        );
    }

    #[test]
    fn tenants_are_isolated() {
        let mut m = SloState::new(cfg());
        for i in 0..200u64 {
            m.observe(TenantTag::new("bad"), i, us(5_000), RequestOutcome::Served);
            let alerts = m.observe(TenantTag::new("good"), i, us(10), RequestOutcome::Served);
            assert!(alerts.is_empty(), "healthy tenant paged by a noisy one");
        }
        let stats = m.stats();
        let bad = stats.iter().find(|s| s.tenant == "bad").expect("bad");
        let good = stats.iter().find(|s| s.tenant == "good").expect("good");
        assert!(bad.alerts_fired >= 1);
        assert_eq!(good.alerts_fired, 0);
    }

    #[test]
    fn window_rotation_forgets_old_intervals() {
        let mut m = SloState::new(cfg());
        for i in 0..100u64 {
            m.observe(TenantTag::new("t0"), i, us(5_000), RequestOutcome::Served);
        }
        // Jump far ahead: all four intervals rotate out.
        let t0 = TenantTag::new("t0");
        m.observe(t0, 1_000_000, us(10), RequestOutcome::Served);
        let stats = m.stats();
        assert_eq!(stats[0].requests, 1, "old intervals cleared");
        assert!(stats[0].latency_slow_burn < 1e-12);
    }
}
