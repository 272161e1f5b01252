//! # av-online — streaming workload ingestion and adaptive view lifecycle
//!
//! The batch pipeline (`av-core`) selects views once, for a workload known
//! up front. This crate runs the same machinery *online*: queries arrive one
//! at a time, a sliding window tracks the recent workload
//! ([`stream::WorkloadStream`]), a drift detector watches the window's
//! candidate cost-mass distribution ([`drift::DriftDetector`]), and when the
//! workload shifts, selection (IterView/RLView) is re-run on the window and
//! the live view set is patched incrementally
//! ([`reopt::reoptimize`] → [`lifecycle::ViewLifecycleManager`]).
//!
//! [`OnlineEngine`] ties the pieces together: every arrival is routed
//! through the live views (`av-engine::rewrite`), measured, ingested, and
//! periodically checked for drift. An [`av_trace::Tracer`] records
//! admissions, evictions, rewrite hits, drift triggers (as instant span
//! events) and per-phase spans/timings under `online.*` names, exportable
//! as a JSON snapshot or a chrome://tracing dump.

#![forbid(unsafe_code)]

pub mod drift;
pub mod lifecycle;
pub mod reopt;
pub mod stream;

pub use drift::{DriftConfig, DriftDetector, DriftReport};
pub use lifecycle::{
    route_through_views, AdmitOutcome, Applied, LifecycleConfig, LiveView, ViewIndex,
    ViewLifecycleManager,
};
pub use av_select::SelectorKind;
pub use reopt::{
    benefit_matrix, freeze_estimates, reoptimize, selected_candidates, CandidateView, ReoptPlan,
    WindowSnapshot,
};
pub use stream::{ArrivedQuery, WorkloadStream};

use av_cost::CostEstimator;
use av_engine::{Catalog, EngineError, ExecCache, Pricing};
use av_obs::{Residual, ResidualStore, ResidualSummary};
use av_plan::{Fingerprint, PlanRef};
use av_trace::{Metrics, Tracer};
use std::collections::BTreeMap;

/// Everything the online engine can be tuned with.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    pub pricing: Pricing,
    /// Sliding-window length (queries).
    pub window_size: usize,
    /// Drift is checked every `check_every` arrivals once the window is
    /// full (checking costs an equivalence analysis of the window).
    pub check_every: u64,
    pub drift: DriftConfig,
    pub lifecycle: LifecycleConfig,
    /// Selection algorithm used by (re-)optimization.
    pub selector: SelectorKind,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            pricing: Pricing::paper_defaults(),
            window_size: 64,
            check_every: 8,
            drift: DriftConfig::default(),
            lifecycle: LifecycleConfig::default(),
            selector: SelectorKind::default(),
        }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    pub seq: u64,
    /// Cost of the query as submitted (no views).
    pub baseline_cost: f64,
    /// Cost actually paid (after routing through live views).
    pub actual_cost: f64,
    /// Subtree replacements made by routing.
    pub rewrite_hits: usize,
    /// Drift declared at this arrival, if any.
    pub drift: Option<DriftReport>,
    /// Whether a re-optimization ran (and its plan was applied).
    pub reoptimized: bool,
}

/// Cumulative cost accounting for a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineReport {
    pub queries: u64,
    /// Σ baseline (unrewritten) cost.
    pub baseline_cost: f64,
    /// Σ actually paid query cost.
    pub actual_cost: f64,
    /// Σ materialization overhead of every admitted view.
    pub view_overhead: f64,
    /// Views live right now.
    pub live_views: usize,
}

impl OnlineReport {
    /// Net dollars saved vs. running everything unrewritten:
    /// `baseline − actual − overhead`.
    pub fn net_saving(&self) -> f64 {
        self.baseline_cost - self.actual_cost - self.view_overhead
    }
}

/// The online system: ingest queries, route them through live views, adapt
/// the view set as the workload drifts.
pub struct OnlineEngine {
    config: OnlineConfig,
    catalog: Catalog,
    stream: WorkloadStream,
    drift: DriftDetector,
    lifecycle: ViewLifecycleManager,
    tracer: Tracer,
    estimator: Box<dyn CostEstimator>,
    /// Shared result cache: repeat arrivals of a window-resident query and
    /// re-optimization dry-runs are priced once per catalog epoch. Admit /
    /// evict bump the epoch, so routing changes invalidate it naturally.
    cache: ExecCache,
    /// Whether the initial (bootstrap) selection has run.
    bootstrapped: bool,
    report: OnlineReport,
    /// Estimated cost per window-query fingerprint, rebuilt after every
    /// re-optimization: `plan fp → (estimate, view canonical fp)`.
    estimates: BTreeMap<u64, (f64, Fingerprint)>,
    /// Estimator-residual stream: (estimate, measurement) for every routed
    /// arrival whose estimate is known.
    residuals: ResidualStore,
}

impl OnlineEngine {
    pub fn new(
        catalog: Catalog,
        estimator: Box<dyn CostEstimator>,
        config: OnlineConfig,
    ) -> OnlineEngine {
        let tracer = Tracer::new();
        OnlineEngine {
            catalog,
            stream: WorkloadStream::new(config.window_size),
            drift: DriftDetector::new(config.drift),
            lifecycle: ViewLifecycleManager::new(config.lifecycle),
            estimator,
            cache: ExecCache::new(config.pricing, 1).with_tracer(tracer.clone()),
            tracer,
            bootstrapped: false,
            config,
            report: OnlineReport::default(),
            estimates: BTreeMap::new(),
            residuals: ResidualStore::new(4096),
        }
    }

    /// Replace the engine's tracer (e.g. with a shared one whose snapshot a
    /// harness wants to export, or a disabled one to suppress span
    /// recording). Call before ingesting: earlier telemetry stays on the
    /// old tracer. The execution cache is re-pointed at the same tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> OnlineEngine {
        self.cache = ExecCache::new(self.config.pricing, 1).with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Process one arriving query end to end: route it through the live
    /// views, measure both costs, feed the window, and — on the check
    /// cadence — detect drift and re-optimize.
    pub fn ingest(&mut self, plan: &PlanRef) -> Result<QueryOutcome, EngineError> {
        // 1. Route through live views and price both variants.
        let (routed, hits) = self
            .tracer
            .time("online.route", || self.lifecycle.route(&self.catalog, plan));

        let baseline_cost = self.cache.cost(&self.catalog, plan)?;
        let actual_cost = if hits > 0 {
            self.cache.cost(&self.catalog, &routed)?
        } else {
            baseline_cost
        };

        // Estimator-residual telemetry: a routed arrival whose estimate was
        // frozen at the last re-optimization contributes an
        // (estimated, measured) pair to the residual stream.
        if hits > 0 {
            if let Some((est, view_fp)) = self.estimates.get(&Fingerprint::of(plan).0).copied() {
                self.residuals.record(Residual {
                    plan_fp: Fingerprint::of(plan).0,
                    view_fp: view_fp.0,
                    root_op: plan.op_keyword(),
                    estimated: est,
                    measured: actual_cost,
                });
                self.tracer.metrics().inc("online.residuals_recorded");
            }
        }

        // 2. Window bookkeeping. The window stores the *baseline* cost:
        //    candidate benefits must be judged against unrewritten queries.
        let seq = self.stream.ingest(plan.clone(), baseline_cost);

        let metrics = self.tracer.metrics();
        metrics.inc("online.queries_ingested");
        if hits > 0 {
            metrics.inc("online.queries_rewritten");
            metrics.add("online.rewrite_hits", hits as u64);
        }
        metrics.observe("online.query_cost_baseline", baseline_cost);
        metrics.observe("online.query_cost_actual", actual_cost);
        self.report.queries += 1;
        self.report.baseline_cost += baseline_cost;
        self.report.actual_cost += actual_cost;

        // 3. Adaptation: bootstrap when the window first fills, then drift
        //    checks on the configured cadence.
        let mut drift_report = None;
        let mut reoptimized = false;
        if self.stream.is_full() {
            if !self.bootstrapped {
                self.bootstrapped = true;
                let analysis = self.stream.analyze();
                let mass = self.stream.candidate_mass_from(&analysis);
                self.reoptimize_and_apply(&analysis)?;
                self.drift.rebase(&mass);
                reoptimized = true;
            } else if (seq + 1).is_multiple_of(self.config.check_every.max(1)) {
                let tracer = self.tracer.clone();
                let (analysis, report) = tracer.time("online.drift_check", || {
                    let analysis = self.stream.analyze();
                    let mass = self.stream.candidate_mass_from(&analysis);
                    let report = self.drift.observe(seq, &mass);
                    (analysis, report)
                });
                drift_report = report;
                if drift_report.is_some() {
                    tracer.instant("online.drift_trigger");
                    tracer.metrics().inc("online.drift_triggers");
                    self.reoptimize_and_apply(&analysis)?;
                    reoptimized = true;
                }
            }
        }

        self.report.live_views = self.lifecycle.live().len();
        Ok(QueryOutcome {
            seq,
            baseline_cost,
            actual_cost,
            rewrite_hits: hits,
            drift: drift_report,
            reoptimized,
        })
    }

    /// Re-run selection on the current window and apply the incremental
    /// create/drop plan to the live set.
    fn reoptimize_and_apply(
        &mut self,
        analysis: &av_equiv::WorkloadAnalysis,
    ) -> Result<(), EngineError> {
        let tracer = self.tracer.clone();
        tracer.time("online.reopt", || {
            let plan = reoptimize(
                &self.catalog,
                analysis,
                WindowSnapshot::new(&self.stream.plans(), &self.stream.costs()),
                self.estimator.as_ref(),
                &self.config.selector,
                &self.lifecycle.live_fingerprints(),
                &self.cache,
            )?;
            let metrics = tracer.metrics();
            metrics.inc("online.reopt_runs");

            let applied = self.lifecycle.apply(
                &mut self.catalog,
                &plan.drop,
                &plan.create,
                self.config.pricing,
                None,
            )?;
            metrics.add("online.views_evicted", applied.evicted as u64);
            metrics.add("online.views_admitted", applied.admitted.len() as u64);
            metrics.add("online.admissions_rejected", applied.rejected as u64);
            for v in applied.admitted.iter().filter_map(|id| self.lifecycle.view(*id)) {
                self.report.view_overhead += v.total_overhead();
                metrics.observe("online.view_bytes", v.byte_size as f64);
            }

            // Rebuild the frozen estimate table against the new live set,
            // keyed by each window query's submitted fingerprint.
            self.estimates = freeze_estimates(
                &self.catalog,
                &self.lifecycle,
                &self.stream.plans(),
                self.estimator.as_ref(),
            )
            .into_iter()
            .map(|(plan_fp, est, view_fp)| (plan_fp.0, (est, view_fp)))
            .collect();
            metrics.set_gauge("online.frozen_estimates", self.estimates.len() as f64);
            Ok(())
        })
    }

    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn lifecycle(&self) -> &ViewLifecycleManager {
        &self.lifecycle
    }

    pub fn stream(&self) -> &WorkloadStream {
        &self.stream
    }

    pub fn metrics(&self) -> &Metrics {
        self.tracer.metrics()
    }

    /// The engine's tracer: spans for routing, drift checks and
    /// re-optimization, plus instant `online.drift_trigger` events.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Hit/miss counters of the shared execution cache.
    pub fn cache_stats(&self) -> av_engine::CacheStats {
        self.cache.stats()
    }

    /// The estimator-residual stream (raw ring + q-error aggregates).
    pub fn residuals(&self) -> &ResidualStore {
        &self.residuals
    }

    /// Per-view / per-operator q-error summary of the residual stream.
    pub fn residual_summary(&self) -> ResidualSummary {
        self.residuals.summary()
    }

    /// JSON snapshot of the metrics registry.
    pub fn metrics_json(&self) -> String {
        self.tracer.metrics().to_json()
    }

    /// Cumulative cost accounting so far.
    pub fn report(&self) -> OnlineReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_cost::OptimizerEstimator;
    use av_select::IterViewConfig;
    use av_workload::cloud::mini;

    fn engine_for(w: &av_workload::Workload, window: usize, check_every: u64) -> OnlineEngine {
        OnlineEngine::new(
            w.catalog.clone(),
            Box::new(OptimizerEstimator::default()),
            OnlineConfig {
                pricing: Pricing::paper_defaults(),
                window_size: window,
                check_every,
                drift: DriftConfig {
                    threshold: 0.3,
                    min_queries_between: 8,
                },
                lifecycle: LifecycleConfig {
                    byte_budget: usize::MAX,
                    min_benefit_per_byte: 0.0,
                    tenant_byte_budget: usize::MAX,
                },
                selector: SelectorKind::IterView(IterViewConfig {
                    iterations: 30,
                    seed: 5,
                    freeze_after: None,
                }),
            },
        )
    }

    #[test]
    fn bootstrap_admits_views_and_routes_later_arrivals() {
        let w = mini(51);
        let plans = w.plans();
        let mut eng = engine_for(&w, plans.len(), 4);
        // First pass fills the window; the last arrival bootstraps.
        let mut bootstrapped_at = None;
        for (i, p) in plans.iter().enumerate() {
            let out = eng.ingest(p).expect("ingests");
            if out.reoptimized && bootstrapped_at.is_none() {
                bootstrapped_at = Some(i);
            }
        }
        assert_eq!(
            bootstrapped_at,
            Some(plans.len() - 1),
            "bootstrap fires exactly when the window fills"
        );
        assert!(eng.metrics().counter("online.views_admitted") > 0);
        assert!(!eng.lifecycle().live().is_empty());

        // Second pass: the same queries should now hit live views.
        let mut hits = 0;
        for p in &plans {
            let out = eng.ingest(p).expect("ingests");
            hits += out.rewrite_hits;
            assert!(out.actual_cost <= out.baseline_cost + 1e-12);
        }
        assert!(hits > 0, "live views must route repeat queries");
        assert_eq!(eng.metrics().counter("online.rewrite_hits"), hits as u64);

        let report = eng.report();
        assert_eq!(report.queries, 2 * plans.len() as u64);
        assert!(report.actual_cost <= report.baseline_cost);
    }

    #[test]
    fn stable_workload_never_redrifts() {
        let w = mini(52);
        let plans = w.plans();
        let mut eng = engine_for(&w, plans.len(), 4);
        for _ in 0..3 {
            for p in &plans {
                eng.ingest(p).expect("ingests");
            }
        }
        assert_eq!(
            eng.metrics().counter("online.drift_triggers"),
            0,
            "replaying the same workload is not drift"
        );
        assert_eq!(
            eng.metrics().counter("online.reopt_runs"),
            1,
            "bootstrap only"
        );
    }

    #[test]
    fn metrics_snapshot_reflects_session() {
        let w = mini(53);
        let plans = w.plans();
        let mut eng = engine_for(&w, plans.len(), 4);
        for _ in 0..2 {
            for p in &plans {
                eng.ingest(p).expect("ingests");
            }
        }
        let text = eng.metrics_json();
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let counters = doc
            .as_obj()
            .and_then(|o| o.iter().find(|(k, _)| k == "counters"))
            .map(|(_, v)| v.clone())
            .expect("counters key");
        let get = |name: &str| {
            counters
                .as_obj()
                .and_then(|o| o.iter().find(|(k, _)| k == name))
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or(0.0)
        };
        assert_eq!(get("online.queries_ingested"), (plans.len() * 2) as f64);
        assert!(get("online.views_admitted") >= 1.0);
        assert!(get("online.rewrite_hits") >= 1.0);
    }

    #[test]
    fn routed_arrivals_feed_the_residual_stream() {
        let w = mini(55);
        let plans = w.plans();
        let mut eng = engine_for(&w, plans.len(), 4);
        // Pass 1 fills the window and bootstraps (freezing estimates);
        // pass 2 routes repeats through the admitted views.
        for _ in 0..2 {
            for p in &plans {
                eng.ingest(p).expect("ingests");
            }
        }
        let summary = eng.residual_summary();
        assert!(summary.recorded > 0, "routed repeats must record residuals");
        assert!(!summary.per_view.is_empty(), "per-view aggregates populate");
        assert!(!summary.per_op.is_empty(), "per-op aggregates populate");
        let (total_q, total_degen) = summary
            .per_op
            .iter()
            .fold((0, 0), |(s, d), (_, a)| (s + a.samples, d + a.degenerate));
        assert_eq!(total_q + total_degen, summary.recorded);
        assert_eq!(
            eng.metrics().counter("online.residuals_recorded"),
            summary.recorded
        );
        let recent = eng.residuals().recent(8);
        assert!(!recent.is_empty());
        assert!(recent.iter().all(|r| r.measured > 0.0));
    }

    #[test]
    fn session_records_spans_and_timings() {
        let w = mini(54);
        let plans = w.plans();
        let mut eng = engine_for(&w, plans.len(), 4);
        for _ in 0..2 {
            for p in &plans {
                eng.ingest(p).expect("ingests");
            }
        }
        let snap = eng.tracer().snapshot();
        let names: std::collections::BTreeSet<&str> =
            snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains("online.route"), "routing spans: {names:?}");
        assert!(
            names.contains("online.reopt"),
            "bootstrap re-optimization span: {names:?}"
        );
        assert!(
            names.contains("exec.scan"),
            "cache-miss executions record operator spans: {names:?}"
        );
        // Phase timings accumulate alongside the spans.
        let route = eng.metrics().timing("online.route").expect("route timing");
        assert_eq!(route.count, 2 * plans.len() as u64);
        // Every arrival prices its baseline through the shared cache; the
        // cache's own counters are the record of it.
        let cache = eng.cache_stats();
        assert!(cache.misses > 0, "first arrivals execute");
        assert!(cache.hits + cache.misses >= 2 * plans.len() as u64);
    }
}
