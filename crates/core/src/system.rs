//! The end-to-end AutoView system and the Table V experiment loop.

use crate::metadata::MetadataDb;
use crate::truth::{
    collect_pair_truth, preprocess_and_measure, preprocess_and_measure_traced, rewrite_pair,
    Preprocessed,
};
use av_cost::{CostEstimator, FeatureInput, OptimizerEstimator, WideDeep, WideDeepConfig};
use av_engine::{Catalog, EngineError, ExecCache, Pricing, RecordBatch};
use av_ilp::MvsInstance;
use av_online::{
    benefit_matrix, selected_candidates, CandidateView, DriftConfig, DriftDetector, DriftReport,
    WindowSnapshot, WorkloadStream,
};
use av_plan::PlanRef;
pub use av_select::SelectorKind;
use av_select::{RlViewConfig, SelectionResult};
use av_serve::{ReoptSummary, ServeConfig, ServeError, ViewServer};
use av_trace::Tracer;
use std::sync::Arc;

/// Which cost estimator drives the benefit matrix.
#[derive(Debug, Clone)]
pub enum EstimatorKind {
    /// The paper's Wide-Deep model (`W` in Table V's W&B / W&R).
    WideDeep(WideDeepConfig),
    /// The analytical optimizer baseline (`O` in O&B / O&R).
    Optimizer,
}

impl EstimatorKind {
    /// Short display name (`W` / `O`).
    pub fn short_name(&self) -> &'static str {
        match self {
            EstimatorKind::WideDeep(_) => "W",
            EstimatorKind::Optimizer => "O",
        }
    }
}

/// End-to-end configuration.
#[derive(Debug, Clone)]
pub struct AutoViewConfig {
    pub pricing: Pricing,
    pub estimator: EstimatorKind,
    pub selector: SelectorKind,
    /// Cap on executed training pairs (ground-truth collection cost).
    pub max_training_pairs: usize,
    pub seed: u64,
}

impl Default for AutoViewConfig {
    fn default() -> Self {
        AutoViewConfig {
            pricing: Pricing::paper_defaults(),
            estimator: EstimatorKind::WideDeep(WideDeepConfig::default()),
            selector: SelectorKind::RlView(RlViewConfig::default()),
            max_training_pairs: 500,
            seed: 42,
        }
    }
}

/// The end-to-end numbers of the paper's Table V, for one method combo.
#[derive(Debug, Clone)]
pub struct EndToEndReport {
    /// `E&S` label, e.g. `W&R`.
    pub method: String,
    /// Raw workload: query count, total cost (`c_q`, $), total latency (s).
    pub num_queries: usize,
    pub raw_cost: f64,
    pub raw_latency: f64,
    /// Materialized views: count (`#m`) and total overhead (`o_m`, $).
    pub num_views: usize,
    pub view_overhead: f64,
    /// Rewritten queries: count (`#(q|v)`) and actual total benefit
    /// (`b_{q|v}`, $).
    pub num_rewritten: usize,
    pub benefit: f64,
    /// Latency of the rewritten workload (s).
    pub rewritten_latency: f64,
    /// Saved-cost ratio `r_c = (b_{q|v} − o_m) / c_q`, in percent.
    pub saved_ratio_percent: f64,
    /// Utility claimed by the selector on the *estimated* benefit matrix
    /// (diagnostic: estimation error is the gap to `benefit − overhead`).
    pub estimated_utility: f64,
}

/// The assembled system (paper Fig. 3).
pub struct AutoViewSystem {
    pub catalog: Catalog,
    pub queries: Vec<PlanRef>,
    pub config: AutoViewConfig,
    pub metadata: MetadataDb,
    tracer: Tracer,
    /// The catalog as it was before preprocessing materialized candidate
    /// tables into it; serving snapshots are built from this base so the
    /// server's own view store starts from a clean namespace.
    serving_base: Option<Catalog>,
    /// Views chosen by the last [`AutoViewSystem::run`], in the shape the
    /// serving layer admits.
    selected: Vec<CandidateView>,
}

impl AutoViewSystem {
    /// Build a system over a catalog and workload.
    ///
    /// Debug builds install the `av-analyze` plan verifier as the engine's
    /// preflight gate: every plan the pipeline executes is schema-checked
    /// before touching data. Release builds skip the gate.
    ///
    /// Span recording is off by default; attach a live tracer with
    /// [`AutoViewSystem::with_tracer`] to record the pipeline's span tree
    /// (phases `pipeline.*`, steps `core.*` / `cost.*` / `select.*`;
    /// executions record no spans). The `pipeline.*` phase
    /// timings and the metrics registry are live either way.
    pub fn new(catalog: Catalog, queries: Vec<PlanRef>, config: AutoViewConfig) -> AutoViewSystem {
        if cfg!(debug_assertions) {
            av_analyze::install_engine_gate();
        }
        AutoViewSystem {
            catalog,
            queries,
            config,
            metadata: MetadataDb::new(),
            tracer: Tracer::disabled(),
            serving_base: None,
            selected: Vec::new(),
        }
    }

    /// Attach an observability tracer; every stage of [`AutoViewSystem::run`]
    /// records into it.
    pub fn with_tracer(mut self, tracer: Tracer) -> AutoViewSystem {
        self.tracer = tracer;
        self
    }

    /// The system's tracer (span-less unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Run the full pipeline: pre-process → offline training → online
    /// recommendation → deploy → execute. Returns the Table V row.
    ///
    /// With a tracer attached, the run produces a span tree with one root
    /// phase per stage: `pipeline.preprocess`, `pipeline.truth`,
    /// `pipeline.train`, `pipeline.select`, `pipeline.deploy`.
    pub fn run(&mut self) -> Result<EndToEndReport, EngineError> {
        let pricing = self.config.pricing;
        let tracer = self.tracer.clone();
        // Preprocessing materializes every candidate into `self.catalog`
        // (tables `__view_*`); keep a copy-on-write snapshot of the clean
        // catalog so `publish` can hand the serving layer an unpolluted
        // namespace. The clone shares table data via `Arc`, so this is a
        // pointer copy, not a data copy.
        self.serving_base = Some(self.catalog.clone());
        let pre = tracer.time("pipeline.preprocess", || {
            preprocess_and_measure_traced(&mut self.catalog, &self.queries, pricing, &tracer)
        })?;

        // ---- offline: ground truth + estimator training ------------------
        let pairs = tracer.time("pipeline.truth", || {
            collect_pair_truth(
                &self.catalog,
                &pre,
                &self.queries,
                self.config.max_training_pairs,
                self.config.seed,
            )
        })?;
        self.metadata.query_costs = pre.query_costs.clone();
        self.metadata.query_latencies = pre.query_latencies.clone();
        self.metadata.candidate_overheads = pre.overheads.clone();
        self.metadata.pair_index = pairs.iter().map(|p| (p.query, p.candidate)).collect();
        self.metadata.pair_samples = pairs.iter().map(|p| p.sample.clone()).collect();

        let estimator: Box<dyn CostEstimator> =
            tracer.time("pipeline.train", || match &self.config.estimator {
                EstimatorKind::Optimizer => {
                    Box::new(OptimizerEstimator::default()) as Box<dyn CostEstimator>
                }
                EstimatorKind::WideDeep(cfg) => {
                    let train: Vec<(FeatureInput, f64)> = pairs
                        .iter()
                        .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
                        .collect();
                    let model = WideDeep::fit_with_tracer(&train, cfg.clone(), &tracer)
                        .0
                        .with_tracer(tracer.clone());
                    Box::new(model)
                }
            });

        // ---- online: benefit matrix + selection --------------------------
        let (instance, selection) = tracer.time("pipeline.select", || {
            let instance = self.build_instance(&pre, estimator.as_ref());
            let selection = self.config.selector.run_traced(&instance, &tracer);
            (instance, selection)
        });
        self.selected = selected_candidates(&pre.analysis, &instance, &selection);

        // ---- deploy & execute ---------------------------------------------
        let report = tracer.time("pipeline.deploy", || {
            self.execute_selection(&pre, &selection)
        })?;
        Ok(report)
    }

    /// Estimate the benefit matrix with a trained estimator and assemble
    /// the MVS instance. Benefits are kept signed: a view the estimator
    /// predicts to slow a query down must count against selecting it.
    pub fn build_instance(&self, pre: &Preprocessed, estimator: &dyn CostEstimator) -> MvsInstance {
        let benefits = benefit_matrix(
            &self.catalog,
            &pre.analysis,
            WindowSnapshot::new(&self.queries, &pre.query_costs),
            estimator,
        );
        MvsInstance {
            benefits,
            overheads: pre.overheads.clone(),
            overlaps: pre.analysis.overlap_pairs.clone(),
        }
    }

    /// Deploy a selection: rewrite the workload with the chosen views,
    /// execute it, and assemble the Table V row.
    pub fn execute_selection(
        &self,
        pre: &Preprocessed,
        selection: &SelectionResult,
    ) -> Result<EndToEndReport, EngineError> {
        let num_views = selection.num_materialized();
        let view_overhead: f64 = selection
            .z
            .iter()
            .zip(&pre.overheads)
            .map(|(&z, &o)| if z { o } else { 0.0 })
            .sum();

        let mut num_rewritten = 0usize;
        let mut benefit = 0.0;
        let mut rewritten_latency = 0.0;
        for (i, q) in self.queries.iter().enumerate() {
            let mut plan = q.clone();
            let mut used_any = false;
            for (j, &use_view) in selection.y[i].iter().enumerate() {
                if !use_view {
                    continue;
                }
                if let Some(next) = rewrite_pair(&self.catalog, pre, &plan, i, j) {
                    plan = next;
                    used_any = true;
                }
            }
            if used_any {
                // Training-pair collection likely already executed this
                // rewritten shape; the shared cache makes deployment free.
                let report = pre.cache.report(&self.catalog, &plan)?;
                num_rewritten += 1;
                benefit += pre.query_costs[i] - report.cost_dollars;
                rewritten_latency += report.usage.latency_seconds;
            } else {
                rewritten_latency += pre.query_latencies[i];
            }
        }

        let raw_cost: f64 = pre.query_costs.iter().sum();
        let raw_latency: f64 = pre.query_latencies.iter().sum();
        Ok(EndToEndReport {
            method: format!(
                "{}&{}",
                self.config.estimator.short_name(),
                self.config.selector.short_name()
            ),
            num_queries: self.queries.len(),
            raw_cost,
            raw_latency,
            num_views,
            view_overhead,
            num_rewritten,
            benefit,
            rewritten_latency,
            saved_ratio_percent: if raw_cost > 0.0 {
                100.0 * (benefit - view_overhead) / raw_cost
            } else {
                0.0
            },
            estimated_utility: selection.utility,
        })
    }

    /// Views chosen by the last [`AutoViewSystem::run`] (empty before a run).
    pub fn selected_views(&self) -> &[CandidateView] {
        &self.selected
    }

    /// Stand up a serving snapshot from the last run's selection: builds an
    /// `av-serve` [`ViewServer`] over the *pre-preprocessing* catalog (the
    /// pipeline materializes every candidate as `__view_*` scratch tables;
    /// serving starts from the clean base instead), admits the selected
    /// views under `owner`'s byte budget, preflights the deployment against
    /// the workload, and atomically publishes epoch 1.
    ///
    /// The server's own re-optimization path uses the analytical optimizer
    /// estimator; the offline selection being published already encodes
    /// whatever estimator [`AutoViewConfig::estimator`] chose.
    pub fn publish(
        &self,
        config: ServeConfig,
        owner: Option<&str>,
    ) -> Result<(ViewServer, ReoptSummary), ServeError> {
        let base = self
            .serving_base
            .clone()
            .unwrap_or_else(|| self.catalog.clone());
        let server = ViewServer::with_tracer(
            base,
            Box::new(OptimizerEstimator::default()),
            config,
            self.tracer.clone(),
        );
        let summary = server.publish(&self.selected, owner, &self.queries)?;
        Ok((server, summary))
    }
}

/// Configuration for the streaming (online) system.
#[derive(Debug, Clone)]
pub struct OnlineSystemConfig {
    /// The server every arrival is executed by. Its `pricing`, `lifecycle`,
    /// `selector` and `min_query_frequency` are the only copies of those
    /// settings: selection and the drift analysis both read them from here.
    pub serve: ServeConfig,
    /// Sliding-window length (queries).
    pub window_size: usize,
    /// Drift is checked every `check_every` arrivals once the window is
    /// full (checking costs an equivalence analysis of the window).
    pub check_every: u64,
    pub drift: DriftConfig,
    /// Estimator powering the benefit matrix at each re-optimization.
    pub estimator: EstimatorKind,
    /// Cap on executed training pairs for Wide-Deep warmup.
    pub max_training_pairs: usize,
    pub seed: u64,
}

impl Default for OnlineSystemConfig {
    fn default() -> Self {
        OnlineSystemConfig {
            serve: ServeConfig::default(),
            window_size: 64,
            check_every: 8,
            drift: DriftConfig::default(),
            estimator: EstimatorKind::Optimizer,
            max_training_pairs: 200,
            seed: 42,
        }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub seq: u64,
    /// The served result, shared with the server's result cache.
    pub batch: Arc<RecordBatch>,
    /// Cost of the query as submitted (no views).
    pub baseline_cost: f64,
    /// Cost actually paid (after routing through live views).
    pub actual_cost: f64,
    /// Subtree replacements made by routing.
    pub rewrite_hits: usize,
    /// Drift declared at this arrival, if any.
    pub drift: Option<DriftReport>,
    /// Whether a re-optimization ran at this arrival (published or refused).
    pub reoptimized: bool,
}

/// Cumulative accounting for a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineReport {
    pub queries: u64,
    /// Σ baseline (unrewritten) cost.
    pub baseline_cost: f64,
    /// Σ actually paid query cost.
    pub actual_cost: f64,
    /// Σ materialization overhead of every view a swap brought live.
    pub view_overhead: f64,
    /// Views live right now.
    pub live_views: usize,
    /// Σ over published re-optimizations of what each admitted, evicted and
    /// turned away.
    pub views_admitted: usize,
    pub views_evicted: usize,
    pub admissions_rejected: usize,
    /// Drift declarations.
    pub drift_triggers: u64,
    /// Re-optimizations that published an epoch (bootstrap included).
    pub reopts: u64,
    /// Re-optimizations whose candidate deployment failed its preflight;
    /// the previous epoch kept serving.
    pub preflight_refused: u64,
}

impl OnlineReport {
    /// Net dollars saved vs. running everything unrewritten:
    /// `baseline − actual − overhead`.
    pub fn net_saving(&self) -> f64 {
        self.baseline_cost - self.actual_cost - self.view_overhead
    }
}

/// The streaming counterpart of [`AutoViewSystem`]: a drift loop over one
/// [`ViewServer`]. Queries arrive one at a time and are served by the
/// server — routed through the published epoch's views, cached, recorded —
/// while a sliding window tracks the recent workload; when the window's
/// candidate cost-mass distribution shifts, the server re-optimizes on the
/// window and publishes the next epoch through its preflight gate.
///
/// The Wide-Deep estimator needs labelled pairs before it can predict, so
/// construction optionally takes a *warmup* workload: ground truth is
/// collected on a scratch copy of the catalog (exactly the batch pipeline's
/// offline stage) and the model is trained once, up front. With
/// [`EstimatorKind::Optimizer`] (or an empty warmup) no training happens.
pub struct OnlineSystem {
    server: ViewServer,
    stream: WorkloadStream,
    drift: DriftDetector,
    check_every: u64,
    /// Prices a rewritten arrival as submitted, against the published
    /// catalog.
    baseline: ExecCache,
    /// Whether the initial (bootstrap) selection has run.
    bootstrapped: bool,
    report: OnlineReport,
}

impl OnlineSystem {
    pub fn new(
        catalog: Catalog,
        warmup_queries: &[PlanRef],
        config: OnlineSystemConfig,
    ) -> Result<OnlineSystem, EngineError> {
        OnlineSystem::with_tracer(catalog, warmup_queries, config, Tracer::disabled())
    }

    /// [`OnlineSystem::new`] with the server on a caller-supplied tracer
    /// (its `serve.reopt` spans and the `core.drift_check` timings land
    /// there).
    pub fn with_tracer(
        catalog: Catalog,
        warmup_queries: &[PlanRef],
        config: OnlineSystemConfig,
        tracer: Tracer,
    ) -> Result<OnlineSystem, EngineError> {
        if cfg!(debug_assertions) {
            av_analyze::install_engine_gate();
        }
        let estimator = Self::build_estimator(&catalog, warmup_queries, &config)?;
        Ok(OnlineSystem {
            stream: WorkloadStream::new(config.window_size, config.serve.min_query_frequency),
            drift: DriftDetector::new(config.drift),
            check_every: config.check_every.max(1),
            baseline: ExecCache::new(config.serve.pricing, 1),
            bootstrapped: false,
            report: OnlineReport::default(),
            server: ViewServer::with_tracer(catalog, estimator, config.serve, tracer),
        })
    }

    fn build_estimator(
        catalog: &Catalog,
        warmup_queries: &[PlanRef],
        config: &OnlineSystemConfig,
    ) -> Result<Box<dyn CostEstimator + Send>, EngineError> {
        let EstimatorKind::WideDeep(wd_cfg) = &config.estimator else {
            return Ok(Box::new(OptimizerEstimator::default()));
        };
        if warmup_queries.is_empty() {
            // Nothing to train on: degrade to the analytical baseline.
            return Ok(Box::new(OptimizerEstimator::default()));
        }
        // Offline stage on a scratch catalog — warmup materializations must
        // not leak into the live catalog.
        let mut scratch = catalog.clone();
        let pricing = config.serve.pricing;
        let pre = preprocess_and_measure(&mut scratch, warmup_queries, pricing)?;
        let pairs = collect_pair_truth(
            &scratch,
            &pre,
            warmup_queries,
            config.max_training_pairs,
            config.seed,
        )?;
        if pairs.is_empty() {
            return Ok(Box::new(OptimizerEstimator::default()));
        }
        let train: Vec<(FeatureInput, f64)> = pairs
            .iter()
            .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
            .collect();
        Ok(Box::new(WideDeep::fit(&train, wd_cfg.clone())))
    }

    /// Process one arriving query end to end: the server executes it
    /// (tenant `"online"`) for the result, the paid cost and the hits; if
    /// views fired, the submitted plan is priced against the published
    /// catalog for the window and the report; and — when the window first fills, then on
    /// the check cadence — drift is checked and the server re-optimizes.
    ///
    /// A candidate deployment the preflight refuses is counted
    /// ([`OnlineReport::preflight_refused`]) and the stream goes on against
    /// the epoch still published; only a failed execution is an error.
    pub fn ingest(&mut self, plan: &PlanRef) -> Result<QueryOutcome, ServeError> {
        let served = self.server.execute("online", plan)?;
        // The window stores the *baseline* cost: candidate benefits must be
        // judged against unrewritten queries. An arrival no view fired on
        // was served as submitted, so what it paid is its baseline.
        let baseline_cost = if served.rewrite_hits == 0 {
            served.cost_dollars
        } else {
            self.baseline.cost(self.server.current().catalog(), plan)?
        };
        let seq = self.stream.ingest(plan.clone(), baseline_cost);
        self.report.queries += 1;
        self.report.baseline_cost += baseline_cost;
        self.report.actual_cost += served.cost_dollars;

        let mut drift = None;
        let mut reoptimized = false;
        if self.stream.is_full() {
            if !self.bootstrapped {
                self.reoptimize()?;
                self.bootstrapped = true;
                self.drift.rebase(&self.stream.candidate_mass());
                reoptimized = true;
            } else if (seq + 1).is_multiple_of(self.check_every) {
                drift = self.server.tracer().time("core.drift_check", || {
                    self.drift.observe(seq, &self.stream.candidate_mass())
                });
                if drift.is_some() {
                    self.report.drift_triggers += 1;
                    self.reoptimize()?;
                    reoptimized = true;
                }
            }
        }

        Ok(QueryOutcome {
            seq,
            batch: served.batch,
            baseline_cost,
            actual_cost: served.cost_dollars,
            rewrite_hits: served.rewrite_hits,
            drift,
            reoptimized,
        })
    }

    /// Ask the server to re-select on the window and fold what it did into
    /// the report. The server analyzes the window itself — on a drift
    /// trigger that repeats the analysis the check just made, a cost paid
    /// for keeping one re-optimization entry point.
    fn reoptimize(&mut self) -> Result<(), ServeError> {
        let before = self.server.current();
        let summary = match self.server.reoptimize(&self.stream.plans(), None) {
            Ok(summary) => summary,
            Err(ServeError::InvalidDeployment(_)) => {
                self.report.preflight_refused += 1;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.report.reopts += 1;
        self.report.views_admitted += summary.admitted;
        self.report.views_evicted += summary.dropped;
        self.report.admissions_rejected += summary.rejected;
        self.report.live_views = summary.live_views;
        let was_live = |id| before.views().iter().any(|(_, v)| v.id == id);
        for (_, view) in self.server.current().views() {
            if !was_live(view.id) {
                self.report.view_overhead += view.total_overhead();
            }
        }
        Ok(())
    }

    /// Cumulative accounting so far.
    pub fn report(&self) -> OnlineReport {
        self.report
    }

    /// The server behind the loop: its `metrics()`, `stats_snapshot()`,
    /// flight records and published deployment describe the session.
    pub fn server(&self) -> &ViewServer {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_select::{BigSubConfig, GreedyRank};
    use av_workload::cloud::mini;

    fn quick_wd() -> WideDeepConfig {
        WideDeepConfig {
            epochs: 4,
            embed_dim: 8,
            lstm1_hidden: 8,
            lstm2_hidden: 8,
            ..WideDeepConfig::default()
        }
    }

    fn quick_rl() -> RlViewConfig {
        RlViewConfig {
            n1: 5,
            n2: 6,
            memory_size: 10,
            max_steps_per_epoch: 25,
            ..RlViewConfig::default()
        }
    }

    /// An online system over `w` whose window holds the whole workload, on
    /// a live tracer, with an unlimited view budget.
    fn online_for(w: &av_workload::Workload, check_every: u64) -> OnlineSystem {
        let mut serve = ServeConfig::default();
        serve.lifecycle.byte_budget = usize::MAX;
        serve.selector = SelectorKind::IterView(av_select::IterViewConfig {
            iterations: 30,
            seed: 5,
            freeze_after: None,
        });
        OnlineSystem::with_tracer(
            w.catalog.clone(),
            &[],
            OnlineSystemConfig {
                serve,
                window_size: w.plans().len(),
                check_every,
                drift: DriftConfig {
                    threshold: 0.3,
                    min_queries_between: 8,
                },
                ..OnlineSystemConfig::default()
            },
            Tracer::new(),
        )
        .expect("constructs")
    }

    /// `passes` passes of `plans` through `sys`.
    fn stream(sys: &mut OnlineSystem, plans: &[PlanRef], passes: usize) {
        for _ in 0..passes {
            for p in plans {
                sys.ingest(p).expect("ingests");
            }
        }
    }

    fn counter(sys: &OnlineSystem, name: &str) -> u64 {
        sys.server()
            .metrics()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn bootstrap_admits_views_and_routes_later_arrivals() {
        let w = mini(51);
        let plans = w.plans();
        let mut sys = online_for(&w, 4);
        // First pass fills the window; the last arrival bootstraps.
        let mut bootstrapped_at = None;
        for (i, p) in plans.iter().enumerate() {
            let out = sys.ingest(p).expect("ingests");
            if out.reoptimized && bootstrapped_at.is_none() {
                bootstrapped_at = Some(i);
            }
        }
        assert_eq!(
            bootstrapped_at,
            Some(plans.len() - 1),
            "bootstrap fires exactly when the window fills"
        );
        assert!(sys.report().views_admitted > 0);
        assert!(!sys.server().current().views().is_empty());
        // The bootstrap went through the server's preflight: every rewrite
        // the new epoch serves was proved, none refused.
        assert!(counter(&sys, "serve.preflight.proved") > 0);
        assert_eq!(counter(&sys, "serve.preflight.unknown"), 0);
        assert_eq!(counter(&sys, "serve.preflight_failures"), 0);
        assert_eq!(sys.report().preflight_refused, 0);

        // Second pass: the same queries should now hit live views.
        let mut hits = 0;
        for p in &plans {
            let out = sys.ingest(p).expect("ingests");
            hits += out.rewrite_hits;
            assert!(out.actual_cost <= out.baseline_cost + 1e-12);
        }
        assert!(hits > 0, "live views must route repeat queries");
        assert_eq!(counter(&sys, "serve.rewrite_hits"), hits as u64);

        let report = sys.report();
        assert_eq!(report.queries, 2 * plans.len() as u64);
        assert!(report.actual_cost < report.baseline_cost);
        assert_eq!(report.live_views, sys.server().current().views().len());
    }

    #[test]
    fn stable_workload_never_redrifts() {
        let w = mini(52);
        let mut sys = online_for(&w, 4);
        stream(&mut sys, &w.plans(), 3);
        assert_eq!(
            sys.report().drift_triggers,
            0,
            "replaying the same workload is not drift"
        );
        assert_eq!(counter(&sys, "serve.reopt_runs"), 1, "bootstrap only");
        assert_eq!(counter(&sys, "serve.swaps"), sys.report().reopts);
    }

    #[test]
    fn metrics_snapshot_reflects_session() {
        let w = mini(53);
        let plans = w.plans();
        let mut sys = online_for(&w, 4);
        stream(&mut sys, &plans, 2);
        let text = serde_json::to_string(&sys.server().metrics()).expect("serializes");
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
        assert_eq!(get("serve.requests"), (plans.len() * 2) as f64);
        assert_eq!(get("serve.swaps"), sys.report().reopts as f64);
        assert!(get("serve.rewrite_hits") >= 1.0);
        assert!(sys.report().views_admitted >= 1);
    }

    #[test]
    fn routed_arrivals_feed_the_residual_stream() {
        let w = mini(55);
        let mut sys = online_for(&w, 4);
        // Pass 1 fills the window and bootstraps (freezing estimates);
        // pass 2 routes repeats through the admitted views.
        stream(&mut sys, &w.plans(), 2);
        let summary = sys.server().stats_snapshot().residuals;
        assert!(summary.recorded > 0, "routed repeats must record residuals");
        assert!(!summary.per_view.is_empty(), "per-view aggregates populate");
        assert!(!summary.per_op.is_empty(), "per-op aggregates populate");
        let (total_q, total_degen) = summary
            .per_op
            .iter()
            .fold((0, 0), |(s, d), (_, a)| (s + a.samples, d + a.degenerate));
        assert_eq!(total_q + total_degen, summary.recorded);
        let records = sys.server().obs().dump_now("unit-test").records;
        let estimated: Vec<_> = records.iter().filter(|r| r.est_cost.is_some()).collect();
        assert_eq!(estimated.len() as u64, summary.recorded);
        assert!(estimated.iter().all(|r| r.meas_cost > 0.0));
    }

    #[test]
    fn session_records_spans_and_timings() {
        let w = mini(54);
        let plans = w.plans();
        let mut sys = online_for(&w, 4);
        stream(&mut sys, &plans, 2);
        let server = sys.server();
        let snap = server.tracer().snapshot();
        assert!(
            snap.spans.iter().any(|s| s.name == "serve.reopt"),
            "bootstrap re-optimization span"
        );
        assert!(
            server
                .tracer()
                .metrics()
                .timing("core.drift_check")
                .is_some(),
            "drift checks are timed"
        );
        // One flight record per arrival, each timed by the server.
        assert_eq!(
            server.obs().dump_now("unit-test").records.len(),
            2 * plans.len()
        );
        assert_eq!(
            server.metrics().timings["serve.request"].count,
            2 * plans.len() as u64
        );
        // Every arrival goes through the server's result cache exactly once.
        let cache = server.cache_stats();
        assert!(cache.misses > 0, "first arrivals execute");
        assert_eq!(cache.hits + cache.misses, 2 * plans.len() as u64);
    }

    #[test]
    fn online_system_adapts_and_saves() {
        let w = mini(60);
        let plans = w.plans();
        let mut sys = online_for(&w, 8);
        stream(&mut sys, &plans, 2);
        let report = sys.report();
        assert_eq!(report.queries, 2 * plans.len() as u64);
        assert!(report.live_views > 0, "bootstrap selection admits views");
        assert!(
            report.actual_cost < report.baseline_cost,
            "repeat queries must route through views"
        );
        assert!(report.views_admitted > 0);
    }

    #[test]
    fn online_system_trains_widedeep_on_warmup() {
        let w = mini(61);
        let plans = w.plans();
        let mut sys = OnlineSystem::new(
            w.catalog.clone(),
            &plans,
            OnlineSystemConfig {
                window_size: plans.len(),
                estimator: EstimatorKind::WideDeep(quick_wd()),
                max_training_pairs: 40,
                ..OnlineSystemConfig::default()
            },
        )
        .expect("constructs with trained estimator");
        // The warmup ran on a scratch catalog: no view tables leaked.
        assert!(sys
            .server()
            .current()
            .catalog()
            .table_names()
            .all(|t| !t.starts_with("__view_")));
        stream(&mut sys, &plans, 1);
        assert!(sys.report().queries == plans.len() as u64);
    }

    #[test]
    fn end_to_end_wd_rlview_saves_cost() {
        let w = mini(50);
        let mut sys = AutoViewSystem::new(
            w.catalog.clone(),
            w.plans(),
            AutoViewConfig {
                estimator: EstimatorKind::WideDeep(quick_wd()),
                selector: SelectorKind::RlView(quick_rl()),
                max_training_pairs: 60,
                ..AutoViewConfig::default()
            },
        );
        let r = sys.run().expect("pipeline runs");
        assert_eq!(r.method, "W&R");
        assert_eq!(r.num_queries, 40);
        assert!(r.raw_cost > 0.0);
        assert!(r.num_views > 0, "mini workload has profitable views");
        assert!(r.num_rewritten > 0);
        assert!(
            r.benefit > 0.0,
            "rewritten queries must be cheaper in aggregate: {r:?}"
        );
        assert!(sys.metadata.num_pairs() > 0, "metadata collected");
    }

    #[test]
    fn published_snapshot_serves_selection() {
        use av_engine::Executor;

        let w = mini(52);
        let plans = w.plans();
        let mut sys = AutoViewSystem::new(
            w.catalog.clone(),
            plans.clone(),
            AutoViewConfig {
                estimator: EstimatorKind::Optimizer,
                selector: SelectorKind::RlView(quick_rl()),
                max_training_pairs: 30,
                ..AutoViewConfig::default()
            },
        );
        assert!(sys.selected_views().is_empty(), "no selection before run");
        let report = sys.run().expect("pipeline runs");
        assert!(report.num_views > 0, "mini workload has profitable views");
        assert_eq!(
            sys.selected_views().len(),
            report.num_views,
            "stashed candidates mirror the Table V `#m` column"
        );

        let serve_cfg = av_serve::ServeConfig {
            lifecycle: av_online::LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            ..av_serve::ServeConfig::default()
        };
        // The lifecycle re-screens admissions: a selected view that earned
        // no positive assignment in the benefit matrix is turned away.
        let positive = sys
            .selected_views()
            .iter()
            .filter(|c| c.expected_benefit > 0.0)
            .count();
        let (server, summary) = sys.publish(serve_cfg, Some("tenant0")).expect("publishes");
        assert_eq!(summary.epoch, 1, "publication swaps epoch 0 -> 1");
        assert_eq!(server.epoch(), 1);
        assert_eq!(
            summary.admitted, positive,
            "positive-benefit views admitted"
        );
        assert_eq!(
            summary.admitted + summary.rejected,
            report.num_views,
            "every selected view was screened"
        );
        assert!(summary.admitted > 0, "selection admits views: {summary:?}");

        // The serving catalog holds exactly the admitted views' tables — the
        // pipeline's per-candidate scratch tables stay out of the snapshot.
        let deployed = server.current();
        let scratch = deployed
            .catalog()
            .table_names()
            .filter(|t| t.starts_with("__view_"))
            .count();
        assert_eq!(scratch, summary.admitted);

        // Serving answers match raw execution, and the views actually route.
        let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
        let mut hits = 0usize;
        for p in &plans {
            let resp = server.execute("tenant0", p).expect("serves");
            assert_eq!(resp.batch, exec.run(p).expect("raw run").batch);
            hits += resp.rewrite_hits;
        }
        assert!(hits > 0, "published views rewrite the workload");
    }

    #[test]
    fn traced_run_produces_phase_tree_and_chrome_trace() {
        let w = mini(55);
        let tracer = Tracer::new();
        let mut sys = AutoViewSystem::new(
            w.catalog.clone(),
            w.plans(),
            AutoViewConfig {
                estimator: EstimatorKind::WideDeep(quick_wd()),
                selector: SelectorKind::RlView(quick_rl()),
                max_training_pairs: 30,
                ..AutoViewConfig::default()
            },
        )
        .with_tracer(tracer.clone());
        sys.run().expect("pipeline runs");

        let snap = tracer.snapshot();
        // Root spans are the pipeline phases — the acceptance bar is >= 4.
        let phases = snap.phase_names();
        assert!(
            phases.len() >= 4,
            "expected >= 4 pipeline phases, got {phases:?}"
        );
        for expect in [
            "pipeline.preprocess",
            "pipeline.truth",
            "pipeline.train",
            "pipeline.select",
            "pipeline.deploy",
        ] {
            assert!(phases.iter().any(|p| p == expect), "missing {expect}");
        }
        // Phase steps are recorded; executor operators are metered, not
        // traced.
        assert!(
            snap.spans.iter().any(|s| s.name == "core.measure_queries"),
            "core.* phase steps recorded"
        );
        assert!(
            snap.spans.iter().all(|s| !s.name.starts_with("exec.")),
            "no per-operator spans"
        );
        // Training and RL telemetry landed in the registry.
        assert!(snap.metrics.histograms.contains_key("cost.epoch_loss"));
        assert!(snap.metrics.gauges.contains_key("select.epsilon"));

        // The chrome-trace export is valid JSON with one event per span.
        let text = av_trace::chrome_trace(&snap);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid chrome trace");
        let events = doc
            .as_obj()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_arr().map(|a| a.len()))
            .expect("traceEvents array");
        assert_eq!(events, snap.spans.len());
    }

    #[test]
    fn end_to_end_optimizer_bigsub_runs() {
        let w = mini(51);
        let mut sys = AutoViewSystem::new(
            w.catalog.clone(),
            w.plans(),
            AutoViewConfig {
                estimator: EstimatorKind::Optimizer,
                selector: SelectorKind::BigSub(BigSubConfig {
                    iterations: 20,
                    ..BigSubConfig::default()
                }),
                max_training_pairs: 30,
                ..AutoViewConfig::default()
            },
        );
        let r = sys.run().expect("pipeline runs");
        assert_eq!(r.method, "O&B");
        assert!(r.raw_latency > 0.0);
        assert!(r.rewritten_latency > 0.0);
    }

    #[test]
    fn greedy_selector_end_to_end() {
        let w = mini(52);
        let mut sys = AutoViewSystem::new(
            w.catalog.clone(),
            w.plans(),
            AutoViewConfig {
                estimator: EstimatorKind::Optimizer,
                selector: SelectorKind::Greedy(GreedyRank::TopkNorm),
                max_training_pairs: 30,
                ..AutoViewConfig::default()
            },
        );
        let r = sys.run().expect("pipeline runs");
        assert_eq!(r.method, "O&TopkNorm");
        // Greedy picked its best k on estimated utility; the measured ratio
        // is whatever it is, but the accounting identity must hold.
        assert!(
            (r.saved_ratio_percent - 100.0 * (r.benefit - r.view_overhead) / r.raw_cost).abs()
                < 1e-9
        );
    }
}
