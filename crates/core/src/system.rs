//! The end-to-end AutoView system and the Table V experiment loop.

use crate::metadata::MetadataDb;
use crate::truth::{
    collect_pair_truth, preprocess_and_measure, preprocess_and_measure_traced, rewrite_pair,
    Preprocessed,
};
use av_cost::{
    CostEstimator, FeatureInput, OptimizerEstimator, WideDeep, WideDeepConfig,
};
use av_engine::{Catalog, EngineError, Pricing};
use av_ilp::MvsInstance;
use av_online::{benefit_matrix, selected_candidates, CandidateView, WindowSnapshot};
use av_plan::PlanRef;
pub use av_select::SelectorKind;
use av_select::{RlViewConfig, SelectionResult};
use av_serve::{ReoptSummary, ServeConfig, ServeError, ViewServer};
use av_trace::Tracer;

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
    /// (phases `pipeline.*`, operators `exec.*`). The `pipeline.*` phase
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

        let estimator: Box<dyn CostEstimator> = tracer.time("pipeline.train", || {
            match &self.config.estimator {
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
        let report = tracer.time("pipeline.deploy", || self.execute_selection(&pre, &selection))?;
        Ok(report)
    }

    /// Estimate the benefit matrix with a trained estimator and assemble
    /// the MVS instance. Benefits are kept signed: a view the estimator
    /// predicts to slow a query down must count against selecting it.
    pub fn build_instance(
        &self,
        pre: &Preprocessed,
        estimator: &dyn CostEstimator,
    ) -> MvsInstance {
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
                let r = pre.cache.run(&self.catalog, &plan)?;
                num_rewritten += 1;
                benefit += pre.query_costs[i] - r.report.cost_dollars;
                rewritten_latency += r.report.usage.latency_seconds;
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
    /// The online engine's knobs (window, drift, lifecycle, selector).
    pub online: av_online::OnlineConfig,
    /// Estimator powering the benefit matrix at each re-optimization.
    pub estimator: EstimatorKind,
    /// Cap on executed training pairs for Wide-Deep warmup.
    pub max_training_pairs: usize,
    pub seed: u64,
}

impl Default for OnlineSystemConfig {
    fn default() -> Self {
        OnlineSystemConfig {
            online: av_online::OnlineConfig::default(),
            estimator: EstimatorKind::Optimizer,
            max_training_pairs: 200,
            seed: 42,
        }
    }
}

/// The streaming counterpart of [`AutoViewSystem`]: queries arrive one at a
/// time, and the view set adapts as the workload drifts (see `av-online`).
///
/// The Wide-Deep estimator needs labelled pairs before it can predict, so
/// construction optionally takes a *warmup* workload: ground truth is
/// collected on a scratch copy of the catalog (exactly the batch pipeline's
/// offline stage) and the model is trained once, up front. With
/// [`EstimatorKind::Optimizer`] (or an empty warmup) no training happens.
pub struct OnlineSystem {
    engine: av_online::OnlineEngine,
}

impl OnlineSystem {
    pub fn new(
        catalog: Catalog,
        warmup_queries: &[PlanRef],
        config: OnlineSystemConfig,
    ) -> Result<OnlineSystem, EngineError> {
        if cfg!(debug_assertions) {
            av_analyze::install_engine_gate();
        }
        let estimator = Self::build_estimator(&catalog, warmup_queries, &config)?;
        Ok(OnlineSystem {
            engine: av_online::OnlineEngine::new(catalog, estimator, config.online),
        })
    }

    fn build_estimator(
        catalog: &Catalog,
        warmup_queries: &[PlanRef],
        config: &OnlineSystemConfig,
    ) -> Result<Box<dyn CostEstimator>, EngineError> {
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
        let pricing = config.online.pricing;
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

    /// Process one arriving query (route → measure → adapt).
    pub fn ingest(&mut self, plan: &PlanRef) -> Result<av_online::QueryOutcome, EngineError> {
        self.engine.ingest(plan)
    }

    /// Cumulative cost accounting.
    pub fn report(&self) -> av_online::OnlineReport {
        self.engine.report()
    }

    /// JSON snapshot of the online metrics registry.
    pub fn metrics_json(&self) -> String {
        self.engine.metrics_json()
    }

    /// The underlying engine, for inspection.
    pub fn engine(&self) -> &av_online::OnlineEngine {
        &self.engine
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

    #[test]
    fn online_system_adapts_and_saves() {
        let w = mini(60);
        let plans = w.plans();
        let mut sys = OnlineSystem::new(
            w.catalog.clone(),
            &[],
            OnlineSystemConfig {
                online: av_online::OnlineConfig {
                    window_size: plans.len(),
                    check_every: 8,
                    lifecycle: av_online::LifecycleConfig {
                        byte_budget: usize::MAX,
                        min_benefit_per_byte: 0.0,
                        tenant_byte_budget: usize::MAX,
                    },
                    ..av_online::OnlineConfig::default()
                },
                estimator: EstimatorKind::Optimizer,
                ..OnlineSystemConfig::default()
            },
        )
        .expect("constructs");
        for _ in 0..2 {
            for p in &plans {
                sys.ingest(p).expect("ingests");
            }
        }
        let report = sys.report();
        assert_eq!(report.queries, 2 * plans.len() as u64);
        assert!(report.live_views > 0, "bootstrap selection admits views");
        assert!(
            report.actual_cost < report.baseline_cost,
            "repeat queries must route through views"
        );
        assert!(sys.metrics_json().contains("views_admitted"));
    }

    #[test]
    fn online_system_trains_widedeep_on_warmup() {
        let w = mini(61);
        let plans = w.plans();
        let mut sys = OnlineSystem::new(
            w.catalog.clone(),
            &plans,
            OnlineSystemConfig {
                online: av_online::OnlineConfig {
                    window_size: plans.len(),
                    ..av_online::OnlineConfig::default()
                },
                estimator: EstimatorKind::WideDeep(quick_wd()),
                max_training_pairs: 40,
                ..OnlineSystemConfig::default()
            },
        )
        .expect("constructs with trained estimator");
        // The warmup ran on a scratch catalog: no view tables leaked.
        assert!(sys
            .engine()
            .catalog()
            .table_names()
            .all(|t| !t.starts_with("__view_")));
        for p in &plans {
            sys.ingest(p).expect("ingests");
        }
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
        assert_eq!(summary.admitted, positive, "positive-benefit views admitted");
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
        // Per-operator executor spans from the truth-collection executions.
        assert!(
            snap.spans.iter().any(|s| s.name == "exec.scan"),
            "executor operator spans recorded"
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
            (r.saved_ratio_percent
                - 100.0 * (r.benefit - r.view_overhead) / r.raw_cost)
                .abs()
                < 1e-9
        );
    }
}
