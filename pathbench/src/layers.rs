//! The traced pass's per-layer work: the pipeline called stage by stage,
//! and a published server's request path walked step by step, each through
//! the layer's own public function with one of the benchmark's spans (or a
//! batch timer, for nanosecond-scale steps) around it.

use crate::setup::{serve_config, Built, Inputs, TENANT};
use crate::stats::median;
use crate::trace::Recorder;
use av_core::{collect_pair_truth, preprocess_and_measure, AutoViewSystem, EstimatorKind};
use av_cost::{CostEstimator, FeatureInput, OptimizerEstimator, WideDeep};
use av_engine::{Executor, ShardedExecCache};
use av_plan::{Fingerprint, PlanRef};
use av_serve::{AdmissionConfig, AdmissionController, ObsConfig, ViewServer};
use std::hint::black_box;
use std::time::Instant;

/// Plans a probe walks, taken at an even stride over the workload's own
/// plans: enough for a stable per-plan median, few enough that the
/// un-memoized route over ~125 WK2 views stays under a second.
const PROBE_PLANS: usize = 256;
/// Passes of a batch-timed step; the median pass is reported.
const PROBE_PASSES: usize = 31;
/// Requests per side of one telemetry on/off pair, and pairs taken.
const OBS_REQUESTS: usize = 40_000;
const OBS_PAIRS: usize = 7;

/// Counts one staged pipeline pass produced (its timings are spans).
pub struct StagedCounts {
    pub truth_pairs: usize,
    /// Training samples times epochs the fit went through (0: no fit).
    pub fit_sample_passes: usize,
    pub matrix_pairs: usize,
    pub views: usize,
    pub utility: f64,
    pub saved_cost_ratio_pct: f64,
}

/// Run the pipeline's stages one by one under spans of request `rep`:
/// `equiv.analyze`, `core.preprocess`, `core.truth`, `cost.fit`,
/// `cost.matrix`, `select.solve`, `core.deploy`. `equiv.analyze` repeats
/// the clustering `core.preprocess` also does inside, to time it alone.
pub fn staged(rec: &mut Recorder, rep: u64, inputs: &Inputs) -> Result<StagedCounts, String> {
    let config = &inputs.config;
    let plans = &inputs.plans;
    rec.span("pipeline.staged", rep, |rec| {
        rec.span("equiv.analyze", rep, |_| {
            let mut analyzer = av_equiv::Analyzer::new();
            analyzer.min_query_frequency = 2;
            black_box(analyzer.analyze(plans));
        });
        let mut catalog = inputs.catalog.clone();
        let pre = rec
            .span("core.preprocess", rep, |_| {
                preprocess_and_measure(&mut catalog, plans, config.pricing)
            })
            .map_err(|e| format!("staged preprocess failed: {e}"))?;
        let pairs = rec
            .span("core.truth", rep, |_| {
                collect_pair_truth(
                    &catalog,
                    &pre,
                    plans,
                    config.max_training_pairs,
                    config.seed,
                )
            })
            .map_err(|e| format!("staged truth collection failed: {e}"))?;

        let mut fit_sample_passes = 0;
        let estimator: Box<dyn CostEstimator> =
            rec.span("cost.fit", rep, |_| match &config.estimator {
                EstimatorKind::Optimizer => {
                    Box::new(OptimizerEstimator::default()) as Box<dyn CostEstimator>
                }
                EstimatorKind::WideDeep(wd) => {
                    let train: Vec<(FeatureInput, f64)> = pairs
                        .iter()
                        .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
                        .collect();
                    fit_sample_passes = train.len() * wd.epochs;
                    Box::new(WideDeep::fit(&train, wd.clone()))
                }
            });

        let sys = AutoViewSystem::new(catalog.clone(), plans.clone(), config.clone());
        let instance = rec.span("cost.matrix", rep, |_| {
            sys.build_instance(&pre, estimator.as_ref())
        });
        let selection = rec.span("select.solve", rep, |_| config.selector.run(&instance));
        let report = rec
            .span("core.deploy", rep, |_| {
                sys.execute_selection(&pre, &selection)
            })
            .map_err(|e| format!("staged deployment failed: {e}"))?;
        Ok(StagedCounts {
            truth_pairs: pairs.len(),
            fit_sample_passes,
            matrix_pairs: pre.analysis.query_matches.iter().map(Vec::len).sum(),
            views: report.num_views,
            utility: selection.utility,
            saved_cost_ratio_pct: report.saved_ratio_percent,
        })
    })
}

/// What walking a published server's layers measured.
#[derive(Default)]
pub struct Probe {
    pub preflight_s: f64,
    pub preflight_proved: usize,
    pub preflight_unknown: usize,
    /// Median un-memoized `Deployment::route` per plan, microseconds.
    pub route_us: f64,
    /// Median direct `Executor::run` of a routed plan, microseconds.
    pub exec_us: f64,
    pub fingerprint_ns: f64,
    pub admission_ns: f64,
    pub route_memo_ns: f64,
    pub cache_hit_ns: f64,
    /// Per-request telemetry cost: paired `1/qps` difference between a
    /// server with `ObsConfig::default()` and one with it disabled.
    pub obs_cost_ns: f64,
}

/// Median nanoseconds per call of `step` over `items`, timed a pass at a
/// time so the two clock reads are shared by hundreds of calls.
fn batch_ns<T>(items: &[T], mut step: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for item in items {
                step(item);
            }
            t0.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// Time one single-threaded hot pass of `requests` requests; seconds.
fn hot_pass(server: &ViewServer, plans: &[PlanRef], requests: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    for plan in plans.iter().cycle().take(requests) {
        black_box(
            server
                .execute(TENANT, plan)
                .map_err(|e| format!("probe request failed: {e}"))?,
        );
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Walk the request path of the selection `built` holds for a sample of
/// `workload_plans` (the plans the measured phase sent, or the pipeline's
/// queries), on servers published for the purpose: the measured server's
/// counters stay clean.
pub fn probe(
    rec: &mut Recorder,
    built: &Built,
    inputs: &Inputs,
    workload_plans: &[PlanRef],
) -> Result<Probe, String> {
    let stride = workload_plans.len().div_ceil(PROBE_PLANS).max(1);
    let plans: Vec<PlanRef> = workload_plans.iter().step_by(stride).cloned().collect();
    let plans = plans.as_slice();
    let publish = |obs| {
        built
            .sys
            .publish(serve_config(obs), Some(TENANT))
            .map(|(server, _)| server)
            .map_err(|e| format!("probe publish failed: {e}"))
    };
    let obs_on = publish(ObsConfig::default())?;
    let obs_off = publish(ObsConfig::disabled())?;
    let deployment = obs_on.current();
    let mut out = Probe::default();

    // Publish-side layers: the prover preflight, then un-memoized routing.
    let t0 = Instant::now();
    let preflight = rec
        .span("analyze.preflight", 0, |_| {
            deployment.validate_with(&inputs.plans)
        })
        .map_err(|e| format!("preflight refused the published deployment: {e}"))?;
    out.preflight_s = t0.elapsed().as_secs_f64();
    out.preflight_proved = preflight.proved;
    out.preflight_unknown = preflight.unknown;

    let mut route_us = Vec::with_capacity(plans.len());
    let mut exec_us = Vec::with_capacity(plans.len());
    let mut routed = Vec::with_capacity(plans.len());
    let executor = Executor::new(deployment.catalog(), inputs.config.pricing);
    for (i, plan) in plans.iter().enumerate() {
        let t0 = Instant::now();
        let (routed_plan, hits) = rec.span("serve.route", i as u64, |_| deployment.route(plan));
        route_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        rec.span("engine.exec", i as u64, |_| executor.run(&routed_plan))
            .map_err(|e| format!("probe execution failed: {e}"))?;
        exec_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let plan_fp = Fingerprint::of(plan);
        let routed_fp = if hits == 0 {
            plan_fp
        } else {
            Fingerprint::of(&routed_plan)
        };
        routed.push((plan_fp, routed_fp, routed_plan));
    }
    out.route_us = median(&route_us);
    out.exec_us = median(&exec_us);

    // Request-side layers, in the order `execute` walks them.
    out.fingerprint_ns = batch_ns(plans, |plan| {
        black_box(Fingerprint::of(plan));
    });
    let admission = AdmissionController::new(AdmissionConfig::default());
    out.admission_ns = batch_ns(plans, |_| {
        drop(black_box(admission.acquire(TENANT)));
    });
    let keyed: Vec<(Fingerprint, &PlanRef)> =
        routed.iter().map(|(fp, _, _)| *fp).zip(plans).collect();
    out.route_memo_ns = batch_ns(&keyed, |(fp, plan)| {
        black_box(deployment.route_memo(*fp, plan));
    });
    let cache = ShardedExecCache::new(inputs.config.pricing, ShardedExecCache::DEFAULT_SHARDS)
        .with_capacity(obs_on.config().cache_capacity);
    for (_, routed_fp, plan) in &routed {
        cache
            .run_keyed_hit_dop(*routed_fp, deployment.catalog(), plan, Some(1))
            .map_err(|e| format!("probe cache fill failed: {e}"))?;
    }
    out.cache_hit_ns = batch_ns(&routed, |(_, routed_fp, plan)| {
        black_box(
            cache
                .run_keyed_hit_dop(*routed_fp, deployment.catalog(), plan, Some(1))
                .is_ok(),
        );
    });

    // Telemetry: identical servers but for `ObsConfig`, alternating sides.
    hot_pass(&obs_on, plans, plans.len())?;
    hot_pass(&obs_off, plans, plans.len())?;
    let mut deltas = Vec::with_capacity(OBS_PAIRS);
    for pair in 0..OBS_PAIRS {
        let (on_s, off_s) = if pair % 2 == 0 {
            let on = hot_pass(&obs_on, plans, OBS_REQUESTS)?;
            (on, hot_pass(&obs_off, plans, OBS_REQUESTS)?)
        } else {
            let off = hot_pass(&obs_off, plans, OBS_REQUESTS)?;
            (hot_pass(&obs_on, plans, OBS_REQUESTS)?, off)
        };
        deltas.push((on_s - off_s) * 1e9 / OBS_REQUESTS as f64);
    }
    out.obs_cost_ns = median(&deltas);
    Ok(out)
}
