//! Background re-optimization: re-run view selection on the drifted window
//! and diff the result against the live view set.
//!
//! [`reoptimize`] builds a fresh [`MvsInstance`] from the current window
//! (benefits predicted by the active [`CostEstimator`], overheads measured
//! by dry-running each candidate's defining subquery), solves it with the
//! configured [`SelectorKind`], and returns an incremental [`ReoptPlan`]:
//! which views to create, which live ones to drop, and which to keep.
//!
//! The pair-scoring ([`benefit_matrix`]), the selection → view conversion
//! ([`selected_candidates`]) and the post-apply estimate table
//! ([`freeze_estimates`]) are shared with the batch pipeline (`av-core`)
//! and the serving layer (`av-serve`).

use crate::lifecycle::{route_through_views, ViewLifecycleManager};
use av_cost::{tables_meta, CostEstimator, FeatureInput};
use av_engine::{Catalog, EngineError, ExecCache};
use av_equiv::WorkloadAnalysis;
use av_ilp::MvsInstance;
use av_plan::{Fingerprint, PlanRef};
use av_select::{SelectionResult, SelectorKind};

/// A view the re-optimizer wants materialized.
#[derive(Debug, Clone)]
pub struct CandidateView {
    /// Defining subquery (representative instance's aliases).
    pub plan: PlanRef,
    /// Fingerprint of the canonicalized defining plan.
    pub canonical_fp: Fingerprint,
    /// Predicted total benefit over the window (Σᵢ benefits[i][j]·y[i][j]).
    pub expected_benefit: f64,
    /// Estimated materialization overhead `O_v`.
    pub overhead: f64,
}

/// Incremental create/drop plan produced by one re-optimization.
#[derive(Debug, Clone, Default)]
pub struct ReoptPlan {
    /// Views selected but not yet live.
    pub create: Vec<CandidateView>,
    /// Live views no longer selected.
    pub drop: Vec<Fingerprint>,
    /// Live views still selected (kept untouched).
    pub keep: Vec<Fingerprint>,
    /// The selection's utility on the window instance.
    pub estimated_utility: f64,
}

/// A window of queries paired with their (unrewritten) execution costs.
#[derive(Debug, Clone, Copy)]
pub struct WindowSnapshot<'a> {
    pub plans: &'a [PlanRef],
    pub costs: &'a [f64],
}

impl<'a> WindowSnapshot<'a> {
    pub fn new(plans: &'a [PlanRef], costs: &'a [f64]) -> Self {
        assert_eq!(plans.len(), costs.len(), "plans/costs must align");
        Self { plans, costs }
    }
}

/// Predicted benefit `costs[i] − estimate(qᵢ | vⱼ)` of every (query,
/// candidate) match in `analysis`; unmatched cells are 0. Benefits may be
/// negative — callers that need them clamped do so themselves.
///
/// All pairs are scored in one `estimate_batch` call, so a batched
/// estimator (Wide-Deep) encodes each distinct plan once instead of once
/// per pair.
pub fn benefit_matrix(
    catalog: &Catalog,
    analysis: &WorkloadAnalysis,
    window: WindowSnapshot<'_>,
    estimator: &dyn CostEstimator,
) -> Vec<Vec<f64>> {
    let WindowSnapshot { plans, costs } = window;
    let mut benefits = vec![vec![0.0; analysis.candidates.len()]; plans.len()];
    let mut pairs_ix: Vec<(usize, usize)> = Vec::new();
    let mut inputs: Vec<FeatureInput> = Vec::new();
    for (i, matches) in analysis.query_matches.iter().enumerate() {
        for m in matches {
            let cand = &analysis.candidates[m.candidate];
            pairs_ix.push((i, m.candidate));
            inputs.push(FeatureInput {
                query: plans[i].clone(),
                view: cand.plan.clone(),
                tables: tables_meta(catalog, &plans[i], &cand.plan),
            });
        }
    }
    let estimates = estimator.estimate_batch(&inputs);
    for (&(i, cand), predicted_rewritten) in pairs_ix.iter().zip(estimates) {
        benefits[i][cand] = costs[i] - predicted_rewritten;
    }
    benefits
}

/// The views a selection materializes, in candidate order, each with
/// `expected_benefit = Σᵢ benefits[i][j]·y[i][j]`.
pub fn selected_candidates(
    analysis: &WorkloadAnalysis,
    instance: &MvsInstance,
    selection: &SelectionResult,
) -> Vec<CandidateView> {
    analysis
        .candidates
        .iter()
        .enumerate()
        .filter(|(j, _)| selection.z[*j])
        .map(|(j, cand)| CandidateView {
            plan: cand.plan.clone(),
            canonical_fp: Fingerprint::of(&cand.canonical),
            expected_benefit: selection
                .y
                .iter()
                .zip(&instance.benefits)
                .map(|(yi, bi)| if yi[j] { bi[j] } else { 0.0 })
                .sum(),
            overhead: instance.overheads[j],
        })
        .collect()
}

/// Build the window's MVS instance: predicted benefits (clamped at 0) per
/// (query, candidate) pair and dry-run overheads per candidate. No catalog
/// mutation — candidate subqueries are *executed* to price their
/// materialization, but nothing is stored. Dry-runs go through `cache`, so
/// candidates that survive across re-optimization rounds (the common case
/// under mild drift) are priced once per catalog epoch.
pub fn build_window_instance(
    catalog: &Catalog,
    analysis: &WorkloadAnalysis,
    window: WindowSnapshot<'_>,
    estimator: &dyn CostEstimator,
    cache: &ExecCache,
) -> Result<MvsInstance, EngineError> {
    let pricing = cache.pricing();
    let mut overheads = Vec::with_capacity(analysis.candidates.len());
    for cand in &analysis.candidates {
        let report = cache.report(catalog, &cand.plan)?;
        overheads.push(report.cost_dollars + pricing.storage_dollars(report.output_bytes));
    }

    let mut benefits = benefit_matrix(catalog, analysis, window, estimator);
    for b in benefits.iter_mut().flatten() {
        *b = b.max(0.0);
    }

    Ok(MvsInstance {
        benefits,
        overheads,
        overlaps: analysis.overlap_pairs.clone(),
    })
}

/// Re-run selection on the window and diff against the live view set.
pub fn reoptimize(
    catalog: &Catalog,
    analysis: &WorkloadAnalysis,
    window: WindowSnapshot<'_>,
    estimator: &dyn CostEstimator,
    selector: &SelectorKind,
    live_fps: &[Fingerprint],
    cache: &ExecCache,
) -> Result<ReoptPlan, EngineError> {
    let instance = build_window_instance(catalog, analysis, window, estimator, cache)?;
    let selection = selector.run(&instance);
    let selected = selected_candidates(analysis, &instance, &selection);

    // Live views the new selection does not want (including views whose
    // candidate no longer even appears in the window).
    let drop = live_fps
        .iter()
        .copied()
        .filter(|fp| !selected.iter().any(|c| c.canonical_fp == *fp))
        .collect();
    let (keep, create): (Vec<_>, Vec<_>) = selected
        .into_iter()
        .partition(|c| live_fps.contains(&c.canonical_fp));
    Ok(ReoptPlan {
        create,
        drop,
        keep: keep.into_iter().map(|c| c.canonical_fp).collect(),
        estimated_utility: selection.utility,
    })
}

/// Price every plan of `plans` that routes through a live view with
/// `estimator`: `(plan fingerprint, estimated cost, view canonical
/// fingerprint)` per routed plan, in plan order. Built once after a plan is
/// applied, so the read path can attribute estimator residuals without
/// touching the estimator.
pub fn freeze_estimates(
    catalog: &Catalog,
    lifecycle: &ViewLifecycleManager,
    plans: &[PlanRef],
    estimator: &dyn CostEstimator,
) -> Vec<(Fingerprint, f64, Fingerprint)> {
    let index = lifecycle.index();
    let mut estimates = Vec::new();
    for plan in plans {
        let (routed, hits) = route_through_views(catalog, index, plan);
        if hits == 0 {
            continue;
        }
        // Several views may fire in one plan; the estimate is attributed to
        // the earliest admitted (ids grow in admission order).
        let fired = routed
            .base_tables()
            .iter()
            .filter_map(|t| index.by_table(t))
            .min_by_key(|(_, v)| v.id);
        if let Some((view_fp, view)) = fired {
            let input = FeatureInput {
                query: plan.clone(),
                view: view.plan.clone(),
                tables: tables_meta(catalog, plan, &view.plan),
            };
            estimates.push((Fingerprint::of(plan), estimator.estimate(&input), view_fp));
        }
    }
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_cost::OptimizerEstimator;
    use av_engine::Pricing;
    use av_equiv::Analyzer;
    use av_select::IterViewConfig;
    use av_workload::cloud::mini;

    fn cache() -> ExecCache {
        ExecCache::new(Pricing::paper_defaults(), 1)
    }

    fn analyzed(
        seed: u64,
    ) -> (
        av_workload::Workload,
        WorkloadAnalysis,
        Vec<PlanRef>,
        Vec<f64>,
    ) {
        let w = mini(seed);
        let plans = w.plans();
        let mut analyzer = Analyzer::new();
        analyzer.min_query_frequency = 2;
        let analysis = analyzer.analyze(&plans);
        let exec = av_engine::Executor::new(&w.catalog, Pricing::paper_defaults());
        let costs: Vec<f64> = plans.iter().map(|p| exec.cost(p).expect("costs")).collect();
        (w, analysis, plans, costs)
    }

    #[test]
    fn window_instance_is_well_formed() {
        let (w, analysis, plans, costs) = analyzed(31);
        let before = w.catalog.len();
        let est = OptimizerEstimator::default();
        let instance = build_window_instance(
            &w.catalog,
            &analysis,
            WindowSnapshot::new(&plans, &costs),
            &est,
            &cache(),
        )
        .expect("builds");
        assert_eq!(w.catalog.len(), before, "no catalog mutation");
        assert_eq!(instance.num_queries(), plans.len());
        assert_eq!(instance.num_candidates(), analysis.candidates.len());
        assert!(instance.overheads.iter().all(|&o| o > 0.0));
        // Benefits are only nonzero on matching pairs.
        for (i, row) in instance.benefits.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                let matched = analysis.query_matches[i].iter().any(|m| m.candidate == j);
                assert!(b >= 0.0);
                if !matched {
                    assert_eq!(b, 0.0, "non-match ({i},{j}) must carry no benefit");
                }
            }
        }
    }

    #[test]
    fn reopt_from_empty_creates_views() {
        let (w, analysis, plans, costs) = analyzed(32);
        let est = OptimizerEstimator::default();
        let plan = reoptimize(
            &w.catalog,
            &analysis,
            WindowSnapshot::new(&plans, &costs),
            &est,
            &SelectorKind::IterView(IterViewConfig {
                iterations: 40,
                seed: 7,
                freeze_after: None,
            }),
            &[],
            &cache(),
        )
        .expect("reoptimizes");
        assert!(!plan.create.is_empty(), "mini workload selects some views");
        assert!(plan.drop.is_empty());
        assert!(plan.keep.is_empty());
        assert!(plan.estimated_utility > 0.0);
        // Positive utility means the selection as a whole pays for itself;
        // individual views may ride along at zero predicted benefit.
        assert!(plan.create.iter().any(|c| c.expected_benefit > 0.0));
        for c in &plan.create {
            assert!(c.expected_benefit >= 0.0);
            assert!(c.overhead > 0.0);
        }
    }

    #[test]
    fn reopt_is_incremental_against_live_set() {
        let (w, analysis, plans, costs) = analyzed(33);
        let est = OptimizerEstimator::default();
        let selector = SelectorKind::IterView(IterViewConfig {
            iterations: 40,
            seed: 7,
            freeze_after: None,
        });
        let shared = cache();
        let first = reoptimize(
            &w.catalog,
            &analysis,
            WindowSnapshot::new(&plans, &costs),
            &est,
            &selector,
            &[],
            &shared,
        )
        .expect("first");
        let live: Vec<Fingerprint> = first.create.iter().map(|c| c.canonical_fp).collect();
        // Same window, same selector: the plan must be a no-op now.
        let second = reoptimize(
            &w.catalog,
            &analysis,
            WindowSnapshot::new(&plans, &costs),
            &est,
            &selector,
            &live,
            &shared,
        )
        .expect("second");
        assert!(
            second.create.is_empty() && second.drop.is_empty(),
            "unchanged window => no-op plan"
        );
        assert_eq!(second.keep.len(), live.len());
        // Round two dry-runs the identical candidate set at the same catalog
        // epoch, so every execution is a cache hit.
        let stats = shared.stats();
        assert_eq!(stats.hits, stats.misses, "second round must be all hits");
    }

    #[test]
    fn stale_live_views_are_dropped() {
        let (w, analysis, plans, costs) = analyzed(34);
        let est = OptimizerEstimator::default();
        // A fingerprint no candidate has: must land in `drop`.
        let ghost = Fingerprint::of(&av_plan::PlanBuilder::scan("__nonexistent__", "g").build());
        let plan = reoptimize(
            &w.catalog,
            &analysis,
            WindowSnapshot::new(&plans, &costs),
            &est,
            &SelectorKind::IterView(IterViewConfig {
                iterations: 20,
                seed: 7,
                freeze_after: None,
            }),
            &[ghost],
            &cache(),
        )
        .expect("reoptimizes");
        assert!(plan.drop.contains(&ghost));
    }
}
