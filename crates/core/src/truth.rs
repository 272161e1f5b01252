//! Ground-truth collection: measure raw costs, materialize candidates,
//! execute rewritten queries (paper Fig. 3 offline-training data path).

use av_cost::{tables_meta, FeatureInput, PairSample};
use av_engine::{rewrite_subtree_with_view, Catalog, EngineError, ExecCache, Pricing, ViewStore};
use av_equiv::{Analyzer, WorkloadAnalysis, MIN_SHARED_QUERIES};
use av_plan::{find_subtree, PlanRef};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Output of the pre-process + measurement stage.
pub struct Preprocessed {
    /// Equivalence clustering, candidates and overlaps.
    pub analysis: WorkloadAnalysis,
    /// Every candidate materialized (table `__view_j` in the catalog).
    pub views: ViewStore,
    /// `O_j` for each candidate (Definition 3).
    pub overheads: Vec<f64>,
    /// Measured `A(q_i)` per query.
    pub query_costs: Vec<f64>,
    /// Measured latency (seconds) per query.
    pub query_latencies: Vec<f64>,
    /// Measured cost of scanning each candidate's materialized table.
    pub view_scan_costs: Vec<f64>,
    /// Fingerprint-keyed result cache shared by every later measurement
    /// (pair truth, selection deployment). Execution is deterministic and
    /// the catalog epoch keys out staleness, so reuse is exact.
    pub cache: ExecCache,
}

/// Run the pre-process pipeline and measure everything the later stages
/// need. Materializes every candidate into `catalog` (their overhead is the
/// measured materialization cost — Definition 3's `A_α(v) + A_{β,γ}(s)`).
pub fn preprocess_and_measure(
    catalog: &mut Catalog,
    queries: &[PlanRef],
    pricing: Pricing,
) -> Result<Preprocessed, EngineError> {
    preprocess_and_measure_traced(catalog, queries, pricing, &av_trace::Tracer::disabled())
}

/// [`preprocess_and_measure`] with observability: `core.analyze`,
/// `core.measure_queries` and `core.materialize` phase spans. Executions
/// record no spans; their per-operator output is the metered
/// [`av_engine::ExecutionReport`].
pub fn preprocess_and_measure_traced(
    catalog: &mut Catalog,
    queries: &[PlanRef],
    pricing: Pricing,
    tracer: &av_trace::Tracer,
) -> Result<Preprocessed, EngineError> {
    let analysis = tracer.time("core.analyze", || {
        let mut analyzer = Analyzer::new();
        analyzer.min_query_frequency = MIN_SHARED_QUERIES;
        analyzer.analyze(queries)
    });

    let cache = ExecCache::new(pricing, 1);
    let mut query_costs = Vec::with_capacity(queries.len());
    let mut query_latencies = Vec::with_capacity(queries.len());
    {
        let span = tracer.span("core.measure_queries");
        span.record_num("queries", queries.len() as f64);
        for q in queries {
            let report = cache.report(catalog, q)?;
            query_costs.push(report.cost_dollars);
            query_latencies.push(report.usage.latency_seconds);
        }
    }

    let mut views = ViewStore::new();
    let mut overheads = Vec::with_capacity(analysis.candidates.len());
    let mut view_scan_costs = Vec::with_capacity(analysis.candidates.len());
    {
        let span = tracer.span("core.materialize");
        span.record_num("candidates", analysis.candidates.len() as f64);
        for cand in &analysis.candidates {
            let id = views.materialize(catalog, cand.plan.clone(), pricing)?;
            let view = views.view(id).expect("just materialized");
            overheads.push(view.total_overhead());
            let scan_plan = av_plan::PlanNode::TableScan {
                table: view.table_name.clone(),
                alias: String::new(),
            }
            .into_ref();
            let scan_cost = cache.cost(catalog, &scan_plan)?;
            view_scan_costs.push(scan_cost);
        }
    }

    Ok(Preprocessed {
        analysis,
        views,
        overheads,
        query_costs,
        query_latencies,
        view_scan_costs,
        cache,
    })
}

/// One measured (query, candidate) pair.
pub struct PairTruth {
    pub query: usize,
    pub candidate: usize,
    /// The labelled sample for estimator training/evaluation.
    pub sample: PairSample,
    /// Actual benefit `B = A(q) − A(q|v)` (may be negative).
    pub actual_benefit: f64,
}

/// Rewrite one query with one candidate's view, returning the rewritten
/// plan (None if the match no longer applies).
pub fn rewrite_pair(
    catalog: &Catalog,
    pre: &Preprocessed,
    query_plan: &PlanRef,
    query: usize,
    candidate: usize,
) -> Option<PlanRef> {
    let m = pre.analysis.query_matches[query]
        .iter()
        .find(|m| m.candidate == candidate)?;
    let view = pre.views.view(av_engine::ViewId(candidate))?;
    let subtree = find_subtree(query_plan, m.subtree_fp)?;
    let (rewritten, _) = rewrite_subtree_with_view(catalog, query_plan, &subtree, view)?;
    // Debug builds gate every rewrite: a candidate is a canonical-
    // fingerprint group, so its rewrite must be proved, and a refuted or
    // unproved one is a hard bug.
    #[cfg(debug_assertions)]
    {
        let resolve = |t: &str| {
            pre.views
                .views()
                .iter()
                .find(|v| v.table_name == t)
                .map(|v| v.plan.clone())
        };
        if let Err(refused) = av_analyze::gate_rewrite(catalog, query_plan, &rewritten, &resolve) {
            panic!("rewrite of query {query} with candidate {candidate} {refused}");
        }
    }
    Some(rewritten)
}

/// Execute rewritten queries for (up to `limit`) usable (query, candidate)
/// pairs, producing labelled samples and actual benefits. Pairs are
/// subsampled deterministically when the workload exceeds the limit.
/// Execution goes through `pre.cache` (which carries the measurement
/// pricing), so repeated rewritten shapes cost one run.
pub fn collect_pair_truth(
    catalog: &Catalog,
    pre: &Preprocessed,
    queries: &[PlanRef],
    limit: usize,
    seed: u64,
) -> Result<Vec<PairTruth>, EngineError> {
    let mut all_pairs: Vec<(usize, usize)> = Vec::new();
    for (i, ms) in pre.analysis.query_matches.iter().enumerate() {
        for m in ms {
            all_pairs.push((i, m.candidate));
        }
    }
    if all_pairs.len() > limit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        all_pairs.shuffle(&mut rng);
        all_pairs.truncate(limit);
        all_pairs.sort_unstable();
    }

    let mut out = Vec::with_capacity(all_pairs.len());
    for (i, j) in all_pairs {
        let Some(rewritten) = rewrite_pair(catalog, pre, &queries[i], i, j) else {
            continue;
        };
        // Different queries often rewrite to the same plan shape; the
        // shared cache collapses those repeats into one execution.
        let cost_qv = pre.cache.cost(catalog, &rewritten)?;
        let cand = &pre.analysis.candidates[j];
        let view = pre.views.view(av_engine::ViewId(j)).expect("materialized");
        let sample = PairSample {
            input: FeatureInput {
                query: queries[i].clone(),
                view: cand.plan.clone(),
                tables: tables_meta(catalog, &queries[i], &cand.plan),
            },
            cost_qv,
            cost_q: pre.query_costs[i],
            cost_s: view.compute_overhead,
            cost_vscan: pre.view_scan_costs[j],
        };
        out.push(PairTruth {
            query: i,
            candidate: j,
            actual_benefit: pre.query_costs[i] - cost_qv,
            sample,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_workload::cloud::mini;

    #[test]
    fn preprocess_measures_everything() {
        let w = mini(40);
        let mut catalog = w.catalog.clone();
        let plans = w.plans();
        let pre = preprocess_and_measure(&mut catalog, &plans, Pricing::paper_defaults())
            .expect("preprocess");
        assert_eq!(pre.query_costs.len(), plans.len());
        assert!(pre.query_costs.iter().all(|&c| c > 0.0));
        assert_eq!(pre.overheads.len(), pre.analysis.candidates.len());
        assert!(pre.overheads.iter().all(|&o| o > 0.0));
        assert_eq!(pre.views.len(), pre.analysis.candidates.len());
        // Scanning a view is cheaper than computing its subquery.
        for (j, &scan) in pre.view_scan_costs.iter().enumerate() {
            assert!(
                scan <= pre.views.views()[j].compute_overhead + 1e-12,
                "view {j}: scan {scan} vs compute {}",
                pre.views.views()[j].compute_overhead
            );
        }
    }

    #[test]
    fn pair_truth_samples_are_consistent() {
        let w = mini(41);
        let mut catalog = w.catalog.clone();
        let plans = w.plans();
        let pre = preprocess_and_measure(&mut catalog, &plans, Pricing::paper_defaults())
            .expect("preprocess");
        let pairs = collect_pair_truth(&catalog, &pre, &plans, 50, 1).expect("pairs");
        assert!(!pairs.is_empty(), "mini workload must have usable pairs");
        for p in &pairs {
            // A rewrite can reduce a query to a bare scan of an empty view,
            // which costs exactly zero — but never negative.
            assert!(p.sample.cost_qv >= 0.0);
            assert!(
                (p.actual_benefit - (p.sample.cost_q - p.sample.cost_qv)).abs() < 1e-12,
                "benefit must equal cost delta"
            );
            assert!(!p.sample.input.tables.is_empty());
        }
    }

    #[test]
    fn rewritten_pair_preserves_results() {
        let w = mini(42);
        let mut catalog = w.catalog.clone();
        let plans = w.plans();
        let pre = preprocess_and_measure(&mut catalog, &plans, Pricing::paper_defaults())
            .expect("preprocess");
        let exec = av_engine::Executor::new(&catalog, Pricing::paper_defaults());
        let mut checked = 0;
        for (i, ms) in pre.analysis.query_matches.iter().enumerate() {
            for m in ms.iter().take(1) {
                let Some(rw) = rewrite_pair(&catalog, &pre, &plans[i], i, m.candidate) else {
                    continue;
                };
                let orig = exec.run(&plans[i]).expect("runs");
                let new = exec.run(&rw).expect("rewritten runs");
                assert_eq!(orig.batch, new.batch, "query {i} view {}", m.candidate);
                checked += 1;
                if checked >= 5 {
                    return;
                }
            }
        }
        assert!(checked > 0, "at least one rewrite must be validated");
    }

    #[test]
    fn limit_caps_pair_collection() {
        let w = mini(43);
        let mut catalog = w.catalog.clone();
        let plans = w.plans();
        let pre = preprocess_and_measure(&mut catalog, &plans, Pricing::paper_defaults())
            .expect("preprocess");
        let pairs = collect_pair_truth(&catalog, &pre, &plans, 3, 1).expect("pairs");
        assert!(pairs.len() <= 3);
    }
}
