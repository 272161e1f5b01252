//! Workload names, sizes, seeded inputs, the pipeline build every workload
//! starts from, and the correctness oracle.
//!
//! All sizes are constants here; `AV_*` environment knobs are cleared in
//! `main` before anything reads them.

use crate::trace::Recorder;
use av_core::{
    table2_defaults, AutoViewConfig, AutoViewSystem, EstimatorKind, SelectorKind, WorkloadKind,
};
use av_engine::{Catalog, Column, Executor, Pricing, RecordBatch};
use av_online::LifecycleConfig;
use av_plan::{Fingerprint, PlanRef};
use av_serve::{ObsConfig, ServeConfig, ViewServer};
use av_workload::{cloud, job};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::time::Instant;

/// JOB data scale: `cast_info` has 48k rows, past the executor's 16k-row
/// parallel cutover, so the morsel pool takes part.
const JOB_SCALE: f64 = 4.0;
/// WK2 query-count scale: 315 queries over 435 small tables, ~125 views.
const WK2_SCALE: f64 = 0.002;
/// Multiplier on Table II's Wide-Deep epochs and RLView epochs.
const EPOCH_SCALE: f64 = 0.06;
/// Seed of the query templates: `AV_SEED`'s default in the repository's
/// other bench binaries.
const TEMPLATE_SEED: u64 = 42;
/// Cap on executed ground-truth pairs.
const TRAIN_PAIRS: usize = 300;
/// Result-cache entries of every server under test (the program's default
/// is 4096). Small, so that a working set that outruns it stays cheap to
/// set up: each distinct plan costs an oracle execution per set-up and a
/// ~0.6 ms un-memoized route on its first request. The hot set (226 plans,
/// ~14 per shard against 32) still fits with room to spare.
pub const CACHE_CAPACITY: usize = 512;
/// `serve_miss` working set: every JOB plan followed by its chained
/// `perturb_literal` variants, this many per plan. About 70 plans have no
/// literal to nudge, which leaves ~1470 distinct fingerprints. Each of the
/// two clients cycles its own half, and each half alone outruns the cache,
/// so a client that runs alone while the other is descheduled still misses.
const MISS_CHAIN: usize = 9;
/// The tenant every request is issued for.
pub const TENANT: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineJob,
    PipelineWk2,
    ServeHot,
    ServeMiss,
    ServeSwap,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PipelineJob,
        Workload::PipelineWk2,
        Workload::ServeHot,
        Workload::ServeMiss,
        Workload::ServeSwap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineJob => "pipeline_job",
            Workload::PipelineWk2 => "pipeline_wk2",
            Workload::ServeHot => "serve_hot",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeSwap => "serve_swap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serving(self) -> bool {
        !matches!(self, Workload::PipelineJob | Workload::PipelineWk2)
    }
}

/// What the program under test receives: data, queries, configuration.
pub struct Inputs {
    pub catalog: Catalog,
    pub plans: Vec<PlanRef>,
    pub config: AutoViewConfig,
}

/// Generate a workload's inputs. The seed drives the data, truth-pair
/// sampling, NN initialization, the selector's RNG and (`miss_plans`) the
/// literal perturbations. The query templates are the repository's default
/// set ([`TEMPLATE_SEED`]) at every seed: the generators draw join shapes
/// and predicates from the same stream as the data, and a run-to-run change
/// of shape moved every timing by more than any bound could absorb. The
/// templates only name tables, columns and literal values whose domains do
/// not depend on the seed, so they run on any seed's data.
///
/// `pipeline_job` selects with Wide-Deep + RLView, the paper's headline
/// pair. The serving workloads build their server with the analytical pair
/// `pipeline_wk2` also uses (Optimizer + IterView, on JOB): the serving
/// layers under test do not care which estimator chose the views, and
/// RLView's selection is chaotic in the seed (34 to 73 views from one seed
/// to the next), which moved every serving metric with it.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let (plans, catalog) = if workload == Workload::PipelineWk2 {
        (
            cloud::wk2(WK2_SCALE, TEMPLATE_SEED).plans(),
            cloud::wk2(WK2_SCALE, seed).catalog,
        )
    } else {
        (
            job::job_workload(JOB_SCALE, TEMPLATE_SEED).plans(),
            job::job_workload(JOB_SCALE, seed).catalog,
        )
    };
    let (estimator, selector) = if workload == Workload::PipelineJob {
        let defaults = table2_defaults(WorkloadKind::Job);
        (
            EstimatorKind::WideDeep(defaults.widedeep(seed, EPOCH_SCALE)),
            SelectorKind::RlView(defaults.rlview(seed, EPOCH_SCALE)),
        )
    } else {
        (
            EstimatorKind::Optimizer,
            SelectorKind::IterView(av_select::IterViewConfig {
                seed,
                ..Default::default()
            }),
        )
    };
    Inputs {
        catalog,
        plans,
        config: AutoViewConfig {
            pricing: Pricing::paper_defaults(),
            estimator,
            selector,
            max_training_pairs: TRAIN_PAIRS,
            seed,
        },
    }
}

/// Server configuration of every workload: unlimited view budgets (the
/// selection decides what is live, not the lifecycle screen) and the
/// benchmark's cache size; everything else is the program's default.
pub fn serve_config(obs: ObsConfig) -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        lifecycle: LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        },
        obs,
        ..ServeConfig::default()
    }
}

/// What one pipeline run decided. Equal inputs must give an equal outcome,
/// bit for bit: every rep is compared with the first.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub selection_hash: u64,
    pub views: usize,
    pub saved_cost_ratio_pct: f64,
    pub estimated_utility: f64,
    pub admitted: usize,
    pub rejected: usize,
}

/// A pipeline run with its views live.
pub struct Built {
    pub sys: AutoViewSystem,
    pub server: ViewServer,
    pub outcome: Outcome,
    /// `run()` + `publish()`: workload in to views live, in seconds.
    pub wall_s: f64,
    /// The `publish()` part of `wall_s`.
    pub publish_s: f64,
}

/// Run the whole pipeline on `inputs` and publish its selection, as spans
/// `core.run` and `serve.publish` of request `rep` when `rec` is enabled.
pub fn build(inputs: &Inputs, rec: &mut Recorder, rep: u64) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut sys = AutoViewSystem::new(
        inputs.catalog.clone(),
        inputs.plans.clone(),
        inputs.config.clone(),
    );
    let report = rec
        .span("core.run", rep, |_| sys.run())
        .map_err(|e| format!("pipeline run failed: {e}"))?;
    let t1 = Instant::now();
    let (server, summary) = rec
        .span("serve.publish", rep, |_| {
            sys.publish(serve_config(ObsConfig::default()), Some(TENANT))
        })
        .map_err(|e| format!("publish failed: {e}"))?;
    let t2 = Instant::now();

    let mut hash = 0u64;
    for view in sys.selected_views() {
        hash = mix(hash, view.canonical_fp.0);
        hash = mix(hash, view.expected_benefit.to_bits());
    }
    Ok(Built {
        outcome: Outcome {
            selection_hash: hash,
            views: report.num_views,
            saved_cost_ratio_pct: report.saved_ratio_percent,
            estimated_utility: report.estimated_utility,
            admitted: summary.admitted,
            rejected: summary.rejected,
        },
        sys,
        server,
        wall_s: (t2 - t0).as_secs_f64(),
        publish_s: (t2 - t1).as_secs_f64(),
    })
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

fn mix_str(h: u64, s: &str) -> u64 {
    s.as_bytes()
        .chunks(8)
        .fold(mix(h, s.len() as u64), |h, chunk| {
            mix(h, chunk.iter().fold(0u64, |a, &b| (a << 8) | u64::from(b)))
        })
}

/// Order-sensitive checksum of a result batch: names, types and values.
pub fn checksum(batch: &RecordBatch) -> u64 {
    let shape = mix(batch.num_rows() as u64, batch.num_columns() as u64);
    let named = batch.names.iter().fold(shape, |h, name| mix_str(h, name));
    batch.columns.iter().fold(named, |h, col| match col {
        Column::Int(v) => v.iter().fold(mix(h, 1), |h, &x| mix(h, x as u64)),
        Column::Float(v) => v.iter().fold(mix(h, 2), |h, &x| mix(h, x.to_bits())),
        Column::Str(v) => v.iter().fold(mix(h, 3), |h, s| mix_str(h, s)),
    })
}

/// One request of a serving workload with the answer it must produce.
pub struct Request {
    pub plan: PlanRef,
    pub checksum: u64,
}

/// The oracle: execute each plan directly on the view-free base catalog
/// and keep its batch checksum. Every served response is compared with it.
pub fn oracle(catalog: &Catalog, plans: &[PlanRef]) -> Result<Vec<Request>, String> {
    let exec = Executor::new(catalog, Pricing::paper_defaults());
    plans
        .iter()
        .map(|plan| {
            let result = exec
                .run(plan)
                .map_err(|e| format!("oracle execution failed: {e}"))?;
            Ok(Request {
                plan: plan.clone(),
                checksum: checksum(&result.batch),
            })
        })
        .collect()
}

/// The `serve_miss` working set: each plan followed by its chained literal
/// perturbations, duplicates (plans with no literal to nudge) removed.
pub fn miss_plans(plans: &[PlanRef], seed: u64) -> Vec<PlanRef> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d69_7373);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(plans.len() * MISS_CHAIN);
    for plan in plans {
        let mut current = plan.clone();
        for _ in 0..MISS_CHAIN {
            if seen.insert(Fingerprint::of(&current)) {
                out.push(current.clone());
            }
            current = job::perturb_literal(&current, &mut rng);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_gives_identical_plan_fingerprints() {
        let fps = |seed| -> Vec<Fingerprint> {
            inputs(Workload::ServeHot, seed)
                .plans
                .iter()
                .map(|p| Fingerprint::of(p))
                .collect()
        };
        assert_eq!(fps(7), fps(7));
        let miss = |seed| -> Vec<Fingerprint> {
            miss_plans(&inputs(Workload::ServeMiss, seed).plans, seed)
                .iter()
                .map(|p| Fingerprint::of(p))
                .collect()
        };
        assert_eq!(miss(7), miss(7));
        assert_ne!(miss(7), miss(8), "the seed drives the perturbations");
    }

    #[test]
    fn miss_working_set_exceeds_the_cache() {
        let inputs = inputs(Workload::ServeMiss, 42);
        let set = miss_plans(&inputs.plans, 42);
        let distinct: HashSet<Fingerprint> = set.iter().map(|p| Fingerprint::of(p)).collect();
        assert_eq!(distinct.len(), set.len(), "working set holds no duplicates");
        // Each client's half alone is a third beyond capacity: with 16
        // shards that are each cleared when full, no shard's share of a
        // cycle fits its share of the cache, so a cycled key is always
        // gone before its next turn.
        let capacity = CACHE_CAPACITY;
        assert!(
            distinct.len() / 2 > capacity + capacity / 3,
            "{} distinct plans against a {capacity}-entry cache",
            distinct.len()
        );
        assert!(inputs.plans.len() < capacity / 2, "hot set fits");
    }

    #[test]
    fn checksum_sees_values_order_and_names() {
        let batch = |names: [&str; 2], ints: Vec<i64>| RecordBatch {
            names: names.iter().map(|s| s.to_string()).collect(),
            columns: vec![
                Column::Int(ints),
                Column::str(vec!["a".into(), "bc".into()]),
            ],
        };
        let base = checksum(&batch(["x", "y"], vec![1, 2]));
        assert_eq!(base, checksum(&batch(["x", "y"], vec![1, 2])));
        assert_ne!(base, checksum(&batch(["x", "y"], vec![2, 1])));
        assert_ne!(base, checksum(&batch(["x", "z"], vec![1, 2])));
        assert_ne!(base, checksum(&batch(["x", "y"], vec![1, 3])));
    }
}
