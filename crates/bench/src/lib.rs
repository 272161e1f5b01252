//! # av-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_redundancy` | Fig. 1 — redundant computation per project |
//! | `table1_workloads` | Table I — workload statistics |
//! | `table3_cost_estimation` | Table III — MAE/MAPE of all estimators |
//! | `fig9_topk` | Fig. 9 — utility-vs-k curves of the greedy methods |
//! | `table4_selection` | Table IV — optimal utility per selector + OPT |
//! | `fig10_convergence` | Fig. 10 — IterView vs RLView trajectories |
//! | `table5_end_to_end` | Table V — O&B / O&R / W&B / W&R end-to-end |
//! | `ablation_rlview` | extra: RLView component ablations |
//!
//! Scale knobs (environment variables, all optional):
//! - `AV_JOB_SCALE` — JOB data scale factor (default `0.05`);
//! - `AV_WK1_SCALE` / `AV_WK2_SCALE` — WK query-count scale factors
//!   (defaults `0.01` / `0.005`);
//! - `AV_EPOCH_SCALE` — multiplier on the paper's Table II training epochs
//!   and RL epochs (default `0.2`);
//! - `AV_TRAIN_PAIRS` — cap on executed ground-truth pairs (default `400`);
//! - `AV_SEED` — master seed (default `42`).
//!
//! A knob that is set but does not parse as its type (a float scale, an
//! unsigned count or seed) stops the run with the key and value ([`knob`]).
//!
//! Experiments never match the paper's absolute numbers (the substrate is a
//! simulator); the *shapes* — who wins, where curves peak, which method
//! converges — are the reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use av_core::{collect_pair_truth, preprocess_and_measure, PairTruth, Preprocessed};
use av_engine::{Catalog, Pricing};
use av_ilp::MvsInstance;
use av_plan::PlanRef;
use av_workload::{cloud, job::job_workload, Workload};
use std::str::FromStr;

/// Parsed scale knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub job_scale: f64,
    pub wk1_scale: f64,
    pub wk2_scale: f64,
    pub epoch_scale: f64,
    pub train_pairs: usize,
    pub seed: u64,
}

impl BenchConfig {
    /// Read configuration from the environment (see [`knob`]).
    pub fn from_env() -> BenchConfig {
        BenchConfig {
            job_scale: knob("AV_JOB_SCALE", 0.05),
            wk1_scale: knob("AV_WK1_SCALE", 0.01),
            wk2_scale: knob("AV_WK2_SCALE", 0.005),
            epoch_scale: knob("AV_EPOCH_SCALE", 0.2),
            train_pairs: knob("AV_TRAIN_PAIRS", 400),
            seed: knob("AV_SEED", 42),
        }
    }
}

/// The bench knob `key` parsed as `T`, or `default` when it is unset.
///
/// # Panics
///
/// If the variable is set but does not parse as `T`: a typo must not run
/// the default scale silently.
pub fn knob<T: FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Ok(raw) => parse_knob(key, &raw),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => panic!("{key}={raw:?} is not valid UTF-8"),
    }
}

/// [`knob`]'s parse of a value that is set.
fn parse_knob<T: FromStr>(key: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        panic!(
            "{key}={raw:?} does not parse as {}",
            std::any::type_name::<T>()
        )
    })
}

/// A fully-measured experiment context: workload, preprocessing, measured
/// pair ground truth and the *actual* benefit matrix.
pub struct Experiment {
    pub name: String,
    pub workload: Workload,
    /// Catalog including materialized candidate views.
    pub catalog: Catalog,
    pub plans: Vec<PlanRef>,
    pub pre: Preprocessed,
    pub pairs: Vec<PairTruth>,
    /// MVS instance with measured (actual) benefits.
    pub actual: MvsInstance,
    pub pricing: Pricing,
}

/// Build one of the three workloads by name (`job`, `wk1`, `wk2`).
pub fn build_workload(which: &str, cfg: &BenchConfig) -> Workload {
    match which {
        "job" => job_workload(cfg.job_scale, cfg.seed),
        "wk1" => cloud::wk1(cfg.wk1_scale, cfg.seed),
        "wk2" => cloud::wk2(cfg.wk2_scale, cfg.seed),
        other => panic!("unknown workload {other:?} (use job|wk1|wk2)"),
    }
}

/// Run pre-process + measurement + full pair-truth collection for a
/// workload and assemble the actual-benefit MVS instance.
pub fn setup_experiment(which: &str, cfg: &BenchConfig, pair_limit: usize) -> Experiment {
    let workload = build_workload(which, cfg);
    let pricing = Pricing::paper_defaults();
    let mut catalog = workload.catalog.clone();
    let plans = workload.plans();
    let pre =
        preprocess_and_measure(&mut catalog, &plans, pricing).expect("generated workloads execute");
    let pairs = collect_pair_truth(&catalog, &pre, &plans, pair_limit, cfg.seed)
        .expect("pair truth collection");
    let actual = actual_instance(&pre, &pairs, plans.len());
    Experiment {
        name: which.to_string(),
        workload,
        catalog,
        plans,
        pre,
        pairs,
        actual,
        pricing,
    }
}

/// Assemble the MVS instance whose benefits are the *measured* ones.
pub fn actual_instance(pre: &Preprocessed, pairs: &[PairTruth], num_queries: usize) -> MvsInstance {
    let nc = pre.analysis.candidates.len();
    let mut benefits = vec![vec![0.0; nc]; num_queries];
    for p in pairs {
        benefits[p.query][p.candidate] = p.actual_benefit;
    }
    MvsInstance {
        benefits,
        overheads: pre.overheads.clone(),
        overlaps: pre.analysis.overlap_pairs.clone(),
    }
}

/// Render a simple aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = line(header.iter().map(|s| s.to_string()).collect());
    out.push('\n');
    out.push_str(&"-".repeat(out.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        let c = BenchConfig::from_env();
        assert!(c.job_scale > 0.0);
        assert!(c.train_pairs > 0);
    }

    #[test]
    fn knobs_parse_their_own_type() {
        assert_eq!(parse_knob::<u64>("AV_SEED", "7"), 7);
        // Integers do not round-trip through f64: 2^53 + 1 survives.
        assert_eq!(
            parse_knob::<u64>("AV_SEED", "9007199254740993"),
            9_007_199_254_740_993
        );
        assert_eq!(parse_knob::<f64>("AV_JOB_SCALE", "0.02"), 0.02);
        assert_eq!(parse_knob::<usize>("AV_TRAIN_PAIRS", "300"), 300);
    }

    #[test]
    #[should_panic(expected = "AV_TRAIN_PAIRS=\"-1\" does not parse as usize")]
    fn a_negative_count_is_refused() {
        parse_knob::<usize>("AV_TRAIN_PAIRS", "-1");
    }

    #[test]
    #[should_panic(expected = "AV_JOB_SCALE=\"0,05\" does not parse as f64")]
    fn an_unparseable_scale_is_refused() {
        parse_knob::<f64>("AV_JOB_SCALE", "0,05");
    }

    #[test]
    fn mini_experiment_setup_works() {
        let cfg = BenchConfig {
            job_scale: 0.02,
            wk1_scale: 0.001,
            wk2_scale: 0.001,
            epoch_scale: 0.1,
            train_pairs: 20,
            seed: 1,
        };
        let exp = setup_experiment("wk1", &cfg, 20);
        assert!(!exp.plans.is_empty());
        assert_eq!(
            exp.actual.benefits.len(),
            exp.plans.len(),
            "benefit matrix covers all queries"
        );
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("long_header"));
        assert_eq!(t.lines().count(), 4);
    }
}
