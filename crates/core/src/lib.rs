//! # av-core — the end-to-end AutoView system
//!
//! The system of the paper's Fig. 3, wired from the substrate crates:
//!
//! 1. **Pre-process** ([`truth::preprocess_and_measure`]): parse/extract
//!    subqueries, detect equivalences, cluster, pick least-overhead
//!    candidates, measure raw query costs and candidate overheads.
//! 2. **Offline training** ([`truth::collect_pair_truth`] + the estimators):
//!    execute rewritten queries to collect `(q, v) → A(q|v)` ground truth
//!    into the metadata database, train the Wide-Deep cost model.
//! 3. **Online recommendation** ([`system::AutoViewSystem`]): estimate the
//!    benefit matrix, run a view selector (RLView/BigSub/greedy), pick the
//!    views to materialize.
//! 4. **Deploy & execute**: materialize the chosen views, rewrite the
//!    workload, execute it, and report the end-to-end numbers of Table V.

#![forbid(unsafe_code)]

pub mod config;
pub mod metadata;
pub mod system;
pub mod truth;

pub use config::{table2_defaults, Table2Defaults, WorkloadKind};
pub use metadata::MetadataDb;
pub use system::{
    AutoViewConfig, AutoViewSystem, EndToEndReport, EstimatorKind, OnlineReport, OnlineSystem,
    OnlineSystemConfig, QueryOutcome, SelectorKind,
};
pub use truth::{collect_pair_truth, preprocess_and_measure, PairTruth, Preprocessed};
