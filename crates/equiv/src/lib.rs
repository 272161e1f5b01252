//! # av-equiv — subquery equivalence and workload analysis
//!
//! The paper's pre-process stage (Fig. 3): extract candidate subqueries from
//! a workload, detect equivalent subqueries, cluster them, and compute the
//! overlap relation that constrains which views a query may use together.
//!
//! The paper uses EQUITAS (SMT-based first-order predicate equivalence).
//! We substitute a two-stage decision procedure for the same predicate
//! fragment the workloads contain (conjunctive/disjunctive equality and
//! range predicates over equi-join trees):
//!
//! 1. **Canonicalization** ([`canon`]): rename table aliases positionally,
//!    flip comparisons literal-to-the-right, flatten + sort + dedupe
//!    AND/OR operands, drop double negations, sort join conditions.
//!    Equal canonical fingerprints ⇒ equivalent.
//! 2. **Randomized semantic testing** ([`predtest`]): plans that are
//!    structurally identical except for their predicates are compared by
//!    evaluating both predicates over a literal-aware randomized domain;
//!    agreement on every probe ⇒ equivalent (one-sided error, probability
//!    of a false merge vanishing in the number of probes).
//!
//! ```
//! use av_equiv::are_equivalent;
//! use av_plan::parse_query;
//!
//! // Same subquery, different alias, reordered predicate.
//! let a = parse_query("select t1.uid from memo t1 where t1.dt = '1010' and t1.k = 1").unwrap();
//! let b = parse_query("select t9.uid from memo t9 where t9.k = 1 and t9.dt = '1010'").unwrap();
//! assert!(are_equivalent(&a, &b));
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod cluster;
pub mod predtest;

pub use canon::{canonical_fingerprint, canonicalize, shape_fingerprint};
pub use cluster::{analyze_workload, Analyzer, Candidate, QueryMatch, WorkloadAnalysis};
pub use predtest::predicates_equivalent;

use av_plan::{Fingerprint, PlanRef};

/// Decide semantic equivalence of two subqueries: canonical identity, or
/// shape identity plus randomized predicate agreement.
pub fn are_equivalent(a: &PlanRef, b: &PlanRef) -> bool {
    let ca = canonicalize(a);
    let cb = canonicalize(b);
    if Fingerprint::of(&ca) == Fingerprint::of(&cb) {
        return true;
    }
    if shape_fingerprint(&ca) != shape_fingerprint(&cb) {
        return false;
    }
    predtest::plans_agree_on_predicates(&ca, &cb)
}
