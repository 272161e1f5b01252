//! # av-equiv — subquery equivalence and workload analysis
//!
//! The paper's pre-process stage (Fig. 3): extract candidate subqueries from
//! a workload, detect equivalent subqueries, cluster them, and compute the
//! overlap relation that constrains which views a query may use together.
//!
//! The paper uses EQUITAS (SMT-based first-order predicate equivalence).
//! We substitute one normal form ([`canon`]): rename table aliases
//! positionally, flip comparisons literal-to-the-right, flatten + sort +
//! dedupe AND/OR operands, drop double negations, sort join conditions.
//! Equal canonical fingerprints ⇒ equivalent. That one key
//! ([`canonical_fingerprint`]) groups the clusters, keys serving's view
//! index, and is the fast path of `av-analyze`'s rewrite prover, so a
//! subquery clustered with a view is exactly a subquery routed to it.
//! Semantically equal predicates the normal form does not unify (say
//! `k >= 5` and `NOT(k < 5)`) stay separate candidates.
//!
//! ```
//! use av_equiv::canonical_fingerprint;
//! use av_plan::parse_query;
//!
//! // Same subquery, different alias, reordered predicate.
//! let a = parse_query("select t1.uid from memo t1 where t1.dt = '1010' and t1.k = 1").unwrap();
//! let b = parse_query("select t9.uid from memo t9 where t9.k = 1 and t9.dt = '1010'").unwrap();
//! assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&b));
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod cluster;

pub use canon::{canonical_fingerprint, canonicalize};
pub use cluster::{
    analyze_workload, Analyzer, Candidate, QueryMatch, WorkloadAnalysis, MIN_SHARED_QUERIES,
};
