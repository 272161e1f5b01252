//! # av-ilp — the Materialized View Selection ILP
//!
//! The paper casts Materialized View Selection as an ILP (Section V-A) and
//! calls an off-the-shelf solver (PuLP/Gurobi) for the per-query `Y-Opt`
//! subproblems. This crate holds the MVS instance ([`MvsInstance`]) and two
//! dedicated depth-first branch-and-bound searches in place of that solver:
//! [`max_weight_independent_set`], the exact `Y-Opt` kernel (the views one
//! query uses, no two overlapping), and [`MvsInstance::solve_exact`], a
//! node-budgeted search over `z` that reports whether it finished.
//!
//! ```
//! use av_ilp::max_weight_independent_set;
//!
//! // maximize 3a + 2b + 2c  s.t.  a, b overlap and b, c overlap
//! let picks = max_weight_independent_set(&[3.0, 2.0, 2.0], &[(0, 1), (1, 2)]);
//! assert_eq!(picks, vec![true, false, true]);
//! ```

#![forbid(unsafe_code)]

mod mvs;
mod mwis;

pub use mvs::{MvsInstance, MvsSolution};
pub use mwis::max_weight_independent_set;
