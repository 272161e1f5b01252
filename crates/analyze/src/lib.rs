//! `av-analyze` — static verification for the AutoView reproduction.
//!
//! Two analyses, each usable as a library and wired into one binary:
//!
//! - **Plan verifier** ([`verify_plan`]): structural checks plus bottom-up
//!   typed schema inference over the logical plan IR, mirroring
//!   `av-engine`'s runtime semantics. Rejects unbound columns,
//!   type-mismatched predicates and join keys, and aggregates over
//!   incompatible inputs. [`install_engine_gate`] hooks it in front of
//!   every `Executor::run` in the process.
//! - **Rewrite gate** ([`gate_rewrite`], which every rewrite site calls):
//!   the semantic prover ([`prove_rewrite`]) decides, and only a `Proved`
//!   rewrite is accepted — `Refuted` and `Unknown` are both refused.
//!
//! Binary: `cargo run -p av-analyze` verifies the full JOB workload, its
//! candidates and every rewrite they induce. The determinism rules (no
//! wall clock, no raw threads, no hash-order iteration, no unwrap, no
//! unsafe) are compiler lints, set in `crates/clippy.toml` and the
//! workspace's `[workspace.lints]`, not a pass of this crate.

#![forbid(unsafe_code)]

pub mod containment;
pub mod schema;
pub mod verify;

pub use containment::{prove_rewrite, Verdict, ViewDef};
pub use schema::{infer_schema, type_of_expr, Schema};
pub use verify::{gate_rewrite, install_engine_gate, verify_plan, RewriteRefused};
