//! `av-analyze` — static verification for the AutoView reproduction.
//!
//! Three parts, each usable as a library and wired into one binary:
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
//! - **Determinism lint** ([`lint`]): a hand-rolled scanner over
//!   `crates/*/src` flagging unordered hash-container iteration that feeds
//!   order-sensitive consumers, wall-clock reads in library code, and a
//!   per-file panic-site ratchet.
//!
//! Binary: `cargo run -p av-analyze` runs all passes plus full JOB
//! workload verification; `cargo run -p av-analyze -- lint` runs the
//! determinism lint alone (`-- lint --write-baseline` regenerates the
//! panic-site ratchet).

#![forbid(unsafe_code)]

pub mod containment;
pub mod lint;
pub mod schema;
pub mod verify;

pub use containment::{prove_rewrite, Verdict, ViewDef};
pub use schema::{infer_schema, type_of_expr, Schema};
pub use verify::{gate_rewrite, install_engine_gate, verify_plan, RewriteRefused};
