//! # av-serve — concurrent multi-tenant query serving over view deployments
//!
//! The paper's system faces "millions of users": view selection is only
//! useful if the selected views can be *served* — many sessions executing
//! against a shared snapshot while re-optimization retunes the view set in
//! the background. This crate is that serving layer:
//!
//! - [`Deployment`] / [`DeploymentCell`]: immutable copy-on-write
//!   snapshots (an `Arc<Catalog>` sharing table data plus a frozen live
//!   view set) published through an epoch-swapped cell. Readers never
//!   block on re-optimization, and while the epoch holds a request reads
//!   its thread's cached handle without a shared write; a swap replaces
//!   one pointer and in-flight requests finish on the epoch they started
//!   with.
//! - [`AdmissionController`]: per-tenant inflight caps with a bounded wait
//!   queue — backpressure first, load shedding second, so one hot tenant
//!   cannot monopolize the server. Below the cap a permit is one CAS on the
//!   tenant's atomic counter; the lock and condvar serve only the queue.
//! - [`ViewServer`]: the façade. `execute` is the lock-light read path
//!   (admission → snapshot → route → sharded cache); `reoptimize` is the
//!   serialized write path (selection → tenant-accounted admission → a
//!   candidate deployment preflighted through `av-analyze` → atomic swap).
//! - [`loadgen`]: closed-loop workload replay with sketch-based latency
//!   percentiles, driving `serve_bench` and `serve_stats`.
//!
//! ```
//! use av_serve::{ServeConfig, ViewServer};
//! use av_cost::OptimizerEstimator;
//! use av_workload::cloud::mini;
//!
//! let w = mini(7);
//! let plans = w.plans();
//! let server = ViewServer::new(
//!     w.catalog.clone(),
//!     Box::new(OptimizerEstimator::default()),
//!     ServeConfig::default(),
//! );
//! let before = server.execute("tenant0", &plans[0]).unwrap();
//! server.reoptimize(&plans, Some("tenant0")).unwrap();   // epoch 0 → 1
//! let after = server.execute("tenant0", &plans[0]).unwrap();
//! assert_eq!(before.batch, after.batch);                 // swap is invisible
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic))]

pub mod admission;
pub mod deployment;
pub mod loadgen;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, Permit, Rejection, TenantLoad};
pub use deployment::{Deployment, DeploymentCell, PreflightStats};
pub use loadgen::{run_closed_loop, ClosedLoopConfig, LoadReport};
pub use server::{PoolStats, ReoptSummary, ServeConfig, ServeError, ServeResponse, ViewServer};

// Telemetry types consumers need to configure the server or consume its
// snapshots without depending on `av-obs` directly.
pub use av_obs::{ErrorAggregate, FlightDump, ObsConfig, ObsStats, SloAlert, TenantSloStats};
