//! # av-online — the parts of adaptive view selection
//!
//! The batch pipeline (`av-core`) selects views once, for a workload known
//! up front. This crate holds the pieces that run the same machinery over a
//! query stream: a sliding window of recent arrivals
//! ([`stream::WorkloadStream`]), a drift detector over the window's
//! candidate cost-mass distribution ([`drift::DriftDetector`]), selection
//! re-run on a window and diffed against the live set
//! ([`reopt::reoptimize`]), and the live view set itself with its routing
//! index ([`lifecycle::ViewLifecycleManager`], [`lifecycle::ViewIndex`]).
//!
//! There is no engine here. `av-serve`'s `ViewServer` is the one place that
//! routes, executes and publishes; `av-core`'s `OnlineSystem` is the drift
//! loop that feeds it arrivals and asks it to re-optimize.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic))]

pub mod drift;
pub mod lifecycle;
pub mod reopt;
pub mod stream;

pub use av_select::SelectorKind;
pub use drift::{DriftConfig, DriftDetector, DriftReport};
pub use lifecycle::{
    route_through_views, AdmitOutcome, Applied, LifecycleConfig, LiveView, ViewIndex,
    ViewLifecycleManager,
};
pub use reopt::{
    benefit_matrix, freeze_estimates, reoptimize, selected_candidates, CandidateView, ReoptPlan,
    WindowSnapshot,
};
pub use stream::{ArrivedQuery, WorkloadStream};
