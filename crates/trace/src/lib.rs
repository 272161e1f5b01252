//! # av-trace — structured observability for the AutoView pipeline
//!
//! Zero-dependency-beyond-serde spans, metrics and profiling shared by
//! every layer of the system:
//!
//! - **Spans** ([`Tracer`], [`SpanGuard`]): hierarchical enter/exit guards
//!   with per-span wall time via an injectable [`Clock`], so library code
//!   never reads the wall clock directly (clippy's `disallowed_methods`,
//!   configured in `crates/clippy.toml`, refuses `Instant::now`).
//! - **Metrics** ([`Metrics`]): a thread-safe, name-addressed registry of
//!   counters, gauges, histograms and phase timings.
//! - **Quantiles** ([`QuantileSketch`]): the one mergeable log-bucket
//!   sketch behind every histogram, SLO window and load-generator
//!   percentile in the workspace.
//! - **Exporters**: [`chrome_trace`] (chrome://tracing `traceEvents`) and
//!   [`profile_tree`] (plain-text per-phase profile); snapshots are serde
//!   types, so the raw snapshot is one `serde_json` call away.
//!
//! Metric names follow `subsystem.noun_verb` (e.g. `engine.cache_hit`,
//! `serve.swaps`); span names follow `subsystem.phase`
//! (`pipeline.train`, `core.measure_queries`). See DESIGN.md §Observability.

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod sketch;
pub mod span;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use export::{chrome_trace, profile_tree};
pub use metrics::{Metrics, MetricsSnapshot, Timing, TimingSnapshot, NAN_REJECTED};
pub use sketch::{BucketSnapshot, QuantileSketch, SketchSnapshot};
pub use span::{SpanGuard, SpanRecord, TraceSnapshot, Tracer};
