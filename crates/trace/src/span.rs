//! Hierarchical spans: enter/exit guards, nesting, and per-span wall time.
//!
//! A [`Tracer`] owns one logical span stack plus a [`Metrics`] registry.
//! Opening a span ([`Tracer::span`]) pushes onto the stack; dropping the
//! returned [`SpanGuard`] closes it and records its end time. Children
//! opened while a guard is live are parented under it, so a full
//! `AutoViewSystem` run yields a tree of pipeline phases (`pipeline.*` at
//! the root, `core.*` / `cost.*` / `select.*` steps beneath).
//!
//! Spans are phase-rate: a few per pipeline stage, epoch or reoptimize, never
//! one per served request or executor operator. The tracer is cheap to clone
//! (`Arc` inside) and thread-safe, but the span *stack* is one logical
//! stack: open spans from the orchestrating thread; worker threads should
//! record into [`Tracer::metrics`] instead. A disabled tracer
//! ([`Tracer::disabled`]) records no spans; its clock and its metrics
//! registry stay live — whether spans are recorded never decides whether
//! time moves.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Metrics, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded span. Spans land here when their guard drops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Dense id in open order. Spans still open at snapshot time are
    /// absent, so an id is not an index into the snapshot's span vector.
    pub id: u64,
    /// Enclosing span at open time, if any.
    pub parent: Option<u64>,
    pub name: String,
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Numeric attributes (`queries`, `candidates`, losses, …).
    pub num_attrs: Vec<(String, f64)>,
}

impl SpanRecord {
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    pub fn num_attr(&self, key: &str) -> Option<f64> {
        self.num_attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

/// Everything a run produced: the span tree plus the metrics registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSnapshot {
    pub spans: Vec<SpanRecord>,
    pub metrics: MetricsSnapshot,
}

impl TraceSnapshot {
    /// Distinct names among root spans (no parent) — the run's phases.
    pub fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Sentinel for "no enclosing span" in the `current` atomic and in a
/// logged span's `parent` field.
const NO_SPAN: u32 = u32::MAX;

/// A closed span as logged, with its attributes.
struct RawSpan {
    id: u32,
    /// [`NO_SPAN`] when the span is a root.
    parent: u32,
    name: &'static str,
    start_nanos: u64,
    end_nanos: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Clock dispatch. The production clock is stored unboxed so reads are
/// direct (well-predicted) calls instead of virtual ones — the served path
/// reads the clock through [`Tracer::now_nanos`] on every request; injected
/// clocks ([`Tracer::with_clock`]) take the dynamic arm.
enum ClockSource {
    Monotonic(MonotonicClock),
    Injected(Box<dyn Clock>),
}

impl ClockSource {
    #[inline]
    fn now_nanos(&self) -> u64 {
        match self {
            ClockSource::Monotonic(c) => c.now_nanos(),
            ClockSource::Injected(c) => c.now_nanos(),
        }
    }
}

struct Inner {
    enabled: bool,
    clock: ClockSource,
    /// Next span id (ids are assigned at open, so id order = open order).
    next_id: AtomicU32,
    /// Innermost open span, [`NO_SPAN`] at the root. Guards save the value
    /// they displace and restore it on drop, so no stack is needed.
    current: AtomicU32,
    /// Closed spans, in close order; snapshots re-sort by id = open order.
    log: Mutex<Vec<RawSpan>>,
    metrics: Metrics,
}

/// Handle to the trace of one run. Clone freely; clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer on real (monotonic) time.
    pub fn new() -> Tracer {
        Tracer::build(true, ClockSource::Monotonic(MonotonicClock::new()))
    }

    /// An enabled tracer on the given clock (use [`crate::TestClock`] in
    /// tests for reproducible durations).
    pub fn with_clock(clock: Box<dyn Clock>) -> Tracer {
        Tracer::build(true, ClockSource::Injected(clock))
    }

    /// A span-less tracer: [`Tracer::span`] records nothing, so instrumented code can hold one unconditionally. The
    /// clock is the real monotonic clock and the metrics registry is live,
    /// so [`Tracer::now_nanos`] and [`Tracer::time`] measure real durations
    /// in un-traced runs too.
    pub fn disabled() -> Tracer {
        Tracer::build(false, ClockSource::Monotonic(MonotonicClock::new()))
    }

    fn build(enabled: bool, clock: ClockSource) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                enabled,
                clock,
                next_id: AtomicU32::new(0),
                current: AtomicU32::new(NO_SPAN),
                log: Mutex::new(Vec::new()),
                metrics: Metrics::new(),
            }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The tracer's metrics registry. A disabled tracer still accepts
    /// metric writes — counters like cache hit/miss stay meaningful in
    /// un-traced runs; only span recording is suppressed.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Nanoseconds since the tracer's clock origin, for telemetry that
    /// stores integer timestamps (flight-recorder records, SLO window
    /// rotation) without opening a span.
    pub fn now_nanos(&self) -> u64 {
        self.inner.clock.now_nanos()
    }

    /// Open a span named `name`, parented under the innermost open span.
    /// Dropping the guard closes it and logs one record carrying its
    /// attributes.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.inner.enabled {
            return SpanGuard {
                tracer: None,
                id: 0,
                prev: NO_SPAN,
                name,
                start_nanos: 0,
                attrs: RefCell::new(Vec::new()),
            };
        }
        let start_nanos = self.inner.clock.now_nanos();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let prev = self.inner.current.swap(id, Ordering::Relaxed);
        SpanGuard {
            tracer: Some(self),
            id,
            prev,
            name,
            start_nanos,
            attrs: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, and accumulate its duration —
    /// two reads of the tracer's clock, real monotonic time unless a clock
    /// was injected with [`Tracer::with_clock`] — into the metrics
    /// registry's timing of the same name. The timing is recorded even when
    /// span recording is disabled, so phase totals stay available in
    /// un-traced runs.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.inner.clock.now_nanos();
        let guard = self.span(name);
        let out = f();
        drop(guard);
        let elapsed = self.inner.clock.now_nanos().saturating_sub(start);
        self.inner
            .metrics
            .record_seconds(name, elapsed as f64 / 1e9);
        out
    }

    /// Number of spans opened so far (ids are dense, so the next-id counter
    /// is the count — including spans whose guards are still live).
    pub fn span_count(&self) -> usize {
        self.inner.next_id.load(Ordering::Relaxed) as usize
    }

    /// Copy out everything recorded so far, in open order. Spans whose
    /// guards are still live at snapshot time are not included — their state
    /// lives in the guard and only lands in the log at close.
    pub fn snapshot(&self) -> TraceSnapshot {
        let log = self.inner.log.lock().expect("span log poisoned");
        let mut spans: Vec<SpanRecord> = log
            .iter()
            .map(|r| SpanRecord {
                id: r.id as u64,
                parent: (r.parent != NO_SPAN).then_some(r.parent as u64),
                name: r.name.to_string(),
                start_nanos: r.start_nanos,
                end_nanos: r.end_nanos,
                num_attrs: r.attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            })
            .collect();
        spans.sort_by_key(|s| s.id);
        TraceSnapshot {
            spans,
            metrics: self.inner.metrics.snapshot(),
        }
    }
}

/// RAII guard for an open span; drop closes the span.
///
/// The guard carries the whole open-span state (name, parent, start time,
/// attributes), so the shared log is touched once, at close.
pub struct SpanGuard<'a> {
    /// None when the tracer is disabled (the guard is inert).
    tracer: Option<&'a Tracer>,
    id: u32,
    /// Value of `current` displaced at open (the parent), restored at close.
    prev: u32,
    name: &'static str,
    start_nanos: u64,
    attrs: RefCell<Vec<(&'static str, f64)>>,
}

impl SpanGuard<'_> {
    /// Attach a numeric attribute (rows, bytes, loss, …) to this span.
    pub fn record_num(&self, key: &'static str, value: f64) {
        if self.tracer.is_some() {
            self.attrs.borrow_mut().push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(t) = self.tracer else { return };
        let now = t.inner.clock.now_nanos();
        // Restore the enclosing span. Guards drop LIFO, so `current` holds
        // this span's id; the compare-exchange keeps a stray out-of-order
        // drop (an outer guard dropped while an inner one leaks) from
        // clobbering the live inner span's context.
        let _ = t.inner.current.compare_exchange(
            self.id,
            self.prev,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let attrs = std::mem::take(self.attrs.get_mut());
        let mut log = t.inner.log.lock().expect("span log poisoned");
        log.push(RawSpan {
            id: self.id,
            parent: self.prev,
            name: self.name,
            start_nanos: self.start_nanos,
            end_nanos: now,
            attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    fn traced() -> (Tracer, TestClock) {
        let clock = TestClock::new();
        let tracer = Tracer::with_clock(Box::new(clock.clone()));
        (tracer, clock)
    }

    #[test]
    fn spans_nest_and_time_deterministically() {
        let (t, clock) = traced();
        {
            let _outer = t.span("pipeline.train");
            clock.advance(100);
            {
                let inner = t.span("cost.adam_step");
                inner.record_num("epoch", 3.0);
                clock.advance(50);
            }
            clock.advance(25);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.name, "pipeline.train");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.start_nanos, 0);
        assert_eq!(outer.end_nanos, 175);
        assert_eq!(inner.name, "cost.adam_step");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.start_nanos, 100);
        assert_eq!(inner.end_nanos, 150);
        assert_eq!(inner.num_attr("epoch"), Some(3.0));
    }

    #[test]
    fn siblings_share_a_parent_in_open_order() {
        let (t, clock) = traced();
        let root = t.span("root");
        for name in ["a", "b", "c"] {
            let _s = t.span(name);
            clock.advance(10);
        }
        drop(root);
        let snap = t.snapshot();
        let kids: Vec<&str> = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(kids, vec!["a", "b", "c"], "children recorded in open order");
        assert_eq!(snap.phase_names(), vec!["root".to_string()]);
    }

    #[test]
    fn open_spans_are_absent_until_their_guard_drops() {
        let (t, clock) = traced();
        let root = t.span("pipeline.truth");
        clock.advance(5);
        assert_eq!(t.span_count(), 1, "open span counts");
        assert!(t.snapshot().spans.is_empty(), "but is not yet in the log");
        drop(root);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].end_nanos, 5);
    }

    #[test]
    fn time_records_span_and_timing() {
        let (t, clock) = traced();
        let out = t.time("phase", || {
            clock.advance(2_000_000_000);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(t.span_count(), 1);
        let timing = t.metrics().timing("phase").expect("timing recorded");
        assert_eq!(timing.count, 1);
        assert!((timing.total_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_no_spans_but_keeps_metrics() {
        let t = Tracer::disabled();
        {
            let g = t.span("never");
            g.record_num("x", 1.0);
        }
        let out = t.time("phase", || 5);
        assert_eq!(out, 5);
        t.metrics().inc("engine.cache_hit");
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.metrics.counters["engine.cache_hit"], 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let (t, clock) = traced();
        {
            let g = t.span("pipeline.select");
            clock.advance(33);
            g.record_num("views", 4.0);
        }
        t.metrics().inc("select.flips");
        t.metrics().observe("select.reward", 0.125);
        let snap = t.snapshot();
        let text = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
        let back: TraceSnapshot = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back.spans, snap.spans);
        assert_eq!(back.metrics.counters, snap.metrics.counters);
        assert_eq!(
            back.metrics.histograms["select.reward"].count,
            snap.metrics.histograms["select.reward"].count
        );
    }
}
