//! Hierarchical spans: enter/exit guards, nesting, and per-span wall time.
//!
//! A [`Tracer`] owns one logical span stack plus a [`Metrics`] registry.
//! Opening a span ([`Tracer::span`]) pushes onto the stack; dropping the
//! returned [`SpanGuard`] closes it and records its end time. Children
//! opened while a guard is live are parented under it, so a full
//! `AutoViewSystem` run yields a tree: pipeline phases at the root,
//! per-operator executor spans at the leaves.
//!
//! The tracer is cheap to clone (`Arc` inside) and thread-safe, but the
//! span *stack* is one logical stack: open spans from the orchestrating
//! thread; worker threads should record into [`Tracer::metrics`] instead.
//! A disabled tracer ([`Tracer::disabled`]) records no spans, so
//! instrumented hot paths stay within the <5% overhead budget; its clock
//! and its metrics registry stay live — whether spans are recorded never
//! decides whether time moves.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Metrics, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded span. Spans land here when their guard drops; instants
/// have `end_nanos == start_nanos`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Dense id: index into the snapshot's span vector.
    pub id: u64,
    /// Enclosing span at open time, if any.
    pub parent: Option<u64>,
    pub name: String,
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Numeric attributes (`rows`, `bytes`, `ops`, losses, …).
    pub num_attrs: Vec<(String, f64)>,
    /// String attributes (operator detail, table names, …).
    pub str_attrs: Vec<(String, String)>,
}

impl SpanRecord {
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    pub fn num_attr(&self, key: &str) -> Option<f64> {
        self.num_attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
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

    /// Pretty JSON for the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

/// How many numeric attributes a guard buffers on the stack. No current
/// instrumentation site attaches more (exec: rows/bytes/ops; RL episodes:
/// epoch/epsilon/steps/reward); extras spill into a Vec.
const INLINE_NUM_ATTRS: usize = 4;

/// Sentinel for "no enclosing span" in the `current` atomic and in the
/// packed records' `parent` field.
const NO_SPAN: u32 = u32::MAX;

/// Fixed-size (48-byte) packed span record. Attributes live in separate
/// append-only streams keyed by span id, so the per-span log write stays
/// within one cache line regardless of how many attributes a span carries —
/// that, not lock cost, is what keeps the traced executor inside the <5%
/// overhead budget.
struct RawSpan {
    id: u32,
    /// [`NO_SPAN`] when the span is a root.
    parent: u32,
    name: &'static str,
    start_nanos: u64,
    end_nanos: u64,
}

struct NumEntry {
    span: u32,
    key: &'static str,
    value: f64,
}

/// Attribute-value string with inline storage. Nearly every value recorded
/// on a hot span is a short table or operator name; storing those in-place
/// keeps `record_str` allocation-free, which matters at one scan span per
/// query in the traced replay path. Longer values spill to the heap.
enum AttrStr {
    Inline { len: u8, bytes: [u8; 22] },
    Heap(Box<str>),
}

impl AttrStr {
    fn new(s: &str) -> AttrStr {
        if s.len() <= 22 {
            let mut bytes = [0u8; 22];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            AttrStr::Inline {
                len: s.len() as u8,
                bytes,
            }
        } else {
            AttrStr::Heap(s.into())
        }
    }

    fn as_str(&self) -> &str {
        match self {
            // Whole-str byte copies can't split a char boundary.
            AttrStr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("attr bytes are utf8")
            }
            AttrStr::Heap(s) => s,
        }
    }
}

struct StrEntry {
    span: u32,
    key: &'static str,
    value: AttrStr,
}

/// Closed spans (in close order; snapshots re-sort by id = open order) plus
/// the packed attribute streams.
#[derive(Default)]
struct Log {
    spans: Vec<RawSpan>,
    num_attrs: Vec<NumEntry>,
    str_attrs: Vec<StrEntry>,
    /// Retired [`SpanBuffer`] states, capacity intact. Flushing a buffer
    /// appends its records (ids remapped to global) and parks the emptied
    /// vectors here; the next `Tracer::buffer` call pops one instead of
    /// allocating. A traced query therefore costs zero heap allocations
    /// once the pool is warm — per-query malloc churn, not lock cost, is
    /// what used to separate the traced path from the untraced one.
    free: Vec<BufState>,
}

/// Clock dispatch. The production clock is stored unboxed so the two reads
/// per span are direct (well-predicted) calls instead of virtual ones;
/// injected clocks ([`Tracer::with_clock`]) take the dynamic arm.
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
    /// they displace and restore it on drop, so no stack is needed and the
    /// hot path stays lock-free until the close-time log push.
    current: AtomicU32,
    log: Mutex<Log>,
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

    /// A span-less tracer: [`Tracer::span`], [`Tracer::instant`] and
    /// [`Tracer::buffer`] record nothing, so instrumented code can hold one
    /// unconditionally and stay off the hot path. The clock is the real
    /// monotonic clock and the metrics registry is live, so
    /// [`Tracer::now_nanos`] and [`Tracer::time`] measure real durations in
    /// un-traced runs too.
    pub fn disabled() -> Tracer {
        Tracer::build(false, ClockSource::Monotonic(MonotonicClock::new()))
    }

    fn build(enabled: bool, clock: ClockSource) -> Tracer {
        let log = if enabled {
            // Head off early realloc churn; a full pipeline run records a
            // few thousand spans, mostly executor operators with three
            // numeric attributes each.
            Log {
                spans: Vec::with_capacity(1024),
                num_attrs: Vec::with_capacity(4096),
                str_attrs: Vec::with_capacity(64),
                free: Vec::new(),
            }
        } else {
            Log::default()
        };
        Tracer {
            inner: Arc::new(Inner {
                enabled,
                clock,
                next_id: AtomicU32::new(0),
                current: AtomicU32::new(NO_SPAN),
                log: Mutex::new(log),
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
    /// Dropping the guard closes it.
    ///
    /// The open path is lock-free: an id allocation and a swap of the
    /// `current` pointer. All open-span state (name, parent, start time)
    /// rides in the guard and is committed to the record log in one lock
    /// acquisition at close.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.inner.enabled {
            return SpanGuard {
                tracer: None,
                id: 0,
                prev: NO_SPAN,
                name,
                start_nanos: 0,
                attrs: RefCell::new(GuardAttrs::default()),
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
            attrs: RefCell::new(GuardAttrs::default()),
        }
    }

    /// Record a zero-duration marker event (e.g. `serve.swap`)
    /// under the innermost open span.
    pub fn instant(&self, name: &'static str) {
        if !self.inner.enabled {
            return;
        }
        let now = self.inner.clock.now_nanos();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.inner.current.load(Ordering::Relaxed);
        let mut log = self.inner.log.lock().expect("span log poisoned");
        log.spans.push(RawSpan {
            id,
            parent,
            name,
            start_nanos: now,
            end_nanos: now,
        });
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

    /// Start an unsynchronized span buffer for a traced hot region (e.g.
    /// one executor run). Spans recorded through the buffer touch no locks
    /// or shared cache lines; the whole batch is committed to this tracer's
    /// log in one lock acquisition when the buffer drops, and the emptied
    /// vectors are recycled so a warm tracer hands out buffers without
    /// allocating. Buffered roots parent under the tracer's innermost open
    /// span at buffer creation, so buffered operator spans still nest
    /// inside phase spans.
    pub fn buffer(&self) -> SpanBuffer<'_> {
        if !self.inner.enabled {
            return SpanBuffer {
                tracer: None,
                global_parent: NO_SPAN,
                current: Cell::new(NO_SPAN),
                state: RefCell::new(BufState::default()),
            };
        }
        // Reuse a retired buffer's vectors when one is available; only the
        // first few buffers ever allocate.
        let state = self
            .inner
            .log
            .lock()
            .expect("span log poisoned")
            .free
            .pop()
            .unwrap_or_else(|| BufState {
                // One plan's operator tree: a few dozen spans, ~3 numeric
                // attributes each. Sized so a typical run never regrows.
                spans: Vec::with_capacity(32),
                num_attrs: Vec::with_capacity(96),
                str_attrs: Vec::with_capacity(8),
            });
        SpanBuffer {
            tracer: Some(self),
            global_parent: self.inner.current.load(Ordering::Relaxed),
            current: Cell::new(NO_SPAN),
            state: RefCell::new(state),
        }
    }

    /// Copy out everything recorded so far, in open order. Spans whose
    /// guards are still live at snapshot time are not included — their state
    /// lives in the guard and only lands in the log at close. Likewise,
    /// spans inside a [`SpanBuffer`] appear once the buffer flushes.
    pub fn snapshot(&self) -> TraceSnapshot {
        let log = self.inner.log.lock().expect("span log poisoned");
        let mut spans: Vec<SpanRecord> = log
            .spans
            .iter()
            .map(|r| SpanRecord {
                id: r.id as u64,
                parent: (r.parent != NO_SPAN).then_some(r.parent as u64),
                name: r.name.to_string(),
                start_nanos: r.start_nanos,
                end_nanos: r.end_nanos,
                num_attrs: Vec::new(),
                str_attrs: Vec::new(),
            })
            .collect();
        spans.sort_by_key(|s| s.id);
        // Attach the packed attribute streams: ids are unique and the span
        // vector is sorted by id, so each entry binds by binary search.
        for e in &log.num_attrs {
            if let Ok(i) = spans.binary_search_by_key(&(e.span as u64), |s| s.id) {
                spans[i].num_attrs.push((e.key.to_string(), e.value));
            }
        }
        for e in &log.str_attrs {
            if let Ok(i) = spans.binary_search_by_key(&(e.span as u64), |s| s.id) {
                spans[i]
                    .str_attrs
                    .push((e.key.to_string(), e.value.as_str().to_string()));
            }
        }
        TraceSnapshot {
            spans,
            metrics: self.inner.metrics.snapshot(),
        }
    }
}

/// Buffer-local span storage; ids are indices into `spans`.
#[derive(Default)]
struct BufState {
    spans: Vec<RawSpan>,
    num_attrs: Vec<NumEntry>,
    str_attrs: Vec<StrEntry>,
}

/// Unsynchronized span recording for one traced hot region — see
/// [`Tracer::buffer`]. Not `Sync`: a buffer belongs to the thread driving
/// the region (worker threads keep using [`Tracer::metrics`]).
pub struct SpanBuffer<'t> {
    /// None when the tracer is disabled (every call is inert).
    tracer: Option<&'t Tracer>,
    global_parent: u32,
    /// Buffer-local index of the innermost open buffered span.
    current: Cell<u32>,
    state: RefCell<BufState>,
}

impl<'t> SpanBuffer<'t> {
    /// False when the owning tracer records no spans — instrumented code
    /// can skip attribute computation entirely.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Open a buffered span. Same nesting semantics as [`Tracer::span`],
    /// scoped to this buffer.
    pub fn span(&self, name: &'static str) -> BufGuard<'_, 't> {
        let Some(t) = self.tracer else {
            return BufGuard {
                buf: None,
                idx: 0,
                prev: NO_SPAN,
            };
        };
        let now = t.inner.clock.now_nanos();
        let mut st = self.state.borrow_mut();
        let idx = st.spans.len() as u32;
        st.spans.push(RawSpan {
            id: idx,
            parent: self.current.get(),
            name,
            start_nanos: now,
            end_nanos: now,
        });
        let prev = self.current.replace(idx);
        BufGuard {
            buf: Some(self),
            idx,
            prev,
        }
    }
}

impl Drop for SpanBuffer<'_> {
    fn drop(&mut self) {
        let Some(t) = self.tracer else { return };
        let mut st = std::mem::take(self.state.get_mut());
        let n = st.spans.len() as u32;
        let mut log = t.inner.log.lock().expect("span log poisoned");
        if n > 0 {
            // Remap buffer-local ids (`0..n`) to a fresh global range and
            // append. The copy is a few cache lines per query; keeping the
            // vectors (capacity intact) for the free pool is what makes the
            // steady state allocation-free.
            let base = t.inner.next_id.fetch_add(n, Ordering::Relaxed);
            for r in st.spans.drain(..) {
                let parent = if r.parent != NO_SPAN {
                    base + r.parent
                } else {
                    self.global_parent
                };
                log.spans.push(RawSpan {
                    id: base + r.id,
                    parent,
                    name: r.name,
                    start_nanos: r.start_nanos,
                    end_nanos: r.end_nanos,
                });
            }
            for e in st.num_attrs.drain(..) {
                log.num_attrs.push(NumEntry {
                    span: base + e.span,
                    key: e.key,
                    value: e.value,
                });
            }
            for e in st.str_attrs.drain(..) {
                log.str_attrs.push(StrEntry {
                    span: base + e.span,
                    key: e.key,
                    value: e.value,
                });
            }
        }
        log.free.push(st);
    }
}

/// RAII guard for a buffered span; drop closes it.
pub struct BufGuard<'b, 't> {
    /// None when the buffer is inert.
    buf: Option<&'b SpanBuffer<'t>>,
    idx: u32,
    prev: u32,
}

impl BufGuard<'_, '_> {
    /// Attach a numeric attribute to this buffered span.
    pub fn record_num(&self, key: &'static str, value: f64) {
        if let Some(b) = self.buf {
            b.state.borrow_mut().num_attrs.push(NumEntry {
                span: self.idx,
                key,
                value,
            });
        }
    }

    /// Attach several numeric attributes in one call — one buffer borrow
    /// instead of one per attribute, which is worth ~2x on an operator
    /// span's standard rows/bytes/ops triple.
    pub fn record_nums<const N: usize>(&self, kvs: [(&'static str, f64); N]) {
        if let Some(b) = self.buf {
            let mut st = b.state.borrow_mut();
            for (key, value) in kvs {
                st.num_attrs.push(NumEntry {
                    span: self.idx,
                    key,
                    value,
                });
            }
        }
    }

    /// Attach a string attribute to this buffered span. Values up to 22
    /// bytes (every table/operator name) are stored inline, no allocation.
    pub fn record_str(&self, key: &'static str, value: &str) {
        if let Some(b) = self.buf {
            b.state.borrow_mut().str_attrs.push(StrEntry {
                span: self.idx,
                key,
                value: AttrStr::new(value),
            });
        }
    }
}

impl Drop for BufGuard<'_, '_> {
    fn drop(&mut self) {
        let Some(b) = self.buf else { return };
        let t = b.tracer.expect("live guard implies live tracer");
        let now = t.inner.clock.now_nanos();
        let mut st = b.state.borrow_mut();
        st.spans[self.idx as usize].end_nanos = now;
        b.current.set(self.prev);
    }
}

/// Attributes buffered in the guard (on the stack, cache-warm) until close.
struct GuardAttrs {
    num: [(&'static str, f64); INLINE_NUM_ATTRS],
    num_len: u8,
    num_spill: Vec<(&'static str, f64)>,
    str0: Option<(&'static str, String)>,
    str_spill: Vec<(&'static str, String)>,
}

impl Default for GuardAttrs {
    fn default() -> Self {
        GuardAttrs {
            num: [("", 0.0); INLINE_NUM_ATTRS],
            num_len: 0,
            num_spill: Vec::new(),
            str0: None,
            str_spill: Vec::new(),
        }
    }
}

/// RAII guard for an open span; drop closes the span.
///
/// The guard carries the whole open-span state (name, parent, start time,
/// buffered attributes), so a hot operator span costs two atomic ops at
/// open and a single lock acquisition at close no matter how many
/// attributes it records.
pub struct SpanGuard<'a> {
    /// None when the tracer is disabled (the guard is inert).
    tracer: Option<&'a Tracer>,
    id: u32,
    /// Value of `current` displaced at open (the parent), restored at close.
    prev: u32,
    name: &'static str,
    start_nanos: u64,
    attrs: RefCell<GuardAttrs>,
}

impl SpanGuard<'_> {
    /// Attach a numeric attribute (rows, bytes, loss, …) to this span.
    pub fn record_num(&self, key: &'static str, value: f64) {
        if self.tracer.is_some() {
            let mut attrs = self.attrs.borrow_mut();
            let len = attrs.num_len as usize;
            if len < INLINE_NUM_ATTRS {
                attrs.num[len] = (key, value);
                attrs.num_len += 1;
            } else {
                attrs.num_spill.push((key, value));
            }
        }
    }

    /// Attach a string attribute to this span.
    pub fn record_str(&self, key: &'static str, value: &str) {
        if self.tracer.is_some() {
            let mut attrs = self.attrs.borrow_mut();
            if attrs.str0.is_none() && attrs.str_spill.is_empty() {
                attrs.str0 = Some((key, value.to_string()));
            } else {
                attrs.str_spill.push((key, value.to_string()));
            }
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
        let attrs = self.attrs.get_mut();
        let mut log = t.inner.log.lock().expect("span log poisoned");
        log.spans.push(RawSpan {
            id: self.id,
            parent: self.prev,
            name: self.name,
            start_nanos: self.start_nanos,
            end_nanos: now,
        });
        for &(key, value) in &attrs.num[..attrs.num_len as usize] {
            log.num_attrs.push(NumEntry {
                span: self.id,
                key,
                value,
            });
        }
        for (key, value) in attrs.num_spill.drain(..) {
            log.num_attrs.push(NumEntry {
                span: self.id,
                key,
                value,
            });
        }
        if let Some((key, value)) = attrs.str0.take() {
            log.str_attrs.push(StrEntry {
                span: self.id,
                key,
                value: AttrStr::new(&value),
            });
        }
        for (key, value) in attrs.str_spill.drain(..) {
            log.str_attrs.push(StrEntry {
                span: self.id,
                key,
                value: AttrStr::new(&value),
            });
        }
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
            let outer = t.span("pipeline.train");
            clock.advance(100);
            {
                let inner = t.span("cost.adam_step");
                inner.record_num("epoch", 3.0);
                clock.advance(50);
            }
            clock.advance(25);
            outer.record_str("estimator", "widedeep");
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
        assert_eq!(outer.str_attrs, vec![("estimator".to_string(), "widedeep".to_string())]);
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
    fn instants_are_zero_duration_children() {
        let (t, clock) = traced();
        {
            let _root = t.span("serve.reopt");
            clock.advance(7);
            t.instant("serve.swap");
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let ev = &snap.spans[1];
        assert_eq!(ev.name, "serve.swap");
        assert_eq!(ev.parent, Some(0));
        assert_eq!(ev.start_nanos, 7);
        assert_eq!(ev.duration_nanos(), 0);
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
        t.instant("never");
        let out = t.time("phase", || 5);
        assert_eq!(out, 5);
        t.metrics().inc("engine.cache_hit");
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.metrics.counters["engine.cache_hit"], 1);
    }

    #[test]
    fn buffered_spans_nest_flush_on_drop_and_parent_under_phase() {
        let (t, clock) = traced();
        let phase = t.span("pipeline.deploy");
        clock.advance(10);
        {
            let buf = t.buffer();
            {
                let root = buf.span("exec.filter");
                clock.advance(5);
                {
                    let child = buf.span("exec.scan");
                    child.record_str("table", "orders");
                    clock.advance(3);
                }
                root.record_num("rows", 7.0);
            }
            // Not yet flushed: only the open phase span exists, unrecorded.
            assert!(t.snapshot().spans.is_empty());
        }
        drop(phase);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).expect("span");
        let phase = by_name("pipeline.deploy");
        let filter = by_name("exec.filter");
        let scan = by_name("exec.scan");
        assert_eq!(phase.parent, None);
        assert_eq!(filter.parent, Some(phase.id), "buffered root nests under the phase");
        assert_eq!(scan.parent, Some(filter.id));
        assert_eq!(filter.start_nanos, 10);
        assert_eq!(filter.end_nanos, 18);
        assert_eq!(scan.duration_nanos(), 3);
        assert_eq!(filter.num_attr("rows"), Some(7.0));
        assert_eq!(scan.str_attrs[0], ("table".to_string(), "orders".to_string()));
    }

    #[test]
    fn empty_or_disabled_buffers_record_nothing() {
        let t = Tracer::disabled();
        {
            let buf = t.buffer();
            let g = buf.span("never");
            g.record_num("x", 1.0);
        }
        assert_eq!(t.span_count(), 0);
        let live = Tracer::new();
        drop(live.buffer());
        assert!(live.snapshot().spans.is_empty());
    }

    #[test]
    fn snapshot_json_round_trips() {
        let (t, clock) = traced();
        {
            let g = t.span("pipeline.select");
            clock.advance(33);
            g.record_num("views", 4.0);
            g.record_str("selector", "rlview");
        }
        t.metrics().inc("select.flips");
        t.metrics().observe("select.reward", 0.125);
        let snap = t.snapshot();
        let text = snap.to_json();
        let back: TraceSnapshot = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back.spans, snap.spans);
        assert_eq!(back.metrics.counters, snap.metrics.counters);
        assert_eq!(
            back.metrics.histograms["select.reward"].count,
            snap.metrics.histograms["select.reward"].count
        );
    }
}
