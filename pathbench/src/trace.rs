//! The benchmark's own spans: recorded in memory around each call into a
//! layer's public functions, written out as chrome-trace JSON at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one request or pipeline rep.
    pub request: u64,
}

/// A single thread's span recorder. Disabled recorders run the closure and
/// record nothing, so the untraced pass pays one branch per call site.
pub struct Recorder {
    /// Zero of the span clock, shared by a run's recorders; `None` = off.
    epoch: Option<Instant>,
    /// Spans kept; past this the closure still runs but nothing is
    /// recorded, so a traced serving window cannot grow without bound.
    cap: usize,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder on the span clock that starts at `epoch`, or a disabled
    /// one when the run is untraced.
    pub fn new(epoch: Option<Instant>, cap: usize) -> Recorder {
        Recorder {
            epoch,
            cap,
            spans: Vec::with_capacity(if epoch.is_some() { cap.min(1 << 16) } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Recorder {
        Recorder::new(None, 0)
    }

    /// Time `f` as a span named `name` under the currently open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        if self.spans.len() >= self.cap {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect()
}

/// Per span name: how many were recorded and their summed self time in
/// nanoseconds, where a span's self time is its duration minus its direct
/// children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// Write per-thread span lists as one chrome-trace document (complete `X`
/// events, microsecond timestamps, one `tid` per recorder).
pub fn write_chrome_trace(path: &str, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut rec = Recorder::new(Some(Instant::now()), 16);
        rec.span("outer", 7, |r| {
            r.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("inner", 7, |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs["inner"].0, 2);
        let outer_total = spans[0].end_ns - spans[0].start_ns;
        assert!(selfs["outer"].1 + selfs["inner"].1 <= outer_total + 1);
        assert!(selfs["inner"].1 >= 2_000_000);
        assert_eq!(durations_s(&spans, "inner").len(), 2);
    }

    #[test]
    fn disabled_and_full_recorders_still_run_the_closure() {
        let mut off = Recorder::disabled();
        assert_eq!(off.span("x", 0, |_| 41 + 1), 42);
        assert!(off.into_spans().is_empty());

        let mut full = Recorder::new(Some(Instant::now()), 1);
        full.span("kept", 0, |_| ());
        assert_eq!(full.span("dropped", 0, |_| 5), 5);
        assert_eq!(full.into_spans().len(), 1);
    }
}
