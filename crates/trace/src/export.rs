//! Exporters for a [`TraceSnapshot`]: chrome://tracing JSON and a
//! plain-text per-phase profile tree. The raw snapshot serializes with
//! serde.

use crate::span::{SpanRecord, TraceSnapshot};
use serde::{write_json, Json};
use std::collections::BTreeMap;

/// Render the snapshot as a chrome://tracing / Perfetto-compatible
/// `traceEvents` document: one complete (`"ph": "X"`) event per span, with
/// timestamps and durations in microseconds and span attributes under
/// `args`. Spans still open at snapshot time are absent (see
/// [`crate::Tracer::snapshot`]). Load the output via chrome://tracing →
/// "Load" or <https://ui.perfetto.dev>.
pub fn chrome_trace(snapshot: &TraceSnapshot) -> String {
    let events: Vec<Json> = snapshot.spans.iter().map(span_event).collect();
    let doc = Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ]);
    write_json(&doc, Some(2))
}

fn span_event(span: &SpanRecord) -> Json {
    let mut args: Vec<(String, Json)> = Vec::new();
    args.push(("span_id".to_string(), Json::Num(span.id as f64)));
    if let Some(p) = span.parent {
        args.push(("parent_id".to_string(), Json::Num(p as f64)));
    }
    for (k, v) in &span.num_attrs {
        args.push((k.clone(), Json::Num(*v)));
    }
    Json::Obj(vec![
        ("name".to_string(), Json::Str(span.name.clone())),
        ("cat".to_string(), Json::Str("span".to_string())),
        ("ph".to_string(), Json::Str("X".to_string())),
        ("ts".to_string(), Json::Num(span.start_nanos as f64 / 1e3)),
        (
            "dur".to_string(),
            Json::Num(span.duration_nanos() as f64 / 1e3),
        ),
        ("pid".to_string(), Json::Num(1.0)),
        ("tid".to_string(), Json::Num(1.0)),
        ("args".to_string(), Json::Obj(args)),
    ])
}

/// Aggregated node of the profile tree: spans grouped by their name-path
/// from the root.
#[derive(Debug, Default, Clone, Copy)]
struct ProfileNode {
    count: u64,
    total_nanos: u64,
}

/// Render the snapshot as an indented plain-text profile: spans aggregated
/// by name at each tree level, children sorted by total time (descending),
/// with each line showing call count, total time and share of the parent.
pub fn profile_tree(snapshot: &TraceSnapshot) -> String {
    // Group spans by (parent group path, name). Paths are name sequences,
    // so N spans of the same name under the same parent path fold into one
    // line with count N.
    let mut groups: BTreeMap<Vec<String>, ProfileNode> = BTreeMap::new();
    for span in &snapshot.spans {
        let path = name_path(snapshot, span);
        let node = groups.entry(path).or_default();
        node.count += 1;
        node.total_nanos += span.duration_nanos();
    }

    let mut out = String::from("profile (by span path, total time desc)\n");
    let roots: Vec<Vec<String>> = sorted_children(&groups, &[]);
    let total_root_nanos: u64 = roots
        .iter()
        .filter_map(|p| groups.get(p))
        .map(|n| n.total_nanos)
        .sum();
    for path in &roots {
        render_path(&groups, path, total_root_nanos, 0, &mut out);
    }
    out
}

fn name_path(snapshot: &TraceSnapshot, span: &SpanRecord) -> Vec<String> {
    let mut path = vec![span.name.clone()];
    // Snapshots omit open spans, so ids are not indices: resolve parents
    // by id (the snapshot is id-sorted) and stop at an absent one.
    let by_id = |id| snapshot.spans.binary_search_by_key(&id, |s| s.id).ok();
    let mut cur = span.parent.and_then(by_id);
    while let Some(i) = cur {
        let parent = &snapshot.spans[i];
        path.push(parent.name.clone());
        cur = parent.parent.and_then(by_id);
    }
    path.reverse();
    path
}

/// Direct children of `prefix` among the grouped paths, sorted by total
/// time descending (name as tie-break, for determinism).
fn sorted_children(
    groups: &BTreeMap<Vec<String>, ProfileNode>,
    prefix: &[String],
) -> Vec<Vec<String>> {
    let mut kids: Vec<Vec<String>> = groups
        .keys()
        .filter(|p| p.len() == prefix.len() + 1 && p.starts_with(prefix))
        .cloned()
        .collect();
    kids.sort_by(|a, b| {
        let ta = groups[a].total_nanos;
        let tb = groups[b].total_nanos;
        tb.cmp(&ta).then_with(|| a.cmp(b))
    });
    kids
}

fn render_path(
    groups: &BTreeMap<Vec<String>, ProfileNode>,
    path: &[String],
    parent_total: u64,
    depth: usize,
    out: &mut String,
) {
    let node = groups[path];
    let name = path.last().map(String::as_str).unwrap_or("?");
    let ms = node.total_nanos as f64 / 1e6;
    let share = if parent_total == 0 {
        100.0
    } else {
        100.0 * node.total_nanos as f64 / parent_total as f64
    };
    out.push_str(&format!(
        "{:indent$}{name}  {count}x  {ms:.3}ms  {share:.1}%\n",
        "",
        indent = depth * 2,
        count = node.count,
    ));
    for child in sorted_children(groups, path) {
        render_path(groups, &child, node.total_nanos, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::span::Tracer;

    fn sample() -> TraceSnapshot {
        let clock = TestClock::new();
        let t = Tracer::with_clock(Box::new(clock.clone()));
        {
            let phase = t.span("pipeline.truth");
            phase.record_num("queries", 2.0);
            for _ in 0..2 {
                let step = t.span("core.measure_queries");
                step.record_num("queries", 100.0);
                clock.advance(1_000);
            }
            clock.advance(500);
        }
        t.metrics().inc("engine.cache_miss");
        t.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let snap = sample();
        let text = chrome_trace(&snap);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_arr())
            .expect("traceEvents array");
        assert_eq!(events.len(), snap.spans.len());
        let first = events[0].as_obj().expect("event object");
        let field = |name: &str| {
            first
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .expect("field present")
        };
        assert_eq!(field("ph").as_str(), Some("X"));
        assert_eq!(field("name").as_str(), Some("pipeline.truth"));
        assert_eq!(field("ts").as_f64(), Some(0.0));
        assert_eq!(field("dur").as_f64(), Some(2.5)); // 2500ns = 2.5µs
    }

    #[test]
    fn profile_tree_aggregates_same_named_children() {
        let snap = sample();
        let text = profile_tree(&snap);
        assert!(text.contains("pipeline.truth  1x"), "root line: {text}");
        assert!(text.contains("  core.measure_queries  2x"), "child: {text}");
        // Two 1µs steps inside a 2.5µs phase = 80% of the parent.
        assert!(text.contains("80.0%"), "child share of parent: {text}");
    }

    #[test]
    fn profile_tree_roots_a_span_whose_parent_is_still_open() {
        let clock = TestClock::new();
        let t = Tracer::with_clock(Box::new(clock.clone()));
        let _outer = t.span("outer");
        {
            let _inner = t.span("inner");
            clock.advance(1_000);
        }
        // The snapshot holds only `inner` (id 1, parent 0): id 1 is not
        // index 1, and its parent is absent.
        let text = profile_tree(&t.snapshot());
        assert!(text.contains("\ninner  1x"), "inner at the root: {text}");
        assert!(!text.contains("outer"), "open parent absent: {text}");
    }
}
