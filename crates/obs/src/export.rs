//! Prometheus text-format exposition (version 0.0.4) for an
//! [`av_trace::MetricsSnapshot`] plus the obs layer's own SLO and residual
//! state.
//!
//! Internal metric names are dotted (`engine.cache_hit`); Prometheus names
//! must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so dots and any other stray
//! characters become underscores. Histograms render as the standard
//! cumulative-`le` bucket series (power-of-two edges, straight from the
//! sketch snapshot) with `_sum`/`_count`, timings as
//! `_seconds_total`/`_count` counter pairs, and SLO state as labeled
//! per-tenant gauges.

use crate::residual::ResidualSummary;
use crate::slo::TenantSloStats;
use av_trace::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitize one metric name into the Prometheus alphabet.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render a metrics snapshot as Prometheus exposition text.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_f64(*value));
    }
    for (name, h) in &snapshot.histograms {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for b in &h.buckets {
            // The snapshot's overflow bucket carries `f64::MAX` (JSON has no
            // +Inf literal); it folds into the terminal `+Inf` series below.
            if b.upper >= f64::MAX {
                continue;
            }
            cum += b.count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", fmt_f64(b.upper));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", fmt_f64(h.sum));
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    for (name, t) in &snapshot.timings {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n}_seconds_total counter");
        let _ = writeln!(out, "{n}_seconds_total {}", fmt_f64(t.total_seconds));
        let _ = writeln!(out, "# TYPE {n}_count counter");
        let _ = writeln!(out, "{n}_count {}", t.count);
    }
    out
}

/// Render per-tenant SLO state as labeled series. Window sums fall when
/// intervals rotate out, so they are gauges; only the alert count, which
/// never falls, is a `_total` counter.
pub fn slo_text(stats: &[TenantSloStats]) -> String {
    let mut out = String::new();
    if stats.is_empty() {
        return out;
    }
    type Series = (&'static str, fn(&TenantSloStats) -> String);
    let series: [Series; 8] = [
        ("slo_requests", |s| s.requests.to_string()),
        ("slo_shed_or_failed", |s| s.shed_or_failed.to_string()),
        ("slo_latency_p50_us", |s| fmt_f64(s.p50_us)),
        ("slo_latency_p99_us", |s| fmt_f64(s.p99_us)),
        ("slo_latency_fast_burn", |s| fmt_f64(s.latency_fast_burn)),
        ("slo_latency_slow_burn", |s| fmt_f64(s.latency_slow_burn)),
        ("slo_availability_slow_burn", |s| {
            fmt_f64(s.availability_slow_burn)
        }),
        ("slo_alerts_fired_total", |s| s.alerts_fired.to_string()),
    ];
    for (name, get) in series {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for s in stats {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                escape_label(&s.tenant),
                get(s)
            );
        }
    }
    out
}

/// Render residual-store aggregates as labeled gauges.
pub fn residual_text(summary: &ResidualSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE residuals_recorded_total counter");
    let _ = writeln!(out, "residuals_recorded_total {}", summary.recorded);
    if !summary.per_view.is_empty() {
        let _ = writeln!(out, "# TYPE residual_q_error_mean gauge");
        for (view, agg) in &summary.per_view {
            let _ = writeln!(
                out,
                "residual_q_error_mean{{view=\"{view:#018x}\"}} {}",
                fmt_f64(agg.q_mean())
            );
        }
    }
    if !summary.per_op.is_empty() {
        let _ = writeln!(out, "# TYPE residual_q_error_max gauge");
        for (op, agg) in &summary.per_op {
            let _ = writeln!(
                out,
                "residual_q_error_max{{op=\"{}\"}} {}",
                escape_label(op),
                fmt_f64(agg.q_max)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TenantTag;
    use crate::residual::{Residual, ResidualStore};
    use crate::slo::{RequestOutcome, SloState, INTERVAL_NANOS, LATENCY_THRESHOLD_US};
    use av_trace::Metrics;

    #[test]
    fn names_are_sanitized_into_the_prometheus_alphabet() {
        assert_eq!(sanitize("engine.cache_hit"), "engine_cache_hit");
        assert_eq!(sanitize("serve.latency-us"), "serve_latency_us");
        assert_eq!(sanitize("9lives"), "_lives", "leading digit is illegal");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn counters_gauges_and_histograms_render() {
        let m = Metrics::new();
        m.add("engine.cache_hit", 7);
        m.set_gauge("serve.inflight", 3.5);
        m.observe("serve.latency_us", 100.0);
        m.observe("serve.latency_us", 5000.0);
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE engine_cache_hit counter"));
        assert!(text.contains("engine_cache_hit 7"));
        assert!(text.contains("serve_inflight 3.5"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
        assert!(text.contains("serve_latency_us_count 2"));
        assert!(
            text.contains("_bucket{le=\"+Inf\"} 2"),
            "terminal +Inf bucket must equal the count:\n{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe("h", 0.5);
        m.observe("h", 2.0);
        m.observe("h", 2.0);
        let text = prometheus_text(&m.snapshot());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("h_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty());
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {counts:?}"
        );
        assert_eq!(*counts.last().unwrap(), 3);
    }

    #[test]
    fn slo_series_are_labeled_per_tenant() {
        let stats = vec![TenantSloStats {
            tenant: "acme\"corp".to_string(),
            requests: 10,
            shed_or_failed: 1,
            p50_us: 100.0,
            p95_us: 200.0,
            p99_us: 300.0,
            latency_fast_burn: 0.5,
            latency_slow_burn: 0.25,
            availability_fast_burn: 0.0,
            availability_slow_burn: 0.0,
            alerts_fired: 0,
        }];
        let text = slo_text(&stats);
        assert!(text.contains("slo_requests{tenant=\"acme\\\"corp\"} 10"));
        assert!(text.contains("slo_latency_p99_us{tenant=\"acme\\\"corp\"} 300"));
        assert_eq!(slo_text(&[]), "");
    }

    /// `series{labels}` → value for every sample of a `counter` family.
    fn counter_samples(text: &str) -> Vec<(String, f64)> {
        let counters: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
            .collect();
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let family = series.split('{').next()?;
                counters
                    .contains(&family)
                    .then(|| (series.to_string(), value.parse().expect("numeric sample")))
            })
            .collect()
    }

    #[test]
    fn slo_counters_never_fall_when_the_window_rotates() {
        let mut slo = SloState::new();
        let tenant = TenantTag::new("t0");
        // 100 requests each 50x past the threshold: enough to fire an alert.
        let slow_nanos = LATENCY_THRESHOLD_US * 50_000;
        for i in 0..100u64 {
            slo.observe(tenant, i, slow_nanos, RequestOutcome::Served);
        }
        let before = slo_text(&slo.stats());
        // Jump far ahead: every interval rotates out of the window.
        slo.observe(tenant, 100 * INTERVAL_NANOS, 10_000, RequestOutcome::Served);
        let after = slo_text(&slo.stats());
        assert!(
            before.contains("slo_requests{tenant=\"t0\"} 100\n"),
            "{before}"
        );
        assert!(after.contains("slo_requests{tenant=\"t0\"} 1\n"), "{after}");
        let old = counter_samples(&before);
        let new = counter_samples(&after);
        assert!(!old.is_empty(), "{before}");
        for (series, was) in &old {
            let now = new
                .iter()
                .find(|(s, _)| s == series)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {series} vanished:\n{after}"));
            assert!(now >= *was, "counter {series} fell {was} -> {now}");
        }
    }

    #[test]
    fn residual_series_render_per_view_and_per_op() {
        let mut store = ResidualStore::new();
        store.record(Residual {
            view_fp: 0xabc,
            root_op: "Join",
            estimated: 4.0,
            measured: 2.0,
        });
        let text = residual_text(&store.summary());
        assert!(text.contains("residuals_recorded_total 1"));
        assert!(text.contains("residual_q_error_mean{view=\"0x0000000000000abc\"} 2"));
        assert!(text.contains("residual_q_error_max{op=\"Join\"} 2"));
    }
}
