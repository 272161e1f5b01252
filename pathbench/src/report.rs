//! Metric names, units, directions and bounds — the same lists as
//! `BENCHMARK.json` (a test compares them) — and the run's output.

use crate::setup::Workload;
use crate::trace::{self, Span};
use crate::Args;
use std::io::Write;

/// An end-to-end metric: name, unit, whether lower is better, and the share
/// of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.1,
    },
];

/// Per-layer metrics `(name, unit, better)`, layer = crate. Reported by the
/// traced pass for every workload; 0 where a layer takes no part.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    // Pipeline, stage by stage.
    ("equiv.analyze_s", "s", "lower"),
    ("core.preprocess_s", "s", "lower"),
    ("core.truth_s", "s", "lower"),
    ("core.truth_pairs", "count", "higher"),
    ("cost.fit_s", "s", "lower"),
    ("cost.fit_samples_per_s", "1/s", "higher"),
    ("cost.matrix_s", "s", "lower"),
    ("cost.matrix_pairs", "count", "higher"),
    ("select.solve_s", "s", "lower"),
    ("select.views", "count", "higher"),
    ("select.utility", "usd", "higher"),
    ("core.deploy_s", "s", "lower"),
    ("core.saved_cost_ratio_pct", "%", "higher"),
    ("serve.publish_s", "s", "lower"),
    ("serve.publish_admitted", "count", "higher"),
    ("serve.publish_rejected", "count", "lower"),
    ("analyze.preflight_s", "s", "lower"),
    ("analyze.preflight_proved", "count", "higher"),
    ("analyze.preflight_unknown", "count", "lower"),
    // Request path, step by step.
    ("plan.fingerprint_ns", "ns", "lower"),
    ("serve.admission_ns", "ns", "lower"),
    ("serve.route_memo_ns", "ns", "lower"),
    ("serve.route_us", "us", "lower"),
    ("engine.cache_hit_ns", "ns", "lower"),
    ("engine.exec_us", "us", "lower"),
    ("obs.cost_ns", "ns", "lower"),
    ("serve.execute_unaccounted_share", "share", "lower"),
    // Counts read at the measured interval's boundaries.
    ("engine.cache_hit_rate", "share", "higher"),
    ("engine.cache_evictions", "count", "lower"),
    ("engine.cache_evicted_bytes", "bytes", "lower"),
    ("serve.route_memo_hit_rate", "share", "higher"),
    ("serve.rewrite_hit_share", "share", "higher"),
    ("serve.shed", "count", "lower"),
    ("sched.tasks", "count", "lower"),
    ("sched.steals", "count", "lower"),
    ("sched.busy_share", "share", "lower"),
    // Epoch swaps under load.
    ("serve.swaps", "count", "higher"),
    ("serve.swap_s", "s", "lower"),
    ("serve.post_swap_first_us", "us", "lower"),
    ("loadgen.late_p99_us", "us", "lower"),
    // The benchmark's own accounting.
    ("bench.slo_miss_share", "share", "lower"),
    ("bench.failed_share", "share", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Everything one run produced.
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name, every metric of the run's mode exactly once.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and percentile levels behind the metrics.
    pub notes: Vec<String>,
    /// Spans per recording thread (traced runs).
    pub spans: Vec<Vec<Span>>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("metric is declared")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Check the run reported exactly its mode's metrics, then print them by
/// name and unit, write the optional files, and end with the result line.
pub fn emit(result: &RunResult, args: &Args) -> Result<(), String> {
    let expected: Vec<&str> = if result.traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let got: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
    if got != expected {
        return Err(format!(
            "run reported {got:?}, its mode declares {expected:?}"
        ));
    }

    println!(
        "pathbench {} seed {} {} ({} cores)",
        result.workload.name(),
        result.seed,
        if result.traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (name, value) in &result.metrics {
        println!("  {name:<34} {value:>16.4} {}", unit_of(name));
    }
    for note in &result.notes {
        println!("  # {note}");
    }
    println!(
        "  # attempted {} failed {}",
        result.attempted, result.failed
    );

    if let Some(path) = &args.trace_out {
        trace::write_chrome_trace(path, &result.spans)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        println!(
            "  # wrote {} spans to {path}",
            result.spans.iter().map(Vec::len).sum::<usize>()
        );
    }
    let line = result_json(result);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            result.workload.name(),
            result.seed,
            u8::from(result.traced),
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same workloads
    /// and metrics with the same units, directions and bounds.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
        }
        assert_eq!(text.matches("\"why\": ").count(), Workload::ALL.len());
        for m in END_TO_END {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            text.matches("\"better\": ").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the tables do not"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            workload: Workload::ServeHot,
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.5), ("op_p50_us", f64::NAN)],
            notes: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            result_json(&result),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }
}
