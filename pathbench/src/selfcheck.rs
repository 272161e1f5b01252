//! `--selfcheck`: measure every workload twice at one seed and fail if any
//! end-to-end metric moved between the two sets by more than its bound.
//! A set is the median of [`RUNS_PER_SET`] runs, each in a fresh process
//! (so `peak_rss_mb` starts from nothing); the two sets' runs alternate, so
//! that a host that changes speed for a minute slows both alike.

use crate::report::END_TO_END;
use crate::setup::Workload;
use crate::stats::median;
use crate::Args;
use std::process::Command;

/// Runs behind each set's median. One run per set is not enough on a shared
/// host, whose speed moves by a quarter between one run and the next.
const RUNS_PER_SET: usize = 3;

/// Pull `"name": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Run one workload in a child process and return its result line.
fn child_run(workload: Workload, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !line.starts_with("{\"correct\": true,") {
        return Err(format!(
            "{} did not report a correct run: {line}",
            workload.name()
        ));
    }
    Ok(line)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut broken = Vec::new();
    for workload in Workload::ALL {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..RUNS_PER_SET {
            for set in &mut sets {
                set.push(child_run(workload, args)?);
            }
        }
        for m in &END_TO_END {
            let set_median = |lines: &[String]| -> Result<f64, String> {
                let values: Result<Vec<f64>, String> = lines
                    .iter()
                    .map(|l| metric_value(l, m.name).ok_or_else(|| format!("no {} in {l}", m.name)))
                    .collect();
                Ok(median(&values?))
            };
            let (a, b) = (set_median(&sets[0])?, set_median(&sets[1])?);
            // Either order: the second set is not special.
            let moved = worsening(a, b, m.lower_is_better).max(worsening(b, a, m.lower_is_better));
            let verdict = if moved <= m.bound { "ok" } else { "MOVED" };
            println!(
                "{:<13} {:<12} {a:>14.4} {b:>14.4} {:>4} moved {:>5.1}% of {:>4.0}% {verdict}",
                workload.name(),
                m.name,
                m.unit,
                moved * 100.0,
                m.bound * 100.0
            );
            if moved > m.bound {
                broken.push(format!("{} {}", workload.name(), m.name));
            }
        }
    }
    if broken.is_empty() {
        println!("selfcheck passed: two sets of runs agree within every bound");
        Ok(())
    } else {
        Err(format!("selfcheck failed: {}", broken.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
                    \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
                    \"ops_per_s\": {\"value\": 812345.5, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(line, "ops_per_s"), Some(812345.5));
        assert_eq!(metric_value(line, "op_p50_us"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, true) < 0.0);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }
}
