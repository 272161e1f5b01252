//! Cost metering and the cloud pricing model (Definitions 1–3).
//!
//! The executor counts abstract work units (rows scanned, predicate
//! evaluations, hash operations, bytes of intermediate state). The meter
//! converts those into resource usage — CPU core-minutes and GB-minutes of
//! memory — and then into dollars via the pricing constants of the paper's
//! Table II: α = 1.67e-5 $/GB (storage), β = 1e-1 $/(core·min),
//! γ = 1e-3 $/(GB·min).

use serde::{Deserialize, Serialize};

/// Abstract CPU operations a simulated core performs per minute. Calibrated
/// so the synthetic JOB-scale workload lands in the paper's per-query cost
/// range (cents per query).
pub const OPS_PER_CORE_MINUTE: f64 = 2.0e6;

/// Pricing constants (α, β, γ) of the paper's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pricing {
    /// Storage, $/GB — used for view space overhead `A_α`.
    pub alpha: f64,
    /// CPU, $/(core·minute) — `A_β`.
    pub beta: f64,
    /// Memory, $/(GB·minute) — `A_γ`.
    pub gamma: f64,
}

impl Pricing {
    /// The defaults of the paper's Table II.
    pub fn paper_defaults() -> Pricing {
        Pricing {
            alpha: 1.67e-5,
            beta: 1e-1,
            gamma: 1e-3,
        }
    }

    /// Storage fee `A_α(v) = α · bytes`.
    pub fn storage_dollars(&self, bytes: usize) -> f64 {
        self.alpha * bytes as f64 / 1e9
    }

    /// Computation fee `A_{β,γ} = β·cpu + γ·mem` for a usage record.
    pub fn compute_dollars(&self, usage: &ResourceUsage) -> f64 {
        self.beta * usage.cpu_core_minutes + self.gamma * usage.mem_gb_minutes
    }
}

/// Resource usage of one plan execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// CPU usage in core-minutes.
    pub cpu_core_minutes: f64,
    /// Memory usage in GB-minutes.
    pub mem_gb_minutes: f64,
    /// Wall-clock latency in seconds (single simulated core).
    pub latency_seconds: f64,
}

/// Final execution report: usage plus priced cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    pub usage: ResourceUsage,
    /// `A_{β,γ}` in dollars.
    pub cost_dollars: f64,
    /// Bytes of the final result (for view storage overhead).
    pub output_bytes: usize,
    /// Rows of the final result.
    pub output_rows: usize,
}

/// Accumulates abstract work while an operator tree executes.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    /// Abstract CPU operations.
    ops: f64,
    /// Currently-held intermediate bytes.
    live_bytes: usize,
    /// High-water mark of `live_bytes`.
    peak_bytes: usize,
}

impl CostMeter {
    /// Fresh meter.
    pub fn new() -> CostMeter {
        CostMeter::default()
    }

    /// Charge `n` abstract CPU operations.
    pub fn charge_ops(&mut self, n: usize) {
        self.ops += n as f64;
    }

    /// Charge CPU proportional to rows × per-row weight.
    pub fn charge_rows(&mut self, rows: usize, weight: usize) {
        self.ops += (rows * weight.max(1)) as f64;
    }

    /// Record allocation of intermediate state.
    pub fn alloc_bytes(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Record release of intermediate state.
    pub fn free_bytes(&mut self, bytes: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Abstract operations charged so far.
    pub fn ops(&self) -> f64 {
        self.ops
    }

    /// Peak intermediate bytes observed.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Convert counters into resource usage: the query runs on one simulated
    /// core, so duration = ops / OPS_PER_CORE_MINUTE, and memory GB-minutes
    /// = peak GB × duration.
    pub fn usage(&self) -> ResourceUsage {
        let duration_min = self.ops / OPS_PER_CORE_MINUTE;
        let peak_gb = self.peak_bytes as f64 / 1e9;
        ResourceUsage {
            cpu_core_minutes: duration_min,
            mem_gb_minutes: peak_gb * duration_min,
            latency_seconds: duration_min * 60.0,
        }
    }

    /// Finish metering and price the run.
    pub fn report(
        &self,
        pricing: &Pricing,
        output_bytes: usize,
        output_rows: usize,
    ) -> ExecutionReport {
        let usage = self.usage();
        ExecutionReport {
            usage,
            cost_dollars: pricing.compute_dollars(&usage),
            output_bytes,
            output_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = CostMeter::new();
        m.alloc_bytes(100);
        m.alloc_bytes(50);
        m.free_bytes(120);
        m.alloc_bytes(10);
        assert_eq!(m.peak_bytes(), 150);
    }

    #[test]
    fn usage_scales_linearly_with_ops() {
        let mut m = CostMeter::new();
        m.charge_ops(OPS_PER_CORE_MINUTE as usize);
        let u = m.usage();
        assert!((u.cpu_core_minutes - 1.0).abs() < 1e-9);
        assert!((u.latency_seconds - 60.0).abs() < 1e-6);
    }

    #[test]
    fn pricing_defaults_match_table_ii() {
        let p = Pricing::paper_defaults();
        assert_eq!(p.alpha, 1.67e-5);
        assert_eq!(p.beta, 1e-1);
        assert_eq!(p.gamma, 1e-3);
    }

    #[test]
    fn compute_dollars_combines_beta_and_gamma() {
        let p = Pricing {
            alpha: 0.0,
            beta: 2.0,
            gamma: 3.0,
        };
        let u = ResourceUsage {
            cpu_core_minutes: 1.5,
            mem_gb_minutes: 0.5,
            latency_seconds: 0.0,
        };
        assert!((p.compute_dollars(&u) - (2.0 * 1.5 + 3.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn storage_dollars_per_gb() {
        let p = Pricing::paper_defaults();
        let one_gb = 1_000_000_000;
        assert!((p.storage_dollars(one_gb) - 1.67e-5).abs() < 1e-18);
    }

    #[test]
    fn charge_rows_respects_min_weight() {
        let mut m = CostMeter::new();
        m.charge_rows(10, 0); // weight clamped to 1
        assert_eq!(m.ops(), 10.0);
    }
}
