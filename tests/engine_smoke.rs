//! Tier-1 smoke over the executor: on two workloads, every plan gives the
//! same batch and `ExecutionReport`, bit for bit, through each way the
//! system runs it — the default kernels, the reference kernels, a cold cache
//! miss and a warm cache hit.

use autoview::engine::{ExecCache, ExecResult, Executor, Pricing};
use autoview::plan::Fingerprint;
use autoview::workload::{cloud::mini, job::job_workload, Workload};

/// Debug output of an `f64` round-trips, so equal strings mean equal bits
/// (unlike `==`, which lets `0.0` match `-0.0`).
fn bits(r: &ExecResult) -> String {
    format!("{:?} {:?}", r.batch, r.report)
}

fn assert_every_path_agrees(w: &Workload) {
    let pricing = Pricing::paper_defaults();
    let serial = Executor::new(&w.catalog, pricing);
    let reference = Executor::new(&w.catalog, pricing).with_reference_kernels(true);
    let cache = ExecCache::new(pricing, 1);
    let plans = w.plans();
    assert!(!plans.is_empty());
    let cold: Vec<ExecResult> = plans
        .iter()
        .map(|p| cache.run(&w.catalog, p).expect("cold run"))
        .collect();
    for (i, (plan, cold)) in plans.iter().zip(&cold).enumerate() {
        let want = bits(&serial.run(plan).expect("serial run"));
        assert_eq!(
            bits(&reference.run(plan).expect("reference run")),
            want,
            "{}: plan {i} reference kernels",
            w.name
        );
        assert_eq!(bits(cold), want, "{}: plan {i} cold cache", w.name);
        let (warm, hit) = cache
            .run_keyed_hit_dop(Fingerprint::of(plan), &w.catalog, plan, None)
            .expect("warm run");
        assert!(hit, "{}: plan {i} is served warm", w.name);
        assert_eq!(bits(&warm), want, "{}: plan {i} warm cache", w.name);
    }
}

#[test]
fn serial_reference_and_cached_execution_agree_bitwise() {
    assert_every_path_agrees(&mini(7));
    assert_every_path_agrees(&job_workload(0.02, 42));
}
