//! Tier-1 smoke over the executor: on two workloads, every plan gives the
//! same batch and `ExecutionReport`, bit for bit, through each way the
//! system runs it — the default kernels, the reference kernels, a cold cache
//! miss and a warm cache hit — and the default kernels reproduce a recorded
//! digest of every result.

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

/// FNV-1a over `bits(r)` of every plan of both workloads. The paths above
/// share the scan and join code, so a changed meter charge or a reordered
/// join output would pass that test; this digest was recorded before the
/// borrowed-scan and single-pass filter/probe kernels landed, and pins the
/// executor's output against that earlier implementation.
#[test]
fn default_kernels_reproduce_the_recorded_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [mini(7), job_workload(0.02, 42)] {
        let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
        for plan in w.plans() {
            for byte in bits(&exec.run(&plan).expect("run")).bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!(h, 0xca79_0ae6_0e4c_44c0, "executor digest");
}
