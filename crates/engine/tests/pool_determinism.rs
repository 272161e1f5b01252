//! Queries that run at once must each produce the batch and
//! `ExecutionReport` a lone run produces, bit for bit. Every query runs on
//! the thread that submits it, with aggregates folded over fixed 1024-row
//! chunks in ascending order, so nothing another query does can reach its
//! result.

#![allow(
    clippy::disallowed_methods,
    reason = "two threads run the same queries at once"
)]

use av_engine::exec::Executor;
use av_engine::meter::Pricing;

/// Eight concurrent query streams each run the JOB-like workload; every
/// result must equal the precomputed baseline.
#[test]
fn concurrent_queries_stay_bitwise_serial() {
    let w = av_workload::job::job_workload(0.02, 11);
    let plans = w.plans();
    assert!(!plans.is_empty());
    let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
    let baseline: Vec<_> = plans
        .iter()
        .map(|p| exec.run(p).expect("serial baseline"))
        .collect();

    let streams = 8;
    std::thread::scope(|s| {
        for stream in 0..streams {
            let (exec, plans, baseline) = (&exec, &plans, &baseline);
            s.spawn(move || {
                for (i, p) in plans.iter().enumerate() {
                    let r = exec.run(p).expect("concurrent run");
                    assert_eq!(
                        baseline[i].batch, r.batch,
                        "stream {stream} query {i}: batches diverge"
                    );
                    assert_eq!(
                        baseline[i].report, r.report,
                        "stream {stream} query {i}: reports diverge"
                    );
                }
            });
        }
    });
}
