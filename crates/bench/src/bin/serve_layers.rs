//! Per-layer cost of a warm served request, alone and with two threads
//! calling at once.
//!
//! Stands up the `serve_hot` server — JOB at data scale 4, Optimizer +
//! IterView, a 512-entry result cache, every plan already answered once —
//! and times each layer `ViewServer::execute` walks on a cache hit, each in
//! isolation, once with one thread calling it and once with two threads
//! calling it together:
//!
//! - `admission`: `AdmissionController::acquire` + permit drop;
//! - `cell_load`: `ViewServer::with_current`, the thread-cached snapshot
//!   read `execute` makes (the server's own cell);
//! - `route_memo`: `Deployment::route_memo` on the published deployment,
//!   keyed by the plan's memoized fingerprint, as `execute` calls it;
//! - `route_fresh`: the same for a plan decoded from its serde form just
//!   before the call. Every node is new, so the call pays one
//!   `Fingerprint::of` walk and one tree compare against the memo entry.
//!   No caller in this workspace sends such plans (each resubmits its
//!   `Arc`); the row prices the path for one that would. The decode is not
//!   timed: each call is timed on its own, so the row also carries two
//!   clock reads;
//! - `cache_hit`: `ExecCache::run_keyed_hit_dop` on a warm entry, including
//!   the refcount bump that shares the cached batch with the caller;
//! - `observe_query`: `Obs::observe_query` (the server's own telemetry);
//!
//! then the whole `execute`, and `exec_miss`: one `Executor::run` of a
//! routed plan on the deployment's catalog, the executor run a cache miss
//! makes. Each `exec_miss` pass runs every plan once, split between the
//! threads, instead of [`CALLS_PER_PASS`] calls. The gap between a row's two columns is what
//! the layer's shared writes cost when a second client calls it too.
//! Admission and the cache are private to the server, so those two rows
//! time instances built from the server's own configuration: the same
//! types, locks and shard counts. Alone in a loop, the two threads contend
//! on a layer's shared state on every call, which they do only part of the
//! time inside `execute`, so the two-thread rows rank the shared layers
//! rather than add up to `execute`.
//!
//! Writes `BENCH_layers.json` (`{config, layers, failed}`; each layer has a
//! `one_thread_ns` and a `two_threads_ns` column, the median pass, each
//! beside its passes' first and third quartiles, `*_q1_ns` and `*_q3_ns`)
//! into the working directory. Gate: zero failed requests — every response matches direct
//! execution on the base catalog, no timed `execute` returns an error, and
//! no memo lookup finds another plan's entry.
//! No knobs: the run is fixed by the constants below.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark binary times its calling threads on the wall clock"
)]

use av_core::{AutoViewConfig, AutoViewSystem, EstimatorKind, SelectorKind};
use av_engine::{ExecCache, Executor, Pricing};
use av_obs::{QueryRecord, RecordStatus, TenantTag};
use av_online::LifecycleConfig;
use av_plan::{Fingerprint, PlanRef};
use av_serve::{AdmissionController, ObsConfig, ServeConfig};
use av_workload::job;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Data, template and selector seed.
const SEED: u64 = 42;
/// JOB data scale of `serve_hot`: 226 plans over ~48k-row `cast_info`.
const JOB_SCALE: f64 = 4.0;
/// Result-cache entries, as in `serve_hot`: the 226-plan hot set fits.
const CACHE_CAPACITY: usize = 512;
const TENANT: &str = "bench";
/// Threads calling each layer at once: one alone, then `serve_hot`'s two
/// clients.
const THREADS: [usize; 2] = [1, 2];
/// Timed passes per layer; the median pass and the quartiles are reported.
const PASSES: usize = 31;
/// Calls each thread makes in one pass.
const CALLS_PER_PASS: usize = 8192;

#[derive(Serialize)]
struct Config {
    seed: u64,
    job_scale: f64,
    plans: usize,
    live_views: usize,
    threads: Vec<usize>,
    passes: usize,
    calls_per_pass: usize,
    cores: usize,
}

/// One row: median nanoseconds per call with one thread calling, and on
/// each of two threads calling at once, each beside the first and third
/// quartile of its passes.
#[derive(Serialize)]
struct Layer {
    layer: &'static str,
    one_thread_ns: f64,
    one_thread_q1_ns: f64,
    one_thread_q3_ns: f64,
    two_threads_ns: f64,
    two_threads_q1_ns: f64,
    two_threads_q3_ns: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    layers: Vec<Layer>,
    failed: u64,
}

/// One row: [`pass_quartiles_ns`] at each thread count of [`THREADS`].
/// Prints and returns the row.
fn row<T: Sync>(layer: &'static str, items: &[T], calls: impl Fn(&[&T]) -> f64 + Sync) -> Layer {
    let [[q1, one_thread_ns, q3], [r1, two_threads_ns, r3]] =
        THREADS.map(|threads| pass_quartiles_ns(threads, items, &calls));
    println!(
        "{layer:>14}  {one_thread_ns:>9.1} [{q1:>9.1}, {q3:>9.1}] ns  \
         {two_threads_ns:>9.1} [{r1:>9.1}, {r3:>9.1}] ns"
    );
    Layer {
        layer,
        one_thread_ns,
        one_thread_q1_ns: q1,
        one_thread_q3_ns: q3,
        two_threads_ns,
        two_threads_q1_ns: r1,
        two_threads_q3_ns: r3,
    }
}

/// First quartile, median and third quartile over [`PASSES`] of the mean
/// per-call nanoseconds that `threads`
/// threads report from `calls`, run together, each over its own
/// interleaved share of `items`, released by one barrier. Each pass starts
/// fresh threads, so each thread's first snapshot read and tenant lookup
/// take their slow path once.
fn pass_quartiles_ns<T: Sync>(
    threads: usize,
    items: &[T],
    calls: &(impl Fn(&[&T]) -> f64 + Sync),
) -> [f64; 3] {
    let mut passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let barrier = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|lane| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mine: Vec<&T> = items.iter().skip(lane).step_by(threads).collect();
                            barrier.wait();
                            calls(&mine)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("layer thread panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    [PASSES / 4, PASSES / 2, 3 * PASSES / 4].map(|i| passes[i])
}

/// [`CALLS_PER_PASS`] calls of `step`, cycling over `mine`, timed as one
/// loop: nanoseconds per call.
fn looped<T>(step: impl Fn(&T) + Sync) -> impl Fn(&[&T]) -> f64 + Sync {
    move |mine| {
        let t0 = Instant::now();
        for item in mine.iter().cycle().take(CALLS_PER_PASS) {
            step(item);
        }
        t0.elapsed().as_nanos() as f64 / CALLS_PER_PASS as f64
    }
}

/// What a warm request for one plan touches past the memo.
struct Warm {
    plan: PlanRef,
    routed: PlanRef,
    routed_fp: Fingerprint,
    record: QueryRecord,
    root_op: &'static str,
}

fn main() {
    let workload = job::job_workload(JOB_SCALE, SEED);
    let plans = workload.plans();
    let config = AutoViewConfig {
        pricing: Pricing::paper_defaults(),
        estimator: EstimatorKind::Optimizer,
        selector: SelectorKind::IterView(av_select::IterViewConfig {
            seed: SEED,
            ..Default::default()
        }),
        max_training_pairs: 300,
        seed: SEED,
    };
    let mut sys = AutoViewSystem::new(workload.catalog.clone(), plans.clone(), config);
    sys.run().expect("pipeline runs");
    let serve_config = ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        lifecycle: LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        },
        obs: ObsConfig::default(),
        ..ServeConfig::default()
    };
    let (server, summary) = sys
        .publish(serve_config, Some(TENANT))
        .expect("selection publishes");

    // Warm every layer, and check each answer against direct execution.
    let oracle = Executor::new(&workload.catalog, Pricing::paper_defaults());
    let mut failed = 0u64;
    for plan in &plans {
        let expected = oracle.run(plan).expect("direct execution").batch;
        for _ in 0..2 {
            match server.execute(TENANT, plan) {
                Ok(resp) if resp.batch == expected => {}
                _ => failed += 1,
            }
        }
    }

    let deployment = server.current();
    let admission = AdmissionController::new(server.config().admission);
    let cache = ExecCache::new(server.config().pricing, ExecCache::DEFAULT_SHARDS)
        .with_capacity(server.config().cache_capacity);
    let warm: Vec<Warm> = plans
        .iter()
        .map(|plan| {
            let plan_fp = Fingerprint::of(plan);
            let (routed, hits, routed_fp) = deployment.route_memo(plan_fp, plan);
            let (result, _) = cache
                .run_keyed_hit_dop(routed_fp, deployment.catalog(), &routed, None)
                .expect("cache fill executes");
            let estimate = deployment.estimate_of(plan_fp);
            let record = QueryRecord {
                tenant: TenantTag::new(TENANT),
                plan_fp: plan_fp.0,
                view_fp: estimate.map_or(0, |(_, view_fp)| view_fp.0),
                epoch: deployment.epoch(),
                status: RecordStatus::Ok,
                route_hits: hits as u32,
                cache_shard: cache.shard_of(routed_fp) as u32,
                cache_hit: true,
                admit_wait_nanos: 100,
                exec_nanos: 1_000,
                rows: result.report.output_rows as u64,
                bytes: result.report.output_bytes as u64,
                est_cost: estimate.map_or(f64::NAN, |(est, _)| est),
                meas_cost: result.report.cost_dollars,
            };
            Warm {
                plan: plan.clone(),
                routed,
                routed_fp,
                record,
                root_op: plan.op_keyword(),
            }
        })
        .collect();

    let errors = AtomicU64::new(0);
    let clock = server.tracer();
    let obs = server.obs();
    let encoded: Vec<serde::Json> = warm.iter().map(|w| w.plan.to_json()).collect();
    let executor = Executor::new(deployment.catalog(), server.config().pricing);
    println!(
        "{:>14}  {:>31}  {:>31}",
        "layer", "1 thread median [q1, q3]", "2 threads median [q1, q3]"
    );
    let layers = vec![
        row(
            "admission",
            &warm,
            looped(|_| drop(black_box(admission.acquire(TENANT)))),
        ),
        row(
            "cell_load",
            &warm,
            looped(|_| {
                server.with_current(|d| {
                    black_box(d);
                })
            }),
        ),
        row(
            "route_memo",
            &warm,
            looped(|w: &Warm| {
                let plan_fp = w.plan.fingerprint();
                drop(black_box(deployment.route_memo(plan_fp, &w.plan)))
            }),
        ),
        row("route_fresh", &encoded, |mine| {
            let mut nanos = 0;
            for json in mine.iter().cycle().take(CALLS_PER_PASS) {
                let plan = PlanRef::from_json(json).expect("plan decodes");
                let t0 = Instant::now();
                drop(black_box(deployment.route_memo(plan.fingerprint(), &plan)));
                nanos += t0.elapsed().as_nanos();
            }
            nanos as f64 / CALLS_PER_PASS as f64
        }),
        row(
            "cache_hit",
            &warm,
            looped(|w: &Warm| {
                let hit =
                    cache.run_keyed_hit_dop(w.routed_fp, deployment.catalog(), &w.routed, None);
                drop(black_box(hit));
            }),
        ),
        row(
            "observe_query",
            &warm,
            looped(|w: &Warm| obs.observe_query(clock.now_nanos(), &w.record, w.root_op)),
        ),
        row(
            "execute",
            &warm,
            looped(|w: &Warm| match server.execute(TENANT, &w.plan) {
                Ok(resp) => drop(black_box(resp)),
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }),
        ),
        row("exec_miss", &warm, |mine| {
            let t0 = Instant::now();
            for w in mine {
                match executor.run(&w.routed) {
                    Ok(result) => drop(black_box(result)),
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            t0.elapsed().as_nanos() as f64 / mine.len() as f64
        }),
    ];
    // A decoded plan must hit the entry its twin stored, never displace it.
    failed += errors.load(Ordering::Relaxed) + deployment.route_memo_mismatches();

    let report = Report {
        config: Config {
            seed: SEED,
            job_scale: JOB_SCALE,
            plans: plans.len(),
            live_views: summary.live_views,
            threads: THREADS.to_vec(),
            passes: PASSES,
            calls_per_pass: CALLS_PER_PASS,
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        },
        layers,
        failed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_layers.json", &json).expect("BENCH_layers.json written");
    println!(
        "{} plans, {} live views, {} core(s); wrote BENCH_layers.json",
        report.config.plans, report.config.live_views, report.config.cores
    );
    assert_eq!(report.failed, 0, "failed requests");
}
