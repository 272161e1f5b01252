//! One run of one workload: set up, measure for `--seconds`, check every
//! output, and turn the samples into the mode's metrics.

use crate::layers::{self, Probe, StagedCounts};
use crate::report::RunResult;
use crate::serve::{self, LoadStats, CLIENTS, SWAPS, SWAP_RATE};
use crate::setup::{self, Built, Inputs, Outcome, Request, Workload};
use crate::stats::{median, median_or_zero, Histogram};
use crate::trace::{self, Recorder, Span};
use crate::Args;
use av_plan::PlanRef;
use av_serve::ViewServer;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUP_REPS: usize = 3;
/// Closed-loop measurement windows per run; metrics are medians over them.
const WINDOWS: usize = 5;
/// Pipeline reps timed whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Spans the main thread keeps in a traced run.
const MAIN_SPAN_CAP: usize = 1 << 16;

/// Latency limit of a served request, nanoseconds: about ten times the
/// workload's measured median (hot 2-3 us, miss ~0.5 ms), and 1 ms from the
/// due time under swaps, where a hit takes microseconds and only a stall
/// behind a re-execution or a swap can push a request past it.
fn slo_ns(workload: Workload) -> u64 {
    match workload {
        Workload::ServeHot => 30_000,
        Workload::ServeMiss => 5_000_000,
        _ => 1_000_000,
    }
}

/// A workload ready to be measured.
struct Ready {
    inputs: Inputs,
    built: Built,
    /// Serving working set with oracle checksums (empty for pipelines).
    requests: Vec<Request>,
    attempted: u64,
    failed: u64,
}

/// Generate inputs, run the pipeline once with its views published (the
/// warm-up rep whose outcome later reps must reproduce) and, for serving
/// workloads, build the oracle and warm the server with one checked pass.
fn set_up(workload: Workload, seed: u64) -> Result<Ready, String> {
    let inputs = setup::inputs(workload, seed);
    let built = setup::build(&inputs, &mut Recorder::disabled(), 0)?;
    let mut ready = Ready {
        requests: Vec::new(),
        attempted: 1,
        failed: 0,
        inputs,
        built,
    };
    match workload {
        Workload::PipelineJob | Workload::PipelineWk2 => {}
        Workload::ServeMiss => {
            // No warm pass: nothing of this working set stays cached.
            let plans = setup::miss_plans(&ready.inputs.plans, seed);
            ready.requests = setup::oracle(&ready.inputs.catalog, &plans)?;
        }
        Workload::ServeHot | Workload::ServeSwap => {
            ready.requests = setup::oracle(&ready.inputs.catalog, &ready.inputs.plans)?;
            for request in &ready.requests {
                ready.attempted += 1;
                ready.failed += u64::from(!serve::issue(&ready.built.server, request).correct);
            }
        }
    }
    Ok(ready)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters read at the boundaries of a measured interval.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_evicted_bytes: u64,
    memo_hits: u64,
    memo_misses: u64,
    sched_tasks: u64,
    sched_steals: u64,
    sched_busy_nanos: u64,
    sched_workers: usize,
}

impl Counters {
    fn read(server: &ViewServer) -> Counters {
        let cache = server.cache_stats();
        let pool = server.pool_stats();
        let (memo_hits, memo_misses) = server.current().route_memo_stats();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_evicted_bytes: cache.evicted_bytes,
            memo_hits,
            memo_misses,
            sched_tasks: pool.tasks,
            sched_steals: pool.steals,
            sched_busy_nanos: pool.busy_nanos,
            sched_workers: pool.workers,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_evicted_bytes: self.cache_evicted_bytes - before.cache_evicted_bytes,
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
            sched_tasks: self.sched_tasks - before.sched_tasks,
            sched_steals: self.sched_steals - before.sched_steals,
            sched_busy_nanos: self.sched_busy_nanos - before.sched_busy_nanos,
            sched_workers: self.sched_workers,
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What the measured phase produced, whatever the workload.
#[derive(Default)]
struct Measured {
    /// Per window (or per rep): median and tail latency in microseconds,
    /// and completion rate per second.
    p50_us: Vec<f64>,
    tail_us: Vec<f64>,
    rate: Vec<f64>,
    /// Cost of one operation in the plain and in the traced parts of a
    /// traced run (any unit, the same on both sides): their medians' ratio
    /// is the tracing overhead.
    plain_cost: Vec<f64>,
    traced_cost: Vec<f64>,
    /// Requests sent by the load generators (serving workloads).
    requests: u64,
    attempted: u64,
    failed: u64,
    shed: u64,
    rewritten: u64,
    slo_missed: u64,
    /// Median call-to-reply time of the untraced samples, microseconds.
    service_p50_us: f64,
    elapsed_s: f64,
    counters: Counters,
    swap_s: Vec<f64>,
    swaps_per_run: f64,
    post_swap_first_us: f64,
    late_p99_us: f64,
    staged: Vec<StagedCounts>,
    publish_s: Vec<f64>,
    notes: Vec<String>,
}

impl Measured {
    fn add_window(&mut self, w: &LoadStats, traced: bool) {
        self.requests += w.attempted;
        self.attempted += w.attempted;
        self.failed += w.failed();
        self.shed += w.shed;
        self.rewritten += w.rewritten;
        self.slo_missed += w.slo_missed;
        if !traced {
            self.p50_us.push(w.latency.quantile(0.5) / 1e3);
            self.tail_us.push(w.latency.tail().1 / 1e3);
            self.rate.push(w.rate());
        }
    }
}

/// Pipeline workloads: reps of `run()` + `publish()` on the same inputs
/// until `seconds` have passed; every rep must reproduce the warm-up rep's
/// outcome. A traced run alternates plain and traced reps, and follows each
/// traced rep with a staged pass.
fn measure_pipeline(
    ready: &Ready,
    seconds: f64,
    rec: &mut Recorder,
    traced: bool,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let reference: &Outcome = &ready.built.outcome;
    let queries = ready.inputs.plans.len() as f64;
    let before = Counters::read(&ready.built.server);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rep = 0u64;
    while rep < MIN_REPS as u64 || start.elapsed().as_secs_f64() < seconds {
        rep += 1;
        let trace_this = traced && rep.is_multiple_of(2);
        let built = if trace_this {
            rec.span("pipeline.rep", rep, |rec| {
                setup::build(&ready.inputs, rec, rep)
            })?
        } else {
            setup::build(&ready.inputs, &mut Recorder::disabled(), rep)?
        };
        m.attempted += 1;
        m.failed += u64::from(built.outcome != *reference);
        m.publish_s.push(built.publish_s);
        if trace_this {
            m.traced_cost.push(built.wall_s);
            drop(built);
            let counts = layers::staged(rec, rep, &ready.inputs)?;
            // The staged pass is the same pipeline: same selection size and
            // the same saved-cost ratio, or a stage was called wrongly.
            m.failed += u64::from(
                counts.views != reference.views
                    || counts.saved_cost_ratio_pct != reference.saved_cost_ratio_pct,
            );
            m.staged.push(counts);
        } else {
            walls.push(built.wall_s);
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    m.counters = Counters::read(&ready.built.server).since(before);
    m.plain_cost = walls.clone();
    m.p50_us = vec![median(&walls) * 1e6];
    m.tail_us = vec![walls.iter().copied().fold(0.0, f64::max) * 1e6];
    // Work completed per second over the timed reps, not the median rep's.
    m.rate = vec![queries * walls.len() as f64 / walls.iter().sum::<f64>()];
    m.notes.push(format!(
        "{} timed reps of run()+publish() over {queries} queries, seconds each: {}; op_tail_us is the slowest rep",
        walls.len(),
        listed(&walls, 3)
    ));
    Ok(m)
}

/// `serve_hot` and `serve_miss`: closed-loop windows. A traced run halves
/// each window into a plain part and a part with a span around every call.
fn measure_closed(
    workload: Workload,
    ready: &Ready,
    seconds: f64,
    trace_epoch: Option<Instant>,
    spans: &mut Vec<Vec<Span>>,
) -> Measured {
    let mut m = Measured::default();
    let server = &ready.built.server;
    let slo = slo_ns(workload);
    let parts = if trace_epoch.is_some() {
        2 * WINDOWS
    } else {
        WINDOWS
    };
    let window_s = seconds / parts as f64;
    let before = Counters::read(server);
    let start = Instant::now();
    let mut service = Histogram::new();
    let mut tail_level = 0.0;
    let mut samples = 0;
    let mut cursors = [0usize; CLIENTS];
    for part in 0..parts {
        let traced = trace_epoch.is_some() && part % 2 == 1;
        let epoch = if traced { trace_epoch } else { None };
        let (stats, window_spans) =
            serve::closed_window(server, &ready.requests, &mut cursors, window_s, slo, epoch);
        m.add_window(&stats, traced);
        if traced {
            m.traced_cost.push(1.0 / stats.rate());
        } else {
            m.plain_cost.push(1.0 / stats.rate());
            service.merge(&stats.service);
            tail_level = stats.latency.tail().0;
            samples = stats.attempted;
        }
        // Keep one traced window's spans: enough to read, small to write.
        if traced && spans.is_empty() {
            spans.extend(window_spans);
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    m.counters = Counters::read(server).since(before);
    m.service_p50_us = service.quantile(0.5) / 1e3;
    m.notes.push(format!(
        "{CLIENTS} closed-loop clients over {} plans; {} windows of {window_s:.2} s, ~{samples} requests each; \
         op_tail_us is p{:.0} per window; metrics are medians over windows",
        ready.requests.len(),
        m.rate.len(),
        tail_level * 100.0
    ));
    m
}

/// `serve_swap`: the open loop with reoptimizations landing under it. A
/// traced run makes two half-length runs, plain then traced.
fn measure_swap(
    ready: &Ready,
    seconds: f64,
    trace_epoch: Option<Instant>,
    spans: &mut Vec<Vec<Span>>,
) -> Measured {
    let mut m = Measured::default();
    let server = &ready.built.server;
    let slo = slo_ns(Workload::ServeSwap);
    let before = Counters::read(server);
    let start = Instant::now();
    let mut service = Histogram::new();
    let mut post_swap = Histogram::new();
    let mut late = Histogram::new();
    // Route-memo (hits, misses) of the deployments the planner replaced.
    let mut replaced_memo = (0u64, 0u64);
    let runs: Vec<Option<Instant>> = match trace_epoch {
        Some(_) => vec![None, trace_epoch],
        None => vec![None],
    };
    for &epoch in &runs {
        let run = serve::swap_run(
            server,
            &ready.requests,
            &ready.inputs.plans,
            seconds / runs.len() as f64,
            slo,
            epoch,
        );
        let mut run_service = Histogram::new();
        for w in &run.load.windows {
            m.add_window(w, epoch.is_some());
            run_service.merge(&w.service);
        }
        if epoch.is_some() {
            m.traced_cost.push(run_service.quantile(0.5));
        } else {
            m.plain_cost.push(run_service.quantile(0.5));
            service.merge(&run_service);
        }
        m.attempted += run.planner.swap_s.len() as u64;
        m.failed += run.planner.failed;
        m.swap_s.extend(&run.planner.swap_s);
        replaced_memo.0 += run.planner.memo_hits;
        replaced_memo.1 += run.planner.memo_misses;
        post_swap.merge(&run.post_swap_first);
        late.merge(&run.load.generator_late);
        if epoch.is_some() {
            spans.push(run.generator_spans);
            spans.push(run.planner.spans);
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    // Memo counters live in each deployment: add those of the epochs the
    // planner replaced to the live one's, less what the warm pass had put
    // into the first.
    let live = Counters::read(server);
    m.counters = live.since(before);
    m.counters.memo_hits = (live.memo_hits + replaced_memo.0).saturating_sub(before.memo_hits);
    m.counters.memo_misses =
        (live.memo_misses + replaced_memo.1).saturating_sub(before.memo_misses);
    m.service_p50_us = service.quantile(0.5) / 1e3;
    m.post_swap_first_us = post_swap.quantile(0.5) / 1e3;
    m.late_p99_us = late.quantile(0.99) / 1e3;
    m.notes.push(format!(
        "generator lateness over {} requests whose predecessor had finished in time",
        late.count()
    ));
    let swaps = m.swap_s.len() as u64;
    m.swaps_per_run = swaps as f64 / runs.len() as f64;
    let per_window = m.requests / (runs.len() as u64 * (SWAPS + 1));
    m.notes.push(format!(
        "per-window p50 us: {}; p99 us: {}",
        listed(&m.p50_us, 1),
        listed(&m.tail_us, 1)
    ));
    m.notes.push(format!(
        "one open-loop generator at {SWAP_RATE} req/s over {} plans, latency from the due time; \
         {swaps} reoptimize calls under load; {} windows of {per_window} requests, op_tail_us is p99 per window; \
         metrics are medians over windows",
        ready.requests.len(),
        m.rate.len(),
    ));
    if swaps != SWAPS * runs.len() as u64 {
        m.failed += 1;
        m.notes
            .push(format!("expected {} swaps", SWAPS * runs.len() as u64));
    }
    m
}

/// Median of the durations of every span called `name`, seconds.
fn span_median_s(spans: &[Span], name: &str) -> f64 {
    median_or_zero(&trace::durations_s(spans, name))
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median_or_zero(&items.iter().map(f).collect::<Vec<_>>())
}

/// Space-separated values for a note line.
fn listed(values: &[f64], decimals: usize) -> String {
    let words: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
    words.join(" ")
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
fn per_layer(
    workload: Workload,
    m: &Measured,
    probe: &Probe,
    outcome: &Outcome,
    main_spans: &[Span],
) -> Vec<(&'static str, f64)> {
    // Without a model to fit the span times a constructor: report 0.
    let fit_work = median_of(&m.staged, |c| c.fit_sample_passes as f64);
    let fit_s = if fit_work > 0.0 {
        span_median_s(main_spans, "cost.fit")
    } else {
        0.0
    };
    let c = &m.counters;
    let hit_rate = share(c.cache_hits, c.cache_hits + c.cache_misses);
    let memo_rate = share(c.memo_hits, c.memo_hits + c.memo_misses);

    // Share of a request's median call-to-reply time the replayed layers do
    // not explain, along the path most requests took (hit or miss).
    let unaccounted = if workload.is_serving() && m.service_p50_us > 0.0 {
        let front = probe.fingerprint_ns + probe.admission_ns + probe.obs_cost_ns.max(0.0);
        let back = if hit_rate >= 0.5 {
            probe.route_memo_ns + probe.cache_hit_ns
        } else {
            probe.route_memo_ns + probe.exec_us * 1e3
        };
        1.0 - (front + back) / (m.service_p50_us * 1e3)
    } else {
        0.0
    };
    let overhead_pct = if m.traced_cost.is_empty() || m.plain_cost.is_empty() {
        0.0
    } else {
        100.0 * (median(&m.traced_cost) / median(&m.plain_cost) - 1.0)
    };

    vec![
        (
            "equiv.analyze_s",
            span_median_s(main_spans, "equiv.analyze"),
        ),
        (
            "core.preprocess_s",
            span_median_s(main_spans, "core.preprocess"),
        ),
        ("core.truth_s", span_median_s(main_spans, "core.truth")),
        (
            "core.truth_pairs",
            median_of(&m.staged, |c| c.truth_pairs as f64),
        ),
        ("cost.fit_s", fit_s),
        (
            "cost.fit_samples_per_s",
            if fit_work > 0.0 {
                fit_work / fit_s
            } else {
                0.0
            },
        ),
        ("cost.matrix_s", span_median_s(main_spans, "cost.matrix")),
        (
            "cost.matrix_pairs",
            median_of(&m.staged, |c| c.matrix_pairs as f64),
        ),
        ("select.solve_s", span_median_s(main_spans, "select.solve")),
        ("select.views", median_of(&m.staged, |c| c.views as f64)),
        ("select.utility", median_of(&m.staged, |c| c.utility)),
        ("core.deploy_s", span_median_s(main_spans, "core.deploy")),
        ("core.saved_cost_ratio_pct", outcome.saved_cost_ratio_pct),
        ("serve.publish_s", median(&m.publish_s)),
        ("serve.publish_admitted", outcome.admitted as f64),
        ("serve.publish_rejected", outcome.rejected as f64),
        ("analyze.preflight_s", probe.preflight_s),
        ("analyze.preflight_proved", probe.preflight_proved as f64),
        ("analyze.preflight_unknown", probe.preflight_unknown as f64),
        ("plan.fingerprint_ns", probe.fingerprint_ns),
        ("serve.admission_ns", probe.admission_ns),
        ("serve.route_memo_ns", probe.route_memo_ns),
        ("serve.route_us", probe.route_us),
        ("engine.cache_hit_ns", probe.cache_hit_ns),
        ("engine.exec_us", probe.exec_us),
        ("obs.cost_ns", probe.obs_cost_ns),
        ("serve.execute_unaccounted_share", unaccounted),
        ("engine.cache_hit_rate", hit_rate),
        ("engine.cache_evictions", c.cache_evictions as f64),
        ("engine.cache_evicted_bytes", c.cache_evicted_bytes as f64),
        ("serve.route_memo_hit_rate", memo_rate),
        ("serve.rewrite_hit_share", share(m.rewritten, m.requests)),
        ("serve.shed", m.shed as f64),
        ("sched.tasks", c.sched_tasks as f64),
        ("sched.steals", c.sched_steals as f64),
        (
            "sched.busy_share",
            c.sched_busy_nanos as f64 / (m.elapsed_s * 1e9 * c.sched_workers.max(1) as f64),
        ),
        ("serve.swaps", m.swaps_per_run),
        ("serve.swap_s", median_or_zero(&m.swap_s)),
        ("serve.post_swap_first_us", m.post_swap_first_us),
        ("loadgen.late_p99_us", m.late_p99_us),
        ("bench.slo_miss_share", share(m.slo_missed, m.requests)),
        ("bench.failed_share", share(m.failed, m.attempted)),
        ("bench.trace_overhead_pct", overhead_pct),
    ]
}

/// Run `workload` once as `args` asks.
pub fn run(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up first, or two would be resident.
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(set_up(workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let ready = ready.expect("SETUP_REPS is at least one");

    let trace_epoch = args.trace.then(Instant::now);
    let mut rec = Recorder::new(trace_epoch, MAIN_SPAN_CAP);
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let mut m = match workload {
        Workload::PipelineJob | Workload::PipelineWk2 => {
            measure_pipeline(&ready, args.seconds, &mut rec, args.trace)?
        }
        Workload::ServeHot | Workload::ServeMiss => {
            measure_closed(workload, &ready, args.seconds, trace_epoch, &mut spans)
        }
        Workload::ServeSwap => measure_swap(&ready, args.seconds, trace_epoch, &mut spans),
    };
    m.attempted += ready.attempted;
    m.failed += ready.failed;

    let metrics = if args.trace {
        if workload.is_serving() {
            // Serving runs time no pipeline rep; stage the build once.
            m.staged.push(layers::staged(&mut rec, 0, &ready.inputs)?);
            m.publish_s.push(ready.built.publish_s);
        }
        let sent: Vec<PlanRef> = ready.requests.iter().map(|r| r.plan.clone()).collect();
        let workload_plans = if sent.is_empty() {
            &ready.inputs.plans
        } else {
            &sent
        };
        let probe = layers::probe(&mut rec, &ready.built, &ready.inputs, workload_plans)?;
        let main_spans = rec.into_spans();
        let layer_metrics = per_layer(workload, &m, &probe, &ready.built.outcome, &main_spans);
        for (name, (count, self_ns)) in trace::self_times(&main_spans) {
            m.notes.push(format!(
                "span {name}: {count} recorded, self time {:.3} ms",
                self_ns as f64 / 1e6
            ));
        }
        spans.insert(0, main_spans);
        layer_metrics
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("op_p50_us", median(&m.p50_us)),
            ("op_tail_us", median(&m.tail_us)),
            ("ops_per_s", median(&m.rate)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };
    m.notes
        .push(format!("{SETUP_REPS} set-ups, setup_s is their median"));
    Ok(RunResult {
        workload,
        seed: args.seed,
        traced: args.trace,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        notes: m.notes,
        spans,
    })
}
