//! The serving façade: concurrent sessions over one published snapshot.
//!
//! [`ViewServer`] separates the *read path* from the *reopt path*:
//!
//! - **Read path** ([`ViewServer::execute`]): admission → borrow this
//!   thread's cached [`Deployment`] handle → route through its frozen
//!   views → execute via the sharded result cache. No lock is held across
//!   execution that the re-optimizer contends on; many sessions proceed in
//!   parallel. For a tenant seen before and below its cap, admission is one
//!   CAS on the tenant's inflight counter and the release one `fetch_sub`
//!   plus one load (no lock, no allocation, no wake syscall; the
//!   [`Permit`](crate::Permit) borrows the tenant name), and while the epoch
//!   holds the snapshot read is one atomic load with no refcount traffic
//!   ([`DeploymentCell::with_current`]). So up to routing, a warm request
//!   writes no shared memory but its tenant's inflight counter, and a warm
//!   cache hit allocates nothing: its response shares the cache entry's
//!   batch. The plan's
//!   fingerprint is memoized in its `Arc`, so a client that resubmits its
//!   `Arc` pays one atomic load for it, and a route-memo or result-cache
//!   hit is taken only for the plan its entry was stored for. A newly built
//!   tree pays the full hash walk and, on a memo hit, a compare against the
//!   stored tree.
//! - **Reopt path** ([`ViewServer::reoptimize`]): serialized behind a
//!   planner mutex. Selection re-runs on a workload window, the live view
//!   set is patched (with per-tenant byte accounting), a *candidate*
//!   deployment is built copy-on-write, preflighted through the
//!   `av-analyze` verifier, and only then atomically swapped in. A failed
//!   preflight leaves the published snapshot untouched — in-flight and
//!   future queries keep executing against the last good epoch.

use crate::admission::{AdmissionConfig, AdmissionController, Rejection};
use crate::deployment::{Deployment, DeploymentCell};
use av_cost::CostEstimator;
use av_engine::{Catalog, EngineError, ExecCache, Pricing, RecordBatch};
use av_obs::{Obs, ObsConfig, QueryRecord, RecordStatus, TenantTag};
use av_online::{
    freeze_estimates, reoptimize, CandidateView, LifecycleConfig, SelectorKind,
    ViewLifecycleManager, WindowSnapshot,
};
use av_plan::{Fingerprint, PlanRef};
use av_sched::{Mutex, Rank};
use av_trace::{MetricsSnapshot, Timing, Tracer};
use std::fmt;
use std::sync::Arc;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub pricing: Pricing,
    /// Total cached results across the result cache's shards (split
    /// evenly).
    pub cache_capacity: usize,
    pub admission: AdmissionConfig,
    pub lifecycle: LifecycleConfig,
    pub selector: SelectorKind,
    /// Telemetry layer switch (flight recorder, SLO monitoring, estimator
    /// residuals). `ObsConfig::disabled()` is the zero-overhead
    /// baseline `serve_bench` compares against.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pricing: Pricing::paper_defaults(),
            cache_capacity: 4096,
            admission: AdmissionConfig::default(),
            lifecycle: LifecycleConfig::default(),
            selector: SelectorKind::default(),
            obs: ObsConfig::default(),
        }
    }
}

/// Everything that can go wrong serving one request.
#[derive(Debug)]
pub enum ServeError {
    /// Turned away by admission control.
    Rejected(Rejection),
    /// Execution failed.
    Engine(EngineError),
    /// A candidate deployment failed its preflight; the previous epoch is
    /// still published.
    InvalidDeployment(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::InvalidDeployment(msg) => {
                write!(f, "candidate deployment rejected: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// One served query's result.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The result, shared with the result cache's entry: a warm hit hands
    /// out the allocation the miss stored.
    pub batch: Arc<RecordBatch>,
    /// `A_{β,γ}` actually paid (0-cost on a cache hit is still reported as
    /// the original execution's cost — the cached result's price).
    pub cost_dollars: f64,
    /// Subtree replacements made by view routing.
    pub rewrite_hits: usize,
    /// Deployment epoch this request executed against.
    pub epoch: u64,
}

/// What one re-optimization did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReoptSummary {
    /// Epoch of the newly published deployment.
    pub epoch: u64,
    pub admitted: usize,
    pub dropped: usize,
    pub rejected: usize,
    /// Live views in the published snapshot.
    pub live_views: usize,
    /// Selection utility on the window instance.
    pub estimated_utility: f64,
}

/// Scheduler counters as [`ViewServer::pool_stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Threads that execute queries: the submitting one.
    pub workers: usize,
    /// Pooled tasks run (always 0).
    pub tasks: u64,
    /// Tasks stolen between workers (always 0).
    pub steals: u64,
    /// Nanoseconds pooled workers spent busy (always 0).
    pub busy_nanos: u64,
}

/// Mutable planning state, serialized behind one mutex: the authoritative
/// catalog (views materialize into it), the lifecycle manager, the cost
/// model, and a dry-run cache for candidate pricing. Catalog and lifecycle
/// are only ever assigned after a successful preflight, so a planner whose
/// lock a panicking re-optimization poisoned still mirrors the published
/// epoch and is recovered, not propagated.
struct Planner {
    catalog: Catalog,
    lifecycle: ViewLifecycleManager,
    estimator: Box<dyn CostEstimator + Send>,
    dryrun: ExecCache,
    /// The epoch the last publish displaced, held until the next publish.
    /// Request threads drop their cached handle to it on their first read
    /// after the swap; holding it here makes that drop a refcount decrement,
    /// and this thread frees the epoch (hundreds of µs for a served
    /// deployment) instead of a request. Only the last displaced epoch is
    /// held: a thread idle through two or more publishes frees its older
    /// epoch on its next request.
    retired: Option<Arc<Deployment>>,
}

/// A concurrent, multi-tenant query server over epoch-swapped deployments.
pub struct ViewServer {
    config: ServeConfig,
    cell: DeploymentCell,
    cache: ExecCache,
    admission: AdmissionController,
    tracer: Tracer,
    obs: Obs,
    planner: Mutex<Planner>,
}

impl ViewServer {
    /// Publish epoch 0: the given catalog with no views. Timestamps come
    /// from a span-less tracer on the real monotonic clock.
    pub fn new(
        catalog: Catalog,
        estimator: Box<dyn CostEstimator + Send>,
        config: ServeConfig,
    ) -> ViewServer {
        ViewServer::with_tracer(catalog, estimator, config, Tracer::disabled())
    }

    /// [`ViewServer::new`] on a caller-supplied tracer: its clock stamps
    /// every request, its registry takes the planner-rate events, and the
    /// `serve.reopt` phase opens a span on it. The request path records no
    /// spans — the flight record is the request's span.
    pub fn with_tracer(
        catalog: Catalog,
        estimator: Box<dyn CostEstimator + Send>,
        config: ServeConfig,
        tracer: Tracer,
    ) -> ViewServer {
        let cache = ExecCache::new(config.pricing, ExecCache::DEFAULT_SHARDS)
            .with_capacity(config.cache_capacity);
        let initial = Deployment::new(0, Arc::new(catalog.clone()), Vec::new());
        ViewServer {
            cell: DeploymentCell::new(initial),
            cache,
            admission: AdmissionController::new(config.admission),
            planner: Mutex::new(
                Rank::Planner,
                Planner {
                    catalog,
                    lifecycle: ViewLifecycleManager::new(config.lifecycle),
                    estimator,
                    dryrun: ExecCache::new(config.pricing, 1),
                    retired: None,
                },
            ),
            obs: Obs::new(config.obs.clone()),
            tracer,
            config,
        }
    }

    /// Execute one query for `tenant`: admission → thread-cached snapshot →
    /// view routing → (cached) execution. Never blocks on the re-optimizer.
    /// Every outcome — served, shed, failed — leaves exactly one
    /// [`QueryRecord`] with the telemetry layer ([`Obs::observe_query`]):
    /// flight recorder, per-tenant SLO windows, estimator residuals and the
    /// cumulative totals the `serve.*` series are folded from. Nothing here
    /// touches the metrics registry.
    pub fn execute(&self, tenant: &str, plan: &PlanRef) -> Result<ServeResponse, ServeError> {
        let t0 = self.tracer.now_nanos();
        let plan_fp = plan.fingerprint();
        let mut record = QueryRecord {
            tenant: TenantTag::new(tenant),
            plan_fp: plan_fp.0,
            view_fp: 0,
            epoch: 0,
            status: RecordStatus::Shed,
            route_hits: 0,
            cache_shard: 0,
            cache_hit: false,
            admit_wait_nanos: 0,
            exec_nanos: 0,
            rows: 0,
            bytes: 0,
            est_cost: f64::NAN,
            meas_cost: 0.0,
        };
        let _permit = match self.admission.acquire(tenant) {
            Ok(p) => p,
            Err(r) => {
                let now = self.tracer.now_nanos();
                record.epoch = self.cell.epoch();
                record.admit_wait_nanos = now.saturating_sub(t0);
                self.obs.observe_query(now, &record, plan.op_keyword());
                return Err(ServeError::Rejected(r));
            }
        };
        let t_adm = self.tracer.now_nanos();
        record.admit_wait_nanos = t_adm.saturating_sub(t0);
        self.cell
            .with_current(|deployment| self.serve(deployment, plan, plan_fp, t_adm, record))
    }

    /// The admitted part of [`ViewServer::execute`]: route, run through the
    /// result cache, record. Runs on the borrowed thread-cached snapshot.
    fn serve(
        &self,
        deployment: &Deployment,
        plan: &PlanRef,
        plan_fp: Fingerprint,
        t_adm: u64,
        mut record: QueryRecord,
    ) -> Result<ServeResponse, ServeError> {
        let (routed, hits, routed_fp) = deployment.route_memo(plan_fp, plan);
        // A miss executes on this thread.
        let outcome = self
            .cache
            .run_keyed_hit_dop(routed_fp, deployment.catalog(), &routed, None);
        let t1 = self.tracer.now_nanos();

        record.epoch = deployment.epoch();
        record.status = RecordStatus::Error;
        record.exec_nanos = t1.saturating_sub(t_adm);
        let (result, cache_hit) = match outcome {
            Ok(parts) => parts,
            Err(e) => {
                self.obs.observe_query(t1, &record, plan.op_keyword());
                return Err(ServeError::Engine(e));
            }
        };
        record.status = RecordStatus::Ok;
        record.route_hits = hits as u32;
        record.cache_shard = self.cache.shard_of(routed_fp) as u32;
        record.cache_hit = cache_hit;
        record.rows = result.report.output_rows as u64;
        record.bytes = result.report.output_bytes as u64;
        record.meas_cost = result.report.cost_dollars;
        if hits > 0 {
            if let Some((est, view_fp)) = deployment.estimate_of(plan_fp) {
                record.est_cost = est;
                record.view_fp = view_fp.0;
            }
        }
        self.obs.observe_query(t1, &record, plan.op_keyword());

        Ok(ServeResponse {
            batch: result.batch,
            cost_dollars: result.report.cost_dollars,
            rewrite_hits: hits,
            epoch: deployment.epoch(),
        })
    }

    /// Re-optimize against a workload window and publish the next epoch.
    ///
    /// Selection and view materialization run entirely on the planner side
    /// — concurrent [`ViewServer::execute`] calls keep reading the old
    /// snapshot. Views admitted here are charged to `owner`'s byte share
    /// (see [`LifecycleConfig::tenant_byte_budget`]). The candidate
    /// deployment must pass the `av-analyze` preflight (every view's
    /// defining plan verifies, every routed window query's rewrite
    /// preserves its schema) before the swap; on failure the old epoch
    /// stays published and an [`ServeError::InvalidDeployment`] is
    /// returned.
    pub fn reoptimize(
        &self,
        window: &[PlanRef],
        owner: Option<&str>,
    ) -> Result<ReoptSummary, ServeError> {
        let tracer = self.tracer.clone();
        let metrics = tracer.metrics();
        let mut guard = self.planner.lock();
        let planner = &mut *guard;
        tracer.time("serve.reopt", || -> Result<ReoptSummary, ServeError> {
            let mut analyzer = av_equiv::Analyzer::new();
            analyzer.min_query_frequency = av_equiv::MIN_SHARED_QUERIES;
            let analysis = analyzer.analyze(window);

            let mut costs = Vec::with_capacity(window.len());
            for p in window {
                costs.push(planner.dryrun.cost(&planner.catalog, p)?);
            }
            let plan = reoptimize(
                &planner.catalog,
                &analysis,
                WindowSnapshot::new(window, &costs),
                planner.estimator.as_ref(),
                &self.config.selector,
                &planner.lifecycle.live_fingerprints(),
                &planner.dryrun,
            )?;
            metrics.inc("serve.reopt_runs");

            let mut summary =
                self.apply_and_publish(planner, &plan.drop, &plan.create, owner, window)?;
            summary.estimated_utility = plan.estimated_utility;
            Ok(summary)
        })
    }

    /// Publish an externally selected view set (e.g. the batch pipeline's
    /// final selection from `av-core`): admit each candidate into the
    /// lifecycle, charge it to `owner`, preflight the resulting snapshot
    /// against `sample`, and swap it in. Same gate, same swap semantics as
    /// [`ViewServer::reoptimize`] — only the selection step is skipped.
    pub fn publish(
        &self,
        candidates: &[CandidateView],
        owner: Option<&str>,
        sample: &[PlanRef],
    ) -> Result<ReoptSummary, ServeError> {
        let mut planner = self.planner.lock();
        self.apply_and_publish(&mut planner, &[], candidates, owner, sample)
    }

    /// The one reoptimize → preflight → publish core. Evictions and
    /// tenant-accounted admissions are applied to a copy-on-write scratch
    /// of the planner's catalog and lifecycle (table data is shared behind
    /// `Arc`); the scratch is frozen into a candidate deployment and
    /// preflighted, and only a snapshot that proves itself is committed to
    /// the planner and swapped in. On any failure the planner still
    /// mirrors the published epoch, so a refused plan cannot poison the
    /// re-optimizations that follow it.
    fn apply_and_publish(
        &self,
        planner: &mut Planner,
        drop: &[Fingerprint],
        create: &[CandidateView],
        owner: Option<&str>,
        sample: &[PlanRef],
    ) -> Result<ReoptSummary, ServeError> {
        let metrics = self.tracer.metrics();
        let mut catalog = planner.catalog.clone();
        let mut lifecycle = planner.lifecycle.clone();
        let applied = lifecycle.apply(&mut catalog, drop, create, self.config.pricing, owner)?;

        // Freeze per-query cost estimates for the residual-telemetry
        // stream. The table is immutable once published, so the read path
        // looks estimates up without touching the estimator (which lives
        // behind the planner lock).
        let estimates = freeze_estimates(&catalog, &lifecycle, sample, planner.estimator.as_ref());
        metrics.set_gauge("serve.frozen_estimates", estimates.len() as f64);
        let next = Deployment::new(
            self.cell.epoch() + 1,
            Arc::new(catalog.clone()),
            lifecycle.live_views(),
        )
        .with_estimates(estimates);

        // Preflight gate: a snapshot that cannot prove itself never
        // reaches the swap, and its scratch state is dropped here.
        match next.validate_with(sample) {
            Ok(stats) => {
                metrics.add("serve.preflight.proved", stats.proved as u64);
                metrics.add("serve.preflight.unknown", stats.unknown as u64);
            }
            Err(msg) => {
                metrics.inc("serve.preflight_failures");
                return Err(ServeError::InvalidDeployment(msg));
            }
        }

        let summary = ReoptSummary {
            epoch: next.epoch(),
            admitted: applied.admitted.len(),
            dropped: applied.evicted,
            rejected: applied.rejected,
            live_views: next.views().len(),
            estimated_utility: 0.0,
        };
        planner.catalog = catalog;
        planner.lifecycle = lifecycle;
        planner.retired = Some(self.cell.swap(Arc::new(next)));
        metrics.inc("serve.swaps");
        metrics.set_gauge("serve.live_views", summary.live_views as f64);
        metrics.set_gauge("serve.epoch", summary.epoch as f64);
        Ok(summary)
    }

    /// The currently published snapshot.
    pub fn current(&self) -> Arc<Deployment> {
        self.cell.load()
    }

    /// Run `read` on the published snapshot as [`ViewServer::execute`]
    /// reads it: through this thread's cached handle, with no shared write
    /// while the epoch is unchanged ([`DeploymentCell::with_current`]).
    pub fn with_current<R>(&self, read: impl FnOnce(&Deployment) -> R) -> R {
        self.cell.with_current(read)
    }

    /// Epoch of the published snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Canonical fingerprints of the planner's live views. Outside a
    /// running re-optimization these are exactly the published snapshot's
    /// views: the planner only ever commits what it publishes.
    pub fn planner_live_fingerprints(&self) -> Vec<Fingerprint> {
        self.planner.lock().lifecycle.live_fingerprints()
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Everything the server measures, as one registry-shaped snapshot.
    ///
    /// The registry itself only holds planner-rate events (`serve.swaps`,
    /// `serve.preflight.*`, `serve.reopt*`, the epoch gauges). Every
    /// per-request series is pulled here from its owner — the cache's
    /// shard counters, the telemetry layer's request totals and SLO
    /// windows, the published deployment's route memo — so serving a request
    /// never writes to a shared registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.tracer.metrics().snapshot();
        let mut counter = |name: String, v: u64| {
            snap.counters.insert(name, v);
        };
        for (i, s) in self.cache.shard_stats().iter().enumerate() {
            counter(format!("engine.cache.shard{i}.hit"), s.hits);
            counter(format!("engine.cache.shard{i}.miss"), s.misses);
            counter(format!("engine.cache.shard{i}.evict"), s.evictions);
            counter(
                format!("engine.cache.shard{i}.evict_bytes"),
                s.evicted_bytes,
            );
        }
        let t = self.obs.totals();
        counter("serve.requests".into(), t.served);
        counter("serve.requests_rewritten".into(), t.rewritten);
        counter("serve.rewrite_hits".into(), t.rewrite_hits);
        counter("serve.rejected".into(), t.shed);
        counter("serve.errors".into(), t.errors);
        let alerts = self.obs.slo_stats().iter().map(|s| s.alerts_fired).sum();
        counter("serve.slo_alerts".into(), alerts);
        if t.nan_rejected > 0 {
            *snap
                .counters
                .entry(av_trace::NAN_REJECTED.into())
                .or_default() += t.nan_rejected;
        }
        for (name, sketch) in [
            ("serve.latency_us", &t.latency_us),
            ("serve.query_cost", &t.query_cost),
        ] {
            snap.histograms.insert(name.into(), sketch.snapshot());
        }
        let request = Timing {
            count: t.served + t.errors,
            total_seconds: t.exec_nanos as f64 / 1e9,
        };
        snap.timings
            .insert("serve.request".into(), request.snapshot());
        let (memo_hits, memo_misses) = self.cell.load().route_memo_stats();
        for (name, v) in [
            ("serve.route_memo_hits", memo_hits as f64),
            ("serve.route_memo_misses", memo_misses as f64),
        ] {
            snap.gauges.insert(name.into(), v);
        }
        snap
    }

    /// Aggregate hit/miss/evict counters of the sharded result cache.
    pub fn cache_stats(&self) -> av_engine::CacheStats {
        self.cache.stats()
    }

    /// Per-shard counters (index = shard).
    pub fn shard_stats(&self) -> Vec<av_engine::CacheStats> {
        self.cache.shard_stats()
    }

    /// The telemetry layer: flight recorder, SLO monitor, residual store.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Snapshot of the whole telemetry layer (the `serve stats` payload).
    pub fn stats_snapshot(&self) -> av_obs::ObsStats {
        self.obs.stats()
    }

    /// Scheduler counters, kept for callers that read them: queries run on
    /// the thread that submits them, so there is one worker and no pooled
    /// task, steal or busy time.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            workers: 1,
            tasks: 0,
            steals: 0,
            busy_nanos: 0,
        }
    }

    /// Prometheus text exposition: [`ViewServer::metrics`] plus the SLO and
    /// residual series.
    pub fn prometheus_text(&self) -> String {
        self.obs.prometheus(&self.metrics())
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the test drives the type from several threads"
)]
mod tests {
    use super::*;
    use av_cost::OptimizerEstimator;
    use av_workload::cloud::mini;

    fn server_for(w: &av_workload::Workload) -> ViewServer {
        ViewServer::new(
            w.catalog.clone(),
            Box::new(OptimizerEstimator::default()),
            ServeConfig {
                lifecycle: LifecycleConfig {
                    byte_budget: usize::MAX,
                    min_benefit_per_byte: 0.0,
                    tenant_byte_budget: usize::MAX,
                },
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn serves_queries_and_swaps_epochs() {
        let w = mini(71);
        let plans = w.plans();
        let server = server_for(&w);
        assert_eq!(server.epoch(), 0);

        // Epoch 0 serves with no views.
        let baseline: Vec<Arc<RecordBatch>> = plans
            .iter()
            .map(|p| server.execute("t0", p).expect("serves").batch)
            .collect();

        // Reoptimize on the window: views admitted, epoch bumped.
        let summary = server.reoptimize(&plans, None).expect("reoptimizes");
        assert_eq!(summary.epoch, 1);
        assert!(summary.admitted > 0, "mini workload selects views");
        assert_eq!(server.epoch(), 1);

        // Epoch 1 serves identical results, now routed through views.
        let mut hits = 0;
        for (p, before) in plans.iter().zip(&baseline) {
            let resp = server.execute("t0", p).expect("serves");
            assert_eq!(resp.epoch, 1);
            assert_eq!(&resp.batch, before, "swap must not change results");
            hits += resp.rewrite_hits;
        }
        assert!(hits > 0, "views must route repeat queries");
        let m = server.metrics();
        assert_eq!(m.counters["serve.requests"], 2 * plans.len() as u64);
        assert_eq!(m.counters["serve.swaps"], 1);
    }

    #[test]
    fn requests_are_timed_on_the_real_clock_and_leave_no_spans() {
        let w = mini(76);
        let plans = w.plans();
        let server = server_for(&w);
        let pass = || {
            for p in &plans {
                server.execute("t", p).expect("serves");
                server.execute("t", p).expect("repeat hits cache");
            }
        };
        pass();
        let after_n = server.tracer().span_count();
        pass();
        assert_eq!(
            server.tracer().span_count(),
            after_n,
            "neither hits nor misses may grow the span log"
        );
        let dump = server.obs().dump_now("unit-test");
        assert_eq!(dump.records.len(), 4 * plans.len());
        assert!(
            dump.records.iter().any(|r| r.exec_nanos > 0),
            "the server's clock must move"
        );
    }

    #[test]
    fn route_memo_metrics_ride_the_prometheus_export() {
        let w = mini(75);
        let plans = w.plans();
        let server = server_for(&w);
        for p in &plans {
            server.execute("t", p).expect("serves");
        }
        let text = server.prometheus_text();
        for gauge in ["serve_route_memo_hits", "serve_route_memo_misses"] {
            assert!(text.contains(gauge), "missing {gauge} in:\n{text}");
        }
        assert!(!text.contains("sched_"), "no sched_ family");
        // The route memo saw every request.
        let (hits, misses) = server.current().route_memo_stats();
        assert_eq!(hits + misses, plans.len() as u64);
    }

    #[test]
    fn old_snapshot_handles_survive_swap() {
        let w = mini(72);
        let plans = w.plans();
        let server = server_for(&w);
        let old = server.current();
        server.reoptimize(&plans, None).expect("reoptimizes");
        // The pre-swap handle still routes nothing and still executes.
        assert_eq!(old.epoch(), 0);
        let (routed, hits) = old.route(&plans[0]);
        assert_eq!(hits, 0);
        assert_eq!(Fingerprint::of(&routed), Fingerprint::of(&plans[0]));
    }

    #[test]
    fn the_planner_not_a_request_frees_a_displaced_epoch() {
        let w = mini(79);
        let plans = w.plans();
        let server = server_for(&w);
        server.execute("t", &plans[0]).expect("serves epoch 0");
        let epoch0 = Arc::downgrade(&server.current());
        server.reoptimize(&plans, None).expect("publishes epoch 1");
        server.execute("t", &plans[0]).expect("serves epoch 1");
        assert!(
            epoch0.upgrade().is_some(),
            "the request that moved off epoch 0 freed it"
        );
        server.publish(&[], None, &[]).expect("publishes epoch 2");
        assert!(
            epoch0.upgrade().is_none(),
            "the next publish must free epoch 0"
        );
    }

    #[test]
    fn tenant_owned_views_are_accounted() {
        let w = mini(73);
        let plans = w.plans();
        let server = server_for(&w);
        let summary = server
            .reoptimize(&plans, Some("acme"))
            .expect("reoptimizes");
        assert!(summary.admitted > 0);
        let planner = server.planner.lock();
        assert!(
            planner.lifecycle.live_bytes_of(Some("acme")) > 0,
            "admitted views are charged to the owner"
        );
        assert_eq!(planner.lifecycle.live_bytes_of(None), 0);
    }

    /// Panics on its first estimate, then answers as the optimizer does.
    struct PanicsOnce {
        panicked: std::sync::atomic::AtomicBool,
        inner: OptimizerEstimator,
    }

    impl CostEstimator for PanicsOnce {
        fn estimate(&self, input: &av_cost::FeatureInput) -> f64 {
            if !self
                .panicked
                .swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("injected estimator fault");
            }
            self.inner.estimate(input)
        }

        fn name(&self) -> &'static str {
            "panics-once"
        }
    }

    #[test]
    fn a_reopt_that_panics_does_not_wedge_the_planner() {
        let w = mini(77);
        let plans = w.plans();
        let server = ViewServer::new(
            w.catalog.clone(),
            Box::new(PanicsOnce {
                panicked: Default::default(),
                inner: OptimizerEstimator::default(),
            }),
            server_for(&w).config().clone(),
        );
        let died = std::thread::scope(|s| s.spawn(|| server.reoptimize(&plans, None)).join());
        assert!(
            died.is_err(),
            "the first reoptimize dies holding the planner"
        );
        assert_eq!(server.epoch(), 0, "nothing was published");

        let summary = server
            .reoptimize(&plans, None)
            .expect("the planner is recovered");
        assert!(summary.admitted > 0);
        let published: Vec<Fingerprint> =
            server.current().views().iter().map(|(fp, _)| *fp).collect();
        assert_eq!(server.planner_live_fingerprints(), published);
        let exec = av_engine::Executor::new(&w.catalog, Pricing::paper_defaults());
        for p in &plans {
            let resp = server.execute("t", p).expect("serves");
            assert_eq!(resp.batch, exec.run(p).expect("direct run").batch);
        }
    }

    /// Overflow checks are how a telemetry fold can panic mid-update; release
    /// builds compile them out.
    #[cfg(debug_assertions)]
    #[test]
    fn a_telemetry_fold_that_panics_does_not_wedge_serving() {
        let w = mini(78);
        let plans = w.plans();
        let server = server_for(&w);
        let record = |exec_nanos| QueryRecord {
            tenant: TenantTag::new("t"),
            plan_fp: 0,
            view_fp: 0,
            epoch: 0,
            status: RecordStatus::Ok,
            route_hits: 0,
            cache_shard: 0,
            cache_hit: false,
            admit_wait_nanos: 0,
            exec_nanos,
            rows: 0,
            bytes: 0,
            est_cost: f64::NAN,
            meas_cost: 0.0,
        };
        server.obs().observe_query(0, &record(1), "Scan");
        let died = std::thread::scope(|s| {
            s.spawn(|| server.obs().observe_query(1, &record(u64::MAX), "Scan"))
                .join()
        });
        assert!(
            died.is_err(),
            "Σ exec overflows mid-fold, holding the obs state"
        );

        for p in &plans {
            server
                .execute("t", p)
                .expect("serving survives the dead holder");
        }
        let m = server.metrics();
        assert_eq!(m.counters["serve.requests"], 1 + plans.len() as u64);
        let stats = server.stats_snapshot();
        assert!(stats.recorded > plans.len() as u64);
        assert_eq!(stats.slo[0].requests, 1 + plans.len() as u64);
    }

    #[test]
    fn per_shard_counters_are_folded_into_the_snapshot() {
        let w = mini(74);
        let plans = w.plans();
        let server = server_for(&w);
        for p in &plans {
            server.execute("t", p).expect("serves");
            server.execute("t", p).expect("repeat hits cache");
        }
        let agg = server.cache_stats();
        assert!(agg.hits > 0, "repeats must hit");
        let m = server.metrics();
        let (mut hit_sum, mut miss_sum) = (0, 0);
        for (i, s) in server.shard_stats().iter().enumerate() {
            assert_eq!(m.counters[&format!("engine.cache.shard{i}.hit")], s.hits);
            hit_sum += s.hits;
            miss_sum += s.misses;
        }
        assert_eq!(hit_sum, agg.hits);
        assert_eq!(miss_sum, agg.misses);
    }
}
