//! # av-obs — production telemetry for the serving layer
//!
//! Always-on observability wired through `av-serve`, `av-online` and
//! `av-engine`, built from four pieces (DESIGN.md §Observability):
//!
//! - the flight recorder ([`recorder`]): a bounded ring of per-query
//!   structured event records (tenant, plan fingerprint, deployment epoch,
//!   route decision, cache shard and hit/miss, admission wait, exec time,
//!   rows/bytes, cost estimate vs. measurement). Dump-on-demand and
//!   dump-on-alert.
//! - [`SloState`]: per-tenant mergeable quantile sketches over sliding
//!   windows plus multi-window error-budget burn-rate alerting.
//! - [`ResidualStore`]: the estimator-residual aggregates — every routed
//!   query's (estimated, measured) pair folds into per-view and
//!   per-operator q-error sketches.
//! - [`export`]: Prometheus text exposition for all of the above plus an
//!   `av_trace::MetricsSnapshot`.
//!
//! The [`Obs`] façade ties them together: `av-serve` hands
//! [`Obs::observe_query`] one [`QueryRecord`] per request — the request's
//! only telemetry write, made under the crate's one lock, which covers the
//! flight ring, SLO windows, residual aggregates, cumulative
//! [`RequestTotals`], alert history and dump store. An SLO burn-rate alert
//! is the one trigger that stores a flight-recorder dump, captured inside
//! the critical section that saw the alert fire.
//!
//! Every client shares that lock, so what it guards is laid out to be
//! written in few cache lines: a ring slot is two whole lines, the totals a
//! served request bumps share one line, and so do an SLO interval's. The
//! cumulative served-latency sketch is folded from the SLO windows when
//! [`Obs::totals`] reads it, not written a second time per request.
//!
//! Everything here is fed time exclusively through values the caller read
//! from its injected [`av_trace::Clock`] — this crate never touches the
//! wall clock, so replayed workloads reproduce alerts and dumps exactly.

#![forbid(unsafe_code)]

pub mod export;
pub mod recorder;
pub mod residual;
pub mod slo;

pub use recorder::{FlightDump, FlightRecord, QueryRecord, RecordStatus, TenantTag};
pub use residual::{ErrorAggregate, Residual, ResidualStore, ResidualSummary};
pub use slo::{Objective, RequestOutcome, SloAlert, SloState, TenantSloStats};

use av_sched::{Mutex, Rank};
use av_trace::QuantileSketch;
use recorder::{FlightRecorder, RawDump};
use serde::Serialize;
use std::collections::VecDeque;

/// Flight-recorder ring capacity: a dump holds at most this many records.
pub const RECORDER_CAPACITY: usize = 4096;

/// Alert history bound: the oldest alert is dropped past this many.
const MAX_ALERTS: usize = 256;

/// Configuration for the whole telemetry layer. The ring size, alert bound
/// and SLO objectives are constants ([`RECORDER_CAPACITY`], [`slo`]).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch. When off, [`Obs::observe_query`] is a no-op — the
    /// baseline the recorder-overhead benchmark compares against.
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true }
    }
}

impl ObsConfig {
    /// A configuration with telemetry fully off (benchmark baseline).
    pub fn disabled() -> ObsConfig {
        ObsConfig { enabled: false }
    }
}

/// Point-in-time snapshot of the entire telemetry layer, for the
/// `serve stats` command and JSON artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct ObsStats {
    pub enabled: bool,
    /// Total queries recorded since startup.
    pub recorded: u64,
    pub slo: Vec<TenantSloStats>,
    pub residuals: ResidualSummary,
    pub alerts: Vec<SloAlert>,
    /// Reasons and sizes of stored triggered dumps (oldest first).
    pub dumps: Vec<DumpInfo>,
    /// Alerts whose capture was skipped because their objective's slot
    /// already held a dump (drain with `take_dumps` to re-arm).
    pub dumps_suppressed: u64,
}

/// Summary line for one stored dump.
#[derive(Debug, Clone, Serialize)]
pub struct DumpInfo {
    pub reason: String,
    pub seq_at: u64,
    pub records: usize,
}

/// Cumulative per-request aggregates since startup — what the serving
/// layer's `serve.*` exposition series are folded from at snapshot time,
/// so the request path never touches the metrics registry.
///
/// `repr(C)` and line-aligned so that what every served request writes
/// here (`query_cost`'s 48 bytes, `served`, `exec_nanos`) is one cache
/// line.
#[derive(Debug, Clone, Default)]
#[repr(C, align(64))]
pub struct RequestTotals {
    /// Measured dollar cost of served requests.
    pub query_cost: QuantileSketch,
    pub served: u64,
    /// Σ route + execute time over admitted (served or failed) requests.
    pub exec_nanos: u64,
    pub shed: u64,
    pub errors: u64,
    /// Served requests that view routing rewrote.
    pub rewritten: u64,
    /// Σ subtree replacements over served requests.
    pub rewrite_hits: u64,
    /// NaN costs the sketches refused.
    pub nan_rejected: u64,
    /// Total latency (admission wait + exec) of served requests, µs.
    /// Folded from the SLO windows when read
    /// ([`SloState::served_latency_us`]), never written per request.
    pub latency_us: QuantileSketch,
}

const _: () = assert!(std::mem::offset_of!(RequestTotals, exec_nanos) < 64);

impl RequestTotals {
    fn fold(&mut self, rec: &QueryRecord) {
        if rec.status == RecordStatus::Shed {
            self.shed += 1;
            return;
        }
        self.exec_nanos += rec.exec_nanos;
        if rec.status == RecordStatus::Error {
            self.errors += 1;
            return;
        }
        self.served += 1;
        if rec.route_hits > 0 {
            self.rewritten += 1;
            self.rewrite_hits += rec.route_hits as u64;
        }
        if !self.query_cost.observe(rec.meas_cost) {
            self.nan_rejected += 1;
        }
    }
}

/// Reason of the dump an alert on each [`Objective`] stores, indexed by
/// `objective as usize`.
const DUMP_REASONS: [&str; 2] = ["slo_latency_burn", "slo_availability_burn"];

/// The filled dump slots with their reasons, oldest capture first.
fn stored(slots: &[Option<RawDump>; 2]) -> Vec<(&'static str, &RawDump)> {
    let mut out: Vec<_> = DUMP_REASONS
        .into_iter()
        .zip(slots)
        .filter_map(|(reason, d)| Some((reason, d.as_ref()?)))
        .collect();
    out.sort_by_key(|(_, d)| d.seq_at);
    out
}

/// Everything the telemetry layer holds, behind its one lock: a request
/// pays a single acquisition, and an alert captures the ring inside the
/// critical section that fired it.
#[derive(Debug)]
struct State {
    ring: FlightRecorder,
    slo: SloState,
    residuals: ResidualStore,
    totals: RequestTotals,
    /// Alert history, oldest first, at most [`MAX_ALERTS`].
    alerts: VecDeque<SloAlert>,
    /// One stored dump slot per [`Objective`], decoded when read.
    dumps: [Option<RawDump>; 2],
    dumps_suppressed: u64,
}

impl State {
    /// First capture per objective: the check runs *before* the ring copy,
    /// so an alert that re-fires through one sustained incident costs a
    /// counter increment instead of a ring copy on the serving thread. The
    /// first snapshot of an incident is the forensically interesting one.
    fn store_dump(&mut self, objective: Objective) {
        let slot = &mut self.dumps[objective as usize];
        if slot.is_some() {
            self.dumps_suppressed += 1;
        } else {
            *slot = Some(self.ring.capture());
        }
    }
}

/// The telemetry façade owned by a server.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    state: Mutex<State>,
}

impl Obs {
    pub fn new(config: ObsConfig) -> Obs {
        Obs {
            state: Mutex::new(
                Rank::Obs,
                State {
                    ring: FlightRecorder::new(RECORDER_CAPACITY),
                    slo: SloState::new(),
                    residuals: ResidualStore::new(),
                    totals: RequestTotals::default(),
                    alerts: VecDeque::new(),
                    dumps: Default::default(),
                    dumps_suppressed: 0,
                },
            ),
            enabled: config.enabled,
        }
    }

    /// Snapshot of every tenant's SLO window.
    pub fn slo_stats(&self) -> Vec<TenantSloStats> {
        self.state.lock().slo.stats()
    }

    /// Copy of the cumulative per-request aggregates.
    pub fn totals(&self) -> RequestTotals {
        let s = self.state.lock();
        RequestTotals {
            latency_us: s.slo.served_latency_us(),
            ..s.totals.clone()
        }
    }

    /// Feed one finished (or shed/failed) request through every component:
    /// flight recorder, cumulative totals, SLO windows, residual stream.
    /// `now_nanos` is the caller's injected-clock reading at completion;
    /// `root_op` is the plan's root operator name for residual aggregation.
    pub fn observe_query(&self, now_nanos: u64, rec: &QueryRecord, root_op: &'static str) {
        if !self.enabled {
            return;
        }
        let outcome = match rec.status {
            RecordStatus::Ok => RequestOutcome::Served,
            RecordStatus::Shed => RequestOutcome::Shed,
            RecordStatus::Error => RequestOutcome::Failed,
        };
        let latency_nanos = rec.admit_wait_nanos + rec.exec_nanos;
        let mut state = self.state.lock();
        let s = &mut *state;
        s.ring.record(rec);
        s.totals.fold(rec);
        if outcome == RequestOutcome::Served && rec.has_estimate() {
            s.residuals.record(Residual {
                view_fp: rec.view_fp,
                root_op,
                estimated: rec.est_cost,
                measured: rec.meas_cost,
            });
        }

        // Every burn-rate alert freezes the ring as a stored dump so the
        // offending queries are preserved even after the ring wraps. The
        // ring's newest record is this request's.
        for a in s.slo.observe(rec.tenant, now_nanos, latency_nanos, outcome) {
            s.store_dump(a.objective);
            if s.alerts.len() == MAX_ALERTS {
                s.alerts.pop_front();
            }
            s.alerts.push_back(a);
        }
    }

    /// Dump-on-demand: snapshot the ring without storing the dump.
    pub fn dump_now(&self, reason: &str) -> FlightDump {
        let raw = self.state.lock().ring.capture();
        raw.decode(reason)
    }

    /// Stored (alert-triggered) dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        let slots = self.state.lock().dumps.clone();
        stored(&slots)
            .into_iter()
            .map(|(reason, d)| d.decode(reason))
            .collect()
    }

    /// Drain the stored dumps (oldest first), re-arming dump-on-alert: after
    /// a drain the next alert on each objective captures again.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        let slots = std::mem::take(&mut self.state.lock().dumps);
        stored(&slots)
            .into_iter()
            .map(|(reason, d)| d.decode(reason))
            .collect()
    }

    /// Alert history, oldest first.
    pub fn alerts(&self) -> Vec<SloAlert> {
        self.state.lock().alerts.iter().cloned().collect()
    }

    pub fn stats(&self) -> ObsStats {
        let s = self.state.lock();
        ObsStats {
            enabled: self.enabled,
            recorded: s.ring.sequence(),
            slo: s.slo.stats(),
            residuals: s.residuals.summary(),
            alerts: s.alerts.iter().cloned().collect(),
            dumps: stored(&s.dumps)
                .into_iter()
                .map(|(reason, d)| DumpInfo {
                    reason: reason.to_string(),
                    seq_at: d.seq_at,
                    records: d.records.len(),
                })
                .collect(),
            dumps_suppressed: s.dumps_suppressed,
        }
    }

    /// Full Prometheus exposition: the given metrics snapshot plus SLO and
    /// residual series.
    pub fn prometheus(&self, snapshot: &av_trace::MetricsSnapshot) -> String {
        let (slo, residuals) = {
            let s = self.state.lock();
            (s.slo.stats(), s.residuals.summary())
        };
        let mut out = export::prometheus_text(snapshot);
        out.push_str(&export::slo_text(&slo));
        out.push_str(&export::residual_text(&residuals));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tenant: &str, exec_nanos: u64, status: RecordStatus) -> QueryRecord {
        QueryRecord {
            tenant: TenantTag::new(tenant),
            plan_fp: 0xfeed,
            view_fp: 0xbeef,
            epoch: 1,
            status,
            route_hits: 1,
            cache_shard: 0,
            cache_hit: true,
            admit_wait_nanos: 0,
            exec_nanos,
            rows: 10,
            bytes: 100,
            est_cost: 2.0,
            meas_cost: 1.0,
        }
    }

    #[test]
    fn disabled_obs_is_a_no_op() {
        let obs = Obs::new(ObsConfig::disabled());
        obs.observe_query(0, &record("t", 1_000, RecordStatus::Ok), "Join");
        assert_eq!(obs.totals().served, 0);
        assert!(obs.dump_now("manual").records.is_empty());
        let stats = obs.stats();
        assert!(!stats.enabled);
        assert_eq!(stats.recorded, 0);
        assert_eq!(stats.residuals.recorded, 0);
        assert!(stats.slo.is_empty());
    }

    #[test]
    fn observe_query_feeds_every_component() {
        let obs = Obs::new(ObsConfig::default());
        for i in 0..10u64 {
            obs.observe_query(i * 1_000, &record("acme", 5_000, RecordStatus::Ok), "Join");
        }
        let stats = obs.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.residuals.recorded, 10);
        assert_eq!(stats.slo.len(), 1);
        assert_eq!(stats.slo[0].tenant, "acme");
        assert_eq!(stats.slo[0].requests, 10);
        let totals = obs.totals();
        assert_eq!((totals.served, totals.shed, totals.errors), (10, 0, 0));
        assert_eq!((totals.rewritten, totals.rewrite_hits), (10, 10));
        assert_eq!(totals.exec_nanos, 50_000);
        assert_eq!(totals.latency_us.quantile(0.5), Some(5.0));
        assert_eq!(totals.query_cost.sum(), 10.0);
        let dump = obs.dump_now("manual");
        assert_eq!(dump.records.len(), 10);
        assert!(obs.dumps().is_empty(), "on-demand dumps are not stored");
    }

    #[test]
    fn served_latency_survives_the_windows_rotating_out() {
        // 40 one-second intervals against a 12-interval window: most
        // samples live only in the retired sketch by the end.
        let obs = Obs::new(ObsConfig::default());
        let mut want = QuantileSketch::new();
        for i in 0..400u64 {
            let exec_nanos = 1_000 + i * 37;
            let status = if i % 9 == 0 {
                RecordStatus::Shed
            } else {
                want.observe(exec_nanos as f64 / 1e3);
                RecordStatus::Ok
            };
            obs.observe_query(i * 100_000_000, &record("t", exec_nanos, status), "Scan");
        }
        let got = obs.totals().latency_us;
        assert!(obs.slo_stats()[0].requests < 400, "the window forgot");
        assert_eq!(got.count(), want.count());
        let buckets = |s: &QuantileSketch| {
            let snap = s.snapshot();
            snap.buckets
                .iter()
                .map(|b| (b.upper, b.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(buckets(&got), buckets(&want));
        assert_eq!(got.quantile(1.0), want.quantile(1.0));
    }

    #[test]
    fn slo_latency_counts_the_nanoseconds_past_the_threshold() {
        let obs = Obs::new(ObsConfig::default());
        let threshold_ns = slo::LATENCY_THRESHOLD_US * 1_000;
        let served = |nanos| record("t", nanos, RecordStatus::Ok);
        obs.observe_query(0, &served(threshold_ns), "Join");
        let burn = obs.slo_stats()[0].latency_slow_burn;
        assert_eq!(burn, 0.0, "at the threshold is within it");
        obs.observe_query(1, &served(threshold_ns + 500), "Join");
        let slo = &obs.slo_stats()[0];
        assert_eq!(slo.requests, 2);
        let burn = slo.latency_slow_burn;
        assert!(burn > 0.0, "500 ns past the threshold is a bad request");
    }

    #[test]
    fn fast_requests_store_no_dump_however_their_latency_shifts() {
        // A 50x step in exec time, every request still 200x under the 10 ms
        // threshold: no objective burns, so nothing is paged or captured.
        let obs = Obs::new(ObsConfig::default());
        for i in 0..256u64 {
            obs.observe_query(i * 1_000, &record("t", 1_000, RecordStatus::Ok), "Scan");
        }
        for i in 256..320u64 {
            obs.observe_query(i * 1_000, &record("t", 50_000, RecordStatus::Ok), "Scan");
        }
        assert!(obs.alerts().is_empty());
        assert!(obs.dumps().is_empty(), "a healthy shift stores no dump");
        assert_eq!(obs.stats().dumps_suppressed, 0);
    }

    #[test]
    fn stored_dumps_keep_the_first_per_objective_and_drain_to_rearm() {
        let obs = Obs::new(ObsConfig::default());
        let store = |objective| obs.state.lock().store_dump(objective);
        obs.observe_query(0, &record("t", 1, RecordStatus::Ok), "Scan");
        store(Objective::Availability);
        obs.observe_query(1, &record("t", 1, RecordStatus::Ok), "Scan");
        store(Objective::LatencyP99);
        // A re-fire of an objective already captured is counted, not
        // captured: one incident, one snapshot.
        store(Objective::Availability);
        let dumps = obs.dumps();
        let reasons: Vec<&str> = dumps.iter().map(|d| d.reason.as_str()).collect();
        assert_eq!(
            reasons,
            ["slo_availability_burn", "slo_latency_burn"],
            "oldest first"
        );
        assert_eq!(dumps[0].seq_at, 1, "the first capture survives the re-fire");
        assert_eq!(obs.stats().dumps_suppressed, 1);
        // Draining re-arms capture.
        assert_eq!(obs.take_dumps().len(), 2);
        assert!(obs.dumps().is_empty());
        store(Objective::Availability);
        let dumps = obs.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].seq_at, 2);
        store(Objective::Availability);
        assert_eq!(obs.dumps().len(), 1);
        assert_eq!(obs.stats().dumps_suppressed, 2);
    }

    #[test]
    fn shed_queries_skip_residuals_but_hit_slo() {
        let obs = Obs::new(ObsConfig::default());
        for i in 0..20u64 {
            obs.observe_query(i, &record("t", 0, RecordStatus::Shed), "Join");
        }
        let stats = obs.stats();
        assert_eq!(stats.residuals.recorded, 0, "shed queries have no residual");
        assert_eq!(stats.slo[0].shed_or_failed, 20);
        assert_eq!(stats.recorded, 20, "but they are flight-recorded");
        let totals = obs.totals();
        assert_eq!((totals.served, totals.shed), (0, 20));
        assert_eq!(totals.latency_us.count(), 0);
    }

    #[test]
    fn stats_serialize_to_json() {
        let obs = Obs::new(ObsConfig::default());
        obs.observe_query(0, &record("t", 1_000, RecordStatus::Ok), "Join");
        let text = serde_json::to_string(&obs.stats()).expect("serialize");
        assert!(text.contains("\"recorded\""));
        assert!(text.contains("\"tenant\""));
    }
}
