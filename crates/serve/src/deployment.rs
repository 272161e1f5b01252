//! Immutable view deployments and the epoch-swap cell that publishes them.
//!
//! A [`Deployment`] is a frozen snapshot of everything a query needs to
//! execute: an `Arc<Catalog>` (cheap to clone — the catalog shares table
//! data behind `Arc`, see `av_engine::catalog`) plus the set of live
//! materialized views frozen at publication time. Sessions route and run
//! against a deployment without taking any lock that a re-optimizer could
//! hold: the [`DeploymentCell`] hands out `Arc<Deployment>` handles, and a
//! swap only replaces the pointer — every in-flight request keeps the epoch
//! it started on until it finishes.
//!
//! The request path reads through [`DeploymentCell::with_current`], which
//! keeps one `Arc<Deployment>` per thread keyed by (cell id, swap
//! generation) and lends it out without touching its refcount: while the
//! generation is unchanged a read is one `Acquire` load and writes no shared
//! memory. A swap bumps the generation, so each thread's next read takes
//! the cell's `RwLock` once and caches the new snapshot. Retention bound:
//! an idle thread keeps at most one deployment alive — the last one it read
//! — until its next read through any cell, or until that cell is dropped on
//! the same thread (the cell's `Drop` clears the dropping thread's handle).
//! A thread whose next read finds a new generation drops its old handle
//! then. `ViewServer` holds each displaced epoch until its next publish, so
//! for a thread that read the epoch one publish displaced, that drop frees
//! nothing on the request path. The hold covers only the last displaced
//! epoch: a thread idle through two or more publishes still holds an older
//! one, and its next request frees it.

use av_engine::{Catalog, MaterializedView};
use av_online::{route_through_views, ViewIndex};
use av_plan::{Fingerprint, Plan, PlanRef};
use av_sched::{Mutex, Rank, RwLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Independent locks for the route-memo table. Routing is read-mostly and
/// fingerprint-keyed, so a handful of shards removes lock contention the
/// same way the result cache's shards do.
const ROUTE_MEMO_SHARDS: usize = 8;

/// Memoized routes per shard; a deployment serves a bounded working set of
/// distinct plans, so overflow simply stops memoizing (correctness is
/// unaffected — `route` recomputes).
const ROUTE_MEMO_CAP_PER_SHARD: usize = 4096;

/// One memoized route: the plan as submitted, kept so a lookup can check
/// that the entry under its fingerprint is its own, and what routing it
/// gave.
#[derive(Debug)]
struct Route {
    submitted: PlanRef,
    routed: PlanRef,
    hits: usize,
    routed_fp: Fingerprint,
}

/// One route-memo shard: submitted-plan fingerprint → [`Route`], plus the
/// shard's own counts, kept under the shard lock every lookup already
/// takes.
#[derive(Debug, Default)]
struct RouteMemo {
    routes: HashMap<u64, Route>,
    hits: u64,
    misses: u64,
    /// Lookups whose key held another plan's route (each also a miss).
    mismatches: u64,
}

/// What the preflight gate did: how many sample queries routed through a
/// view, and how many of those rewrites the static prover proved. Surfaced
/// as `serve.preflight.*` metrics by the server's swap path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PreflightStats {
    /// Sample queries inspected.
    pub sampled: usize,
    /// Sample queries where at least one view fired.
    pub routed: usize,
    /// Rewrites statically proved contained.
    pub proved: usize,
    /// Rewrites the prover could not decide. An undecided rewrite fails
    /// the preflight, so a published epoch reports 0 by construction; the
    /// field stays so the `serve.preflight.unknown` family keeps its series.
    pub unknown: usize,
}

/// A frozen, immutable serving snapshot: catalog + live views at one epoch.
#[derive(Debug)]
pub struct Deployment {
    /// Monotonic publication counter (0 = the initial, view-free snapshot).
    epoch: u64,
    catalog: Arc<Catalog>,
    /// Live views with their canonical defining fingerprints, admission
    /// order, frozen at publication.
    views: Vec<(Fingerprint, MaterializedView)>,
    /// Routing index of `views`, built once here: routing matches against
    /// it, never a shared mutable lifecycle manager.
    index: ViewIndex,
    /// Cost estimates for known routed queries, frozen at publication:
    /// `(original-plan fingerprint, estimated cost, view fingerprint)`,
    /// sorted by the first element for lock-free binary-search lookup on
    /// the read path. Feeds the estimator-residual telemetry stream.
    estimates: Vec<(Fingerprint, f64, Fingerprint)>,
    /// Memoized `route` results (routed plan, subtree hits, routed
    /// fingerprint) keyed by the *original* plan's fingerprint, each beside
    /// the plan it was stored for. Sound because the deployment is
    /// immutable: the catalog and view set are frozen, so a plan's rewrite
    /// can never change within one epoch — a swap publishes a fresh
    /// deployment with an empty memo. Turns the per-request tree rewrite
    /// into a hash lookup on the warm path.
    route_memo: Vec<Mutex<RouteMemo>>,
}

impl Deployment {
    /// Freeze a snapshot. `views` pairs each view's *canonical* defining
    /// fingerprint with its materialized record; every view's stored table
    /// must be present in `catalog` (checked by [`Deployment::validate`]).
    pub fn new(
        epoch: u64,
        catalog: Arc<Catalog>,
        views: Vec<(Fingerprint, MaterializedView)>,
    ) -> Deployment {
        Deployment {
            epoch,
            catalog,
            index: views.iter().cloned().collect(),
            views,
            estimates: Vec::new(),
            route_memo: (0..ROUTE_MEMO_SHARDS)
                .map(|_| Mutex::new(Rank::RouteMemoShard, RouteMemo::default()))
                .collect(),
        }
    }

    /// Attach per-query cost estimates (built by the planner at publication
    /// time from the reopt window). Keys are fingerprints of *original*
    /// plans as clients submit them, so [`Deployment::estimate_of`] lookups
    /// need no routing.
    pub fn with_estimates(
        mut self,
        mut estimates: Vec<(Fingerprint, f64, Fingerprint)>,
    ) -> Deployment {
        estimates.sort_by_key(|(fp, _, _)| fp.0);
        estimates.dedup_by_key(|(fp, _, _)| fp.0);
        self.estimates = estimates;
        self
    }

    /// The estimated cost and routing view recorded for a submitted plan's
    /// fingerprint, if the planner saw this query in its window. O(log n),
    /// no locks — safe on the hot read path.
    pub fn estimate_of(&self, plan_fp: Fingerprint) -> Option<(f64, Fingerprint)> {
        self.estimates
            .binary_search_by_key(&plan_fp.0, |(fp, _, _)| fp.0)
            .ok()
            .map(|i| {
                let (_, est, view_fp) = self.estimates[i];
                (est, view_fp)
            })
    }

    /// Number of frozen estimates (diagnostics).
    pub fn estimate_count(&self) -> usize {
        self.estimates.len()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Shared handle to the snapshot's catalog.
    pub fn catalog_arc(&self) -> Arc<Catalog> {
        self.catalog.clone()
    }

    /// The frozen live-view set.
    pub fn views(&self) -> &[(Fingerprint, MaterializedView)] {
        &self.views
    }

    /// Rewrite `plan` through the frozen views: one top-down pass that
    /// looks each subquery root's canonical fingerprint up in the index
    /// built at publication, outermost match first. Returns the routed plan
    /// and the number of subtree replacements.
    pub fn route(&self, plan: &PlanRef) -> (PlanRef, usize) {
        route_through_views(&self.catalog, &self.index, plan)
    }

    /// [`Deployment::route`] memoized under the submitted plan's
    /// fingerprint `plan_fp`, also caching the routed plan's own
    /// fingerprint (the result-cache key). The snapshot is frozen, so a
    /// memoized rewrite is exact for the life of this deployment. A hit
    /// counts only if the entry was stored for `plan` (the same `Arc`,
    /// else a structurally equal tree): under a colliding fingerprint,
    /// `plan` is routed afresh, and the entry already there keeps its key.
    pub fn route_memo(
        &self,
        plan_fp: Fingerprint,
        plan: &PlanRef,
    ) -> (PlanRef, usize, Fingerprint) {
        let shard = &self.route_memo[(plan_fp.0 % ROUTE_MEMO_SHARDS as u64) as usize];
        {
            let mut guard = shard.lock();
            let memo = &mut *guard;
            match memo.routes.get(&plan_fp.0) {
                Some(r) if Plan::same(&r.submitted, plan) => {
                    memo.hits += 1;
                    return (r.routed.clone(), r.hits, r.routed_fp);
                }
                Some(_) => memo.mismatches += 1,
                None => {}
            }
            memo.misses += 1;
        }
        let (routed, hits) = self.route(plan);
        let routed_fp = routed.fingerprint();
        let mut memo = shard.lock();
        if memo.routes.len() < ROUTE_MEMO_CAP_PER_SHARD {
            memo.routes.entry(plan_fp.0).or_insert_with(|| Route {
                submitted: plan.clone(),
                routed: routed.clone(),
                hits,
                routed_fp,
            });
        }
        (routed, hits, routed_fp)
    }

    /// `(hits, misses)` of the route memo since this deployment was
    /// published — serving telemetry for the warm-path rewrite saving.
    pub fn route_memo_stats(&self) -> (u64, u64) {
        self.route_memo
            .iter()
            .fold((0, 0), |(hits, misses), shard| {
                let memo = shard.lock();
                (hits + memo.hits, misses + memo.misses)
            })
    }

    /// Route-memo lookups whose key held another plan's route: a 64-bit
    /// fingerprint collision, or a caller keying a plan with a fingerprint
    /// that is not its own. Each was routed afresh and counted as a miss.
    pub fn route_memo_mismatches(&self) -> u64 {
        self.route_memo
            .iter()
            .map(|shard| shard.lock().mismatches)
            .sum()
    }

    /// Preflight the snapshot before it may be published: every view's
    /// stored table must exist in the catalog, and every defining plan must
    /// pass the `av-analyze` verifier against it. Returns the first problem
    /// found, so a bad re-optimization can never reach the swap.
    pub fn validate(&self) -> Result<(), String> {
        for (fp, view) in &self.views {
            let table = self.catalog.table(&view.table_name).ok_or_else(|| {
                format!(
                    "view {:?} (fp {fp:?}): stored table `{}` missing from catalog",
                    view.id, view.table_name
                )
            })?;
            av_analyze::verify_plan(&self.catalog, &view.plan).map_err(|e| {
                format!(
                    "view {:?} (fp {fp:?}): defining plan fails verification: {e}",
                    view.id
                )
            })?;
            if table.column_names.len()
                != view
                    .plan
                    .output_columns(&|t| self.catalog.table_columns(t))
                    .len()
            {
                return Err(format!(
                    "view {:?} (fp {fp:?}): stored table `{}` arity differs from defining plan",
                    view.id, view.table_name
                ));
            }
        }
        Ok(())
    }

    /// [`Deployment::validate`], plus an end-to-end routing check over a
    /// sample of queries. Each sample is routed through this snapshot and,
    /// when any view fired, the rewrite goes through
    /// [`av_analyze::gate_rewrite`]: only a `Proved` rewrite passes. A
    /// `Refuted` one (the witness row names the divergence) or an `Unknown`
    /// one fails the whole preflight, so a rewrite the prover cannot prove
    /// never reaches the swap. This is the full preflight gate a
    /// re-optimizer runs before swapping the snapshot in.
    pub fn validate_with(&self, sample: &[PlanRef]) -> Result<PreflightStats, String> {
        self.validate()?;
        let resolve = |t: &str| self.index.by_table(t).map(|(_, v)| v.plan.clone());
        let mut stats = PreflightStats {
            sampled: sample.len(),
            ..PreflightStats::default()
        };
        for (i, plan) in sample.iter().enumerate() {
            let (routed, hits) = self.route(plan);
            if hits == 0 {
                continue;
            }
            stats.routed += 1;
            av_analyze::gate_rewrite(&self.catalog, plan, &routed, &resolve)
                .map_err(|refused| format!("sample query {i}: routed plan {refused}"))?;
            stats.proved += 1;
        }
        Ok(stats)
    }
}

/// Source of [`DeploymentCell`] ids: unique for the life of the process,
/// so a thread's cached handle can never be taken for another cell's, even
/// one allocated where a dropped cell lived.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

/// One thread's cached snapshot: the deployment `cell` published at swap
/// `generation`.
struct Handle {
    cell: u64,
    generation: u64,
    deployment: Arc<Deployment>,
}

thread_local! {
    /// The handle [`DeploymentCell::with_current`] lends out. One per
    /// thread, whatever the number of cells.
    static HANDLE: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

/// The publication point: a single slot holding the current [`Deployment`].
/// Readers [`DeploymentCell::load`] an `Arc` and keep using it for as long
/// as they like, or borrow this thread's cached handle for one call with
/// [`DeploymentCell::with_current`]; [`DeploymentCell::swap`] replaces the
/// slot without ever blocking on readers (the write lock is held only for
/// the pointer exchange — loads that raced ahead hold their own `Arc`).
#[derive(Debug)]
pub struct DeploymentCell {
    id: u64,
    /// Swaps so far. Bumped under the write lock, so a reader that reads it
    /// under the read lock knows which snapshot the slot holds.
    generation: AtomicU64,
    current: RwLock<Arc<Deployment>>,
}

impl DeploymentCell {
    pub fn new(initial: Deployment) -> DeploymentCell {
        DeploymentCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            current: RwLock::new(Rank::DeploymentCell, Arc::new(initial)),
        }
    }

    /// The current snapshot. The returned handle stays valid (and its epoch
    /// fixed) across any number of concurrent swaps.
    pub fn load(&self) -> Arc<Deployment> {
        self.current.read().clone()
    }

    /// Run `read` on the current snapshot through this thread's cached
    /// handle, borrowed, not cloned. While this cell's generation matches
    /// the handle's, the read is one `Acquire` load; otherwise it takes the
    /// read lock once and replaces the handle. A swap that returned before
    /// this call began is always seen: the swap's generation bump
    /// happens-before the load here. A read nested inside `read` (the
    /// handle is lent out) falls back to [`DeploymentCell::load`].
    pub fn with_current<R>(&self, read: impl FnOnce(&Deployment) -> R) -> R {
        let generation = self.generation.load(Ordering::Acquire);
        HANDLE.with(|slot| {
            let Ok(mut slot) = slot.try_borrow_mut() else {
                return read(&self.load());
            };
            let handle = match slot.take() {
                Some(h) if h.cell == self.id && h.generation == generation => h,
                stale => {
                    // Drop the old handle outside the cell's lock.
                    drop(stale);
                    let current = self.current.read();
                    Handle {
                        cell: self.id,
                        generation: self.generation.load(Ordering::Acquire),
                        deployment: current.clone(),
                    }
                }
            };
            read(&slot.insert(handle).deployment)
        })
    }

    /// Publish a new snapshot, returning the one it replaced.
    pub fn swap(&self, next: Arc<Deployment>) -> Arc<Deployment> {
        let mut slot = self.current.write();
        self.generation.fetch_add(1, Ordering::Release);
        std::mem::replace(&mut *slot, next)
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }
}

impl Drop for DeploymentCell {
    /// Clears this thread's handle if it is this cell's, so the last
    /// snapshot dies with the cell instead of living on in the thread that
    /// served from it. Other threads drop theirs on their next read.
    fn drop(&mut self) {
        let _ = HANDLE.try_with(|slot| {
            if let Ok(mut slot) = slot.try_borrow_mut() {
                if slot.as_ref().is_some_and(|h| h.cell == self.id) {
                    *slot = None;
                }
            }
        });
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the test drives the type from several threads"
)]
mod tests {
    use super::*;
    use av_engine::{Column, Pricing, Table, ViewStore};
    use av_equiv::canonical_fingerprint;
    use av_plan::{Expr, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "t",
                vec![
                    ("k", Column::Int((0..60).map(|i| i % 6).collect())),
                    ("v", Column::Int((0..60).collect())),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    fn deployment_with_view() -> (Deployment, PlanRef) {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let sub = PlanBuilder::scan("t", "a")
            .filter(Expr::col("a.k").eq(Expr::int(2)))
            .project(&[("a.v", "a.v")])
            .build();
        let id = store
            .materialize(&mut cat, sub.clone(), Pricing::paper_defaults())
            .expect("materializes");
        let view = store.view(id).expect("exists").clone();
        let fp = canonical_fingerprint(&sub);
        (Deployment::new(1, Arc::new(cat), vec![(fp, view)]), sub)
    }

    #[test]
    fn routing_fires_on_matching_subtree() {
        let (dep, sub) = deployment_with_view();
        let query = PlanBuilder::from_plan(sub).count_star(&[], "c").build();
        let (routed, hits) = dep.route(&query);
        assert_eq!(hits, 1);
        assert_ne!(Fingerprint::of(&routed), Fingerprint::of(&query));
        dep.validate_with(&[query]).expect("validates");
    }

    #[test]
    fn route_memo_matches_route_and_counts_hits() {
        let (dep, sub) = deployment_with_view();
        let query = PlanBuilder::from_plan(sub).count_star(&[], "c").build();
        let fp = Fingerprint::of(&query);
        let (direct, direct_hits) = dep.route(&query);
        let (cold, cold_hits, cold_fp) = dep.route_memo(fp, &query);
        let (warm, warm_hits, warm_fp) = dep.route_memo(fp, &query);
        assert_eq!(Fingerprint::of(&direct), Fingerprint::of(&cold));
        assert_eq!(Fingerprint::of(&direct), Fingerprint::of(&warm));
        assert_eq!(cold_fp, Fingerprint::of(&direct), "memoized routed fp");
        assert_eq!(warm_fp, cold_fp);
        assert_eq!(direct_hits, cold_hits);
        assert_eq!(direct_hits, warm_hits);
        assert_eq!(dep.route_memo_stats(), (1, 1), "one miss then one hit");
        // An unrouted plan memoizes its own fingerprint as the cache key.
        let (_, none_hits, none_fp) = dep.route_memo(cold_fp, &cold);
        assert_eq!(none_hits, 0);
        assert_eq!(none_fp, cold_fp);
    }

    #[test]
    fn a_memo_hit_under_another_plans_fingerprint_routes_the_plan_it_was_given() {
        let (dep, sub) = deployment_with_view();
        let a = PlanBuilder::from_plan(sub).count_star(&[], "c").build();
        let b = PlanBuilder::scan("t", "b").count_star(&[], "n").build();
        let fp_a = a.fingerprint();
        let (_, a_hits, a_routed_fp) = dep.route_memo(fp_a, &a);
        assert_eq!(a_hits, 1, "a goes through the view");
        let (b_direct, b_hits) = dep.route(&b);
        let (routed, hits, routed_fp) = dep.route_memo(fp_a, &b);
        assert_eq!((hits, &routed), (b_hits, &b_direct), "b's own route");
        assert_eq!(routed_fp, Fingerprint::of(&b_direct));
        assert_eq!(dep.route_memo_mismatches(), 1);
        // a's entry keeps its key: a fresh `Arc` of the same tree hits it.
        let fresh = a.node().clone().into_ref();
        assert_eq!(dep.route_memo(fp_a, &fresh).2, a_routed_fp);
        assert_eq!(dep.route_memo_stats(), (1, 2));
    }

    #[test]
    fn poisoned_memo_and_cell_keep_serving() {
        let (dep, sub) = deployment_with_view();
        let query = PlanBuilder::from_plan(sub).count_star(&[], "c").build();
        let fp = Fingerprint::of(&query);
        let (direct, direct_hits) = dep.route(&query);
        let views = dep.views().to_vec();
        let cat = dep.catalog_arc();
        let cell = DeploymentCell::new(dep);
        let dep = cell.load();
        let shard = &dep.route_memo[(fp.0 % ROUTE_MEMO_SHARDS as u64) as usize];

        // One thread dies holding the query's memo shard, another holding
        // the cell's write lock.
        std::thread::scope(|s| {
            let memo = s.spawn(|| {
                let _held = shard.lock();
                panic!("holder dies with the memo shard");
            });
            let slot = s.spawn(|| {
                let _held = cell.current.write();
                panic!("holder dies with the cell");
            });
            assert!(memo.join().is_err() && slot.join().is_err());
        });
        assert!(shard.is_poisoned() && cell.current.is_poisoned());

        for _ in 0..2 {
            let (routed, hits, routed_fp) = dep.route_memo(fp, &query);
            assert_eq!(hits, direct_hits);
            assert_eq!(routed_fp, Fingerprint::of(&direct));
            assert_eq!(Fingerprint::of(&routed), routed_fp);
        }
        assert_eq!(
            dep.route_memo_stats(),
            (1, 1),
            "the poisoned shard still memoizes"
        );
        assert_eq!(cell.load().epoch(), 1);
        let old = cell.swap(Arc::new(Deployment::new(2, cat, views)));
        assert_eq!(old.epoch(), 1);
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn validate_rejects_missing_view_table() {
        let (dep, _) = deployment_with_view();
        // Rebuild the deployment against a catalog that lacks the stored
        // view table.
        let bare = Arc::new(catalog());
        let broken = Deployment::new(2, bare, dep.views().to_vec());
        let err = broken.validate().expect_err("must reject");
        assert!(err.contains("missing from catalog"), "{err}");
    }

    #[test]
    fn estimate_lookup_is_sorted_deduped_and_exact() {
        let (dep, _) = deployment_with_view();
        let view_fp = dep.views()[0].0;
        let dep = Deployment::new(3, dep.catalog_arc(), dep.views().to_vec()).with_estimates(vec![
            (Fingerprint(30), 3.0, view_fp),
            (Fingerprint(10), 1.0, view_fp),
            (Fingerprint(20), 2.0, view_fp),
            (Fingerprint(10), 99.0, view_fp), // duplicate key: first after sort wins
        ]);
        assert_eq!(dep.estimate_count(), 3);
        assert_eq!(dep.estimate_of(Fingerprint(10)), Some((1.0, view_fp)));
        assert_eq!(dep.estimate_of(Fingerprint(20)), Some((2.0, view_fp)));
        assert_eq!(dep.estimate_of(Fingerprint(30)), Some((3.0, view_fp)));
        assert_eq!(dep.estimate_of(Fingerprint(15)), None);
        let bare = Deployment::new(0, dep.catalog_arc(), Vec::new());
        assert_eq!(bare.estimate_of(Fingerprint(10)), None);
    }

    /// A cell holding a fresh copy of `deployment_with_view`'s snapshot at
    /// `epoch`.
    fn cell_at(epoch: u64) -> DeploymentCell {
        let (dep, _) = deployment_with_view();
        DeploymentCell::new(Deployment::new(
            epoch,
            dep.catalog_arc(),
            dep.views().to_vec(),
        ))
    }

    #[test]
    fn two_cells_on_one_thread_never_hand_out_each_others_deployment() {
        let (a, b) = (cell_at(1), cell_at(7));
        let (dep_a, dep_b) = (a.load(), b.load());
        for _ in 0..3 {
            assert!(a.with_current(|d| std::ptr::eq(d, &*dep_a)));
            assert!(b.with_current(|d| std::ptr::eq(d, &*dep_b)));
            assert_eq!(a.with_current(Deployment::epoch), 1);
            assert_eq!(b.with_current(Deployment::epoch), 7);
        }
    }

    #[test]
    fn dropping_a_cell_frees_the_deployment_this_thread_served_from() {
        let cell = cell_at(1);
        let served = Arc::downgrade(&cell.load());
        assert_eq!(cell.with_current(Deployment::epoch), 1);
        drop(cell);
        assert!(
            served.upgrade().is_none(),
            "the thread's cached handle outlived its cell"
        );
    }

    #[test]
    fn a_swap_is_visible_on_the_same_threads_next_read() {
        let cell = cell_at(1);
        assert_eq!(cell.with_current(Deployment::epoch), 1);
        let catalog = cell.load().catalog_arc();
        let old = cell.swap(Arc::new(Deployment::new(2, catalog, Vec::new())));
        assert_eq!(old.epoch(), 1);
        assert_eq!(cell.with_current(Deployment::epoch), 2);
        // The read that saw epoch 2 let go of the handle to epoch 1.
        let displaced = Arc::downgrade(&old);
        drop(old);
        assert!(displaced.upgrade().is_none());
    }

    #[test]
    fn a_nested_read_falls_back_instead_of_panicking() {
        let (a, b) = (cell_at(1), cell_at(7));
        let epochs = a.with_current(|outer| {
            (
                outer.epoch(),
                a.with_current(Deployment::epoch),
                b.with_current(Deployment::epoch),
            )
        });
        assert_eq!(epochs, (1, 1, 7));
        // The lent-out handle is this thread's again afterwards.
        assert_eq!(b.with_current(Deployment::epoch), 7);
    }

    #[test]
    fn swap_leaves_prior_handles_untouched() {
        let (dep, _) = deployment_with_view();
        let views = dep.views().to_vec();
        let cat = dep.catalog_arc();
        let cell = DeploymentCell::new(dep);
        let held = cell.load();
        assert_eq!(held.epoch(), 1);
        let old = cell.swap(Arc::new(Deployment::new(2, cat, views)));
        assert_eq!(old.epoch(), 1);
        assert_eq!(cell.epoch(), 2);
        // The handle loaded before the swap still serves its old epoch.
        assert_eq!(held.epoch(), 1);
        assert_eq!(held.views().len(), 1);
    }
}
