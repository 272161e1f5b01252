//! Adaptive view lifecycle: admission, eviction and query routing against a
//! byte budget.
//!
//! [`ViewLifecycleManager`] keeps the records of the *live* views only.
//! Candidates are admitted by benefit-per-byte score; when the budget is
//! exceeded, the lowest-scoring live views are evicted first — but
//! only while they score below the newcomer, so a strong incumbent is never
//! displaced by a weak arrival. Incoming queries are routed through live
//! views with `av-engine::rewrite`'s subtree rewriter, matching on
//! *canonical* fingerprints so a view admitted from one query's aliases
//! still rewrites structurally equivalent subtrees of other queries.

use crate::reopt::CandidateView;
use av_engine::{
    rewrite_top_down, view_replacement, Catalog, EngineError, MaterializedView, Pricing, ViewId,
};
use av_equiv::canonical_fingerprint;
use av_plan::{is_subquery_root, Fingerprint, PlanRef};
use std::collections::HashMap;

/// Budget and admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Total bytes the live views may occupy.
    pub byte_budget: usize,
    /// Candidates scoring below this benefit-per-byte are rejected outright.
    pub min_benefit_per_byte: f64,
    /// Bytes any single tenant's views may occupy (multi-tenant serving:
    /// one tenant's hot workload must not crowd every other tenant out of
    /// the shared budget). Views admitted without an owner are exempt.
    pub tenant_byte_budget: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            byte_budget: 64 * 1024,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        }
    }
}

/// A currently materialized, routable view.
#[derive(Debug, Clone)]
pub struct LiveView {
    pub id: ViewId,
    /// Fingerprint of the canonicalized defining plan — the admission /
    /// routing / diffing key.
    pub canonical_fp: Fingerprint,
    /// Benefit-per-byte at admission time (eviction priority; lower goes
    /// first).
    pub score: f64,
    /// Expected total benefit (dollars over the selection window).
    pub expected_benefit: f64,
    /// Tenant this view is accounted to (`None` = shared/system view).
    pub owner: Option<String>,
}

/// Outcome of an admission attempt.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// View materialized and live; lists any views evicted to make room.
    Admitted { id: ViewId, evicted: Vec<ViewId> },
    /// Scored below `min_benefit_per_byte`; nothing was materialized.
    RejectedScore { score: f64 },
    /// Could not fit within the budget without evicting better views.
    RejectedBudget { bytes: usize },
    /// The owning tenant's byte share is exhausted by views that outscore
    /// the newcomer.
    RejectedTenantBudget { tenant: String, bytes: usize },
}

/// The routing index of one view set: canonical defining fingerprint →
/// materialized record, and stored table name → the same record. Built once
/// per view set (the lifecycle manager keeps its own in step with admission
/// and eviction; `av-serve` collects one per frozen deployment), so routing
/// a plan never walks the views.
#[derive(Debug, Clone, Default)]
pub struct ViewIndex {
    by_fp: HashMap<Fingerprint, MaterializedView>,
    by_table: HashMap<String, Fingerprint>,
}

impl ViewIndex {
    /// Index `view` under the fingerprint of its canonicalized defining plan.
    fn insert(&mut self, canonical_fp: Fingerprint, view: MaterializedView) {
        self.by_table.insert(view.table_name.clone(), canonical_fp);
        self.by_fp.insert(canonical_fp, view);
    }

    /// Forget the view indexed under `canonical_fp`, returning its record.
    fn remove(&mut self, canonical_fp: Fingerprint) -> Option<MaterializedView> {
        let view = self.by_fp.remove(&canonical_fp)?;
        self.by_table.remove(&view.table_name);
        Some(view)
    }

    /// The view stored as catalog table `table`, with its canonical
    /// fingerprint.
    pub fn by_table(&self, table: &str) -> Option<(Fingerprint, &MaterializedView)> {
        let fp = *self.by_table.get(table)?;
        self.by_fp.get(&fp).map(|view| (fp, view))
    }
}

impl FromIterator<(Fingerprint, MaterializedView)> for ViewIndex {
    fn from_iter<I: IntoIterator<Item = (Fingerprint, MaterializedView)>>(views: I) -> ViewIndex {
        let mut index = ViewIndex::default();
        for (canonical_fp, view) in views {
            index.insert(canonical_fp, view);
        }
        index
    }
}

#[cfg(test)]
thread_local! {
    /// Subtrees canonicalized by [`route_through_views`] on this thread.
    static CANONICALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Rewrite `plan` through the views of `index` in one top-down pass.
/// Returns the (possibly unchanged) plan and the number of subtree
/// replacements.
///
/// At each subquery root (Aggregate, Join or Project) the subtree is
/// canonicalized and fingerprinted once and looked up in the index. A match
/// is replaced by a scan of the view's stored table, renamed positionally
/// to the subtree's own output columns, and the walk does not descend into
/// it: the outermost match wins, so a view always swallows the views it
/// contains. Without a match — or with a stale one, whose table is gone
/// from `catalog` or whose arity differs — the walk descends. The cost is
/// one canonicalization per subquery root visited, whatever the number of
/// views.
///
/// `av-serve`'s frozen deployment snapshots route through this against an
/// immutable `Arc<Catalog>`; [`crate::reopt::freeze_estimates`] routes the
/// planner's scratch set through it before publication.
pub fn route_through_views(
    catalog: &Catalog,
    index: &ViewIndex,
    plan: &PlanRef,
) -> (PlanRef, usize) {
    if index.by_fp.is_empty() {
        return (plan.clone(), 0);
    }
    let mut hits = 0;
    let routed = rewrite_top_down(plan, &mut |subtree| {
        if !is_subquery_root(subtree) {
            return None;
        }
        #[cfg(test)]
        CANONICALIZED.with(|n| n.set(n.get() + 1));
        let view = index.by_fp.get(&canonical_fingerprint(subtree))?;
        let replacement = view_replacement(catalog, subtree, view)?;
        hits += 1;
        Some(replacement)
    });
    // Debug builds gate every routed plan: routing matches canonical
    // fingerprints, so its rewrite must be proved, and a refuted or unproved
    // one is a hard bug.
    #[cfg(debug_assertions)]
    #[allow(
        clippy::panic,
        reason = "debug gate: a canonical-fingerprint route is always provable"
    )]
    if hits > 0 {
        let resolve = |t: &str| index.by_table(t).map(|(_, v)| v.plan.clone());
        if let Err(refused) = av_analyze::gate_rewrite(catalog, plan, &routed, &resolve) {
            panic!("view routing produced a rewrite that {refused}");
        }
    }
    (routed, hits)
}

/// What [`ViewLifecycleManager::apply`] did to the live set.
#[derive(Debug, Default)]
pub struct Applied {
    /// Newly live views, admission order.
    pub admitted: Vec<ViewId>,
    /// Views that left the live set: dropped by the plan or displaced by a
    /// stronger admission.
    pub evicted: usize,
    /// Candidates the budget/score screen turned away.
    pub rejected: usize,
}

/// Manages the set of materialized views over time. Cloning is cheap
/// (view records share their plans; table data lives in the catalog), so a
/// caller that must be able to back out applies changes to a clone of the
/// manager and of the catalog and commits both or neither.
#[derive(Debug, Clone, Default)]
pub struct ViewLifecycleManager {
    config: LifecycleConfig,
    /// Id of the next view materialized: every attempt takes one, so a
    /// view's table `__view_<id>` is never reused.
    next_id: usize,
    live: Vec<LiveView>,
    /// Routing index of `live` and the only home of their records, kept in
    /// step by `admit_owned` and `remove_live`.
    index: ViewIndex,
}

impl ViewLifecycleManager {
    pub fn new(config: LifecycleConfig) -> ViewLifecycleManager {
        ViewLifecycleManager {
            config,
            next_id: 0,
            live: Vec::new(),
            index: ViewIndex::default(),
        }
    }

    /// Live views, admission order.
    pub fn live(&self) -> &[LiveView] {
        &self.live
    }

    /// Canonical fingerprints of the live set.
    pub fn live_fingerprints(&self) -> Vec<Fingerprint> {
        self.live.iter().map(|v| v.canonical_fp).collect()
    }

    /// Total bytes currently occupied by live views.
    fn live_bytes(&self) -> usize {
        self.live
            .iter()
            .filter_map(|l| self.index.by_fp.get(&l.canonical_fp))
            .map(|v| v.byte_size)
            .sum()
    }

    /// Is a structurally equivalent view already live?
    fn has_live(&self, canonical_fp: Fingerprint) -> bool {
        self.index.by_fp.contains_key(&canonical_fp)
    }

    /// Bytes currently occupied by a tenant's views (`None` = unowned).
    pub fn live_bytes_of(&self, owner: Option<&str>) -> usize {
        self.live
            .iter()
            .filter(|l| l.owner.as_deref() == owner)
            .filter_map(|l| self.index.by_fp.get(&l.canonical_fp))
            .map(|v| v.byte_size)
            .sum()
    }

    /// Try to admit a view defined by `plan` (whose canonicalized form has
    /// fingerprint `canonical_fp`) with the given expected benefit.
    ///
    /// The view is materialized first — its byte size is only known after
    /// execution — and torn down again if it cannot be admitted.
    pub fn admit(
        &mut self,
        catalog: &mut Catalog,
        plan: PlanRef,
        canonical_fp: Fingerprint,
        expected_benefit: f64,
        pricing: Pricing,
    ) -> Result<AdmitOutcome, EngineError> {
        self.admit_owned(catalog, plan, canonical_fp, expected_benefit, pricing, None)
    }

    /// [`ViewLifecycleManager::admit`] with tenant accounting: the view's
    /// bytes are charged against `owner`'s share
    /// ([`LifecycleConfig::tenant_byte_budget`]) in addition to the global
    /// budget. A tenant over its share may displace its *own* weaker views,
    /// never another tenant's.
    pub fn admit_owned(
        &mut self,
        catalog: &mut Catalog,
        plan: PlanRef,
        canonical_fp: Fingerprint,
        expected_benefit: f64,
        pricing: Pricing,
        owner: Option<&str>,
    ) -> Result<AdmitOutcome, EngineError> {
        if self.has_live(canonical_fp) {
            return Ok(AdmitOutcome::RejectedScore {
                score: f64::INFINITY,
            });
        }
        let view = MaterializedView::materialize(catalog, plan, pricing, ViewId(self.next_id))?;
        self.next_id += 1;
        let (id, bytes) = (view.id, view.byte_size);
        // An empty result still occupies a catalog slot; score it by a
        // 1-byte floor so the benefit ordering stays finite.
        let score = expected_benefit / bytes.max(1) as f64;

        if score < self.config.min_benefit_per_byte || expected_benefit <= 0.0 {
            catalog.drop_table(&view.table_name);
            return Ok(AdmitOutcome::RejectedScore { score });
        }
        if bytes > self.config.byte_budget {
            catalog.drop_table(&view.table_name);
            return Ok(AdmitOutcome::RejectedBudget { bytes });
        }
        if let Some(tenant) = owner {
            if bytes > self.config.tenant_byte_budget {
                catalog.drop_table(&view.table_name);
                return Ok(AdmitOutcome::RejectedTenantBudget {
                    tenant: tenant.to_string(),
                    bytes,
                });
            }
        }

        let mut evicted = Vec::new();
        // Tenant share first: a tenant over budget may only displace its
        // own weaker views, so the failure mode stays contained to the
        // tenant that caused it.
        if let Some(tenant) = owner {
            while self.live_bytes_of(owner) + bytes > self.config.tenant_byte_budget {
                let weakest = self
                    .live
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.owner.as_deref() == owner)
                    .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
                    .map(|(i, v)| (i, v.score));
                match weakest {
                    Some((i, s)) if s < score => evicted.push(self.remove_live(catalog, i)),
                    _ => {
                        catalog.drop_table(&view.table_name);
                        return Ok(AdmitOutcome::RejectedTenantBudget {
                            tenant: tenant.to_string(),
                            bytes,
                        });
                    }
                }
            }
        }

        // Evict lowest-scoring live views while over budget — but never one
        // scoring at or above the newcomer.
        while self.live_bytes() + bytes > self.config.byte_budget {
            let weakest = self
                .live
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
                .map(|(i, v)| (i, v.score));
            match weakest {
                Some((i, s)) if s < score => evicted.push(self.remove_live(catalog, i)),
                _ => {
                    // Undo: remaining residents all outscore the newcomer.
                    // Any tenant-share evictions above stand — they were
                    // legitimate under the tenant policy.
                    catalog.drop_table(&view.table_name);
                    return Ok(AdmitOutcome::RejectedBudget { bytes });
                }
            }
        }

        self.index.insert(canonical_fp, view);
        self.live.push(LiveView {
            id,
            canonical_fp,
            score,
            expected_benefit,
            owner: owner.map(|s| s.to_string()),
        });
        Ok(AdmitOutcome::Admitted { id, evicted })
    }

    /// Apply one re-optimization's outcome: evict every `drop` fingerprint
    /// that is live, then admit each of `create` in order, charged to
    /// `owner`. The one place a selection turns into catalog changes.
    pub fn apply(
        &mut self,
        catalog: &mut Catalog,
        drop: &[Fingerprint],
        create: &[CandidateView],
        pricing: Pricing,
        owner: Option<&str>,
    ) -> Result<Applied, EngineError> {
        let mut applied = Applied::default();
        for fp in drop {
            applied.evicted += usize::from(self.evict(catalog, *fp).is_some());
        }
        for cand in create {
            let outcome = self.admit_owned(
                catalog,
                cand.plan.clone(),
                cand.canonical_fp,
                cand.expected_benefit,
                pricing,
                owner,
            )?;
            match outcome {
                AdmitOutcome::Admitted { id, evicted } => {
                    applied.admitted.push(id);
                    applied.evicted += evicted.len();
                }
                AdmitOutcome::RejectedScore { .. }
                | AdmitOutcome::RejectedBudget { .. }
                | AdmitOutcome::RejectedTenantBudget { .. } => applied.rejected += 1,
            }
        }
        Ok(applied)
    }

    /// Evict the live view with the given canonical fingerprint (no-op if
    /// not live). Returns the evicted id.
    fn evict(&mut self, catalog: &mut Catalog, canonical_fp: Fingerprint) -> Option<ViewId> {
        let i = self
            .live
            .iter()
            .position(|v| v.canonical_fp == canonical_fp)?;
        Some(self.remove_live(catalog, i))
    }

    /// Take `live[i]` out of the live set, the index and the catalog.
    fn remove_live(&mut self, catalog: &mut Catalog, i: usize) -> ViewId {
        let victim = self.live.remove(i);
        if let Some(view) = self.index.remove(victim.canonical_fp) {
            catalog.drop_table(&view.table_name);
        }
        victim.id
    }

    /// The routing index of the live set.
    pub fn index(&self) -> &ViewIndex {
        &self.index
    }

    /// The live views' materialized records paired with their canonical
    /// fingerprints, admission order — what a deployment freezes.
    pub fn live_views(&self) -> Vec<(Fingerprint, MaterializedView)> {
        self.live
            .iter()
            .filter_map(|l| {
                let view = self.index.by_fp.get(&l.canonical_fp)?;
                Some((l.canonical_fp, view.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_engine::{rewrite_subtree_with_view, Executor, Pricing};
    use av_plan::{enumerate_subqueries, PlanBuilder};
    use av_workload::cloud::{mini, wk2};
    use av_workload::job::job_workload;
    use av_workload::Workload;

    /// The router this module had before [`ViewIndex`]: every view, largest
    /// first, against every subquery of the plan — O(views × subqueries)
    /// canonicalizations. Kept as the oracle [`route_through_views`] is
    /// tested against.
    fn route_per_view(
        catalog: &Catalog,
        views: &[(Fingerprint, MaterializedView)],
        plan: &PlanRef,
    ) -> (PlanRef, usize) {
        // Prefer larger views first so an outer replacement swallows inner
        // candidates.
        let mut order: Vec<&(Fingerprint, MaterializedView)> = views.iter().collect();
        order.sort_by_key(|(_, v)| std::cmp::Reverse(v.plan.node_count()));

        let mut current = plan.clone();
        let mut hits = 0;
        for (canonical_fp, view) in order {
            // Re-enumerate each round: a previous replacement changes the
            // remaining subtrees.
            for sub in enumerate_subqueries(&current) {
                if canonical_fingerprint(&sub.plan) != *canonical_fp {
                    continue;
                }
                if let Some((next, n)) =
                    rewrite_subtree_with_view(catalog, &current, &sub.plan, view)
                {
                    current = next;
                    hits += n;
                }
            }
        }
        (current, hits)
    }

    /// Subtrees [`route_through_views`] canonicalizes for one call.
    fn canonicalized_by(route: impl FnOnce() -> (PlanRef, usize)) -> ((PlanRef, usize), usize) {
        let before = CANONICALIZED.with(|n| n.get());
        let out = route();
        (out, CANONICALIZED.with(|n| n.get()) - before)
    }

    /// Subquery roots a top-down pass reaches when it stops at every root
    /// whose canonical fingerprint is in `matched`.
    fn roots_reached(plan: &PlanRef, matched: &[Fingerprint]) -> usize {
        let root = is_subquery_root(plan);
        if root && matched.contains(&canonical_fingerprint(plan)) {
            return 1;
        }
        let below: usize = plan
            .children()
            .into_iter()
            .map(|c| roots_reached(c, matched))
            .sum();
        usize::from(root) + below
    }

    /// The catalog and view set `AutoViewSystem::run` + `publish` admit for
    /// a workload.
    fn published(w: &Workload) -> (Catalog, Vec<(Fingerprint, MaterializedView)>) {
        let mut sys = av_core::AutoViewSystem::new(
            w.catalog.clone(),
            w.plans(),
            av_core::AutoViewConfig {
                estimator: av_core::EstimatorKind::Optimizer,
                selector: av_select::SelectorKind::IterView(av_select::IterViewConfig::default()),
                max_training_pairs: 30,
                ..av_core::AutoViewConfig::default()
            },
        );
        sys.run().expect("pipeline runs");
        let mut config = av_serve::ServeConfig::default();
        config.lifecycle.byte_budget = usize::MAX;
        let (server, _) = sys.publish(config, None).expect("publishes");
        let deployment = server.current();
        (deployment.catalog().clone(), deployment.views().to_vec())
    }

    #[test]
    fn index_router_agrees_with_the_per_view_oracle() {
        for (name, w) in [
            ("mini", mini(21)),
            ("job", job_workload(0.05, 7)),
            ("wk2", wk2(0.002, 7)),
        ] {
            let (catalog, views) = published(&w);
            assert!(!views.is_empty(), "{name}: publish admits views");
            let index: ViewIndex = views.iter().cloned().collect();
            let plans = w.plans();
            // One key: every subtree the analyzer matches to a candidate has
            // the candidate's canonical fingerprint, the key routing uses.
            let analysis = av_equiv::analyze_workload(&plans);
            for (i, matches) in analysis.query_matches.iter().enumerate() {
                for m in matches {
                    let subtree =
                        av_plan::find_subtree(&plans[i], m.subtree_fp).expect("own subtree");
                    assert_eq!(
                        canonical_fingerprint(&subtree),
                        Fingerprint::of(&analysis.candidates[m.candidate].canonical),
                        "{name} plan {i}: clustering key == routing key"
                    );
                }
            }
            let mut total_hits = 0;
            for (i, plan) in plans.iter().enumerate() {
                let (routed, hits) = route_through_views(&catalog, &index, plan);
                let (expected, expected_hits) = route_per_view(&catalog, &views, plan);
                assert_eq!(hits, expected_hits, "{name} plan {i}: hit count");
                assert_eq!(
                    Fingerprint::of(&routed),
                    Fingerprint::of(&expected),
                    "{name} plan {i}: routed plan"
                );
                total_hits += hits;
            }
            assert!(
                total_hits > 0,
                "{name}: the admitted views route the workload"
            );
        }
    }

    /// A manager with every candidate of `mini(seed)`'s analysis live.
    fn all_candidates_live(seed: u64) -> (Workload, Catalog, ViewLifecycleManager) {
        let w = mini(seed);
        let mut analyzer = av_equiv::Analyzer::new();
        analyzer.min_query_frequency = av_equiv::MIN_SHARED_QUERIES;
        let analysis = analyzer.analyze(&w.plans());
        let mut catalog = w.catalog.clone();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            ..LifecycleConfig::default()
        });
        for cand in &analysis.candidates {
            let fp = Fingerprint::of(&cand.canonical);
            mgr.admit(
                &mut catalog,
                cand.plan.clone(),
                fp,
                1.0,
                Pricing::paper_defaults(),
            )
            .expect("materializes");
        }
        assert!(!mgr.live().is_empty(), "mini has candidates");
        (w, catalog, mgr)
    }

    #[test]
    fn routing_work_is_the_plans_roots_whatever_the_view_count() {
        let (w, catalog, mgr) = all_candidates_live(23);
        // Ten decoys per live view: single-column projections under filters
        // no workload query carries.
        let mut crowded_catalog = catalog.clone();
        let mut crowded = mgr.clone();
        let table = w
            .catalog
            .table_names()
            .min()
            .expect("has tables")
            .to_string();
        let col = format!(
            "d.{}",
            w.catalog.table(&table).expect("exists").column_names[0]
        );
        let decoys = 10 * mgr.live().len();
        for k in 0..decoys {
            let plan = PlanBuilder::scan(&table, "d")
                .filter(av_plan::Expr::col(&col).eq(av_plan::Expr::int(-1_000_000 - k as i64)))
                .project(&[(col.as_str(), col.as_str())])
                .build();
            let fp = canonical_fingerprint(&plan);
            crowded
                .admit(
                    &mut crowded_catalog,
                    plan,
                    fp,
                    1.0,
                    Pricing::paper_defaults(),
                )
                .expect("materializes");
        }
        assert_eq!(crowded.live().len(), mgr.live().len() + decoys);

        let live = mgr.live_fingerprints();
        let mut total_hits = 0;
        for plan in &w.plans() {
            let ((routed, hits), n) =
                canonicalized_by(|| route_through_views(&catalog, mgr.index(), plan));
            assert_eq!(n, roots_reached(plan, &live));
            assert!(n <= enumerate_subqueries(plan).len());
            let ((crowded_routed, crowded_hits), crowded_n) =
                canonicalized_by(|| route_through_views(&crowded_catalog, crowded.index(), plan));
            assert_eq!(crowded_n, n, "decoys add no routing work");
            assert_eq!(crowded_hits, hits);
            assert_eq!(Fingerprint::of(&crowded_routed), Fingerprint::of(&routed));
            total_hits += hits;
        }
        assert!(total_hits > 0);
    }

    #[test]
    fn stale_outer_match_descends_to_an_inner_view() {
        let w = mini(22);
        let mut catalog = w.catalog.clone();
        let table = w
            .catalog
            .table_names()
            .min()
            .expect("has tables")
            .to_string();
        let col = format!(
            "x.{}",
            w.catalog.table(&table).expect("exists").column_names[0]
        );
        let inner = PlanBuilder::scan(&table, "x")
            .project(&[(col.as_str(), col.as_str())])
            .build();
        let outer = PlanBuilder::from_plan(inner.clone())
            .count_star(&[], "n")
            .build();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            ..LifecycleConfig::default()
        });
        for plan in [&inner, &outer] {
            let fp = canonical_fingerprint(plan);
            mgr.admit(
                &mut catalog,
                plan.clone(),
                fp,
                1.0,
                Pricing::paper_defaults(),
            )
            .expect("materializes");
        }
        let views = mgr.live_views();
        let (inner_view, outer_view) = (&views[0].1, &views[1].1);

        // Outermost match wins: one canonicalization, no descent.
        let ((routed, hits), n) =
            canonicalized_by(|| route_through_views(&catalog, mgr.index(), &outer));
        assert_eq!((hits, n), (1, 1));
        assert_eq!(routed.base_tables(), vec![outer_view.table_name.clone()]);

        // The outer view's table leaves the catalog behind the manager's
        // back: its index entry is stale, so routing descends and the
        // inner view fires.
        catalog
            .drop_table(&outer_view.table_name)
            .expect("was stored");
        let ((routed, hits), n) =
            canonicalized_by(|| route_through_views(&catalog, mgr.index(), &outer));
        assert_eq!((hits, n), (1, 2));
        assert_eq!(routed.base_tables(), vec![inner_view.table_name.clone()]);
        let exec = Executor::new(&catalog, Pricing::paper_defaults());
        assert_eq!(
            exec.run(&routed).expect("routed runs").batch,
            exec.run(&outer).expect("direct runs").batch
        );
    }

    /// A (query, shared-subtree) pair from the mini workload's analysis.
    fn shared_candidate() -> (av_workload::Workload, PlanRef, Fingerprint) {
        let w = mini(21);
        let plans = w.plans();
        let mut analyzer = av_equiv::Analyzer::new();
        analyzer.min_query_frequency = av_equiv::MIN_SHARED_QUERIES;
        let analysis = analyzer.analyze(&plans);
        let cand = analysis.candidates.first().expect("mini has candidates");
        let fp = Fingerprint::of(&cand.canonical);
        (w, cand.plan.clone(), fp)
    }

    #[test]
    fn admit_then_route_rewrites_matching_queries() {
        let (w, cand_plan, fp) = shared_candidate();
        let mut catalog = w.catalog.clone();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        let out = mgr
            .admit(&mut catalog, cand_plan, fp, 1.0, Pricing::paper_defaults())
            .expect("materializes");
        assert!(matches!(out, AdmitOutcome::Admitted { .. }));
        assert_eq!(mgr.live().len(), 1);

        let exec = Executor::new(&catalog, Pricing::paper_defaults());
        let mut total_hits = 0;
        for q in &w.plans() {
            let (rewritten, hits) = route_through_views(&catalog, mgr.index(), q);
            if hits > 0 {
                total_hits += hits;
                // Routed queries must return identical rows.
                let orig = exec.run(q).expect("orig runs");
                let new = exec.run(&rewritten).expect("rewritten runs");
                assert_eq!(orig.batch, new.batch);
                assert!(
                    exec.cost(&rewritten).expect("cost") <= exec.cost(q).expect("cost") + 1e-12
                );
            }
        }
        assert!(
            total_hits >= 2,
            "a shared candidate must route >= 2 queries"
        );
    }

    #[test]
    fn duplicate_admission_is_rejected() {
        let (w, cand_plan, fp) = shared_candidate();
        let mut catalog = w.catalog.clone();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig::default());
        mgr.admit(
            &mut catalog,
            cand_plan.clone(),
            fp,
            1.0,
            Pricing::paper_defaults(),
        )
        .expect("first");
        let out = mgr
            .admit(&mut catalog, cand_plan, fp, 1.0, Pricing::paper_defaults())
            .expect("second");
        assert!(matches!(out, AdmitOutcome::RejectedScore { .. }));
        assert_eq!(mgr.live().len(), 1);
    }

    #[test]
    fn nonpositive_benefit_is_rejected_and_table_dropped() {
        let (w, cand_plan, fp) = shared_candidate();
        let mut catalog = w.catalog.clone();
        let before = catalog.len();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig::default());
        let out = mgr
            .admit(&mut catalog, cand_plan, fp, -0.5, Pricing::paper_defaults())
            .expect("attempt");
        assert!(matches!(out, AdmitOutcome::RejectedScore { .. }));
        assert!(mgr.live().is_empty());
        assert_eq!(catalog.len(), before, "rejected view leaves no table");
    }

    #[test]
    fn rejected_admissions_leave_no_record_but_keep_their_ids() {
        let (w, cand_plan, fp) = shared_candidate();
        let mut catalog = w.catalog.clone();
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig::default());
        let k = 3;
        for _ in 0..k {
            let out = mgr
                .admit(
                    &mut catalog,
                    cand_plan.clone(),
                    fp,
                    -0.5,
                    Pricing::paper_defaults(),
                )
                .expect("attempt");
            assert!(matches!(out, AdmitOutcome::RejectedScore { .. }));
        }
        let state = format!("{mgr:?}");
        assert!(
            !state.contains("__view_"),
            "a rejected view's record is retained: {state}"
        );
        let out = mgr
            .admit(&mut catalog, cand_plan, fp, 1.0, Pricing::paper_defaults())
            .expect("admits");
        assert!(matches!(out, AdmitOutcome::Admitted { id: ViewId(3), .. }));
        let views = mgr.live_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].1.table_name, format!("__view_{k}"));
    }

    #[test]
    fn budget_evicts_weakest_first_and_protects_incumbents() {
        // Two tiny single-table views over distinct tables so byte sizes are
        // comparable and both would fit alone.
        let w = mini(22);
        let mut catalog = w.catalog.clone();
        let table_names: Vec<String> = {
            let mut names: Vec<String> = catalog.table_names().map(|s| s.to_string()).collect();
            names.sort();
            names
        };
        // Project the first column of each table so the materialized
        // results are non-empty (a zero-byte view makes any budget moot).
        let mk = |catalog: &Catalog, t: &str| {
            let col = format!("x.{}", catalog.table(t).expect("exists").column_names[0]);
            PlanBuilder::scan(t, "x")
                .project(&[(col.as_str(), col.as_str())])
                .build()
        };
        let plan_a = mk(&catalog, &table_names[0]);
        let plan_b = mk(&catalog, &table_names[1]);
        let fp_a = canonical_fingerprint(&plan_a);
        let fp_b = canonical_fingerprint(&plan_b);
        assert_ne!(fp_a, fp_b);

        // Budget of one view's bytes (empty results share a size floor).
        let mut probe = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        probe
            .admit(
                &mut catalog,
                plan_a.clone(),
                fp_a,
                1.0,
                Pricing::paper_defaults(),
            )
            .expect("probe");
        let one_view_bytes = probe.live_bytes();
        probe.evict(&mut catalog, fp_a);

        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: one_view_bytes,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        mgr.admit(
            &mut catalog,
            plan_a.clone(),
            fp_a,
            1.0,
            Pricing::paper_defaults(),
        )
        .expect("a admitted");

        // A weaker candidate cannot displace the incumbent...
        let out = mgr
            .admit(
                &mut catalog,
                plan_b.clone(),
                fp_b,
                0.5,
                Pricing::paper_defaults(),
            )
            .expect("b attempt");
        assert!(matches!(out, AdmitOutcome::RejectedBudget { .. }));
        assert_eq!(mgr.live_fingerprints(), vec![fp_a]);

        // ...but a stronger one evicts it.
        let out = mgr
            .admit(&mut catalog, plan_b, fp_b, 2.0, Pricing::paper_defaults())
            .expect("b retry");
        match out {
            AdmitOutcome::Admitted { evicted, .. } => assert_eq!(evicted.len(), 1),
            other => panic!("expected admission, got {other:?}"),
        }
        assert_eq!(mgr.live_fingerprints(), vec![fp_b]);
        assert!(mgr.live_bytes() <= one_view_bytes);
    }

    #[test]
    fn tenant_share_contains_eviction_to_owner() {
        let w = mini(22);
        let mut catalog = w.catalog.clone();
        let table_names: Vec<String> = {
            let mut names: Vec<String> = catalog.table_names().map(|s| s.to_string()).collect();
            names.sort();
            names
        };
        let mk = |catalog: &Catalog, t: &str| {
            let col = format!("x.{}", catalog.table(t).expect("exists").column_names[0]);
            PlanBuilder::scan(t, "x")
                .project(&[(col.as_str(), col.as_str())])
                .build()
        };
        let plan_a = mk(&catalog, &table_names[0]);
        let plan_b = mk(&catalog, &table_names[1]);
        let fp_a = canonical_fingerprint(&plan_a);
        let fp_b = canonical_fingerprint(&plan_b);

        // Measure one view's bytes to size the tenant share.
        let mut probe = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        probe
            .admit(
                &mut catalog,
                plan_a.clone(),
                fp_a,
                1.0,
                Pricing::paper_defaults(),
            )
            .expect("probe");
        let one_view_bytes = probe.live_bytes();
        probe.evict(&mut catalog, fp_a);

        // Global budget fits both; tenant share fits only one.
        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: one_view_bytes,
        });
        let out = mgr
            .admit_owned(
                &mut catalog,
                plan_a.clone(),
                fp_a,
                1.0,
                Pricing::paper_defaults(),
                Some("acme"),
            )
            .expect("a admitted");
        assert!(matches!(out, AdmitOutcome::Admitted { .. }));
        assert_eq!(mgr.live_bytes_of(Some("acme")), one_view_bytes);

        // A weaker view from the same tenant is turned away with the
        // tenant-specific rejection — the global budget had room.
        let out = mgr
            .admit_owned(
                &mut catalog,
                plan_b.clone(),
                fp_b,
                0.5,
                Pricing::paper_defaults(),
                Some("acme"),
            )
            .expect("b attempt");
        match out {
            AdmitOutcome::RejectedTenantBudget { tenant, .. } => assert_eq!(tenant, "acme"),
            other => panic!("expected tenant rejection, got {other:?}"),
        }

        // A stronger view from the same tenant displaces only that tenant's
        // weaker incumbent.
        let out = mgr
            .admit_owned(
                &mut catalog,
                plan_b.clone(),
                fp_b,
                2.0,
                Pricing::paper_defaults(),
                Some("acme"),
            )
            .expect("b retry");
        match out {
            AdmitOutcome::Admitted { evicted, .. } => assert_eq!(evicted.len(), 1),
            other => panic!("expected admission, got {other:?}"),
        }
        assert_eq!(mgr.live_fingerprints(), vec![fp_b]);

        // A different tenant is unaffected by acme's exhausted share.
        let out = mgr
            .admit_owned(
                &mut catalog,
                plan_a,
                fp_a,
                0.1,
                Pricing::paper_defaults(),
                Some("globex"),
            )
            .expect("other tenant");
        assert!(matches!(out, AdmitOutcome::Admitted { .. }));
        assert_eq!(mgr.live_bytes_of(Some("globex")), one_view_bytes);
    }
}
