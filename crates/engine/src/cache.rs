//! Fingerprint-keyed execution-result cache.
//!
//! The learning loops re-execute the same plans constantly: `av-core`'s
//! ground-truth measurement runs every (query, view) pair, and `av-online`'s
//! re-optimization dry-runs each candidate selection against the window.
//! Execution is deterministic, so a plan's result only changes when the
//! catalog changes — and every catalog mutation (table added, view
//! materialized or dropped) bumps [`Catalog::epoch`]. Results are keyed on
//! `(plan fingerprint, catalog epoch)`: a stale entry can never be returned,
//! it simply stops being reachable after the epoch bump. The fingerprint is
//! a 64-bit hash, so each entry also keeps the plan it was computed for, and
//! a hit counts only for that plan (the same `Arc`, else a structurally
//! equal tree); a colliding plan misses and runs itself.
//!
//! Each result is stored once: an entry holds the `Arc<RecordBatch>` the
//! miss produced, and a hit hands out that same allocation (a refcount bump
//! under the shard lock, no column copy). [`ExecCache::report`] and
//! [`ExecCache::cost`] read the entry's report and take no reference to its
//! batch.
//!
//! The cache is interior-mutable (`&self` everywhere) and thread-safe, so
//! one instance can serve a whole preprocessing pipeline. A miss executes on
//! the thread that asked; concurrent misses on one key compute the identical
//! result twice rather than wait on each other.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec::{ExecResult, Executor};
use crate::meter::{ExecutionReport, Pricing};
use av_plan::{Fingerprint, Plan, PlanRef};
use av_sched::{Mutex, Rank};
use std::collections::HashMap;

/// Hit/miss/evict counters, readable at any time via [`ExecCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries shed by the capacity policy (stale-epoch retain or clear).
    pub evictions: u64,
    /// Result payload bytes those shed entries were holding — the memory
    /// actually reclaimed, which `evictions` alone can't show when entry
    /// sizes are skewed.
    pub evicted_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum (used to aggregate shard stats).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            evicted_bytes: self.evicted_bytes + other.evicted_bytes,
        }
    }
}

/// `(plan fingerprint, catalog epoch)`.
type CacheKey = (Fingerprint, u64);

#[derive(Debug, Default)]
struct CacheState {
    /// Each result beside the plan it was computed for.
    map: HashMap<CacheKey, (PlanRef, ExecResult)>,
    stats: CacheStats,
    /// Lookups whose key held another plan's result (each also a miss).
    mismatches: u64,
}

/// One independently locked slice of the cache. Its [`CacheStats`] are the
/// only lookup/eviction counters: telemetry pulls them through
/// [`ExecCache::shard_stats`] at snapshot time instead of being pushed a
/// copy per lookup.
#[derive(Debug)]
struct CacheShard {
    state: Mutex<CacheState>,
}

/// A caching wrapper around [`Executor`]: same results, same reports, but a
/// repeated `(plan, catalog epoch)` pair returns the first run's result,
/// sharing its batch allocation.
///
/// The cache is split into `N` fingerprint-selected shards, each behind its
/// own lock, so concurrent serving sessions stop serializing on one mutex;
/// one shard is the unsharded case. The shard of a plan is a pure function
/// of its fingerprint, so repeat executions always land on the same shard
/// and the hit/miss semantics are identical for every shard count.
/// Per-shard balance (a serving health signal) comes from
/// [`ExecCache::shard_stats`], aggregated numbers from [`ExecCache::stats`].
#[derive(Debug)]
pub struct ExecCache {
    pricing: Pricing,
    /// Entry cap of each shard.
    shard_entries: usize,
    shards: Vec<CacheShard>,
}

/// Older name of the multi-shard [`ExecCache`], kept for callers that spell
/// it (`pathbench`'s pinned surface).
pub type ShardedExecCache = ExecCache;

impl ExecCache {
    /// Default shard count for concurrent use: enough locks that 64 clients
    /// rarely collide, small enough that per-shard capacity stays useful.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Default total entry cap.
    const DEFAULT_ENTRIES: usize = 4096;

    /// New cache with `shards` independent locks (minimum 1) and a default
    /// entry cap.
    pub fn new(pricing: Pricing, shards: usize) -> ExecCache {
        let n = shards.max(1);
        ExecCache {
            pricing,
            shard_entries: (Self::DEFAULT_ENTRIES / n).max(1),
            shards: (0..n)
                .map(|_| CacheShard {
                    state: Mutex::new(Rank::CacheShard, CacheState::default()),
                })
                .collect(),
        }
    }

    /// Cap the *total* entry count; each shard gets an equal slice
    /// (minimum 1).
    pub fn with_capacity(mut self, max_entries: usize) -> ExecCache {
        self.shard_entries = (max_entries / self.shards.len()).max(1);
        self
    }

    /// The pricing model every cached execution is metered under.
    pub fn pricing(&self) -> Pricing {
        self.pricing
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a fingerprint maps to.
    pub fn shard_of(&self, fingerprint: Fingerprint) -> usize {
        (fingerprint.0 % self.shards.len() as u64) as usize
    }

    /// Execute `plan` against `catalog`, reusing a cached result when this
    /// exact plan already ran at the catalog's current epoch.
    pub fn run(&self, catalog: &Catalog, plan: &PlanRef) -> Result<ExecResult, EngineError> {
        self.run_keyed_hit_dop(plan.fingerprint(), catalog, plan, None)
            .map(|(r, _)| r)
    }

    /// [`ExecCache::run`] under a caller-supplied key: `fingerprint` should
    /// be `plan`'s (the server passes the routed fingerprint its route memo
    /// holds), and an entry under it serves `plan` only if it was computed
    /// for that plan. Also reports whether the result came from the
    /// cache, so serving-layer telemetry can attribute hit/miss per request
    /// without diffing counter snapshots. A miss runs on the calling
    /// thread. The `_dop` hint is ignored: it stays for callers that spell
    /// `Some(1)` (`pathbench`'s pinned cache-hit probe), as the
    /// [`ShardedExecCache`] alias does.
    pub fn run_keyed_hit_dop(
        &self,
        fingerprint: Fingerprint,
        catalog: &Catalog,
        plan: &PlanRef,
        _dop: Option<usize>,
    ) -> Result<(ExecResult, bool), EngineError> {
        self.run_reading(fingerprint, catalog, plan, ExecResult::clone)
    }

    /// Execute and return only the execution report, cached. Reads the
    /// entry's report under the shard lock and takes no reference to its
    /// batch.
    pub fn report(
        &self,
        catalog: &Catalog,
        plan: &PlanRef,
    ) -> Result<ExecutionReport, EngineError> {
        self.run_reading(plan.fingerprint(), catalog, plan, |r| r.report)
            .map(|(report, _)| report)
    }

    /// Execute and return only the cost in dollars (`A_{β,γ}`), cached.
    pub fn cost(&self, catalog: &Catalog, plan: &PlanRef) -> Result<f64, EngineError> {
        Ok(self.report(catalog, plan)?.cost_dollars)
    }

    /// The cache protocol behind every entry point: `read` sees the cached
    /// result (under the shard lock on a hit, before the insert on a miss),
    /// and its output is returned with whether the result was a hit.
    fn run_reading<T>(
        &self,
        fingerprint: Fingerprint,
        catalog: &Catalog,
        plan: &PlanRef,
        read: impl FnOnce(&ExecResult) -> T,
    ) -> Result<(T, bool), EngineError> {
        let shard = &self.shards[self.shard_of(fingerprint)];
        let key = (fingerprint, catalog.epoch());
        let read = match shard.lookup(&key, plan, read) {
            Ok(hit) => return Ok((hit, true)),
            Err(read) => read,
        };

        // Execute outside the lock; concurrent misses on the same key just
        // compute the identical result twice.
        let result = Executor::new(catalog, self.pricing).run(plan)?;
        let out = read(&result);
        shard.insert(key, plan, result, self.shard_entries);
        Ok((out, false))
    }

    /// Lookups whose key held a result computed for another plan: a 64-bit
    /// fingerprint collision, or a caller keying a plan with a fingerprint
    /// that is not its own. Each ran its own plan as a miss.
    pub fn mismatches(&self) -> u64 {
        self.shards.iter().map(|s| s.state.lock().mismatches).sum()
    }

    /// Aggregated hit/miss/evict counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Per-shard counters, shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.state.lock().stats).collect()
    }

    /// Number of cached results (across all shards and epochs still held).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().map.len()).sum()
    }

    /// True iff no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CacheShard {
    /// `read` applied to the result cached under `key` for `plan`, counting
    /// the hit or miss; on a miss `read` comes back unused. An entry under
    /// `key` computed for another plan is a miss, and counted as a
    /// mismatch.
    fn lookup<T, F: FnOnce(&ExecResult) -> T>(
        &self,
        key: &CacheKey,
        plan: &PlanRef,
        read: F,
    ) -> Result<T, F> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let hit = match state.map.get(key) {
            Some((stored, result)) if Plan::same(stored, plan) => Ok(read(result)),
            Some(_) => {
                state.mismatches += 1;
                Err(read)
            }
            None => Err(read),
        };
        match hit {
            Ok(_) => state.stats.hits += 1,
            Err(_) => state.stats.misses += 1,
        }
        hit
    }

    /// Store `result` for `plan` under `key` unless the key already holds
    /// an entry (a concurrent miss's identical result, or another plan's,
    /// which keeps its slot). Room is made first when the shard holds
    /// `max_entries` ([`CacheState::shed`]); the shed entries are freed
    /// after the lock is released, so hits on this shard do not wait on
    /// their deallocation.
    fn insert(&self, key: CacheKey, plan: &PlanRef, result: ExecResult, max_entries: usize) {
        let shed = {
            let mut state = self.state.lock();
            if state.map.contains_key(&key) {
                return;
            }
            let shed = if state.map.len() >= max_entries {
                state.shed(key.1, max_entries)
            } else {
                Vec::new()
            };
            state.map.insert(key, (plan.clone(), result));
            shed
        };
        drop(shed);
    }
}

impl CacheState {
    /// Move entries out of the map, counting them as evictions: entries
    /// from catalog epochs other than `epoch` are unreachable and go first;
    /// if `epoch`'s own entries alone still fill `max_entries`, the shard
    /// starts over.
    #[allow(
        clippy::disallowed_methods,
        reason = "the shed entries are only counted, summed and freed"
    )]
    fn shed(&mut self, epoch: u64, max_entries: usize) -> Vec<(PlanRef, ExecResult)> {
        let mut shed = Vec::with_capacity(self.map.len());
        shed.extend(
            self.map
                .extract_if(|&(_, e), _| e != epoch)
                .map(|(_, entry)| entry),
        );
        if self.map.len() >= max_entries {
            shed.extend(self.map.drain().map(|(_, entry)| entry));
        }
        self.stats.evictions += shed.len() as u64;
        self.stats.evicted_bytes += shed
            .iter()
            .map(|(_, r)| r.report.output_bytes as u64)
            .sum::<u64>();
        shed
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the test drives the type from several threads"
)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::catalog::Table;
    use av_plan::{Expr, PlanBuilder};
    use std::sync::Arc;

    /// Every behaviour below holds for the unsharded and the sharded cache.
    const SHARD_COUNTS: [usize; 2] = [1, 16];

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "t",
                vec![
                    ("id", Column::Int((0..50).collect())),
                    ("v", Column::Int((0..50).map(|i| i % 5).collect())),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    fn bump_epoch(c: &mut Catalog) {
        c.add_table(Table::new("u", vec![("x", Column::Int(vec![1]))]).expect("ok"))
            .expect("ok");
    }

    /// `n` structurally distinct plans (different filter literals).
    fn distinct_plans(n: i64) -> Vec<av_plan::PlanRef> {
        (0..n)
            .map(|i| {
                PlanBuilder::scan("t", "a")
                    .filter(Expr::col("a.v").eq(Expr::int(i)))
                    .count_star(&[], "n")
                    .build()
            })
            .collect()
    }

    fn plan() -> av_plan::PlanRef {
        distinct_plans(4).pop().expect("non-empty")
    }

    /// `n` distinct plans that all map to one shard of `cache`.
    fn colliding_plans(cache: &ExecCache, n: usize) -> Vec<av_plan::PlanRef> {
        let all = distinct_plans(64 * n as i64);
        let shard = cache.shard_of(Fingerprint::of(&all[0]));
        let same: Vec<_> = all
            .into_iter()
            .filter(|p| cache.shard_of(Fingerprint::of(p)) == shard)
            .take(n)
            .collect();
        assert_eq!(same.len(), n, "enough plans collide on one shard");
        same
    }

    #[test]
    fn hit_returns_identical_batch_and_report_with_attribution() {
        let c = catalog();
        let p = plan();
        let fp = Fingerprint::of(&p);
        let direct = Executor::new(&c, Pricing::paper_defaults())
            .run(&p)
            .expect("direct");
        for shards in SHARD_COUNTS {
            let cache = ExecCache::new(Pricing::paper_defaults(), shards);
            assert_eq!(cache.num_shards(), shards);
            let (cold, hit) = cache.run_keyed_hit_dop(fp, &c, &p, None).expect("cold run");
            assert!(!hit, "first run is a miss");
            let (warm, hit) = cache.run_keyed_hit_dop(fp, &c, &p, None).expect("warm run");
            assert!(hit, "second run is a hit");
            assert_eq!(cold.batch, warm.batch);
            assert_eq!(cold.report, warm.report);
            assert_eq!(cold.batch, direct.batch, "cached == uncached executor");
            assert_eq!(cold.report, direct.report);
            assert_eq!(
                cache.cost(&c, &p).expect("cached"),
                direct.report.cost_dollars
            );
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 2,
                    misses: 1,
                    evictions: 0,
                    evicted_bytes: 0
                }
            );
        }
    }

    #[test]
    fn a_hit_shares_the_batch_the_miss_stored() {
        let c = catalog();
        let p = plan();
        for shards in SHARD_COUNTS {
            let cache = ExecCache::new(Pricing::paper_defaults(), shards);
            let (cold, hit) = cache
                .run_keyed_hit_dop(p.fingerprint(), &c, &p, None)
                .expect("cold run");
            assert!(!hit);
            // The miss returned the allocation it inserted: the entry and
            // `cold` are its only owners.
            assert_eq!(Arc::strong_count(&cold.batch), 2);
            let warm = cache.run(&c, &p).expect("warm run");
            assert!(
                Arc::ptr_eq(&cold.batch, &warm.batch),
                "a hit copies no batch"
            );
            assert_eq!(Arc::strong_count(&cold.batch), 3);
            drop(warm);
            // The report-only readers leave the entry's count as it was.
            assert_eq!(cache.cost(&c, &p).expect("cost"), cold.report.cost_dollars);
            assert_eq!(cache.report(&c, &p).expect("report"), cold.report);
            assert_eq!(Arc::strong_count(&cold.batch), 2);
            assert_eq!((cache.stats().hits, cache.stats().misses), (3, 1));
        }
    }

    #[test]
    fn a_cost_miss_inserts_the_result_for_later_hits() {
        let c = catalog();
        let p = plan();
        let cache = ExecCache::new(Pricing::paper_defaults(), 1);
        let cost = cache.cost(&c, &p).expect("cold cost");
        assert_eq!(cache.len(), 1);
        let (warm, hit) = cache
            .run_keyed_hit_dop(p.fingerprint(), &c, &p, None)
            .expect("warm run");
        assert!(hit, "the cost miss stored its result");
        assert_eq!(warm.report.cost_dollars, cost);
        assert_eq!(Arc::strong_count(&warm.batch), 2, "entry and `warm` alone");
    }

    #[test]
    fn a_batch_shed_from_the_cache_stays_valid_for_its_holder() {
        let c = catalog();
        let cache = ExecCache::new(Pricing::paper_defaults(), 1).with_capacity(1);
        let plans = distinct_plans(2);
        let first = cache.run(&c, &plans[0]).expect("fills");
        let want = (*first.batch).clone();
        cache.run(&c, &plans[1]).expect("sheds the first entry");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(Arc::strong_count(&first.batch), 1, "the shard let go of it");
        assert_eq!(*first.batch, want);
    }

    #[test]
    fn a_hit_under_another_plans_fingerprint_runs_the_plan_it_was_given() {
        let c = catalog();
        let a = plan();
        let b = PlanBuilder::scan("t", "a").count_star(&[], "n").build();
        let direct_b = Executor::new(&c, Pricing::paper_defaults())
            .run(&b)
            .expect("direct");
        for shards in SHARD_COUNTS {
            let cache = ExecCache::new(Pricing::paper_defaults(), shards);
            let fp_a = a.fingerprint();
            let run = |p| cache.run_keyed_hit_dop(fp_a, &c, p, None).expect("runs");
            run(&a);
            let (got, hit) = run(&b);
            assert!(!hit, "a's entry must not answer b");
            assert_eq!(got.batch, direct_b.batch);
            assert_eq!(got.report, direct_b.report);
            assert_eq!(cache.mismatches(), 1);
            // The first entry keeps its key: a hits, and so does a fresh
            // `Arc` of the same tree.
            assert!(run(&a).1);
            assert!(run(&a.node().clone().into_ref()).1);
            assert_eq!((cache.stats().hits, cache.stats().misses), (2, 2));
        }
    }

    #[test]
    fn dop_hint_changes_no_results() {
        let c = catalog();
        let p = plan();
        let fp = Fingerprint::of(&p);
        let serial = Executor::new(&c, Pricing::paper_defaults())
            .run(&p)
            .expect("serial");
        // The hint is ignored: every hint yields the identical batch and
        // report.
        for hint in [None, Some(1), Some(2), Some(64)] {
            let cache = ExecCache::new(Pricing::paper_defaults(), 1);
            let (r, hit) = cache.run_keyed_hit_dop(fp, &c, &p, hint).expect("runs");
            assert!(!hit);
            assert_eq!(r.batch, serial.batch);
            assert_eq!(r.report, serial.report);
        }
    }

    #[test]
    fn epoch_bump_invalidates() {
        for shards in SHARD_COUNTS {
            let mut c = catalog();
            let cache = ExecCache::new(Pricing::paper_defaults(), shards);
            cache.run(&c, &plan()).expect("cold");
            bump_epoch(&mut c);
            cache.run(&c, &plan()).expect("after mutation");
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 0,
                    misses: 2,
                    evictions: 0,
                    evicted_bytes: 0
                },
                "catalog mutation must force a re-run"
            );
        }
    }

    #[test]
    fn capacity_sheds_stale_epochs_first_and_accounts_for_them() {
        for shards in SHARD_COUNTS {
            let mut c = catalog();
            // Two entries per shard; the plans all land on one shard so the
            // cap binds at every shard count.
            let cache = ExecCache::new(Pricing::paper_defaults(), shards).with_capacity(2 * shards);
            let plans = colliding_plans(&cache, 3);
            cache.run(&c, &plans[0]).expect("fills");
            cache.run(&c, &plans[1]).expect("fills");
            assert_eq!(cache.len(), 2);
            // Epoch bump leaves two stale entries; the next insert sheds
            // both rather than anything current.
            bump_epoch(&mut c);
            cache.run(&c, &plans[0]).expect("sheds stale");
            assert_eq!(cache.len(), 1);
            cache.run(&c, &plans[0]).expect("hits");
            let stats = cache.stats();
            assert_eq!(stats.hits, 1);
            assert_eq!(stats.evictions, 2);
            // Each shed count-star result holds one 8-byte value, so the
            // byte counter reconciles exactly with the eviction count.
            assert_eq!(stats.evicted_bytes, 16);
            // The shedding shard, and only it, carries the evictions.
            let owner = cache.shard_of(Fingerprint::of(&plans[0]));
            assert_eq!(cache.shard_stats()[owner].evictions, 2);
            assert_eq!(cache.shard_stats()[owner].evicted_bytes, 16);

            // The current epoch alone filling the cap clears the shard.
            cache.run(&c, &plans[1]).expect("fills");
            cache.run(&c, &plans[2]).expect("clears the full shard");
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.stats().evictions, 4);
            assert_eq!(cache.stats().evicted_bytes, 32);
        }
    }

    #[test]
    fn per_shard_stats_reconcile_with_the_aggregate() {
        let c = catalog();
        let plans = distinct_plans(8);
        for shards in SHARD_COUNTS {
            let cache = ExecCache::new(Pricing::paper_defaults(), shards);
            for _ in 0..2 {
                for p in &plans {
                    cache.run(&c, p).expect("runs");
                }
            }
            let agg = cache.stats();
            assert_eq!(agg.hits, 8);
            assert_eq!(agg.misses, 8);

            // Each shard keeps its own counters, each plan lands on its
            // fingerprint's shard, and the shards sum to the aggregate.
            let per_shard = cache.shard_stats();
            assert_eq!(per_shard.len(), shards);
            let mut expected = vec![0u64; shards];
            for p in &plans {
                expected[cache.shard_of(Fingerprint::of(p))] += 1;
            }
            for (s, want) in per_shard.iter().zip(&expected) {
                assert_eq!((s.hits, s.misses), (*want, *want));
            }
            assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
            assert_eq!(per_shard.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
            if shards > 1 {
                // 8 distinct fingerprints: sharding actually spread the
                // keys (at least two shards saw traffic).
                assert!(per_shard.iter().filter(|s| s.misses > 0).count() >= 2);
            }
        }
    }

    #[test]
    fn a_shard_poisoned_by_a_panicking_holder_keeps_serving() {
        let c = catalog();
        let plans = distinct_plans(8);
        let cache = ExecCache::new(Pricing::paper_defaults(), 4);
        let victim = cache.shard_of(Fingerprint::of(&plans[0]));
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.shards[victim].state.lock();
                panic!("holder dies with the shard");
            })
            .join()
        });
        assert!(died.is_err() && cache.shards[victim].state.is_poisoned());

        // Every plan misses once, then hits once, on its own shard.
        for _ in 0..2 {
            for p in &plans {
                cache.run(&c, p).expect("runs");
            }
        }
        let mut expected = vec![0u64; cache.num_shards()];
        for p in &plans {
            expected[cache.shard_of(Fingerprint::of(p))] += 1;
        }
        let per_shard = cache.shard_stats();
        for (s, want) in per_shard.iter().zip(&expected) {
            assert_eq!((s.hits, s.misses), (*want, *want));
        }
        assert!(per_shard[victim].hits > 0, "the poisoned shard still hits");
        assert_eq!(cache.stats().hits, 8);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let sharded = ExecCache::new(Pricing::paper_defaults(), 7);
        for p in distinct_plans(32) {
            let fp = Fingerprint::of(&p);
            let s = sharded.shard_of(fp);
            assert!(s < 7);
            assert_eq!(s, sharded.shard_of(fp), "shard choice is pure");
        }
    }
}
