//! Workload analysis: subquery clustering, candidate selection and the
//! overlap relation.

use crate::canon::{canonical_fingerprint, canonicalize};
use av_plan::{enumerate_subqueries, Fingerprint, PlanNode, PlanRef};
use std::collections::{HashMap, HashSet};

/// One candidate subquery: the representative of an equivalence cluster,
/// chosen as the member with the least overhead (paper Section III,
/// pre-process).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index of this candidate (= cluster id), `j` in the ILP.
    pub id: usize,
    /// Representative plan in its original (non-canonical) form.
    pub plan: PlanRef,
    /// Canonicalized representative.
    pub canonical: PlanRef,
    /// Number of subquery instances in the cluster across the workload.
    pub instances: usize,
    /// Number of distinct queries containing a member of the cluster.
    pub query_frequency: usize,
}

/// A usable candidate for one query: the candidate id plus the fingerprint
/// of the query's *own* matching subtree (needed by the rewriter, since the
/// query's subtree may use different aliases than the representative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMatch {
    pub candidate: usize,
    pub subtree_fp: Fingerprint,
}

/// Result of analyzing a workload (paper Fig. 3 pre-process outputs).
#[derive(Debug, Clone)]
pub struct WorkloadAnalysis {
    /// Candidate subqueries, one per equivalence cluster with ≥ 1 instance.
    pub candidates: Vec<Candidate>,
    /// Per query: which candidates it can use, with its local subtree.
    pub query_matches: Vec<Vec<QueryMatch>>,
    /// Overlapping candidate pairs `(j, k)`, j < k — the `x_{jk}` of the ILP.
    pub overlap_pairs: Vec<(usize, usize)>,
    /// Total number of equivalent subquery pairs detected (Table I row).
    pub equivalent_pairs: usize,
    /// Total subquery instances enumerated.
    pub total_subqueries: usize,
}

impl WorkloadAnalysis {
    /// Dense overlap matrix `x[j][k]`.
    pub fn overlap_matrix(&self) -> Vec<Vec<bool>> {
        let n = self.candidates.len();
        let mut m = vec![vec![false; n]; n];
        for &(j, k) in &self.overlap_pairs {
            m[j][k] = true;
            m[k][j] = true;
        }
        m
    }

    /// Number of queries with at least one usable candidate (the paper's
    /// *associated queries*, `|Q|` in Table I).
    pub fn associated_queries(&self) -> usize {
        self.query_matches.iter().filter(|m| !m.is_empty()).count()
    }
}

/// Workload analyzer. `overhead_of` ranks cluster members when choosing the
/// representative (the paper picks the least-overhead member); the default
/// uses plan size as a proxy.
pub struct Analyzer<'a> {
    overhead_of: Box<dyn Fn(&PlanRef) -> f64 + 'a>,
    /// Keep only candidates whose cluster spans at least this many distinct
    /// queries. The default of 1 keeps everything; the end-to-end system
    /// uses 2 (views are only interesting when shared or reused).
    pub min_query_frequency: usize,
}

impl<'a> Analyzer<'a> {
    /// Analyzer with the default (plan-size) overhead proxy.
    pub fn new() -> Analyzer<'a> {
        Analyzer {
            overhead_of: Box::new(|p| p.node_count() as f64),
            min_query_frequency: 1,
        }
    }

    /// Analyzer with a caller-supplied overhead estimate (e.g. real
    /// materialization cost from the engine).
    pub fn with_overhead(f: impl Fn(&PlanRef) -> f64 + 'a) -> Analyzer<'a> {
        Analyzer {
            overhead_of: Box::new(f),
            min_query_frequency: 1,
        }
    }

    /// Run the full pre-process pipeline over a workload.
    pub fn analyze(&self, queries: &[PlanRef]) -> WorkloadAnalysis {
        // 1. Enumerate subquery instances.
        struct Instance {
            query: usize,
            plan: PlanRef,
            fp: Fingerprint,
            canonical: PlanRef,
        }
        let mut instances = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for sub in enumerate_subqueries(q) {
                let canonical = canonicalize(&sub.plan);
                instances.push(Instance {
                    query: qi,
                    plan: sub.plan,
                    fp: sub.fingerprint,
                    canonical,
                });
            }
        }
        let total_subqueries = instances.len();

        // 2. Cluster by canonical fingerprint — the key routing matches on.
        //    Instances are visited in order, so each cluster's members come
        //    out sorted and clusters are ordered by their smallest member.
        let mut cluster_of: HashMap<Fingerprint, usize> = HashMap::new();
        let mut cluster_list: Vec<Vec<usize>> = Vec::new();
        for (i, inst) in instances.iter().enumerate() {
            let c = *cluster_of
                .entry(Fingerprint::of(&inst.canonical))
                .or_insert_with(|| {
                    cluster_list.push(Vec::new());
                    cluster_list.len() - 1
                });
            cluster_list[c].push(i);
        }

        // 3. Representatives, counting, filtering.
        let mut equivalent_pairs = 0;
        let mut candidates = Vec::new();
        let mut instance_cluster: HashMap<usize, usize> = HashMap::new();
        for members in &cluster_list {
            let n = members.len();
            equivalent_pairs += n * (n - 1) / 2;
            let queries_in: HashSet<usize> = members.iter().map(|&m| instances[m].query).collect();
            if queries_in.len() < self.min_query_frequency {
                continue;
            }
            let rep = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    (self.overhead_of)(&instances[a].plan)
                        .total_cmp(&(self.overhead_of)(&instances[b].plan))
                })
                .expect("cluster non-empty");
            let id = candidates.len();
            for &m in members {
                instance_cluster.insert(m, id);
            }
            candidates.push(Candidate {
                id,
                plan: instances[rep].plan.clone(),
                canonical: instances[rep].canonical.clone(),
                instances: n,
                query_frequency: queries_in.len(),
            });
        }

        // 4. Per-query usable candidates (first matching subtree per
        //    candidate, outermost wins — instances were enumerated pre-order).
        let mut query_matches: Vec<Vec<QueryMatch>> = vec![Vec::new(); queries.len()];
        for (i, inst) in instances.iter().enumerate() {
            if let Some(&cand) = instance_cluster.get(&i) {
                let qm = &mut query_matches[inst.query];
                if !qm.iter().any(|m| m.candidate == cand) {
                    qm.push(QueryMatch {
                        candidate: cand,
                        subtree_fp: inst.fp,
                    });
                }
            }
        }

        // 5. Overlap pairs between candidates (Def. 5): their plans share a
        //    common subtree of ≥ 2 operators. Each subtree is canonicalized
        //    *independently* so that containment is detected across alias
        //    numbering (a nested Project inside one candidate's Join matches
        //    the standalone Project candidate even though, within the Join's
        //    canonical form, its aliases are numbered differently).
        //    Bare-scan sharing is excluded — two different filters over the
        //    same table replace different subtrees of a query and coexist.
        let mut overlap_pairs = Vec::new();
        let fps: Vec<HashSet<Fingerprint>> = candidates
            .iter()
            .map(|c| nontrivial_subtree_fps(&c.plan))
            .collect();
        for j in 0..candidates.len() {
            for k in j + 1..candidates.len() {
                if !fps[j].is_disjoint(&fps[k]) {
                    overlap_pairs.push((j, k));
                }
            }
        }

        WorkloadAnalysis {
            candidates,
            query_matches,
            overlap_pairs,
            equivalent_pairs,
            total_subqueries,
        }
    }
}

impl Default for Analyzer<'_> {
    fn default() -> Self {
        Analyzer::new()
    }
}

/// Fingerprints of every multi-operator subtree, each canonicalized in
/// isolation so structurally-equal subtrees match regardless of where they
/// sit in their parent plan.
fn nontrivial_subtree_fps(plan: &PlanRef) -> HashSet<Fingerprint> {
    let mut set = HashSet::new();
    collect(plan, &mut set);
    fn collect(plan: &PlanRef, set: &mut HashSet<Fingerprint>) {
        if plan.node_count() >= 2 {
            set.insert(canonical_fingerprint(plan));
        }
        match plan.node() {
            PlanNode::TableScan { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. } => collect(input, set),
            PlanNode::Join { left, right, .. } => {
                collect(left, set);
                collect(right, set);
            }
        }
    }
    set
}

/// Analyze a workload with default settings.
pub fn analyze_workload(queries: &[PlanRef]) -> WorkloadAnalysis {
    Analyzer::new().analyze(queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::parse_query;

    fn q(sql: &str) -> PlanRef {
        parse_query(sql).expect("parses")
    }

    #[test]
    fn shared_subquery_clusters_across_queries() {
        let queries = vec![
            q("select t.uid, count(*) as n from memo t where t.dt = '1010' group by t.uid"),
            q("select t.uid, max(t.v) as m from memo t where t.dt = '1010' group by t.uid"),
        ];
        // Both queries share no *identical* Aggregate (different aggs), but
        // they have no common Project/Join either — so clusters are
        // singletons and nothing is shared.
        let a = analyze_workload(&queries);
        assert!(a.candidates.iter().all(|c| c.query_frequency == 1));
    }

    #[test]
    fn identical_subqueries_with_different_aliases_cluster() {
        let queries = vec![
            q("select t1.uid from memo t1 where t1.dt = '1010' and t1.k = 1"),
            q("select t9.uid from memo t9 where t9.k = 1 and t9.dt = '1010'"),
        ];
        let a = analyze_workload(&queries);
        let shared: Vec<_> = a
            .candidates
            .iter()
            .filter(|c| c.query_frequency == 2)
            .collect();
        assert_eq!(shared.len(), 1, "the Project subquery is shared");
        assert_eq!(a.equivalent_pairs, 1);
    }

    #[test]
    fn query_matches_point_into_own_query() {
        let q1 = q("select t1.uid from memo t1 where t1.k = 1");
        let q2 = q("select t2.uid from memo t2 where t2.k = 1");
        let a = analyze_workload(&[q1.clone(), q2.clone()]);
        let shared = a
            .candidates
            .iter()
            .find(|c| c.query_frequency == 2)
            .expect("shared candidate");
        for (qi, query) in [&q1, &q2].iter().enumerate() {
            let m = a.query_matches[qi]
                .iter()
                .find(|m| m.candidate == shared.id)
                .expect("match present");
            assert!(
                av_plan::subquery::contains_subtree(query, m.subtree_fp),
                "subtree fingerprint must exist inside the query itself"
            );
        }
    }

    #[test]
    fn nested_subqueries_overlap() {
        // One query: Aggregate → Join → two Projects. The Join candidate and
        // each Project candidate share the Project subtree → overlap.
        let query = q("select t1.uid, count(*) as n from \
             (select a.uid from memo a where a.k = 1) t1 \
             join (select b.uid from act b where b.j = 2) t2 \
             on t1.uid = t2.uid group by t1.uid");
        let a = analyze_workload(&[query]);
        assert!(
            !a.overlap_pairs.is_empty(),
            "join candidate overlaps its input projects"
        );
    }

    #[test]
    fn same_table_different_filters_do_not_overlap() {
        let q1 = q("select a.x from t a where a.k = 1");
        let q2 = q("select a.x from t a where a.k = 2");
        let a = analyze_workload(&[q1, q2]);
        assert_eq!(a.candidates.len(), 2);
        assert!(
            a.overlap_pairs.is_empty(),
            "bare scan sharing must not count as overlap"
        );
    }

    #[test]
    fn min_query_frequency_filters_singletons() {
        let q1 = q("select t1.uid from memo t1 where t1.k = 1");
        let q2 = q("select t2.uid from memo t2 where t2.k = 1");
        let q3 = q("select t3.zzz from other t3 where t3.w = 9");
        let mut an = Analyzer::new();
        an.min_query_frequency = 2;
        let a = an.analyze(&[q1, q2, q3]);
        assert_eq!(a.candidates.len(), 1);
        assert_eq!(a.associated_queries(), 2);
    }

    #[test]
    fn representative_minimizes_overhead() {
        // Two equivalent plans; bias the overhead function toward the second.
        let q1 = q("select t1.uid from memo t1 where t1.k = 1");
        let q2 = q("select t2.uid from memo t2 where t2.k = 1");
        let plans = [q1.clone(), q2.clone()];
        let an = Analyzer::with_overhead(move |p| {
            // Prefer (lower overhead for) the q2 variant.
            if av_plan::Fingerprint::of(p) == av_plan::Fingerprint::of(&q2) {
                1.0
            } else {
                2.0
            }
        });
        let a = an.analyze(&plans);
        let shared = a
            .candidates
            .iter()
            .find(|c| c.query_frequency == 2)
            .expect("shared");
        assert_eq!(
            av_plan::Fingerprint::of(&shared.plan),
            av_plan::Fingerprint::of(&plans[1])
        );
    }

    #[test]
    fn clusters_are_exactly_canonical_fingerprint_groups() {
        // Equal on every row, but canonicalization does not unify them, so
        // routing would never match one to a view of the other: they must
        // stay two candidates.
        let queries = vec![
            q("select a.x from t a where a.k >= 5"),
            q("select a.x from t a where not (a.k < 5)"),
        ];
        let a = analyze_workload(&queries);
        assert_eq!(a.candidates.len(), 2);
        assert_eq!(a.equivalent_pairs, 0);
        assert_ne!(a.query_matches[0], a.query_matches[1]);
        for (qi, query) in queries.iter().enumerate() {
            for m in &a.query_matches[qi] {
                let subtree = av_plan::find_subtree(query, m.subtree_fp).expect("own subtree");
                assert_eq!(
                    canonical_fingerprint(&subtree),
                    Fingerprint::of(&a.candidates[m.candidate].canonical),
                    "query {qi}: the clustering key is the routing key"
                );
            }
        }
    }

    #[test]
    fn empty_workload_analysis() {
        let a = analyze_workload(&[]);
        assert!(a.candidates.is_empty());
        assert_eq!(a.total_subqueries, 0);
        assert_eq!(a.equivalent_pairs, 0);
        assert_eq!(a.associated_queries(), 0);
    }
}
