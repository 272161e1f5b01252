//! Workload statistics — the rows of the paper's Table I.

use crate::gen::Workload;
use av_equiv::{Analyzer, MIN_SHARED_QUERIES};
use serde::{Deserialize, Serialize};

/// The Table I row for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadStats {
    pub name: String,
    pub projects: usize,
    pub tables: usize,
    pub queries: usize,
    pub subqueries: usize,
    pub equivalent_pairs: usize,
    /// `|Z|` — candidate subqueries (clusters spanning ≥ 2 queries).
    pub candidate_subqueries: usize,
    /// `|Q|` — queries that can use at least one candidate view.
    pub associated_queries: usize,
    pub overlapping_pairs: usize,
}

/// Compute Table I statistics for a workload by running the pre-process
/// pipeline (subquery extraction → equivalence clustering → overlap).
pub fn workload_stats(workload: &Workload) -> WorkloadStats {
    let mut analyzer = Analyzer::new();
    analyzer.min_query_frequency = MIN_SHARED_QUERIES;
    let analysis = analyzer.analyze(&workload.plans());
    WorkloadStats {
        name: workload.name.clone(),
        projects: workload.num_projects,
        tables: workload.catalog.len(),
        queries: workload.queries.len(),
        subqueries: analysis.total_subqueries,
        equivalent_pairs: analysis.equivalent_pairs,
        candidate_subqueries: analysis.candidates.len(),
        associated_queries: analysis.associated_queries(),
        overlapping_pairs: analysis.overlap_pairs.len(),
    }
}

impl WorkloadStats {
    /// Render as the paper's Table I column.
    pub fn render(&self) -> String {
        format!(
            "workload: {}\n# project / # table      {} / {}\n# query / # subquery     {} / {}\n# equivalent pairs       {}\n# candidate subquery |Z| {}\n# associated query |Q|   {}\n# overlapping pairs      {}",
            self.name,
            self.projects,
            self.tables,
            self.queries,
            self.subqueries,
            self.equivalent_pairs,
            self.candidate_subqueries,
            self.associated_queries,
            self.overlapping_pairs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::mini;

    #[test]
    fn stats_are_internally_consistent() {
        let w = mini(7);
        let s = workload_stats(&w);
        assert_eq!(s.queries, 40);
        assert!(s.subqueries >= s.queries, "every query has ≥1 subquery");
        assert!(s.associated_queries <= s.queries);
        assert!(
            s.overlapping_pairs
                <= s.candidate_subqueries * s.candidate_subqueries.saturating_sub(1) / 2
        );
    }

    #[test]
    fn render_mentions_all_counts() {
        let w = mini(7);
        let s = workload_stats(&w);
        let r = s.render();
        assert!(r.contains("|Z|"));
        assert!(r.contains(&format!("{}", s.queries)));
    }
}
