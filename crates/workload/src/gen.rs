//! Core workload generator: seeded schema, data and query synthesis.
//!
//! Queries are built in the paper's Fig. 2 shape — per-table
//! `Filter → Project` subplans joined along foreign keys, optionally topped
//! with an aggregate — and share subplans by drawing from a per-table pool
//! of *base subqueries*. Pool reuse is what creates the redundant
//! computation the whole system exists to exploit.

use av_engine::{Catalog, Column, Table};
use av_plan::{AggExpr, AggFunc, Expr, PlanBuilder, PlanRef};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One generated query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Stable query id within the workload.
    pub id: usize,
    /// Project the query belongs to (cloud workloads; JOB has one project).
    pub project: usize,
    /// The logical plan.
    pub plan: PlanRef,
}

/// A generated workload: catalog plus queries.
pub struct Workload {
    pub name: String,
    pub catalog: Catalog,
    pub queries: Vec<QueryRecord>,
    pub num_projects: usize,
}

impl Workload {
    /// Plans only, in query order (the shape most analyses want).
    pub fn plans(&self) -> Vec<PlanRef> {
        self.queries.iter().map(|q| q.plan.clone()).collect()
    }
}

/// Knobs of the core generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub name: String,
    pub seed: u64,
    /// Number of projects; tables and queries are spread across them.
    pub projects: usize,
    /// Total number of tables.
    pub tables: usize,
    /// Rows per table are drawn uniformly from this range.
    pub rows_range: (usize, usize),
    /// Total number of queries.
    pub queries: usize,
    /// Size of the shared base-subquery pool per table.
    pub pool_per_table: usize,
    /// Probability that a query's table access reuses a pool subquery
    /// instead of a fresh random filter — the redundancy dial.
    pub share_probability: f64,
    /// Probability a query is topped with an aggregate.
    pub aggregate_probability: f64,
    /// Probability that a multi-table query reuses a *join template*: its
    /// first two accesses take fixed pool entries, so the whole two-table
    /// join subplan recurs across queries. Nested sharing is what creates
    /// overlapping candidates (a Join candidate containing a Project
    /// candidate).
    pub join_template_probability: f64,
    /// Number of joined tables per query drawn from this range.
    pub join_tables: (usize, usize),
    /// Benefit/overhead skew: exponent applied to table-size draws. Higher
    /// values produce more skewed workloads (the paper observes WK1 is more
    /// skewed than WK2).
    pub skew: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "synthetic".into(),
            seed: 7,
            projects: 1,
            tables: 8,
            rows_range: (200, 2000),
            queries: 100,
            pool_per_table: 3,
            share_probability: 0.6,
            aggregate_probability: 0.5,
            join_template_probability: 0.0,
            join_tables: (1, 3),
            skew: 1.0,
        }
    }
}

/// Value domains used for filterable attribute columns.
const KIND_CARD: i64 = 6;
const DT_VALUES: [&str; 5] = ["1007", "1008", "1009", "1010", "1011"];

/// Generate a workload from a config.
pub fn generate(config: &GeneratorConfig) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut catalog = Catalog::new();

    // ---- tables ----------------------------------------------------------
    // Every table gets: id (unique), fk (into the previous table in the same
    // project, forming a chain the joins can walk), kind (low-cardinality
    // int), dt (low-cardinality string), val (float payload).
    let mut table_names: Vec<String> = Vec::with_capacity(config.tables);
    let mut table_project: Vec<usize> = Vec::with_capacity(config.tables);
    let mut table_rows: Vec<usize> = Vec::with_capacity(config.tables);
    // Size draws happen up front so the sequence of uniforms depends only on
    // the seed and table count, not on how many data values each table
    // consumes. Two configs differing only in `skew` therefore see the same
    // underlying u's, making skew's effect on the size spread monotone.
    let size_u: Vec<f64> = (0..config.tables)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    for (t, &u) in size_u.iter().enumerate() {
        let project = t % config.projects.max(1);
        let name = format!("{}_p{}_t{}", config.name, project, t);
        let (lo, hi) = config.rows_range;
        // Skewed size draw: u^skew stretches the distribution's tail.
        let rows = lo + ((hi - lo) as f64 * u.powf(config.skew)) as usize;
        let parent_rows = table_rows.last().copied().unwrap_or(rows).max(1);
        let id: Vec<i64> = (0..rows as i64).collect();
        let fk: Vec<i64> = (0..rows)
            .map(|_| rng.gen_range(0..parent_rows as i64))
            .collect();
        let kind: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..KIND_CARD)).collect();
        let dt: Vec<String> = (0..rows)
            .map(|_| DT_VALUES[rng.gen_range(0..DT_VALUES.len())].to_string())
            .collect();
        let val: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..100.0)).collect();
        let table = Table::new(
            name.clone(),
            vec![
                ("id", Column::Int(id)),
                ("fk", Column::Int(fk)),
                ("kind", Column::Int(kind)),
                ("dt", Column::str(dt)),
                ("val", Column::Float(val)),
            ],
        )
        .expect("generated columns are rectangular");
        catalog
            .add_table(table)
            .expect("generated names are unique");
        table_names.push(name);
        table_project.push(project);
        table_rows.push(rows);
    }

    // ---- base-subquery pool ----------------------------------------------
    // For each table, a pool of filtered projections whose filters are drawn
    // once; queries that sample the pool share these subplans verbatim
    // (alias included, so sharing is detectable both structurally and
    // semantically).
    #[derive(Clone)]
    struct PoolEntry {
        predicate: Expr,
        alias: String,
    }
    let mut pools: Vec<Vec<PoolEntry>> = Vec::with_capacity(config.tables);
    for t in 0..config.tables {
        let mut pool = Vec::with_capacity(config.pool_per_table);
        for p in 0..config.pool_per_table {
            let alias = format!("b{t}_{p}");
            let predicate = random_predicate(&mut rng, &alias);
            pool.push(PoolEntry { predicate, alias });
        }
        pools.push(pool);
    }

    // ---- queries -----------------------------------------------------------
    let mut queries = Vec::with_capacity(config.queries);
    let per_project: Vec<Vec<usize>> = (0..config.projects.max(1))
        .map(|p| {
            (0..config.tables)
                .filter(|&t| table_project[t] == p)
                .collect()
        })
        .collect();

    for qid in 0..config.queries {
        let project = qid % config.projects.max(1);
        let local = &per_project[project];
        // Fall back to any table if a project ended up empty.
        let local: &[usize] = if local.is_empty() {
            &(0..config.tables).collect::<Vec<_>>()
        } else {
            local
        };

        let (jlo, jhi) = config.join_tables;
        let n_tables = rng.gen_range(jlo..=jhi.max(jlo)).min(local.len());
        // Walk a chain of tables within the project.
        let start = rng.gen_range(0..local.len());
        let chain: Vec<usize> = (0..n_tables)
            .map(|k| local[(start + k) % local.len()])
            .collect();
        // Join template: pin the first two accesses to fixed pool entries so
        // the two-table join subplan recurs verbatim across queries sharing
        // this `start`.
        let use_template = chain.len() >= 2 && rng.gen_bool(config.join_template_probability);

        let mut builders: Vec<(PlanBuilder, String)> = Vec::with_capacity(chain.len());
        for (pos, &t) in chain.iter().enumerate() {
            let (pred, alias) = if use_template && pos < 2 {
                let e = &pools[t][start % pools[t].len()];
                (e.predicate.clone(), e.alias.clone())
            } else if rng.gen_bool(config.share_probability) {
                let e = &pools[t][rng.gen_range(0..pools[t].len())];
                (e.predicate.clone(), e.alias.clone())
            } else {
                let alias = format!("q{qid}_{pos}");
                (random_predicate(&mut rng, &alias), alias)
            };
            let b = PlanBuilder::scan(&table_names[t], &alias)
                .filter(pred)
                .project(&[
                    (&format!("{alias}.id"), &format!("{alias}.id")),
                    (&format!("{alias}.fk"), &format!("{alias}.fk")),
                    (&format!("{alias}.val"), &format!("{alias}.val")),
                ]);
            builders.push((b, alias));
        }

        // Join the chain: each table joins its fk to the previous table's id.
        let mut iter = builders.into_iter();
        let (mut plan, mut prev_alias) = iter.next().expect("chain non-empty");
        for (b, alias) in iter {
            let on_left = format!("{alias}.fk");
            let on_right = format!("{prev_alias}.id");
            plan = b.join(plan, &[(on_left.as_str(), on_right.as_str())]);
            prev_alias = alias;
        }

        // Top: aggregate or projection.
        let plan = if rng.gen_bool(config.aggregate_probability) {
            let group = format!("{prev_alias}.fk");
            let agg = match rng.gen_range(0..3) {
                0 => AggExpr {
                    func: AggFunc::Count,
                    input: None,
                    output: "cnt".into(),
                },
                1 => AggExpr {
                    func: AggFunc::Sum,
                    input: Some(format!("{prev_alias}.val")),
                    output: "total".into(),
                },
                _ => AggExpr {
                    func: AggFunc::Max,
                    input: Some(format!("{prev_alias}.val")),
                    output: "peak".into(),
                },
            };
            plan.aggregate(&[group.as_str()], vec![agg]).build()
        } else {
            let keep = format!("{prev_alias}.id");
            let val = format!("{prev_alias}.val");
            plan.project(&[(keep.as_str(), "out_id"), (val.as_str(), "out_val")])
                .build()
        };

        queries.push(QueryRecord {
            id: qid,
            project,
            plan,
        });
    }

    Workload {
        name: config.name.clone(),
        catalog,
        queries,
        num_projects: config.projects.max(1),
    }
}

fn random_predicate(rng: &mut ChaCha8Rng, alias: &str) -> Expr {
    // Mix selectivities: highly-selective views are small and cheap to
    // scan (profitable to materialize); unselective ones barely shrink the
    // input, so their overhead can exceed their benefit. The mix is what
    // gives the paper's Fig. 9 utility curves their rise-then-fall shape.
    use av_plan::CmpOp;
    match rng.gen_range(0..4) {
        // ~1/30 of rows: kind = x AND dt = d.
        0 => Expr::col(format!("{alias}.kind"))
            .eq(Expr::int(rng.gen_range(0..KIND_CARD)))
            .and(
                Expr::col(format!("{alias}.dt"))
                    .eq(Expr::str(DT_VALUES[rng.gen_range(0..DT_VALUES.len())])),
            ),
        // ~1/6: kind = x.
        1 => Expr::col(format!("{alias}.kind")).eq(Expr::int(rng.gen_range(0..KIND_CARD))),
        // ~1/2 .. ~5/6: kind <= x.
        2 => Expr::col(format!("{alias}.kind"))
            .cmp(CmpOp::Le, Expr::int(rng.gen_range(2..KIND_CARD))),
        // ~4/5: dt != d — a view nearly as large as its base table.
        _ => Expr::col(format!("{alias}.dt")).cmp(
            CmpOp::Ne,
            Expr::str(DT_VALUES[rng.gen_range(0..DT_VALUES.len())]),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_engine::{Executor, Pricing};

    fn small() -> GeneratorConfig {
        GeneratorConfig {
            name: "test".into(),
            tables: 4,
            queries: 20,
            rows_range: (50, 200),
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(
                av_plan::Fingerprint::of(&x.plan),
                av_plan::Fingerprint::of(&y.plan)
            );
        }
    }

    #[test]
    fn every_query_executes() {
        let w = generate(&small());
        let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
        for q in &w.queries {
            let r = exec.run(&q.plan).expect("generated query must execute");
            assert!(r.report.cost_dollars > 0.0);
        }
    }

    #[test]
    fn sharing_produces_duplicate_subplans() {
        let mut cfg = small();
        cfg.share_probability = 1.0;
        cfg.queries = 30;
        let w = generate(&cfg);
        let analysis = av_equiv::analyze_workload(&w.plans());
        assert!(
            analysis.equivalent_pairs > 0,
            "pool reuse must create equivalent subqueries"
        );
        let shared = analysis
            .candidates
            .iter()
            .filter(|c| c.query_frequency >= 2)
            .count();
        assert!(shared > 0, "some candidate must span multiple queries");
    }

    #[test]
    fn zero_sharing_still_generates_valid_queries() {
        let mut cfg = small();
        cfg.share_probability = 0.0;
        let w = generate(&cfg);
        assert_eq!(w.queries.len(), 20);
    }

    #[test]
    fn projects_partition_queries() {
        let mut cfg = small();
        cfg.projects = 3;
        cfg.tables = 9;
        cfg.queries = 30;
        let w = generate(&cfg);
        for q in &w.queries {
            assert!(q.project < 3);
        }
        let counts: Vec<usize> = (0..3)
            .map(|p| w.queries.iter().filter(|q| q.project == p).count())
            .collect();
        assert_eq!(counts, vec![10, 10, 10]);
    }

    #[test]
    fn skew_increases_size_spread() {
        let mut flat = small();
        flat.tables = 30;
        flat.skew = 1.0;
        let mut skewed = flat.clone();
        skewed.skew = 4.0;
        let spread = |w: &Workload| {
            let rows: Vec<usize> = w
                .catalog
                .table_names()
                .map(|n| w.catalog.table(n).expect("exists").row_count())
                .collect();
            let max = *rows.iter().max().expect("some") as f64;
            let min = *rows.iter().min().expect("some") as f64;
            max / min.max(1.0)
        };
        assert!(spread(&generate(&skewed)) >= spread(&generate(&flat)));
    }
}
