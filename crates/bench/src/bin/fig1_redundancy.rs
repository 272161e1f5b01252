//! Fig. 1 — redundant computation across projects.
//!
//! (a) total vs redundant query counts for the first six projects of the
//! cloud workload; (b) cumulative redundant percentage as projects
//! accumulate.

use av_bench::{render_table, BenchConfig};
use av_workload::{cloud, project_redundancy};

fn main() {
    let cfg = BenchConfig::from_env();
    let workload = cloud::wk1(cfg.wk1_scale, cfg.seed);
    let report = project_redundancy(&workload);

    println!("== Fig. 1(a): total vs redundant queries per project ==\n");
    let rows: Vec<Vec<String>> = report
        .per_project
        .iter()
        .take(6)
        .map(|&(p, total, red)| {
            vec![
                format!("P{}", p + 1),
                total.to_string(),
                red.to_string(),
                format!("{:.1}%", 100.0 * red as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["project", "total", "redundant", "ratio"], &rows)
    );

    println!("== Fig. 1(b): cumulative redundant percentage ==\n");
    let rows: Vec<Vec<String>> = report
        .cumulative_percent
        .iter()
        .enumerate()
        .step_by(4)
        .map(|(k, pct)| vec![format!("{} projects", k + 1), format!("{pct:.1}%")])
        .collect();
    println!(
        "{}",
        render_table(&["after", "cumulative redundant"], &rows)
    );
}
