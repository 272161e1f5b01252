//! `cargo run -p av-analyze` — the full static-analysis gate.
//!
//! With no arguments, runs every pass and exits non-zero if any finding
//! survives:
//!
//! 1. the determinism lint over `crates/*/src` (plus the panic-site
//!    ratchet against `crates/analyze/unwrap-baseline.txt`),
//! 2. the plan verifier + semantic rewrite prover over the full JOB
//!    workload (all 226 queries at `AV_JOB_SCALE`, default 0.05), every
//!    candidate the equivalence analyzer emits, and every view rewrite
//!    those candidates produce — every rewrite must be statically `Proved`
//!    (an `Unknown` fails the pass just as a `Refuted` does).
//!
//! Subcommands run a single pass: `av-analyze lint [--write-baseline]`
//! (pass 1; `--write-baseline` regenerates the ratchet file from the
//! current counts instead of checking it — use after converting panic
//! sites to typed errors, so the ratchet tightens) and `av-analyze prove`
//! (pass 2).

use av_analyze::lint::{format_baseline, lint_repo, parse_baseline, ratchet_findings};
use av_analyze::{gate_rewrite, verify_plan, RewriteRefused};
use av_engine::{rewrite_subtree_with_view, Catalog, Pricing, ViewStore};
use av_plan::find_subtree;
use std::path::Path;
use std::process::ExitCode;

fn repo_root() -> &'static Path {
    // crates/analyze/ → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

fn run_lint_pass(failures: &mut usize, write_baseline: bool) {
    let root = repo_root();
    match lint_repo(root) {
        Ok(report) => {
            let baseline_path = root.join("crates/analyze/unwrap-baseline.txt");
            if write_baseline {
                match std::fs::write(&baseline_path, format_baseline(&report.unwrap_counts)) {
                    Ok(()) => println!(
                        "lint: baseline rewritten with {} file(s)",
                        report.unwrap_counts.len()
                    ),
                    Err(e) => {
                        eprintln!("lint: cannot write baseline: {e}");
                        *failures += 1;
                    }
                }
                return;
            }
            let baseline = std::fs::read_to_string(&baseline_path)
                .map(|t| parse_baseline(&t))
                .unwrap_or_default();
            let mut findings = report.findings;
            findings.extend(ratchet_findings(&report.unwrap_counts, &baseline));
            for f in &findings {
                eprintln!("lint: {f}");
            }
            *failures += findings.len();
            println!(
                "lint: {} finding(s) over crates/*/src",
                findings.len()
            );
        }
        Err(e) => {
            eprintln!("lint: cannot scan repo: {e}");
            *failures += 1;
        }
    }
}

fn run_plan_pass(failures: &mut usize) {
    let scale: f64 = std::env::var("AV_JOB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let w = av_workload::job::job_workload(scale, 7);
    let mut catalog: Catalog = w.catalog.clone();
    let plans = w.plans();
    println!(
        "plans: verifying {} JOB queries at scale {scale}",
        plans.len()
    );

    let mut bad = 0usize;
    for (i, p) in plans.iter().enumerate() {
        if let Err(e) = verify_plan(&catalog, p) {
            eprintln!("plans: query {i} rejected: {e}");
            bad += 1;
        }
    }

    let analysis = av_equiv::analyze_workload(&plans);
    for cand in &analysis.candidates {
        if let Err(e) = verify_plan(&catalog, &cand.plan) {
            eprintln!("plans: candidate {} rejected: {e}", cand.id);
            bad += 1;
        }
    }

    // Materialize every candidate and verify every rewrite it induces.
    let mut views = ViewStore::new();
    for cand in &analysis.candidates {
        if let Err(e) = views.materialize(&mut catalog, cand.plan.clone(), Pricing::paper_defaults())
        {
            eprintln!("plans: candidate {} failed to materialize: {e}", cand.id);
            bad += 1;
        }
    }
    let resolve = |t: &str| {
        views
            .views()
            .iter()
            .find(|v| v.table_name == t)
            .map(|v| v.plan.clone())
    };
    let mut rewrites = 0usize;
    let (mut proved, mut unknown, mut refuted) = (0usize, 0usize, 0usize);
    for (i, matches) in analysis.query_matches.iter().enumerate() {
        for m in matches {
            let Some(view) = views.view(av_engine::ViewId(m.candidate)) else {
                continue;
            };
            let Some(subtree) = find_subtree(&plans[i], m.subtree_fp) else {
                continue;
            };
            let Some((rewritten, _)) =
                rewrite_subtree_with_view(&catalog, &plans[i], &subtree, view)
            else {
                continue;
            };
            rewrites += 1;
            match gate_rewrite(&catalog, &plans[i], &rewritten, &resolve) {
                Ok(()) => proved += 1,
                Err(refused) => {
                    match refused {
                        RewriteRefused::Refuted { .. } => refuted += 1,
                        RewriteRefused::Unproved { .. } => unknown += 1,
                    }
                    eprintln!(
                        "plans: rewrite of query {i} with candidate {} {refused}",
                        m.candidate
                    );
                    bad += 1;
                }
            }
        }
    }
    println!(
        "plans: {} queries, {} candidates, {rewrites} rewrites \
         ({proved} proved / {unknown} unknown / {refuted} refuted), {bad} failure(s)",
        plans.len(),
        analysis.candidates.len()
    );
    *failures += bad;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = 0usize;
    match args.first().map(String::as_str) {
        None => {
            run_lint_pass(&mut failures, false);
            run_plan_pass(&mut failures);
        }
        Some("prove") => run_plan_pass(&mut failures),
        Some("lint") => match args.get(1).map(String::as_str) {
            None => run_lint_pass(&mut failures, false),
            Some("--write-baseline") => run_lint_pass(&mut failures, true),
            Some(other) => {
                eprintln!("av-analyze lint: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        },
        Some(other) => {
            eprintln!(
                "av-analyze: unknown subcommand `{other}` \
                 (expected `lint [--write-baseline]` or `prove`)"
            );
            return ExitCode::FAILURE;
        }
    }
    if failures == 0 {
        println!("av-analyze: all passes clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("av-analyze: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
