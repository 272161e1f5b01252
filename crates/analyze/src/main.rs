//! `cargo run -p av-analyze` — the plan-verification and rewrite-proving
//! gate.
//!
//! Runs one pass and exits non-zero if any finding survives: the plan
//! verifier + semantic rewrite prover over the full JOB workload (all 226
//! queries at `AV_JOB_SCALE`, default 0.05), every candidate the
//! equivalence analyzer emits, and every view rewrite those candidates
//! produce — every rewrite must be statically `Proved` (an `Unknown` fails
//! the pass just as a `Refuted` does). The binary takes no arguments; a
//! malformed `AV_JOB_SCALE` is an error, not the default.

use av_analyze::{gate_rewrite, verify_plan, RewriteRefused};
use av_engine::{rewrite_subtree_with_view, Catalog, Pricing, ViewStore};
use av_plan::find_subtree;
use std::process::ExitCode;

const SCALE_KEY: &str = "AV_JOB_SCALE";

/// The JOB scale from `AV_JOB_SCALE`'s raw value: 0.05 when unset, an
/// error naming the key and the raw value when set but not a float.
fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    match raw {
        None => Ok(0.05),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{SCALE_KEY}={raw:?} does not parse as f64")),
    }
}

fn run_plan_pass(scale: f64) -> usize {
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
        if let Err(e) =
            views.materialize(&mut catalog, cand.plan.clone(), Pricing::paper_defaults())
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
    bad
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("av-analyze: unexpected argument `{arg}` (the binary takes none)");
        return ExitCode::FAILURE;
    }
    let raw = match std::env::var(SCALE_KEY) {
        Ok(raw) => Some(raw),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("av-analyze: {SCALE_KEY}={raw:?} is not valid UTF-8");
            return ExitCode::FAILURE;
        }
    };
    let scale = match parse_scale(raw.as_deref()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("av-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = run_plan_pass(scale);
    if failures == 0 {
        println!("av-analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("av-analyze: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn an_unset_scale_is_the_default() {
        assert_eq!(parse_scale(None), Ok(0.05));
    }

    #[test]
    fn a_set_scale_parses_as_f64() {
        assert_eq!(parse_scale(Some("0.02")), Ok(0.02));
    }

    #[test]
    fn a_malformed_scale_names_the_key_and_the_raw_value() {
        assert_eq!(
            parse_scale(Some("0,05")),
            Err("AV_JOB_SCALE=\"0,05\" does not parse as f64".to_string())
        );
        assert!(parse_scale(Some("")).is_err());
    }
}
