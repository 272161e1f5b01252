//! Pluggable plan-verification gate run before executor dispatch.
//!
//! The full schema verifier lives in `av-analyze`, which sits *above* this
//! crate in the dependency DAG (it also drives workload-wide verification
//! through `av-workload`). The executor therefore cannot call it directly;
//! instead it calls whatever function has been installed here. `av-core`
//! installs the `av-analyze` verifier in debug builds, so every plan the
//! end-to-end system executes is schema-checked first, while release
//! binaries and crates that never install a gate pay nothing.

use crate::catalog::Catalog;
use crate::error::EngineError;
use av_plan::PlanNode;
use std::sync::OnceLock;

/// A verifier: inspects a plan against the catalog before execution,
/// returning a human-readable diagnostic on rejection.
pub type PreflightFn = fn(&Catalog, &PlanNode) -> Result<(), String>;

static GATE: OnceLock<PreflightFn> = OnceLock::new();

/// Install a process-wide preflight verifier. The first installation wins;
/// returns `true` iff this call installed the gate (later calls are no-ops
/// returning `false`, so repeated installation is harmless).
pub fn install_preflight(f: PreflightFn) -> bool {
    GATE.set(f).is_ok()
}

/// True iff a verifier has been installed.
pub fn preflight_installed() -> bool {
    GATE.get().is_some()
}

/// Run the installed verifier, if any.
pub(crate) fn check(catalog: &Catalog, plan: &PlanNode) -> Result<(), EngineError> {
    if let Some(f) = GATE.get() {
        f(catalog, plan).map_err(EngineError::Preflight)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::catalog::Table;
    use crate::exec::Executor;
    use crate::meter::Pricing;
    use av_plan::PlanBuilder;

    /// The gate is process-wide and unit tests share one process, so the
    /// test gate only rejects a sentinel table name — every other plan in
    /// this test binary passes through untouched.
    fn reject_sentinel(_: &Catalog, plan: &PlanNode) -> Result<(), String> {
        let mut hit = false;
        plan.visit_preorder(&mut |n| {
            if let PlanNode::TableScan { table, .. } = n {
                hit |= table == "preflight_sentinel";
            }
        });
        if hit {
            Err("rejected by test gate".into())
        } else {
            Ok(())
        }
    }

    #[test]
    fn installed_gate_runs_before_dispatch() {
        assert!(install_preflight(reject_sentinel));
        assert!(
            !install_preflight(reject_sentinel),
            "second install is a no-op"
        );
        assert!(preflight_installed());

        let mut cat = Catalog::new();
        cat.add_table(
            Table::new("preflight_sentinel", vec![("x", Column::Int(vec![1]))]).expect("valid"),
        )
        .expect("ok");
        let plan = PlanBuilder::scan("preflight_sentinel", "a").build();
        let err = Executor::new(&cat, Pricing::paper_defaults())
            .run(&plan)
            .expect_err("gate rejects");
        assert!(matches!(err, EngineError::Preflight(_)), "got {err:?}");

        // Plans not matching the sentinel still execute.
        cat.add_table(Table::new("t", vec![("x", Column::Int(vec![1]))]).expect("valid"))
            .expect("ok");
        let ok = PlanBuilder::scan("t", "a").build();
        assert!(Executor::new(&cat, Pricing::paper_defaults())
            .run(&ok)
            .is_ok());
    }
}
