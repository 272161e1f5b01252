//! Typed plan errors shared by the builder's structural checks and the
//! schema verifier in `av-analyze`.

use std::fmt;

/// A well-formedness violation in a logical plan.
///
/// Structural variants (empty projections, duplicate output names) are
/// checkable without a catalog and are enforced at plan-builder exit in
/// debug builds; binding and typing variants require a catalog and are
/// produced by the schema verifier in `av-analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A scan references a table the catalog does not know.
    UnknownTable { table: String },
    /// An expression references a column not produced by its input.
    UnboundColumn {
        column: String,
        /// Operator keyword of the node whose scope was searched.
        operator: &'static str,
        /// Columns that were in scope, for the diagnostic.
        available: Vec<String>,
    },
    /// Two sides of a comparison, join key or arithmetic node have
    /// incompatible types.
    TypeMismatch {
        context: String,
        left: String,
        right: String,
    },
    /// A predicate position holds a non-boolean-coercible expression
    /// (strings are never truthy in the engine).
    NonBooleanPredicate { context: String },
    /// An aggregate is applied to a column its function cannot consume.
    BadAggregate { agg: String, reason: String },
    /// An operator was built in a degenerate shape (empty projection,
    /// empty table name, ...).
    Malformed {
        operator: &'static str,
        reason: String,
    },
    /// Two output columns of one operator share a name.
    DuplicateColumn {
        column: String,
        operator: &'static str,
    },
}

impl PlanError {
    /// Stable diagnostic code, used by tests asserting *which* violation
    /// was detected.
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::UnknownTable { .. } => "unknown-table",
            PlanError::UnboundColumn { .. } => "unbound-column",
            PlanError::TypeMismatch { .. } => "type-mismatch",
            PlanError::NonBooleanPredicate { .. } => "non-boolean-predicate",
            PlanError::BadAggregate { .. } => "bad-aggregate",
            PlanError::Malformed { .. } => "malformed",
            PlanError::DuplicateColumn { .. } => "duplicate-column",
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable { table } => write!(f, "unknown table: {table}"),
            PlanError::UnboundColumn {
                column,
                operator,
                available,
            } => write!(
                f,
                "unbound column {column} in {operator} (in scope: {})",
                available.join(", ")
            ),
            PlanError::TypeMismatch {
                context,
                left,
                right,
            } => write!(f, "type mismatch in {context}: {left} vs {right}"),
            PlanError::NonBooleanPredicate { context } => {
                write!(f, "non-boolean predicate in {context}")
            }
            PlanError::BadAggregate { agg, reason } => {
                write!(f, "bad aggregate {agg}: {reason}")
            }
            PlanError::Malformed { operator, reason } => {
                write!(f, "malformed {operator}: {reason}")
            }
            PlanError::DuplicateColumn { column, operator } => {
                write!(f, "duplicate output column {column} in {operator}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct() {
        let errs = [
            PlanError::UnknownTable { table: "t".into() },
            PlanError::UnboundColumn {
                column: "c".into(),
                operator: "Filter",
                available: vec![],
            },
            PlanError::TypeMismatch {
                context: "x".into(),
                left: "Int".into(),
                right: "String".into(),
            },
            PlanError::NonBooleanPredicate {
                context: "x".into(),
            },
            PlanError::BadAggregate {
                agg: "SUM".into(),
                reason: "r".into(),
            },
            PlanError::Malformed {
                operator: "Project",
                reason: "r".into(),
            },
            PlanError::DuplicateColumn {
                column: "c".into(),
                operator: "Project",
            },
        ];
        let mut codes: Vec<&str> = errs.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }

    #[test]
    fn display_mentions_the_offender() {
        let e = PlanError::UnboundColumn {
            column: "t1.ghost".into(),
            operator: "Filter",
            available: vec!["t1.id".into()],
        };
        let s = e.to_string();
        assert!(s.contains("t1.ghost") && s.contains("t1.id"));
    }
}
