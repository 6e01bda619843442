//! Unified error type for the Cologne runtime.

use cologne_colog::{AnalysisError, LocalizeError, ParseError};

/// Errors surfaced while compiling or executing a Colog program.
#[derive(Debug, Clone, PartialEq)]
pub enum CologneError {
    /// The source text failed to parse.
    Parse(ParseError),
    /// The program failed static analysis.
    Analysis(AnalysisError),
    /// A distributed rule could not be localized.
    Localize(LocalizeError),
    /// A named parameter used by the program has no value in
    /// [`crate::ProgramParams`].
    MissingParameter(String),
    /// A rule referenced a variable that is not bound at the point of use.
    UnboundVariable { rule: String, variable: String },
    /// An expression form is not supported by the Colog→COP translation
    /// (e.g. division by a solver variable).
    UnsupportedExpression { rule: String, detail: String },
    /// The goal declaration references a relation that the solver rules never
    /// derive.
    GoalRelationEmpty(String),
    /// A program without a goal was asked to run constraint optimization.
    NoGoal,
    /// A relation name that the compiled program never mentions — almost
    /// always a typo. Carries a did-you-mean suggestion when a known
    /// relation has a similar name.
    UnknownRelation {
        /// The unrecognized relation name.
        relation: String,
        /// A known relation with a similar name, if any.
        suggestion: Option<String>,
    },
    /// A tuple does not match the relation's schema (wrong arity, or a value
    /// of the wrong kind in a typed column).
    SchemaMismatch {
        /// The relation being written.
        relation: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A configuration value failed validation (see
    /// [`crate::ProgramParams::validate`]).
    InvalidConfig(String),
}

impl std::fmt::Display for CologneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CologneError::Parse(e) => write!(f, "{e}"),
            CologneError::Analysis(e) => write!(f, "{e}"),
            CologneError::Localize(e) => write!(f, "{e}"),
            CologneError::MissingParameter(p) => {
                write!(
                    f,
                    "program parameter '{p}' has no value; set it in ProgramParams"
                )
            }
            CologneError::UnboundVariable { rule, variable } => {
                write!(f, "rule {rule}: variable {variable} is not bound")
            }
            CologneError::UnsupportedExpression { rule, detail } => {
                write!(f, "rule {rule}: unsupported expression: {detail}")
            }
            CologneError::GoalRelationEmpty(rel) => {
                write!(f, "goal relation {rel} is empty after grounding")
            }
            CologneError::NoGoal => write!(f, "program has no goal declaration"),
            CologneError::UnknownRelation {
                relation,
                suggestion,
            } => {
                write!(f, "unknown relation '{relation}'")?;
                if let Some(s) = suggestion {
                    write!(f, "; did you mean '{s}'?")?;
                }
                Ok(())
            }
            CologneError::SchemaMismatch { relation, detail } => {
                write!(f, "schema mismatch on relation '{relation}': {detail}")
            }
            CologneError::InvalidConfig(detail) => {
                write!(f, "invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for CologneError {}

impl From<ParseError> for CologneError {
    fn from(e: ParseError) -> Self {
        CologneError::Parse(e)
    }
}

impl From<AnalysisError> for CologneError {
    fn from(e: AnalysisError) -> Self {
        CologneError::Analysis(e)
    }
}

impl From<LocalizeError> for CologneError {
    fn from(e: LocalizeError) -> Self {
        CologneError::Localize(e)
    }
}

impl From<cologne_datalog::IngestError> for CologneError {
    fn from(e: cologne_datalog::IngestError) -> Self {
        match e {
            cologne_datalog::IngestError::UnknownRelation {
                relation,
                suggestion,
            } => CologneError::UnknownRelation {
                relation,
                suggestion,
            },
            cologne_datalog::IngestError::Schema(s) => CologneError::SchemaMismatch {
                relation: match &s {
                    cologne_datalog::SchemaError::Arity { relation, .. } => relation.clone(),
                    cologne_datalog::SchemaError::Kind { relation, .. } => relation.clone(),
                },
                detail: s.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CologneError::MissingParameter("max_migrates".into());
        assert!(e.to_string().contains("max_migrates"));
        let e = CologneError::UnboundVariable {
            rule: "d1".into(),
            variable: "C".into(),
        };
        assert!(e.to_string().contains("d1"));
        let e = CologneError::GoalRelationEmpty("aggCost".into());
        assert!(e.to_string().contains("aggCost"));
        assert_eq!(
            CologneError::NoGoal.to_string(),
            "program has no goal declaration"
        );
    }

    #[test]
    fn conversions_from_compiler_errors() {
        let parse_err = cologne_colog::parse_program("goal bogus").unwrap_err();
        let e: CologneError = parse_err.into();
        assert!(matches!(e, CologneError::Parse(_)));
    }
}
