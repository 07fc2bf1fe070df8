//! Errors of the multi-site optimizer.

use serde::{Deserialize, Serialize};
use soctest_soc_model::validate::ValidationIssue;
use soctest_tam::TamError;
use std::fmt;

/// Errors returned by the multi-site optimizer, including the
/// service-facing outcomes of the [`crate::service`] layer (cancellation,
/// deadlines, load shedding, SOC validation).
///
/// Serialises in real serde's externally-tagged enum format (unit
/// variants as bare strings, data variants as single-key objects), so
/// error frames on the service wire keep their shape if the vendored
/// serde is swapped for the crates.io release.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OptimizeError {
    /// The architecture design failed (module infeasible, channel shortage,
    /// empty SOC).
    Architecture(TamError),
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Human-readable description of the problem.
        message: String,
    },
    /// The SOC description failed [`soctest_soc_model::validate_soc`]
    /// with at least one error-severity finding; all findings (including
    /// warnings) ride along so the caller can report them in one round.
    InvalidSoc {
        /// Every validation finding, in validator order.
        issues: Vec<ValidationIssue>,
    },
    /// An invariant the optimizer relies on was broken (a panic caught at
    /// a request boundary, a response of the wrong shape, a poisoned
    /// internal structure). The request failed; the session survives.
    Internal {
        /// Human-readable description of the broken invariant.
        message: String,
    },
    /// The request was cancelled cooperatively before completing.
    Cancelled,
    /// The request's deadline expired before it completed.
    DeadlineExceeded,
    /// The service shed this request because its admission queue was
    /// full; retry later or against a less loaded instance.
    Overloaded,
}

impl OptimizeError {
    /// Shorthand for an [`OptimizeError::Internal`] with the given
    /// message.
    pub fn internal(message: impl Into<String>) -> Self {
        OptimizeError::Internal {
            message: message.into(),
        }
    }
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Architecture(inner) => write!(f, "architecture design failed: {inner}"),
            OptimizeError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
            OptimizeError::InvalidSoc { issues } => {
                let errors = issues
                    .iter()
                    .filter(|i| i.severity == soctest_soc_model::validate::Severity::Error)
                    .count();
                write!(f, "invalid SOC description ({errors} error(s)):")?;
                for issue in issues {
                    write!(f, " {issue};")?;
                }
                Ok(())
            }
            OptimizeError::Internal { message } => write!(f, "internal error: {message}"),
            OptimizeError::Cancelled => write!(f, "request cancelled"),
            OptimizeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            OptimizeError::Overloaded => {
                write!(f, "service overloaded: admission queue full, request shed")
            }
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizeError::Architecture(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<TamError> for OptimizeError {
    fn from(value: TamError) -> Self {
        OptimizeError::Architecture(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::validate::Severity;

    #[test]
    fn wraps_tam_error_with_source() {
        use std::error::Error as _;
        let err: OptimizeError = TamError::EmptySoc.into();
        assert!(err.to_string().contains("no modules"));
        assert!(err.source().is_some());
    }

    #[test]
    fn invalid_config_display() {
        let err = OptimizeError::InvalidConfig {
            message: "contact yield out of range".into(),
        };
        assert!(err.to_string().contains("contact yield"));
    }

    #[test]
    fn service_variant_displays_are_descriptive() {
        assert!(OptimizeError::Cancelled.to_string().contains("cancelled"));
        assert!(OptimizeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(OptimizeError::Overloaded.to_string().contains("overloaded"));
        assert!(OptimizeError::internal("boom").to_string().contains("boom"));
    }

    #[test]
    fn invalid_soc_display_counts_errors() {
        let err = OptimizeError::InvalidSoc {
            issues: vec![
                ValidationIssue {
                    module: Some("m".into()),
                    severity: Severity::Error,
                    message: "zero test patterns".into(),
                },
                ValidationIssue {
                    module: Some("m".into()),
                    severity: Severity::Warning,
                    message: "zero length".into(),
                },
            ],
        };
        let text = err.to_string();
        assert!(text.contains("1 error(s)"));
        assert!(text.contains("zero test patterns"));
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let variants = [
            OptimizeError::Architecture(TamError::InsufficientChannels {
                available_channels: 16,
            }),
            OptimizeError::Architecture(TamError::EmptySoc),
            OptimizeError::InvalidConfig {
                message: "bad yield".into(),
            },
            OptimizeError::InvalidSoc {
                issues: vec![ValidationIssue {
                    module: None,
                    severity: Severity::Error,
                    message: "soc contains no modules".into(),
                }],
            },
            OptimizeError::internal("panic: sweep exploded"),
            OptimizeError::Cancelled,
            OptimizeError::DeadlineExceeded,
            OptimizeError::Overloaded,
        ];
        for err in &variants {
            let json = serde_json::to_string(err).unwrap();
            let back: OptimizeError = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, err, "round trip failed for {json}");
        }
        assert_eq!(
            serde_json::to_string(&OptimizeError::Cancelled).unwrap(),
            "\"Cancelled\""
        );
    }

    #[test]
    fn unknown_variants_are_rejected() {
        assert!(serde_json::from_str::<OptimizeError>("\"Nope\"").is_err());
        assert!(serde_json::from_str::<OptimizeError>("{\"Nope\":{}}").is_err());
    }
}
