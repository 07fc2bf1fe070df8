//! Errors produced by the test-architecture design algorithms.

#[cfg(test)]
use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors of the TAM / channel-group design algorithms.
///
/// Serialises in real serde's externally-tagged enum format (`"EmptySoc"`,
/// `{"ModuleInfeasible": {...}}`), so service-layer error frames keep their
/// wire shape if the vendored serde is swapped for the crates.io release.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TamError {
    /// A single module cannot meet the vector-memory depth even when given
    /// every available ATE channel; the SOC cannot be tested on this ATE.
    ModuleInfeasible {
        /// Name of the offending module.
        module: String,
        /// The vector-memory depth per channel of the target ATE.
        depth: u64,
        /// The maximum width (wrapper chains) that was tried.
        max_width: usize,
    },
    /// The modules individually fit, but no assignment was found within the
    /// available number of ATE channels.
    InsufficientChannels {
        /// Number of ATE channels available for one SOC.
        available_channels: usize,
    },
    /// The SOC contains no modules.
    EmptySoc,
}

impl fmt::Display for TamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamError::ModuleInfeasible {
                module,
                depth,
                max_width,
            } => write!(
                f,
                "module `{module}` cannot fit a vector memory depth of {depth} cycles \
                 even at width {max_width}; the SOC cannot be tested on this ATE"
            ),
            TamError::InsufficientChannels { available_channels } => write!(
                f,
                "no feasible module-to-channel-group assignment within {available_channels} ATE channels"
            ),
            TamError::EmptySoc => write!(f, "the SOC contains no modules"),
        }
    }
}

impl std::error::Error for TamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_module_and_depth() {
        let err = TamError::ModuleInfeasible {
            module: "cpu".into(),
            depth: 1024,
            max_width: 8,
        };
        let text = err.to_string();
        assert!(text.contains("cpu"));
        assert!(text.contains("1024"));
    }

    #[test]
    fn display_for_channel_shortage() {
        let err = TamError::InsufficientChannels {
            available_channels: 16,
        };
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn display_for_empty_soc() {
        assert!(TamError::EmptySoc.to_string().contains("no modules"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<TamError>();
    }

    #[test]
    fn serde_round_trips_every_variant() {
        let variants = [
            TamError::ModuleInfeasible {
                module: "cpu".into(),
                depth: 1024,
                max_width: 8,
            },
            TamError::InsufficientChannels {
                available_channels: 16,
            },
            TamError::EmptySoc,
        ];
        for err in &variants {
            let back = TamError::from_value(&err.to_value()).unwrap();
            assert_eq!(&back, err);
        }
        assert_eq!(
            TamError::EmptySoc.to_value(),
            Value::String("EmptySoc".into())
        );
    }

    #[test]
    fn serde_rejects_unknown_variants() {
        assert!(TamError::from_value(&Value::String("Nope".into())).is_err());
        assert!(TamError::from_value(&Value::Object(vec![("Nope".into(), Value::Null)])).is_err());
        assert!(TamError::from_value(&Value::U64(3)).is_err());
    }
}
