//! Problem definitions: optimization variants and the optimizer
//! configuration.
//!
//! Problems 1 and 2 of the paper come in several variants (Section 5):
//! with or without stimulus broadcast, with or without abort-on-fail, and
//! with or without re-test of contact failures. [`MultiSiteOptions`] selects
//! the variant; [`OptimizerConfig`] bundles it with the test cell, the yield
//! parameters and the E-RPCT pin environment.

use crate::error::OptimizeError;
use serde::{Deserialize, Serialize};
use soctest_ate::TestCell;
use soctest_wrapper::erpct::ErpctConfig;

/// The optimization variant switches of Section 5.
///
/// Marked `#[non_exhaustive]` so future variants (e.g. per-site abort
/// policies) can be added without breaking downstream crates: construct
/// via [`MultiSiteOptions::baseline`] / [`Default`] and the `with_*`
/// builder methods; the fields stay `pub` for reading and in-place
/// mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub struct MultiSiteOptions {
    /// Whether the ATE broadcasts stimuli to all sites (`k/2` stimulus
    /// channels shared between sites). Without broadcast every site needs
    /// its own `k` channels.
    pub stimulus_broadcast: bool,
    /// Whether the abort-on-fail strategy is applied (the expected test time
    /// follows Equation 4.4 instead of the full test length).
    pub abort_on_fail: bool,
    /// Whether devices failing only the contact test are re-tested once (the
    /// optimizer then maximises the *unique*-device throughput of
    /// Equation 4.6).
    pub retest_contact_failures: bool,
}

impl MultiSiteOptions {
    /// The paper's default scenario: no broadcast, no abort-on-fail, no
    /// re-test.
    pub fn baseline() -> Self {
        MultiSiteOptions::default()
    }

    /// Enables stimulus broadcast.
    pub fn with_broadcast(mut self) -> Self {
        self.stimulus_broadcast = true;
        self
    }

    /// Enables abort-on-fail.
    pub fn with_abort_on_fail(mut self) -> Self {
        self.abort_on_fail = true;
        self
    }

    /// Enables re-test of contact failures.
    pub fn with_retest(mut self) -> Self {
        self.retest_contact_failures = true;
        self
    }
}

/// Complete configuration of one optimizer run.
///
/// Marked `#[non_exhaustive]` so future knobs can be added without
/// breaking downstream crates: construct via [`OptimizerConfig::new`] /
/// [`OptimizerConfig::paper_section7`] and the `with_*` builder methods;
/// the fields stay `pub` for reading and in-place mutation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct OptimizerConfig {
    /// The fixed target test cell (ATE + probe station).
    pub test_cell: TestCell,
    /// The optimization variant.
    pub options: MultiSiteOptions,
    /// Per-terminal contact yield `p_c` (1.0 = ideal probing).
    pub contact_yield: f64,
    /// Per-SOC manufacturing yield `p_m` (1.0 = every die is good).
    pub manufacturing_yield: f64,
    /// Pin environment used to size the E-RPCT wrapper and to count the
    /// contacted pads entering the contact-yield model.
    pub erpct: ErpctConfig,
}

impl OptimizerConfig {
    /// Creates a configuration with ideal yields and the baseline options.
    pub fn new(test_cell: TestCell) -> Self {
        OptimizerConfig {
            test_cell,
            options: MultiSiteOptions::baseline(),
            contact_yield: 1.0,
            manufacturing_yield: 1.0,
            erpct: ErpctConfig::default(),
        }
    }

    /// The configuration used for the PNX8550 experiments of Section 7:
    /// the paper's wafer test cell, ideal yields, no broadcast.
    pub fn paper_section7() -> Self {
        OptimizerConfig::new(TestCell::paper_wafer_test_cell())
    }

    /// Replaces the option switches.
    pub fn with_options(mut self, options: MultiSiteOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the contact yield.
    pub fn with_contact_yield(mut self, contact_yield: f64) -> Self {
        self.contact_yield = contact_yield;
        self
    }

    /// Sets the manufacturing yield.
    pub fn with_manufacturing_yield(mut self, manufacturing_yield: f64) -> Self {
        self.manufacturing_yield = manufacturing_yield;
        self
    }

    /// Replaces the target test cell.
    pub fn with_test_cell(mut self, test_cell: TestCell) -> Self {
        self.test_cell = test_cell;
        self
    }

    /// Replaces the E-RPCT pin environment.
    pub fn with_erpct(mut self, erpct: ErpctConfig) -> Self {
        self.erpct = erpct;
        self
    }

    /// Validates the numeric parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when a yield lies outside
    /// `0.0..=1.0`, the test clock is not a finite frequency above 0, or a
    /// probe-station time is negative or not finite.
    pub fn validate(&self) -> Result<(), OptimizeError> {
        let invalid = |message: String| Err(OptimizeError::InvalidConfig { message });
        validate_yield("contact", self.contact_yield)?;
        validate_yield("manufacturing", self.manufacturing_yield)?;
        let clock = self.test_cell.ate.test_clock_hz;
        if !(clock.is_finite() && clock > 0.0) {
            return invalid(format!("test clock {clock} Hz must be finite and above 0"));
        }
        let probe = &self.test_cell.probe;
        for (name, time) in [
            ("index", probe.index_time_s),
            ("contact test", probe.contact_test_time_s),
        ] {
            if !(time.is_finite() && time >= 0.0) {
                return invalid(format!(
                    "{name} time {time} s must be finite and non-negative"
                ));
            }
        }
        Ok(())
    }
}

/// Checks that a `kind` yield (`"contact"` or `"manufacturing"`) lies in
/// `0.0..=1.0`.
///
/// # Errors
///
/// [`OptimizeError::InvalidConfig`] naming the yield otherwise.
pub(crate) fn validate_yield(kind: &str, value: f64) -> Result<(), OptimizeError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(OptimizeError::InvalidConfig {
            message: format!("{kind} yield {value} out of range 0..=1"),
        })
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::paper_section7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_options_disable_everything() {
        let options = MultiSiteOptions::baseline();
        assert!(!options.stimulus_broadcast);
        assert!(!options.abort_on_fail);
        assert!(!options.retest_contact_failures);
    }

    #[test]
    fn builder_style_switches() {
        let options = MultiSiteOptions::baseline()
            .with_broadcast()
            .with_abort_on_fail()
            .with_retest();
        assert!(options.stimulus_broadcast);
        assert!(options.abort_on_fail);
        assert!(options.retest_contact_failures);
    }

    #[test]
    fn paper_config_uses_paper_cell_and_ideal_yields() {
        let config = OptimizerConfig::paper_section7();
        assert_eq!(config.test_cell.ate.channels, 512);
        assert_eq!(config.contact_yield, 1.0);
        assert_eq!(config.manufacturing_yield, 1.0);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn invalid_yields_fail_validation() {
        let config = OptimizerConfig::paper_section7().with_contact_yield(1.5);
        assert!(config.validate().is_err());
        let config = OptimizerConfig::paper_section7().with_manufacturing_yield(-0.1);
        assert!(config.validate().is_err());
    }

    #[test]
    fn clock_and_probe_times_out_of_range_fail_validation() {
        let message = |config: OptimizerConfig| match config.validate() {
            Err(OptimizeError::InvalidConfig { message }) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        for clock in [0.0, -5.0, f64::INFINITY, f64::NAN] {
            let mut config = OptimizerConfig::paper_section7();
            config.test_cell.ate.test_clock_hz = clock;
            assert!(message(config).contains("test clock"), "clock {clock}");
        }
        for time in [-0.1, f64::INFINITY, f64::NAN] {
            let mut config = OptimizerConfig::paper_section7();
            config.test_cell.probe.index_time_s = time;
            assert!(message(config).starts_with("index time"), "index {time}");
            let mut config = OptimizerConfig::paper_section7();
            config.test_cell.probe.contact_test_time_s = time;
            assert!(
                message(config).starts_with("contact test time"),
                "contact {time}"
            );
        }
        let mut config = OptimizerConfig::paper_section7();
        config.test_cell.probe.index_time_s = 0.0;
        config.test_cell.probe.contact_test_time_s = 0.0;
        assert!(config.validate().is_ok());
    }

    #[test]
    fn default_is_paper_config() {
        assert_eq!(
            OptimizerConfig::default(),
            OptimizerConfig::paper_section7()
        );
    }
}
