//! The Section 7 experiment parameters, shared by every consumer.
//!
//! This library crate configures the PNX8550 stand-in, the target ATE, the
//! probe station and the paper's own sweep grids in exactly one place.
//! `soctest-experiments` regenerates and golden-checks every figure and
//! table from them on 4x-denser grids (`soctest-repro`), the service
//! benchmark in `perfbench/` builds its workloads on them, and
//! `tests/baseline_gates.rs` runs the fast-path bit-identity and
//! speed-ratio gates on the four-figure batch they define. Two binaries
//! print the analyses no golden artifact carries: `cost_analysis` (the
//! Section 7 memory-versus-channels cost comparison) and `mc_validation`
//! (a Monte-Carlo check of the analytic throughput model).
//!
//! # Example
//!
//! ```
//! use soctest_bench::{fig6a_channel_counts, paper_config, pnx_soc};
//!
//! // The Section 7 experiment setup: the 274-module PNX8550 stand-in on
//! // the paper's 512-channel, 7 M-vector test cell.
//! assert_eq!(pnx_soc().num_modules(), 274);
//! assert_eq!(paper_config().test_cell.ate.channels, 512);
//! assert_eq!(fig6a_channel_counts(), (0..=8).map(|i| 512 + 64 * i).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use soctest_ate::spec::MEGA_VECTORS;
use soctest_multisite::problem::OptimizerConfig;
use soctest_soc_model::synthetic::pnx8550_like;
use soctest_soc_model::Soc;

/// The PNX8550 stand-in used by all Section 7 experiments.
pub fn pnx_soc() -> Soc {
    pnx8550_like()
}

/// The paper's Section 7 configuration: 512-channel ATE, 7 M vectors per
/// channel, 5 MHz test clock, 100 ms index time, 1 ms contact test, no
/// stimulus broadcast, ideal yields.
pub fn paper_config() -> OptimizerConfig {
    OptimizerConfig::paper_section7()
}

/// The channel counts swept in Figure 6(a): 512 to 1024 in steps of 64.
pub fn fig6a_channel_counts() -> Vec<usize> {
    (0..=8).map(|i| 512 + 64 * i).collect()
}

/// The vector-memory depths swept in Figure 6(b) and 7(a): 5 M to 14 M.
pub fn fig6b_depths() -> Vec<u64> {
    (5..=14).map(|m| m * MEGA_VECTORS).collect()
}

/// The contact yields of Figure 7(a).
pub fn fig7a_contact_yields() -> Vec<f64> {
    vec![1.0, 0.9999, 0.9998, 0.999, 0.998, 0.99]
}

/// The manufacturing yields of Figure 7(b).
pub fn fig7b_manufacturing_yields() -> Vec<f64> {
    vec![1.0, 0.98, 0.95, 0.90, 0.80, 0.70]
}

/// The Table 1 sweep: for each ITC'02 SOC, the ATE channel count used for
/// the multi-site computation and the list of vector-memory depths.
pub fn table1_cases() -> Vec<(Soc, usize, Vec<u64>)> {
    use soctest_soc_model::benchmarks::{d695, p22810, p34392, p93791};
    vec![
        (d695(), 256, (0..11).map(|i| (48 + 8 * i) * 1024).collect()),
        (
            p22810(),
            512,
            (0..11).map(|i| (384 + 64 * i) * 1024).collect(),
        ),
        (
            p34392(),
            512,
            vec![
                768 * 1024,
                896 * 1024,
                1_000_000,
                1_128_000,
                1_256_000,
                1_384_000,
                1_512_000,
                1_640_000,
                1_768_000,
                1_896_000,
                2_000_000,
            ],
        ),
        (
            p93791(),
            512,
            vec![
                1_000_000, 1_256_000, 1_512_000, 1_768_000, 2_000_000, 2_256_000, 2_512_000,
                2_768_000, 3_000_000, 3_256_000, 3_512_000,
            ],
        ),
    ]
}

/// Formats a depth in the paper's "K / M" notation.
pub fn format_depth(depth: u64) -> String {
    if depth >= 1_000_000 {
        format!("{:.3}M", depth as f64 / 1.0e6)
    } else {
        format!("{}K", depth / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_parameters_match_the_paper() {
        assert_eq!(fig6a_channel_counts().first(), Some(&512));
        assert_eq!(fig6a_channel_counts().last(), Some(&1024));
        assert_eq!(fig6b_depths().len(), 10);
        assert_eq!(fig7a_contact_yields().len(), 6);
        assert_eq!(fig7b_manufacturing_yields().len(), 6);
        assert_eq!(table1_cases().len(), 4);
        assert!(table1_cases()
            .iter()
            .all(|(_, _, depths)| depths.len() == 11));
    }

    #[test]
    fn depth_formatting() {
        assert_eq!(format_depth(48 * 1024), "48K");
        assert_eq!(format_depth(1_256_000), "1.256M");
    }

    #[test]
    fn paper_config_is_the_512_channel_cell() {
        assert_eq!(paper_config().test_cell.ate.channels, 512);
        assert_eq!(pnx_soc().num_modules(), 274);
    }
}
