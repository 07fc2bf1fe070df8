//! Dense parameter grids for the reproduction driver.
//!
//! The paper sweeps its figures on coarse grids — 9 channel counts, 10
//! depths, 11 depths per Table 1 SOC — which [`soctest_bench`] keeps
//! verbatim. With the incremental row kernel the optimizer is cheap enough
//! to run the same sweeps at 4x the grid density over the same ranges,
//! which is what the committed `artifacts/` are generated from.

use soctest_ate::spec::MEGA_VECTORS;
use soctest_soc_model::benchmarks::{d695, p22810, p34392, p93791};
use soctest_soc_model::Soc;

/// Figure 6(a) channel counts, 4x denser than the seed grid: 512 to 1024
/// in steps of 16 instead of 64 (33 points instead of 9).
pub fn fig6a_channel_counts_dense() -> Vec<usize> {
    (0..=32).map(|i| 512 + 16 * i).collect()
}

/// Figure 6(b) / 7(a) vector-memory depths, 4x denser than the seed grid:
/// 5 M to 14 M vectors in steps of 256 K instead of 1 M (37 points instead
/// of 10).
pub fn fig6b_depths_dense() -> Vec<u64> {
    let step = MEGA_VECTORS / 4;
    (0..=36).map(|i| 5 * MEGA_VECTORS + step * i).collect()
}

/// Figure 7(a) contact yields (the paper's six curves).
pub fn fig7a_contact_yields() -> Vec<f64> {
    soctest_bench::fig7a_contact_yields()
}

/// Figure 7(b) manufacturing yields, denser than the seed's six values:
/// 1.0 down to 0.70 in steps of 0.025 (13 curves).
pub fn fig7b_manufacturing_yields_dense() -> Vec<f64> {
    (0..=12).map(|i| 1.0 - 0.025 * i as f64).collect()
}

/// Figure 7(b) site-count range (doubled versus the seed's 8).
pub const FIG7B_MAX_SITES: usize = 16;

/// `points` evenly spaced integers from `min` to `max` inclusive.
fn linspace(min: u64, max: u64, points: usize) -> Vec<u64> {
    assert!(points >= 2 && max > min);
    (0..points)
        .map(|i| min + (max - min) * i as u64 / (points - 1) as u64)
        .collect()
}

/// Table 1 cases on a 4x-denser depth grid: for each ITC'02 SOC, the ATE
/// channel budget and 41 evenly spaced vector-memory depths spanning the
/// same range as the seed's 11.
pub fn table1_cases_dense() -> Vec<(Soc, usize, Vec<u64>)> {
    vec![
        (d695(), 256, linspace(48 * 1024, 128 * 1024, 41)),
        (p22810(), 512, linspace(384 * 1024, 1024 * 1024, 41)),
        (p34392(), 512, linspace(768 * 1024, 2_000_000, 41)),
        (p93791(), 512, linspace(1_000_000, 3_512_000, 41)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_grids_are_at_least_4x_the_seed_density() {
        // Same ranges as the seed grids, >= 4x the points.
        let seed_channels = soctest_bench::fig6a_channel_counts();
        let dense_channels = fig6a_channel_counts_dense();
        assert_eq!(dense_channels.first(), seed_channels.first());
        assert_eq!(dense_channels.last(), seed_channels.last());
        assert!(dense_channels.len() >= 4 * seed_channels.len() - 4);

        let seed_depths = soctest_bench::fig6b_depths();
        let dense_depths = fig6b_depths_dense();
        assert_eq!(dense_depths.first(), seed_depths.first());
        assert_eq!(dense_depths.last(), seed_depths.last());
        assert!(dense_depths.len() >= 4 * seed_depths.len() - 4);

        for ((seed_soc, seed_ch, seed), (soc, ch, dense)) in soctest_bench::table1_cases()
            .iter()
            .zip(table1_cases_dense().iter())
        {
            assert_eq!(seed_soc.name(), soc.name());
            assert_eq!(seed_ch, ch);
            assert_eq!(seed.first(), dense.first());
            assert!(dense.len() >= 4 * seed.len() - 4);
        }

        // Fig 7(b): grid points = yields x sites, seed 6 x 8 = 48.
        let fig7b_points = fig7b_manufacturing_yields_dense().len() * FIG7B_MAX_SITES;
        assert!(fig7b_points >= 4 * 6 * 8);
    }

    #[test]
    fn grids_are_sorted_and_deduplicated() {
        let depths = fig6b_depths_dense();
        assert!(depths.windows(2).all(|p| p[0] < p[1]));
        for (_, _, depths) in table1_cases_dense() {
            assert!(depths.windows(2).all(|p| p[0] < p[1]));
        }
        let yields = fig7b_manufacturing_yields_dense();
        assert!(yields.windows(2).all(|p| p[0] > p[1]));
        assert_eq!(yields.first().copied(), Some(1.0));
    }
}
