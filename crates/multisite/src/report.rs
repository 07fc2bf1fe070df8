//! Plain-text and JSON reporting of optimizer results.
//!
//! The benchmark binaries print their tables through these helpers so that
//! every figure/table generator produces the same, easily diffable layout.

use crate::solution::{MultiSiteSolution, SitePoint};
use crate::sweep::SweepPoint;
use std::fmt::Write as _;

/// Formats the full throughput-versus-sites curve of a solution as an
/// aligned text table (the data behind Figure 5).
pub fn format_throughput_curve(solution: &MultiSiteSolution) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SOC {}  (n_max = {}, n_opt = {})",
        solution.soc_name, solution.max_sites, solution.optimal.sites
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>8} {:>14} {:>12} {:>12}",
        "n", "k/site", "width", "t_m [cycles]", "t_m [s]", "D_th [/h]"
    );
    for point in &solution.curve {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>14} {:>12.4} {:>12.1}{}",
            point.sites,
            point.channels_per_site,
            point.tam_width,
            point.test_time_cycles,
            point.manufacturing_test_time_s,
            point.devices_per_hour,
            if point.sites == solution.optimal.sites {
                "  <= optimal"
            } else {
                ""
            }
        );
    }
    out
}

/// Formats a single sweep as a two-column text table.
pub fn format_sweep(
    title: &str,
    parameter_name: &str,
    value_name: &str,
    points: &[SweepPoint],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>14} {:>14} {:>8} {:>8}",
        parameter_name, value_name, "n_opt", "n_max"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:>14} {:>14.1} {:>8} {:>8}",
            point.parameter,
            point.optimal.objective(),
            point.optimal.sites,
            point.max_sites
        );
    }
    out
}

/// One-line summary of a solution.
pub fn solution_summary(solution: &MultiSiteSolution) -> String {
    format!(
        "{}: k={} channels/site, n_opt={} of n_max={}, t_m={:.3}s, {:.0} devices/hour",
        solution.soc_name,
        solution.optimal.channels_per_site,
        solution.optimal.sites,
        solution.max_sites,
        solution.optimal.manufacturing_test_time_s,
        solution.optimal.devices_per_hour
    )
}

/// Serialises any serde-serialisable result to pretty JSON (for the
/// figure-generator binaries' `--json` style output).
///
/// # Panics
///
/// Panics if serialisation fails, which cannot happen for the crate's own
/// result types.
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialisable result type")
}

/// Formats one [`SitePoint`] as a compact single line.
pub fn point_summary(point: &SitePoint) -> String {
    format!(
        "n={} k={} t={:.3}s D_th={:.1}/h",
        point.sites,
        point.channels_per_site,
        point.manufacturing_test_time_s,
        point.devices_per_hour
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, OptimizeRequest, SweepAxis};
    use crate::optimizer::optimize;
    use crate::problem::OptimizerConfig;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::d695;

    fn solution() -> MultiSiteSolution {
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        optimize(&d695(), &config).unwrap()
    }

    #[test]
    fn curve_table_has_one_row_per_site_count() {
        let solution = solution();
        let text = format_throughput_curve(&solution);
        assert_eq!(text.lines().count(), 2 + solution.curve.len());
        assert!(text.contains("<= optimal"));
    }

    #[test]
    fn summary_mentions_key_quantities() {
        let solution = solution();
        let text = solution_summary(&solution);
        assert!(text.contains("d695"));
        assert!(text.contains("devices/hour"));
        assert!(point_summary(&solution.optimal).contains("D_th"));
    }

    #[test]
    fn sweep_table_lists_all_points() {
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        let request = OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(vec![128, 256]));
        let curves = Engine::new(&d695())
            .run(&request)
            .unwrap()
            .into_curves()
            .unwrap();
        let points = &curves[0].points;
        let text = format_sweep("Fig 6(a)", "channels", "D_th", points);
        assert!(text.contains("Fig 6(a)"));
        assert_eq!(text.lines().count(), 2 + points.len());
    }

    #[test]
    fn json_round_trips_site_points() {
        let solution = solution();
        let json = to_json(&solution.optimal);
        let back: crate::solution::SitePoint = serde_json::from_str(&json).unwrap();
        // Integer fields survive exactly; floats may lose the last ULP in
        // serde_json's default float parser, so compare with a tolerance.
        assert_eq!(back.sites, solution.optimal.sites);
        assert_eq!(back.channels_per_site, solution.optimal.channels_per_site);
        assert_eq!(back.test_time_cycles, solution.optimal.test_time_cycles);
        let rel = (back.devices_per_hour - solution.optimal.devices_per_hour).abs()
            / solution.optimal.devices_per_hour;
        assert!(rel < 1e-12);
    }
}
