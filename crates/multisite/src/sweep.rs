//! The result types of the Section 7 parameter sweeps.
//!
//! Every figure of the paper's evaluation is a sweep of the optimizer over
//! one test-cell or yield parameter, and each is one
//! [`crate::engine::Engine`] request with a
//! [`SweepAxis`](crate::engine::SweepAxis):
//!
//! * `Channels` — throughput vs. ATE channel count (Figure 6(a)),
//! * `DepthVectors` — throughput vs. vector-memory depth (Figure 6(b)),
//! * `ContactYield` — unique throughput vs. memory depth for a set of
//!   contact yields (Figure 7(a)),
//! * `ManufacturingYield` — expected test application time vs. site count
//!   for a set of manufacturing yields (Figure 7(b)).
//!
//! A sweeping request answers with [`SweepCurve`]s of [`SweepPoint`]s,
//! each point keyed by its typed [`AxisValue`].
//! [`Engine::cost_effectiveness`](crate::engine::Engine::cost_effectiveness)
//! answers the channels-versus-memory upgrade comparison quoted in the
//! text of Section 7 with a [`CostEffectiveness`].

use crate::solution::SitePoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The typed value of the swept parameter at one sweep point.
///
/// Replaces the former lossy `parameter: f64`: the variant names the axis
/// and the value keeps its native integer type. Serialises in real
/// serde's externally-tagged enum format (`{"Channels": 512}`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AxisValue {
    /// An ATE channel count (`SweepAxis::Channels`).
    Channels(usize),
    /// A per-channel vector-memory depth in vectors
    /// (`SweepAxis::DepthVectors` and `SweepAxis::ContactYield`).
    DepthVectors(u64),
    /// A site count (the x axis of `SweepAxis::ManufacturingYield`
    /// curves).
    Sites(usize),
}

impl AxisValue {
    /// The raw value as a `u64` (all axes are integer-valued).
    pub fn as_u64(self) -> u64 {
        match self {
            AxisValue::Channels(channels) => channels as u64,
            AxisValue::DepthVectors(depth) => depth,
            AxisValue::Sites(sites) => sites as u64,
        }
    }

    /// The raw value as an `f64` (for plotting / ratio arithmetic).
    pub fn as_f64(self) -> f64 {
        self.as_u64() as f64
    }
}

impl fmt::Display for AxisValue {
    /// Displays just the numeric value (delegating, so `{:>14}`-style
    /// padding works), matching what the former `f64` field printed for
    /// the integer-valued axes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Channels(channels) => fmt::Display::fmt(channels, f),
            AxisValue::DepthVectors(depth) => fmt::Display::fmt(depth, f),
            AxisValue::Sites(sites) => fmt::Display::fmt(sites, f),
        }
    }
}

/// One point of a single-parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (channel count, depth in vectors, ...).
    pub parameter: AxisValue,
    /// The maximum multi-site at this parameter value.
    pub max_sites: usize,
    /// The throughput-optimal operating point at this parameter value.
    pub optimal: SitePoint,
}

/// A labelled family of sweep points (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurve {
    /// Curve label (e.g. `"pc = 0.999"`).
    pub label: String,
    /// The curve's points, in the order of the swept values.
    pub points: Vec<SweepPoint>,
}

/// Outcome of the channels-versus-memory cost comparison of Section 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEffectiveness {
    /// Throughput of the unmodified test cell.
    pub base_devices_per_hour: f64,
    /// Cost (USD) of doubling the vector memory of every channel.
    pub memory_upgrade_cost_usd: f64,
    /// Throughput after the memory doubling.
    pub memory_upgrade_devices_per_hour: f64,
    /// Extra channels that the same budget buys instead.
    pub equivalent_extra_channels: usize,
    /// Cost (USD) of that channel upgrade (at most the memory budget).
    pub channel_upgrade_cost_usd: f64,
    /// Throughput after the channel upgrade.
    pub channel_upgrade_devices_per_hour: f64,
}

impl CostEffectiveness {
    /// Relative throughput gain of the memory upgrade.
    pub fn memory_gain(&self) -> f64 {
        self.memory_upgrade_devices_per_hour / self.base_devices_per_hour - 1.0
    }

    /// Relative throughput gain of the channel upgrade.
    pub fn channel_gain(&self) -> f64 {
        self.channel_upgrade_devices_per_hour / self.base_devices_per_hour - 1.0
    }

    /// Whether spending the budget on memory beats spending it on channels
    /// (the paper's conclusion for the PNX8550).
    pub fn memory_wins(&self) -> bool {
        self.memory_gain() > self.channel_gain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, OptimizeRequest, SweepAxis};
    use crate::error::OptimizeError;
    use crate::problem::OptimizerConfig;
    use soctest_ate::{AteCostModel, AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::d695;

    fn config() -> OptimizerConfig {
        OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ))
    }

    /// The curves of one sweeping request on a fresh d695 engine.
    fn sweep(axis: SweepAxis) -> Result<Vec<SweepCurve>, OptimizeError> {
        Engine::new(&d695())
            .run(&OptimizeRequest::new(config()).with_sweep(axis))
            .map(|response| response.into_curves().expect("a sweep answers with curves"))
    }

    /// The points of a single-curve sweep.
    fn points(axis: SweepAxis) -> Vec<SweepPoint> {
        sweep(axis).unwrap().remove(0).points
    }

    #[test]
    fn channel_sweep_is_monotone_in_channels() {
        let points = points(SweepAxis::Channels(vec![128, 192, 256, 320]));
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].parameter, AxisValue::Channels(128));
        for pair in points.windows(2) {
            assert!(
                pair[1].optimal.devices_per_hour >= pair[0].optimal.devices_per_hour - 1e-9,
                "throughput dropped from {} to {}",
                pair[0].optimal.devices_per_hour,
                pair[1].optimal.devices_per_hour
            );
        }
    }

    #[test]
    fn depth_sweep_is_monotone_in_depth() {
        let depths = vec![64 * 1024, 96 * 1024, 128 * 1024, 192 * 1024];
        let points = points(SweepAxis::DepthVectors(depths));
        assert_eq!(points[0].parameter, AxisValue::DepthVectors(64 * 1024));
        for pair in points.windows(2) {
            assert!(pair[1].optimal.devices_per_hour >= pair[0].optimal.devices_per_hour - 1e-9);
        }
    }

    #[test]
    fn contact_yield_sweep_orders_curves_by_yield() {
        let curves = sweep(SweepAxis::ContactYield {
            depths: vec![96 * 1024],
            contact_yields: vec![0.99, 0.999, 1.0],
        })
        .unwrap();
        assert_eq!(curves.len(), 3);
        // Better contact yield -> more unique devices per hour.
        let at = |i: usize| curves[i].points[0].optimal.unique_devices_per_hour;
        assert!(at(0) <= at(1) + 1e-9);
        assert!(at(1) <= at(2) + 1e-9);
    }

    #[test]
    fn abort_on_fail_sweep_shows_vanishing_benefit() {
        let curves = sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: vec![1.0, 0.7],
        })
        .unwrap();
        assert_eq!(curves.len(), 2);
        let perfect = &curves[0];
        let lossy = &curves[1];
        // At perfect yield the expected time is flat in the site count.
        let t0 = perfect.points[0].optimal.expected_test_time_s;
        assert!(perfect
            .points
            .iter()
            .all(|p| (p.optimal.expected_test_time_s - t0).abs() < 1e-9));
        // At 70% yield the single-site time is clearly lower, but approaches
        // the full time as sites are added.
        assert!(lossy.points[0].optimal.expected_test_time_s < 0.8 * t0);
        let last = lossy.points.last().unwrap().optimal.expected_test_time_s;
        assert!(last > 0.95 * t0);
        // The x axis is the site count.
        assert_eq!(lossy.points[3].parameter, AxisValue::Sites(4));
    }

    #[test]
    fn cost_effectiveness_reports_consistent_numbers() {
        let result = Engine::new(&d695())
            .cost_effectiveness(&config(), &AteCostModel::paper_prices())
            .unwrap();
        assert!(result.base_devices_per_hour > 0.0);
        assert!(result.memory_upgrade_devices_per_hour >= result.base_devices_per_hour - 1e-9);
        assert!(result.channel_upgrade_devices_per_hour >= result.base_devices_per_hour - 1e-9);
        assert!(result.channel_upgrade_cost_usd <= result.memory_upgrade_cost_usd + 1e-9);
        assert!(result.memory_gain() >= -1e-12);
        assert!(result.channel_gain() >= -1e-12);
    }

    #[test]
    fn empty_sweeps_return_empty_results() {
        assert!(points(SweepAxis::Channels(vec![])).is_empty());
        assert!(points(SweepAxis::DepthVectors(vec![])).is_empty());
    }

    #[test]
    fn infeasible_sweep_point_propagates_the_error() {
        // 4 channels cannot host d695 at this shallow depth.
        let result = sweep(SweepAxis::Channels(vec![256, 4]));
        assert!(result.is_err());
    }

    #[test]
    fn axis_values_display_as_their_raw_number() {
        assert_eq!(AxisValue::Channels(512).to_string(), "512");
        assert_eq!(format!("{:>7}", AxisValue::DepthVectors(98304)), "  98304");
        assert_eq!(AxisValue::Sites(4).as_u64(), 4);
        assert_eq!(AxisValue::DepthVectors(5).as_f64(), 5.0);
    }

    #[test]
    fn axis_values_round_trip_through_json() {
        for value in [
            AxisValue::Channels(512),
            AxisValue::DepthVectors(7 * 1024 * 1024),
            AxisValue::Sites(3),
        ] {
            let json = serde_json::to_string(&value).unwrap();
            assert_eq!(serde_json::from_str::<AxisValue>(&json).unwrap(), value);
        }
        assert_eq!(
            serde_json::to_string(&AxisValue::Channels(512)).unwrap(),
            "{\"Channels\":512}"
        );
        assert!(serde_json::from_str::<AxisValue>("{\"Nope\":1}").is_err());
    }
}
