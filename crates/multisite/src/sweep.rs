//! Parameter sweeps behind the Section 7 experiments — convenience
//! wrappers over the session-oriented [`crate::engine::Engine`].
//!
//! Every figure of the paper's evaluation is a sweep of the optimizer over
//! one test-cell or yield parameter:
//!
//! * [`channel_sweep`] — throughput vs. ATE channel count (Figure 6(a)),
//! * [`depth_sweep`] — throughput vs. vector-memory depth (Figure 6(b)),
//! * [`contact_yield_sweep`] — unique throughput vs. memory depth for a set
//!   of contact yields (Figure 7(a)),
//! * [`abort_on_fail_sweep`] — expected test application time vs. site
//!   count for a set of manufacturing yields (Figure 7(b)),
//! * [`cost_effectiveness`] — the channels-versus-memory upgrade
//!   comparison quoted in the text of Section 7.
//!
//! Each free function is a thin shim: it builds a one-shot [`Engine`] for
//! the SOC and serves a single typed request, so all sweep semantics
//! (shared demand-driven table, order-preserving rayon parallelism,
//! bit-identical parallel/sequential results) live in the engine. Callers
//! running **more than one** sweep over the same SOC should hold an
//! [`Engine`] themselves and batch the requests — the engine then shares
//! one table across all of them instead of rebuilding it per call.

use crate::engine::{Engine, OptimizeRequest, OptimizeResponse, SweepAxis};
use crate::error::OptimizeError;
use crate::problem::OptimizerConfig;
use crate::solution::SitePoint;
use serde::{Deserialize, Serialize};
use soctest_ate::AteCostModel;
use soctest_soc_model::Soc;
use std::fmt;

/// The typed value of the swept parameter at one sweep point.
///
/// Replaces the former lossy `parameter: f64`: the variant names the axis
/// and the value keeps its native integer type. Serialises in real
/// serde's externally-tagged enum format (`{"Channels": 512}`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AxisValue {
    /// An ATE channel count ([`SweepAxis::Channels`]).
    Channels(usize),
    /// A per-channel vector-memory depth in vectors
    /// ([`SweepAxis::DepthVectors`] and [`SweepAxis::ContactYield`]).
    DepthVectors(u64),
    /// A site count (the x axis of [`SweepAxis::ManufacturingYield`]
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

/// Unwraps a sweeping request's response into its curves. A sweeping axis
/// always answers with curves; a `Solution` here means the engine broke
/// that contract, which surfaces as a typed [`OptimizeError::Internal`]
/// instead of taking the process down.
fn curves_of(response: OptimizeResponse) -> Result<Vec<SweepCurve>, OptimizeError> {
    response.into_curves().ok_or_else(|| {
        OptimizeError::internal("sweeping request answered with a solution instead of curves")
    })
}

/// A throwaway engine pre-sized for exactly one request, so the single
/// run never pays a build-then-rebuild of the table.
fn one_shot_engine(soc: &Soc, request: &OptimizeRequest) -> Engine {
    Engine::builder(soc)
        .max_channels(request.peak_channels())
        .build()
}

/// Throughput vs. ATE channel count (Figure 6(a)): the optimizer is re-run
/// for every channel count in `channel_counts`, all other parameters held
/// at `config`. Convenience wrapper over a one-shot [`Engine`] request
/// with [`SweepAxis::Channels`].
///
/// # Errors
///
/// Fails if any individual optimization fails (e.g. the smallest channel
/// count cannot accommodate the SOC).
pub fn channel_sweep(
    soc: &Soc,
    config: &OptimizerConfig,
    channel_counts: &[usize],
) -> Result<Vec<SweepPoint>, OptimizeError> {
    let request =
        OptimizeRequest::new(*config).with_sweep(SweepAxis::Channels(channel_counts.to_vec()));
    let engine = one_shot_engine(soc, &request);
    let mut curves = curves_of(engine.run(&request)?)?;
    Ok(curves.pop().map(|curve| curve.points).unwrap_or_default())
}

/// Throughput vs. per-channel vector-memory depth (Figure 6(b)).
/// Convenience wrapper over a one-shot [`Engine`] request with
/// [`SweepAxis::DepthVectors`].
///
/// # Errors
///
/// Fails if any individual optimization fails (e.g. the shallowest depth
/// is infeasible for some module).
pub fn depth_sweep(
    soc: &Soc,
    config: &OptimizerConfig,
    depths: &[u64],
) -> Result<Vec<SweepPoint>, OptimizeError> {
    let request =
        OptimizeRequest::new(*config).with_sweep(SweepAxis::DepthVectors(depths.to_vec()));
    let engine = one_shot_engine(soc, &request);
    let mut curves = curves_of(engine.run(&request)?)?;
    Ok(curves.pop().map(|curve| curve.points).unwrap_or_default())
}

/// Unique-device throughput vs. memory depth, one curve per contact yield
/// (Figure 7(a)). Re-test of contact failures is always enabled here —
/// that is the effect the figure demonstrates. Convenience wrapper over a
/// one-shot [`Engine`] request with [`SweepAxis::ContactYield`].
///
/// # Errors
///
/// Fails if any individual optimization fails.
pub fn contact_yield_sweep(
    soc: &Soc,
    config: &OptimizerConfig,
    depths: &[u64],
    contact_yields: &[f64],
) -> Result<Vec<SweepCurve>, OptimizeError> {
    let request = OptimizeRequest::new(*config).with_sweep(SweepAxis::ContactYield {
        depths: depths.to_vec(),
        contact_yields: contact_yields.to_vec(),
    });
    let engine = one_shot_engine(soc, &request);
    curves_of(engine.run(&request)?)
}

/// One point of an abort-on-fail curve: expected test application time at a
/// given site count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbortOnFailPoint {
    /// Number of sites tested in parallel.
    pub sites: usize,
    /// Expected test application time per touchdown in seconds
    /// (Equation 4.4; includes the contact test).
    pub expected_test_time_s: f64,
}

/// Expected test application time vs. site count, one curve per
/// manufacturing yield (Figure 7(b)). Convenience wrapper over a one-shot
/// [`Engine`] request with [`SweepAxis::ManufacturingYield`].
///
/// The architecture is fixed at the Step 1 (channel-minimal) design — as
/// in the paper, the point of the figure is the yield effect, not the
/// channel redistribution — and only the abort-on-fail expectation varies
/// with the site count.
///
/// # Errors
///
/// Fails if the Step 1 design fails.
pub fn abort_on_fail_sweep(
    soc: &Soc,
    config: &OptimizerConfig,
    max_sites: usize,
    manufacturing_yields: &[f64],
) -> Result<Vec<SweepCurve>, OptimizeError> {
    let request = OptimizeRequest::new(*config).with_sweep(SweepAxis::ManufacturingYield {
        max_sites,
        manufacturing_yields: manufacturing_yields.to_vec(),
    });
    let engine = one_shot_engine(soc, &request);
    curves_of(engine.run(&request)?)
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

/// Evaluates the Section 7 cost comparison: double the vector memory of the
/// whole ATE, versus spending the same money on extra channels.
/// Convenience wrapper over [`Engine::cost_effectiveness`].
///
/// # Errors
///
/// Fails if any of the three optimizations (base, deeper memory, more
/// channels) fails.
pub fn cost_effectiveness(
    soc: &Soc,
    config: &OptimizerConfig,
    prices: &AteCostModel,
) -> Result<CostEffectiveness, OptimizeError> {
    // Pre-size for the base cell; the engine widens once more for the
    // channel-upgrade comparison point.
    Engine::builder(soc)
        .max_channels(config.test_cell.ate.channels)
        .build()
        .cost_effectiveness(config, prices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::d695;

    fn config() -> OptimizerConfig {
        OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ))
    }

    #[test]
    fn channel_sweep_is_monotone_in_channels() {
        let soc = d695();
        let points = channel_sweep(&soc, &config(), &[128, 192, 256, 320]).unwrap();
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
        let soc = d695();
        let depths = [64 * 1024, 96 * 1024, 128 * 1024, 192 * 1024];
        let points = depth_sweep(&soc, &config(), &depths).unwrap();
        assert_eq!(points[0].parameter, AxisValue::DepthVectors(64 * 1024));
        for pair in points.windows(2) {
            assert!(pair[1].optimal.devices_per_hour >= pair[0].optimal.devices_per_hour - 1e-9);
        }
    }

    #[test]
    fn contact_yield_sweep_orders_curves_by_yield() {
        let soc = d695();
        let depths = [96 * 1024];
        let curves = contact_yield_sweep(&soc, &config(), &depths, &[0.99, 0.999, 1.0]).unwrap();
        assert_eq!(curves.len(), 3);
        // Better contact yield -> more unique devices per hour.
        let at = |i: usize| curves[i].points[0].optimal.unique_devices_per_hour;
        assert!(at(0) <= at(1) + 1e-9);
        assert!(at(1) <= at(2) + 1e-9);
    }

    #[test]
    fn abort_on_fail_sweep_shows_vanishing_benefit() {
        let soc = d695();
        let curves = abort_on_fail_sweep(&soc, &config(), 8, &[1.0, 0.7]).unwrap();
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
        let soc = d695();
        let result = cost_effectiveness(&soc, &config(), &AteCostModel::paper_prices()).unwrap();
        assert!(result.base_devices_per_hour > 0.0);
        assert!(result.memory_upgrade_devices_per_hour >= result.base_devices_per_hour - 1e-9);
        assert!(result.channel_upgrade_devices_per_hour >= result.base_devices_per_hour - 1e-9);
        assert!(result.channel_upgrade_cost_usd <= result.memory_upgrade_cost_usd + 1e-9);
        assert!(result.memory_gain() >= -1e-12);
        assert!(result.channel_gain() >= -1e-12);
    }

    #[test]
    fn empty_sweeps_return_empty_results() {
        let soc = d695();
        assert!(channel_sweep(&soc, &config(), &[]).unwrap().is_empty());
        assert!(depth_sweep(&soc, &config(), &[]).unwrap().is_empty());
    }

    #[test]
    fn infeasible_sweep_point_propagates_the_error() {
        let soc = d695();
        // 16 channels cannot host d695 at this shallow depth.
        let result = channel_sweep(&soc, &config(), &[256, 4]);
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
