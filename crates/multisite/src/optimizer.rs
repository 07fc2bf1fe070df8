//! The two-step optimizer (Section 6 of the paper).
//!
//! * **Step 1** designs the channel-minimal test architecture for the SOC on
//!   the target ATE (delegated to [`soctest_tam::step1`]). Its total width
//!   `W1` sets the per-SOC channel count `k = 2·W1`, which determines the
//!   maximum multi-site `n_max`.
//! * **Step 2** walks the site count `n` from `n_max` down to 1. At each
//!   `n` a site gets [`channels_per_site`]`(C, n)` of the `C` ATE channels,
//!   so `extra(n) = channels_per_site(C, n)/2 − W1` wrapper chains are free;
//!   they are handed out one at a time, always to the fullest channel group
//!   ([`soctest_tam::redistribute`]). The test time and throughput are
//!   re-evaluated, and the `n` with the highest throughput is `n_opt`.
//!
//! # Step 2 is one greedy trajectory
//!
//! Handing out a chain never revisits an earlier choice, so the
//! architecture after `e` chains is a prefix of the one after `e + 1`.
//! Walking `n` down walks `e = extra(n)` up along a single trajectory, and
//! a curve point needs only the total width and the fullest group's fill
//! at `extra(n)`; yields, abort-on-fail and retest only weight the points
//! ([`evaluate_point`]).
//!
//! Step 1 depends on the SOC, the depth and the table, but not on `C`: the
//! channel count only caps the total width. Whenever Step 1 succeeds — that
//! is, whenever `W1 ≤ C/2` — it builds the same architecture from the same
//! table probes for every `C`.
//!
//! # The reference and the engine's path
//!
//! [`optimize_with_table`] is the reference: it reruns Step 1 and restarts
//! the redistribution at every `n`. The [`crate::engine::Engine`] keeps,
//! per table snapshot and depth, Step 1's architecture and the trajectory,
//! extended only as far as a request needs. A curve then costs O(`n_max`)
//! arithmetic, and only `n_opt`'s architecture is rebuilt, by replaying a
//! prefix of the trajectory. The engine takes that path only where it is
//! exact: the config validates, the table is at least `C/2` wide and
//! `W1 ≤ C/2`. Everything else runs the reference — invalid configs,
//! infeasible points, and tables narrower than `C/2`, where the
//! reference's headroom clamp applies — so error text stays exact. Both
//! paths give bit-identical results and probe the same table cells
//! (`tests/proptest_plan_oracle.rs`).

use crate::error::OptimizeError;
use crate::problem::OptimizerConfig;
use crate::solution::{MultiSiteSolution, SitePoint};
use soctest_soc_model::Soc;
use soctest_tam::redistribute::redistribute_extra_width;
use soctest_tam::step1::design_with_table;
use soctest_tam::{TestArchitecture, TimeLookup};
use soctest_throughput::retest::{retest_rate, unique_devices_per_hour};
use soctest_throughput::{TestTimes, ThroughputModel, YieldParams};

/// Runs the complete two-step optimization for `soc` under `config`.
///
/// Convenience wrapper over a one-shot [`crate::engine::Engine`] request
/// with [`crate::engine::SweepAxis::None`]; callers running many
/// optimizations over the same SOC should hold an engine themselves and
/// batch the requests, sharing one demand-driven
/// [`soctest_tam::LazyTimeTable`] across all of them. The two steps only
/// probe a sparse subset of the
/// `(module, width)` space (binary searches in Step 1, one-step group
/// widenings in Step 2), so cells are computed on first probe only —
/// probed entries are bit-identical to an eager [`soctest_tam::TimeTable`]
/// build, and so is the solution.
///
/// # Errors
///
/// * [`OptimizeError::InvalidConfig`] when a yield parameter is out of
///   range,
/// * [`OptimizeError::Architecture`] when the SOC cannot be tested on the
///   target ATE at all (some module does not meet the vector-memory depth,
///   or the channel count is insufficient).
pub fn optimize(soc: &Soc, config: &OptimizerConfig) -> Result<MultiSiteSolution, OptimizeError> {
    // Pre-size the one-shot engine's table so the single request never
    // pays a build-then-rebuild.
    let engine = crate::engine::Engine::builder(soc)
        .max_channels(config.test_cell.ate.channels)
        .build();
    let response = engine.run(&crate::engine::OptimizeRequest::new(*config))?;
    Ok(response
        .into_solution()
        .expect("a SweepAxis::None request always answers with a solution"))
}

/// Runs the two-step optimization on a prebuilt table (eager
/// [`soctest_tam::TimeTable`] or [`soctest_tam::LazyTimeTable`] — any
/// [`TimeLookup`]).
///
/// Sharing the table across runs (e.g. in the Figure 6 sweeps, where only
/// the ATE changes) avoids recomputing every module's wrapper designs. The
/// table may be narrower than the channel budget implies
/// (`max_width < channels / 2`); redistribution then stops at the table's
/// width instead of panicking on an out-of-range lookup.
///
/// # Errors
///
/// See [`optimize`].
pub fn optimize_with_table<T: TimeLookup + ?Sized>(
    soc_name: &str,
    table: &T,
    config: &OptimizerConfig,
) -> Result<MultiSiteSolution, OptimizeError> {
    config.validate()?;
    let ate = &config.test_cell.ate;
    let channels = ate.channels;
    let depth = ate.vector_memory_depth;

    // Step 1: channel-minimal architecture and maximum multi-site.
    let step1 = design_with_table(table, channels, depth)?;
    let max_sites = max_sites_for(&step1, channels, config.options.stimulus_broadcast).max(1);

    // Step 2: evaluate every site count, redistributing freed channels.
    let mut curve = Vec::with_capacity(max_sites);
    for sites in 1..=max_sites {
        let architecture = architecture_for_sites(&step1, table, channels, sites, config);
        curve.push(evaluate_point(&architecture, sites, config));
    }
    let best_index = optimal_index(&curve);
    let optimal = curve[best_index].clone();
    // Redistribution is deterministic, so rebuilding the winning
    // architecture reproduces the one evaluated above exactly; this keeps
    // the loop from retaining one architecture clone per site count.
    let optimal_architecture =
        architecture_for_sites(&step1, table, channels, best_index + 1, config);

    let contacted_pads_per_site = contacted_pads(optimal.channels_per_site, config);
    Ok(MultiSiteSolution {
        soc_name: soc_name.to_string(),
        step1_architecture: step1,
        max_sites,
        curve,
        optimal,
        optimal_architecture,
        contacted_pads_per_site,
    })
}

/// The architecture used at `sites` sites: Step 1's, widened by the
/// channels freed relative to the maximum multi-site.
fn architecture_for_sites<T: TimeLookup + ?Sized>(
    step1: &TestArchitecture,
    table: &T,
    channels: usize,
    sites: usize,
    config: &OptimizerConfig,
) -> TestArchitecture {
    let available = channels_per_site(channels, sites, config.options.stimulus_broadcast);
    // Clamp the request to the widening the table can still absorb (every
    // group is capped at the table's max width). The redistribution loop
    // independently skips capped groups, so the clamp never changes the
    // resulting architecture; it makes the narrow-prebuilt-table contract
    // (max_width < available / 2 must stay panic-free) explicit at this
    // call site and keeps the requested width meaningful for bookkeeping.
    let headroom: usize = step1
        .groups
        .iter()
        .map(|g| table.max_width().saturating_sub(g.width))
        .sum();
    let extra_width = (available / 2)
        .saturating_sub(step1.total_width())
        .min(headroom);
    if extra_width > 0 {
        redistribute_extra_width(step1, table, extra_width).architecture
    } else {
        step1.clone()
    }
}

/// Index of the throughput-optimal point of a Step 2 curve.
///
/// The comparison is a plain strict `>`. An earlier formulation compared
/// against `objective + f64::EPSILON`: for objectives ≥ 4.0 — every
/// realistic devices-per-hour magnitude — the absolute machine epsilon is
/// under half an ulp, so the addend rounded away and that form already
/// behaved strictly; at smaller magnitudes it could swallow genuine
/// one-ulp improvements, making the selection scale-dependent. The strict
/// form removes that dependence.
/// Exact ties keep the earliest point: an explicit tie-break toward the
/// **lower** site count, which reaches the same throughput with fewer
/// contacted pads and less probe hardware.
pub(crate) fn optimal_index(curve: &[SitePoint]) -> usize {
    assert!(!curve.is_empty(), "at least one site must be evaluated");
    let mut best = 0;
    for (index, point) in curve.iter().enumerate().skip(1) {
        if point.objective() > curve[best].objective() {
            best = index;
        }
    }
    best
}

/// The "Step 1 only" throughput curve (the dashed line of Figure 5): the
/// architecture is kept at its channel-minimal form for every site count,
/// i.e. no channel redistribution takes place and the test time stays
/// constant.
pub fn step1_only_curve(
    step1: &TestArchitecture,
    config: &OptimizerConfig,
    max_sites: usize,
) -> Vec<SitePoint> {
    (1..=max_sites.max(1))
        .map(|sites| evaluate_point(step1, sites, config))
        .collect()
}

/// Evaluates the throughput of testing `sites` copies of the SOC in
/// parallel, each wired to `architecture`.
pub fn evaluate_point(
    architecture: &TestArchitecture,
    sites: usize,
    config: &OptimizerConfig,
) -> SitePoint {
    site_point(
        architecture.test_time_cycles(),
        architecture.total_width(),
        sites,
        config,
    )
}

/// [`evaluate_point`] for an architecture of total width `tam_width`
/// whose fullest group fills `cycles`: the only two facts about the
/// architecture a curve point depends on.
pub(crate) fn site_point(
    cycles: u64,
    tam_width: usize,
    sites: usize,
    config: &OptimizerConfig,
) -> SitePoint {
    let ate = &config.test_cell.ate;
    let probe = &config.test_cell.probe;
    let manufacturing_test_time_s = ate.cycles_to_seconds(cycles);
    let channels_used = 2 * tam_width;
    let pins = contacted_pads(channels_used, config);

    let model = ThroughputModel::new(
        TestTimes {
            index_time_s: probe.index_time_s,
            contact_test_time_s: probe.contact_test_time_s,
            manufacturing_test_time_s,
        },
        YieldParams {
            contact_yield: config.contact_yield,
            manufacturing_yield: config.manufacturing_yield,
            contacted_pins: pins,
        },
    );

    let (expected_test_time_s, devices_per_hour) = if config.options.abort_on_fail {
        (
            model.abort_on_fail_test_time(sites),
            model.devices_per_hour_abort_on_fail(sites),
        )
    } else {
        (model.times.test_time_s(), model.devices_per_hour(sites))
    };
    let unique = if config.options.retest_contact_failures {
        unique_devices_per_hour(devices_per_hour, retest_rate(pins, config.contact_yield))
    } else {
        devices_per_hour
    };

    SitePoint {
        sites,
        channels_per_site: channels_used,
        tam_width,
        test_time_cycles: cycles,
        manufacturing_test_time_s,
        expected_test_time_s,
        devices_per_hour,
        unique_devices_per_hour: unique,
    }
}

/// Maximum multi-site supported by `architecture` on an ATE with
/// `channels` channels, with or without stimulus broadcast (Section 6,
/// Step 1).
pub fn max_sites_for(architecture: &TestArchitecture, channels: usize, broadcast: bool) -> usize {
    if broadcast {
        architecture.max_sites_with_broadcast(channels)
    } else {
        architecture.max_sites_without_broadcast(channels)
    }
}

/// Even number of ATE channels available to each of `sites` sites.
///
/// Without broadcast every site gets its own stimulus and response
/// channels: `2·⌊⌊K/n⌋ / 2⌋`. With stimulus broadcast the stimulus half is
/// shared by all sites: `k/2·(n+1) ≤ K`, i.e. `2·⌊K/(n+1)⌋`.
pub fn channels_per_site(channels: usize, sites: usize, broadcast: bool) -> usize {
    assert!(sites > 0, "at least one site is required");
    if broadcast {
        2 * (channels / (sites + 1))
    } else {
        2 * (channels / sites / 2)
    }
}

pub(crate) fn contacted_pads(channels_per_site: usize, config: &OptimizerConfig) -> usize {
    channels_per_site
        + config.erpct.control_pins
        + config.erpct.clock_pins
        + config.erpct.power_pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MultiSiteOptions;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::{d695, p22810};

    fn small_cell() -> TestCell {
        TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        )
    }

    #[test]
    fn optimize_d695_produces_consistent_solution() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell());
        let solution = optimize(&soc, &config).unwrap();
        assert_eq!(solution.curve.len(), solution.max_sites);
        assert!(solution.optimal.sites >= 1 && solution.optimal.sites <= solution.max_sites);
        // The optimum is the maximum of the curve.
        let best_on_curve = solution
            .curve
            .iter()
            .map(|p| p.objective())
            .fold(f64::MIN, f64::max);
        assert!((solution.optimal.objective() - best_on_curve).abs() < 1e-9);
        // Channel budget per site respected.
        for point in &solution.curve {
            let budget = channels_per_site(256, point.sites, false);
            assert!(point.channels_per_site <= budget);
        }
    }

    #[test]
    fn throughput_optimum_beats_or_matches_naive_max_sites() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell());
        let solution = optimize(&soc, &config).unwrap();
        let at_max = solution.point(solution.max_sites).unwrap();
        assert!(solution.optimal.objective() >= at_max.objective() - 1e-9);
        assert!(solution.step2_gain() >= 0.0);
    }

    #[test]
    fn broadcast_allows_more_sites_than_no_broadcast() {
        let soc = d695();
        let base = OptimizerConfig::new(small_cell());
        let broadcast = OptimizerConfig::new(small_cell())
            .with_options(MultiSiteOptions::baseline().with_broadcast());
        let without = optimize(&soc, &base).unwrap();
        let with = optimize(&soc, &broadcast).unwrap();
        assert!(with.max_sites > without.max_sites);
        assert!(with.optimal.devices_per_hour >= without.optimal.devices_per_hour);
    }

    #[test]
    fn step2_redistribution_reduces_test_time_at_low_site_counts() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell());
        let solution = optimize(&soc, &config).unwrap();
        let step1_time = solution.step1_architecture.test_time_cycles();
        // At a single site all channels are available, so the test time must
        // not be worse than Step 1's.
        let single = solution.point(1).unwrap();
        assert!(single.test_time_cycles <= step1_time);
        // At the maximum site count no extra channels exist, so the test
        // time equals Step 1's.
        let at_max = solution.point(solution.max_sites).unwrap();
        assert_eq!(at_max.test_time_cycles, step1_time);
    }

    #[test]
    fn abort_on_fail_improves_throughput_at_low_yield() {
        let soc = d695();
        let base = OptimizerConfig::new(small_cell()).with_manufacturing_yield(0.7);
        let abort = base.with_options(MultiSiteOptions::baseline().with_abort_on_fail());
        let without = optimize(&soc, &base).unwrap();
        let with = optimize(&soc, &abort).unwrap();
        let n = 1;
        assert!(
            with.point(n).unwrap().devices_per_hour
                >= without.point(n).unwrap().devices_per_hour - 1e-9
        );
    }

    #[test]
    fn retest_reduces_unique_throughput_at_low_contact_yield() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell())
            .with_contact_yield(0.995)
            .with_options(MultiSiteOptions::baseline().with_retest());
        let solution = optimize(&soc, &config).unwrap();
        for point in &solution.curve {
            assert!(point.unique_devices_per_hour < point.devices_per_hour);
        }
    }

    #[test]
    fn step1_only_curve_has_constant_test_time() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell());
        let solution = optimize(&soc, &config).unwrap();
        let curve = step1_only_curve(&solution.step1_architecture, &config, solution.max_sites);
        assert_eq!(curve.len(), solution.max_sites);
        let t0 = curve[0].test_time_cycles;
        assert!(curve.iter().all(|p| p.test_time_cycles == t0));
        // Step 1+2 is at least as good as Step 1 only, at every site count.
        for (full, only) in solution.curve.iter().zip(&curve) {
            assert!(full.devices_per_hour >= only.devices_per_hour - 1e-9);
        }
    }

    #[test]
    fn channels_per_site_formulas() {
        assert_eq!(channels_per_site(512, 5, false), 102);
        assert_eq!(channels_per_site(512, 5, true), 2 * (512 / 6));
        assert_eq!(channels_per_site(100, 7, false), 14);
        // Broadcast always allows at least as many channels per site.
        for n in 1..20 {
            assert!(channels_per_site(512, n, true) >= channels_per_site(512, n, false));
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let soc = d695();
        let config = OptimizerConfig::new(small_cell()).with_contact_yield(2.0);
        assert!(matches!(
            optimize(&soc, &config),
            Err(OptimizeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn infeasible_soc_is_reported_as_architecture_error() {
        let soc = d695();
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(8, 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        assert!(matches!(
            optimize(&soc, &config),
            Err(OptimizeError::Architecture(_))
        ));
    }

    #[test]
    fn larger_soc_optimizes_end_to_end() {
        let soc = p22810();
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(512, 768 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        let solution = optimize(&soc, &config).unwrap();
        assert!(solution.max_sites >= 2);
        assert!(solution.optimal.devices_per_hour > 0.0);
        assert!(solution.contacted_pads_per_site > solution.optimal.channels_per_site);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_budget_panics() {
        let _ = channels_per_site(512, 0, false);
    }

    fn point_with_objective(sites: usize, objective: f64) -> SitePoint {
        SitePoint {
            sites,
            channels_per_site: 8,
            tam_width: 4,
            test_time_cycles: 100,
            manufacturing_test_time_s: 0.1,
            expected_test_time_s: 0.1,
            devices_per_hour: objective,
            unique_devices_per_hour: objective,
        }
    }

    #[test]
    fn exact_objective_tie_selects_the_lower_site_count() {
        // Two sites reach the identical throughput: the optimum must be the
        // cheaper (lower) site count, not the later point.
        let curve = vec![
            point_with_objective(1, 950.0),
            point_with_objective(2, 1000.0),
            point_with_objective(3, 1000.0),
            point_with_objective(4, 990.0),
        ];
        assert_eq!(optimal_index(&curve), 1);
        // A strictly better later point still wins...
        let curve2 = vec![point_with_objective(1, 10.0), point_with_objective(2, 10.5)];
        assert_eq!(optimal_index(&curve2), 1);
        // ...including improvements far below the old absolute-epsilon
        // threshold's intent (sub-ulp-of-1.0 differences at small scale).
        let curve3 = vec![
            point_with_objective(1, 1.0),
            point_with_objective(2, 1.0 + 1e-13),
        ];
        assert_eq!(optimal_index(&curve3), 1);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn optimal_index_of_empty_curve_panics() {
        let _ = optimal_index(&[]);
    }

    #[test]
    fn narrow_prebuilt_table_is_clamped_not_panicking() {
        // Regression: a prebuilt table much narrower than `available / 2`
        // at low site counts must not drive redistribution into
        // out-of-range lookups; the extra width is clamped to the table's
        // headroom instead.
        let soc = d695();
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 512 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        for narrow_width in [2usize, 3, 5, 8] {
            let table = soctest_tam::TimeTable::build(&soc, narrow_width);
            let solution = optimize_with_table(soc.name(), &table, &config)
                .unwrap_or_else(|e| panic!("narrow table width {narrow_width}: {e}"));
            // No group may ever exceed the table's width.
            for group in &solution.optimal_architecture.groups {
                assert!(group.width <= narrow_width);
            }
            for group in &solution.step1_architecture.groups {
                assert!(group.width <= narrow_width);
            }
        }
    }

    #[test]
    fn lazy_and_eager_tables_produce_identical_solutions() {
        let soc = p22810();
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(512, 768 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ));
        let max_width = 512 / 2;
        let eager = soctest_tam::TimeTable::build(&soc, max_width);
        let lazy = soctest_tam::LazyTimeTable::new(&soc, max_width);
        let from_eager = optimize_with_table(soc.name(), &eager, &config).unwrap();
        let from_lazy = optimize_with_table(soc.name(), &lazy, &config).unwrap();
        assert_eq!(from_eager, from_lazy);
        // And the lazy table must have materialised only a fraction of the
        // full (module × width) space.
        assert!(
            lazy.cells_built() < lazy.cells_total() / 2,
            "lazy table built {}/{} cells",
            lazy.cells_built(),
            lazy.cells_total()
        );
    }
}
