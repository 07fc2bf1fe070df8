//! The flat-SOC (Problem 2) workload tier.
//!
//! Problem 2 of the paper covers SOCs whose top-level test is flattened:
//! one "module" — the whole chip — whose wrapper coincides with the E-RPCT
//! wrapper, no TAMs (Figure 2(b)). [`soctest_multisite::flat`] treats it as
//! the degenerate single-module case of Problem 1; this artifact runs that
//! path over flattened ITC'02 benchmarks and a flattened NoC-style
//! synthetic mesh, and records the resulting single-wrapper operating
//! points as goldens.
//!
//! A flattened SOC concentrates *all* internal scan chains into one module
//! (1300+ chains for the NoC mesh), which makes it the stress shape for
//! the narrow-region heap LPT and the demand-driven time table: the
//! optimizer probes a handful of widths out of hundreds, each an
//! O(s log w) heap partition instead of an O(s·w) scan.

use crate::artifact::{markdown_table, Artifact};
use crate::scaled::noc_soc;
use serde::Serialize;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{Engine, OptimizeRequest};
use soctest_multisite::flat::flatten_soc;
use soctest_multisite::problem::OptimizerConfig;
use soctest_soc_model::benchmarks::{d695, p22810};
use soctest_soc_model::Soc;

/// One flat-tier workload: a modular SOC to flatten plus its test cell.
#[derive(Debug, Clone)]
pub struct FlatWorkload {
    /// Workload name (the flattened SOC's name).
    pub name: &'static str,
    /// The *modular* SOC; the experiment flattens it.
    pub soc: Soc,
    /// ATE channel count for this workload.
    pub ate_channels: usize,
    /// ATE vector-memory depth for this workload, in vectors.
    pub depth: u64,
}

/// The deterministic flat-tier workload set: two ITC'02 benchmarks plus a
/// NoC-style mesh (the `noc_0256` profile of the scaled tier). Depths are
/// sized above each flattened chip's test-time floor `(1 + L)·p + L`.
pub fn flat_workloads() -> Vec<FlatWorkload> {
    vec![
        FlatWorkload {
            name: "d695_flat",
            soc: d695(),
            ate_channels: 256,
            depth: 96 * 1024,
        },
        FlatWorkload {
            name: "p22810_flat",
            soc: p22810(),
            ate_channels: 512,
            depth: 12 * 1024 * 1024,
        },
        FlatWorkload {
            name: "noc_0256_flat",
            soc: noc_soc("noc_0256", 256),
            ate_channels: 1024,
            depth: 16 * 1024 * 1024,
        },
    ]
}

/// The optimization outcome of one flattened SOC.
#[derive(Debug, Clone, Serialize)]
pub struct FlatRow {
    /// Workload name (`<soc>_flat`).
    pub name: String,
    /// Modules of the original, modular SOC.
    pub source_modules: usize,
    /// Internal scan chains of the flattened chip-level module.
    pub chains: usize,
    /// Pattern count of the flattened test (sum over the source modules).
    pub patterns: u64,
    /// ATE channels of the workload's test cell.
    pub ate_channels: usize,
    /// Vector-memory depth of the workload's test cell, in vectors.
    pub depth: u64,
    /// Wrapper (E-RPCT) width of the single chip-level channel group at
    /// the channel-minimal Step 1 design.
    pub step1_width: usize,
    /// Maximum multi-site.
    pub max_sites: usize,
    /// Throughput-optimal site count.
    pub optimal_sites: usize,
    /// Wrapper width at the optimum (after Step 2 redistribution).
    pub optimal_width: usize,
    /// Chip test application time at the optimum, in cycles.
    pub test_time_cycles: u64,
    /// Chip manufacturing test time at the optimum, in seconds.
    pub test_time_s: f64,
    /// Throughput at the optimum, devices per hour.
    pub devices_per_hour: f64,
}

/// Runs the flat tier and renders the artifact.
///
/// # Panics
///
/// Panics if a workload is infeasible on its test cell — the workload set
/// is fixed, so that is a bug in the specs, not an input error.
pub fn flat_tier() -> Artifact {
    let rows: Vec<FlatRow> = flat_workloads()
        .into_iter()
        .map(|workload| {
            let cell = TestCell::new(
                AteSpec::new(workload.ate_channels, workload.depth, 5.0e6),
                ProbeStation::paper_probe_station(),
            );
            let config = OptimizerConfig::new(cell);
            // Flatten once and optimize that same instance, so the
            // reported shape is the optimized one.
            let flat = flatten_soc(&workload.soc);
            let solution = Engine::builder(&flat)
                .max_channels(workload.ate_channels)
                .build()
                .run(&OptimizeRequest::new(config))
                .unwrap_or_else(|err| panic!("workload {} infeasible: {err}", workload.name))
                .into_solution()
                .expect("a plain request answers with a solution");
            assert_eq!(
                solution.step1_architecture.groups.len(),
                1,
                "a flat SOC has exactly one channel group"
            );
            let chip = &flat.modules()[0];
            FlatRow {
                name: workload.name.to_string(),
                source_modules: workload.soc.num_modules(),
                chains: chip.scan_chains().len(),
                patterns: chip.patterns(),
                ate_channels: workload.ate_channels,
                depth: workload.depth,
                step1_width: solution.step1_architecture.groups[0].width,
                max_sites: solution.max_sites,
                optimal_sites: solution.optimal.sites,
                optimal_width: solution.optimal_architecture.groups[0].width,
                test_time_cycles: solution.optimal.test_time_cycles,
                test_time_s: solution.optimal.manufacturing_test_time_s,
                devices_per_hour: solution.optimal.devices_per_hour,
            }
        })
        .collect();

    let table = markdown_table(
        &[
            "workload",
            "src modules",
            "chains",
            "patterns",
            "ATE ch",
            "w1",
            "n_max",
            "n_opt",
            "w_opt",
            "t_m [s]",
            "D_th [/h]",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.source_modules.to_string(),
                    r.chains.to_string(),
                    r.patterns.to_string(),
                    r.ate_channels.to_string(),
                    r.step1_width.to_string(),
                    r.max_sites.to_string(),
                    r.optimal_sites.to_string(),
                    r.optimal_width.to_string(),
                    format!("{:.4}", r.test_time_s),
                    format!("{:.1}", r.devices_per_hour),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let markdown = format!(
        "# Flat-SOC tier (Problem 2): single-wrapper chips through the two-step optimizer\n\n\
         The chip-level wrapper coincides with the E-RPCT wrapper and there are no TAMs; \
         `w1` is the channel-minimal wrapper width, `w_opt` the width after Step 2 \
         redistribution at the throughput optimum.\n\n{table}"
    );
    Artifact::render(
        "flat_soc",
        "Flat-SOC tier (Problem 2): flattened ITC'02 + NoC chips, single-wrapper operating points",
        &rows,
        markdown,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::validate::is_usable;

    #[test]
    fn workloads_are_deterministic_and_usable() {
        let first = flat_workloads();
        let second = flat_workloads();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.soc, b.soc, "workload {} not deterministic", a.name);
            assert!(is_usable(&a.soc), "workload {} not usable", a.name);
        }
    }

    #[test]
    fn depths_clear_every_flattened_floor() {
        use soctest_wrapper::row::ModuleShape;
        for workload in flat_workloads() {
            let flat = flatten_soc(&workload.soc);
            let shape = ModuleShape::of(&flat.modules()[0]);
            assert!(
                shape.floor_time() <= workload.depth,
                "{}: floor {} exceeds depth {}",
                workload.name,
                shape.floor_time(),
                workload.depth
            );
        }
    }
}
