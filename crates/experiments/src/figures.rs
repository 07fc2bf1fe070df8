//! Regeneration of the paper's Figure 5, 6 and 7 artifacts on dense grids.
//!
//! Each function runs the corresponding Section 7 experiment on the
//! PNX8550 stand-in — on the 4x-denser grids of [`crate::grids`] rather
//! than the paper's own — and renders the result as an [`Artifact`]
//! (JSON + markdown).
//!
//! All experiments are served by the session-oriented
//! [`soctest_multisite::engine::Engine`]: each generator builds one engine
//! for the PNX stand-in and submits its grid as a typed request, so every
//! sweep shares a single demand-driven time table across its points.

use crate::artifact::{markdown_table, Artifact};
use crate::grids;
use crate::plot;
use serde::Serialize;
use soctest_bench::{format_depth, paper_config, pnx_soc};
use soctest_multisite::engine::{Engine, OptimizeRequest, SweepAxis};
use soctest_multisite::optimizer::step1_only_curve;
use soctest_multisite::problem::MultiSiteOptions;
use soctest_multisite::sweep::{SweepCurve, SweepPoint};

/// A one-SOC engine session for the PNX8550 stand-in.
fn pnx_engine() -> Engine {
    Engine::new(&pnx_soc())
}

/// Runs one sweeping request and unwraps the resulting curves.
fn run_sweep(engine: &Engine, request: &OptimizeRequest, figure: &str) -> Vec<SweepCurve> {
    engine
        .run(request)
        .unwrap_or_else(|err| panic!("all {figure} points are feasible: {err}"))
        .into_curves()
        .expect("a sweeping request answers with curves")
}

/// One row of a single-parameter optimizer sweep (Figures 6(a)/6(b)).
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// The swept parameter value (channel count or depth in vectors).
    pub parameter: u64,
    /// Maximum multi-site at this parameter value.
    pub max_sites: usize,
    /// Throughput-optimal site count.
    pub optimal_sites: usize,
    /// ATE channels per site at the optimum.
    pub channels_per_site: usize,
    /// SOC manufacturing test time at the optimum, in seconds.
    pub test_time_s: f64,
    /// Throughput at the optimum, devices per hour.
    pub devices_per_hour: f64,
}

impl SweepRow {
    fn from_point(point: &SweepPoint) -> Self {
        SweepRow {
            parameter: point.parameter.as_u64(),
            max_sites: point.max_sites,
            optimal_sites: point.optimal.sites,
            channels_per_site: point.optimal.channels_per_site,
            test_time_s: point.optimal.manufacturing_test_time_s,
            devices_per_hour: point.optimal.devices_per_hour,
        }
    }
}

fn sweep_markdown(title: &str, parameter: &str, depth_format: bool, rows: &[SweepRow]) -> String {
    let table = markdown_table(
        &[
            parameter,
            "n_max",
            "n_opt",
            "k/site",
            "t_m [s]",
            "D_th [/h]",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    if depth_format {
                        format_depth(r.parameter)
                    } else {
                        r.parameter.to_string()
                    },
                    r.max_sites.to_string(),
                    r.optimal_sites.to_string(),
                    r.channels_per_site.to_string(),
                    format!("{:.4}", r.test_time_s),
                    format!("{:.1}", r.devices_per_hour),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("# {title}\n\n{table}")
}

/// Figure 6(a): throughput vs. ATE channel count, 512..1024 step 16.
pub fn fig6a() -> Artifact {
    let engine = pnx_engine();
    let request = OptimizeRequest::new(paper_config())
        .with_sweep(SweepAxis::Channels(grids::fig6a_channel_counts_dense()));
    let curves = run_sweep(&engine, &request, "fig6a");
    let rows: Vec<SweepRow> = curves[0].points.iter().map(SweepRow::from_point).collect();
    let markdown = sweep_markdown(
        "Figure 6(a): throughput vs. ATE channels (PNX8550 stand-in)",
        "channels",
        false,
        &rows,
    );
    plot::attach(Artifact::render(
        "fig6a_channels",
        "Figure 6(a): throughput vs. ATE channel count, 33-point grid",
        &rows,
        markdown,
    ))
}

/// Figure 6(b): throughput vs. vector-memory depth, 5 M..14 M step 256 K.
pub fn fig6b() -> Artifact {
    let engine = pnx_engine();
    let request = OptimizeRequest::new(paper_config())
        .with_sweep(SweepAxis::DepthVectors(grids::fig6b_depths_dense()));
    let curves = run_sweep(&engine, &request, "fig6b");
    let rows: Vec<SweepRow> = curves[0].points.iter().map(SweepRow::from_point).collect();
    let markdown = sweep_markdown(
        "Figure 6(b): throughput vs. vector-memory depth (PNX8550 stand-in)",
        "depth",
        true,
        &rows,
    );
    plot::attach(Artifact::render(
        "fig6b_depth",
        "Figure 6(b): throughput vs. vector-memory depth, 37-point grid",
        &rows,
        markdown,
    ))
}

/// One curve of Figure 7(a): unique throughput over the depth grid at a
/// fixed contact yield.
#[derive(Debug, Clone, Serialize)]
pub struct ContactYieldCurve {
    /// The contact yield `p_c` of this curve.
    pub contact_yield: f64,
    /// Unique-device throughput per depth grid point, in sweep order.
    pub unique_devices_per_hour: Vec<f64>,
}

/// Figure 7(a) record: the shared depth grid plus one curve per yield.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7aRecord {
    /// Vector-memory depths (the x axis), in vectors.
    pub depths: Vec<u64>,
    /// One curve per contact yield, best yield first.
    pub curves: Vec<ContactYieldCurve>,
}

/// Figure 7(a): unique throughput vs. depth for the paper's contact
/// yields, re-test enabled, on the dense depth grid.
pub fn fig7a() -> Artifact {
    let engine = pnx_engine();
    let depths = grids::fig6b_depths_dense();
    let request = OptimizeRequest::new(paper_config()).with_sweep(SweepAxis::ContactYield {
        depths: depths.clone(),
        contact_yields: grids::fig7a_contact_yields(),
    });
    let curves = run_sweep(&engine, &request, "fig7a");
    let record = Fig7aRecord {
        depths: depths.clone(),
        curves: curves
            .iter()
            .zip(grids::fig7a_contact_yields())
            .map(|(curve, contact_yield)| ContactYieldCurve {
                contact_yield,
                unique_devices_per_hour: curve
                    .points
                    .iter()
                    .map(|p| p.optimal.unique_devices_per_hour)
                    .collect(),
            })
            .collect(),
    };
    let headers: Vec<String> = std::iter::once("depth".to_string())
        .chain(
            record
                .curves
                .iter()
                .map(|c| format!("pc={}", c.contact_yield)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = depths
        .iter()
        .enumerate()
        .map(|(i, &depth)| {
            std::iter::once(format_depth(depth))
                .chain(
                    record
                        .curves
                        .iter()
                        .map(|c| format!("{:.1}", c.unique_devices_per_hour[i])),
                )
                .collect()
        })
        .collect();
    let markdown = format!(
        "# Figure 7(a): unique throughput [/h] vs. depth per contact yield (re-test on)\n\n{}",
        markdown_table(&header_refs, &rows)
    );
    plot::attach(Artifact::render(
        "fig7a_contact_yield",
        "Figure 7(a): unique throughput vs. depth per contact yield, 37-point grid",
        &record,
        markdown,
    ))
}

/// One curve of Figure 7(b): expected test time per site count at a fixed
/// manufacturing yield.
#[derive(Debug, Clone, Serialize)]
pub struct AbortOnFailCurve {
    /// The manufacturing yield `p_m` of this curve.
    pub manufacturing_yield: f64,
    /// Expected test application time per touchdown in seconds, for site
    /// counts `1..=FIG7B_MAX_SITES` in order.
    pub expected_test_time_s: Vec<f64>,
}

/// Figure 7(b): expected test time vs. site count under abort-on-fail, on
/// the dense yield grid and doubled site range.
pub fn fig7b() -> Artifact {
    let engine = pnx_engine();
    let yields = grids::fig7b_manufacturing_yields_dense();
    let request = OptimizeRequest::new(paper_config()).with_sweep(SweepAxis::ManufacturingYield {
        max_sites: grids::FIG7B_MAX_SITES,
        manufacturing_yields: yields.clone(),
    });
    let curves = run_sweep(&engine, &request, "fig7b");
    let record: Vec<AbortOnFailCurve> = curves
        .iter()
        .zip(&yields)
        .map(|(curve, &manufacturing_yield)| AbortOnFailCurve {
            manufacturing_yield,
            expected_test_time_s: curve
                .points
                .iter()
                .map(|p| p.optimal.expected_test_time_s)
                .collect(),
        })
        .collect();
    let headers: Vec<String> = std::iter::once("n".to_string())
        .chain(
            record
                .iter()
                .map(|c| format!("pm={}", c.manufacturing_yield)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..grids::FIG7B_MAX_SITES)
        .map(|row| {
            std::iter::once((row + 1).to_string())
                .chain(
                    record
                        .iter()
                        .map(|c| format!("{:.4}", c.expected_test_time_s[row])),
                )
                .collect()
        })
        .collect();
    let markdown = format!(
        "# Figure 7(b): expected test time [s] vs. sites per manufacturing yield (abort-on-fail)\n\n{}",
        markdown_table(&header_refs, &rows)
    );
    plot::attach(Artifact::render(
        "fig7b_abort_on_fail",
        "Figure 7(b): expected test time vs. site count per manufacturing yield, 16 sites x 13 yields",
        &record,
        markdown,
    ))
}

/// One throughput-curve row of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Site count `n`.
    pub sites: usize,
    /// Steps 1+2 throughput (channel redistribution applied).
    pub devices_per_hour: f64,
    /// Step 1-only throughput (architecture frozen at channel-minimal).
    pub step1_only_devices_per_hour: f64,
}

/// One variant (with/without stimulus broadcast) of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Variant {
    /// Whether stimulus broadcast was assumed.
    pub stimulus_broadcast: bool,
    /// Maximum multi-site `n_max`.
    pub max_sites: usize,
    /// Throughput-optimal site count `n_opt`.
    pub optimal_sites: usize,
    /// Step 2 gain over stopping at `n_max`, as a fraction.
    pub step2_gain: f64,
    /// The throughput curves, `n = 1..=n_max`.
    pub curve: Vec<Fig5Row>,
}

/// Figure 5: throughput vs. site count, Steps 1+2 against Step 1 only,
/// with and without stimulus broadcast.
pub fn fig5() -> Artifact {
    let engine = pnx_engine();
    let mut variants = Vec::new();
    let mut markdown =
        String::from("# Figure 5: throughput [/h] vs. number of sites (PNX8550 stand-in)\n");
    for (broadcast, options) in [
        (false, MultiSiteOptions::baseline()),
        (true, MultiSiteOptions::baseline().with_broadcast()),
    ] {
        let config = paper_config().with_options(options);
        let solution = engine
            .run(&OptimizeRequest::new(config))
            .expect("PNX8550 stand-in fits the paper ATE")
            .into_solution()
            .expect("a plain request answers with a solution");
        let step1 = step1_only_curve(&solution.step1_architecture, &config, solution.max_sites);
        let curve: Vec<Fig5Row> = solution
            .curve
            .iter()
            .zip(&step1)
            .map(|(full, step1_only)| Fig5Row {
                sites: full.sites,
                devices_per_hour: full.devices_per_hour,
                step1_only_devices_per_hour: step1_only.devices_per_hour,
            })
            .collect();
        let rows: Vec<Vec<String>> = curve
            .iter()
            .map(|r| {
                vec![
                    r.sites.to_string(),
                    format!("{:.1}", r.devices_per_hour),
                    format!("{:.1}", r.step1_only_devices_per_hour),
                ]
            })
            .collect();
        let label = if broadcast {
            "with stimulus broadcast"
        } else {
            "without stimulus broadcast"
        };
        markdown.push_str(&format!(
            "\n## {label} (n_max = {}, n_opt = {}, Step 2 gain {:.1}%)\n\n{}",
            solution.max_sites,
            solution.optimal.sites,
            100.0 * solution.step2_gain(),
            markdown_table(&["n", "Steps 1+2", "Step 1 only"], &rows)
        ));
        variants.push(Fig5Variant {
            stimulus_broadcast: broadcast,
            max_sites: solution.max_sites,
            optimal_sites: solution.optimal.sites,
            step2_gain: solution.step2_gain(),
            curve,
        });
    }
    plot::attach(Artifact::render(
        "fig5_sites",
        "Figure 5: throughput vs. site count, Steps 1+2 vs. Step 1 only, +/- stimulus broadcast",
        &variants,
        markdown,
    ))
}
