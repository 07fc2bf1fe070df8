//! `soctest` — on-chip test infrastructure design for optimal multi-site
//! testing of system chips.
//!
//! This facade crate re-exports the whole workspace under one roof, in the
//! order a user typically needs it:
//!
//! 1. describe the SOC ([`soc_model`]) — or load one of the embedded ITC'02
//!    benchmark SOCs,
//! 2. describe the fixed test cell ([`ate`]): ATE channels, vector-memory
//!    depth, test clock, probe-station index time,
//! 3. run the two-step optimizer ([`multisite`]) to obtain the core
//!    wrappers, channel groups (TAMs), E-RPCT wrapper size and the
//!    throughput-optimal number of multi-sites,
//! 4. inspect the underlying machinery ([`wrapper`], [`tam`],
//!    [`throughput`]) or cross-check the predicted throughput with the
//!    Monte-Carlo wafer-flow simulator ([`wafersim`]).
//!
//! Two sibling crates are not re-exported here: `soctest-bench` (the
//! Section 7 experiment parameters, the cost and Monte-Carlo analyses and
//! the baseline gate tests) and `soctest-experiments` (the `soctest-repro`
//! driver that regenerates the committed paper artifacts under
//! `artifacts/`). `docs/PAPER_MAP.md` in the repository maps every paper
//! section, equation, figure and table to the module implementing it.
//!
//! # Quickstart
//!
//! The primary entry point is the session-oriented [`multisite::engine`]:
//! build an [`Engine`](prelude::Engine) per SOC, then submit typed
//! [`OptimizeRequest`](prelude::OptimizeRequest)s — single optimizations
//! and parameter sweeps alike — individually or as a table-sharing batch.
//!
//! ```
//! use soctest::prelude::*;
//!
//! let soc = soctest::soc_model::benchmarks::d695();
//! let cell = TestCell::new(AteSpec::new(256, 96 * 1024, 5.0e6), ProbeStation::paper_probe_station());
//! let engine = Engine::new(&soc);
//! let solution = engine.run(&OptimizeRequest::new(OptimizerConfig::new(cell)))?
//!     .into_solution()
//!     .expect("a plain request answers with a solution");
//! println!("test {} sites in parallel, {:.0} devices/hour",
//!          solution.optimal.sites, solution.optimal.devices_per_hour);
//! # Ok::<(), soctest::multisite::OptimizeError>(())
//! ```
//!
//! `optimize` remains available as the one one-shot convenience shim over
//! a throwaway engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use soctest_ate as ate;
pub use soctest_multisite as multisite;
pub use soctest_soc_model as soc_model;
pub use soctest_tam as tam;
pub use soctest_throughput as throughput;
pub use soctest_wafersim as wafersim;
pub use soctest_wrapper as wrapper;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use soctest_ate::{AteCostModel, AteSpec, ProbeStation, TestCell};
    pub use soctest_multisite::engine::{
        Engine, EngineBuilder, OptimizeRequest, OptimizeResponse, SweepAxis,
    };
    pub use soctest_multisite::optimizer::optimize;
    pub use soctest_multisite::problem::{MultiSiteOptions, OptimizerConfig};
    pub use soctest_multisite::solution::{MultiSiteSolution, SitePoint};
    pub use soctest_multisite::sweep::{AxisValue, SweepCurve, SweepPoint};
    pub use soctest_soc_model::{Module, ModuleKind, Soc};
    pub use soctest_tam::{ChannelGroup, TestArchitecture, TestSchedule, TimeTable};
    pub use soctest_throughput::{TestTimes, ThroughputModel, YieldParams};
    pub use soctest_wafersim::{simulate_flow, FlowParams};
    pub use soctest_wrapper::{design_wrapper, ErpctConfig, ErpctWrapper, WrapperDesign};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        let soc = crate::soc_model::benchmarks::d695();
        let cell = TestCell::new(
            AteSpec::new(128, 128 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        let config = OptimizerConfig::new(cell);
        // The engine API and the legacy convenience shim agree.
        let engine = Engine::new(&soc);
        let via_engine = engine
            .run(&OptimizeRequest::new(config))
            .expect("d695 fits")
            .into_solution()
            .expect("plain request");
        let via_shim = optimize(&soc, &config).expect("d695 fits");
        assert_eq!(via_engine, via_shim);
        assert!(via_engine.optimal.sites >= 1);
    }
}
