//! The two-step on-chip test-infrastructure optimizer for optimal
//! multi-site SOC wafer testing — the primary contribution of Goel &
//! Marinissen (DATE 2005).
//!
//! Given a (modular or flat) SOC and a fixed target test cell (ATE channel
//! count, vector-memory depth, test clock, probe-station index time), the
//! optimizer designs:
//!
//! * the core wrappers and channel groups (TAMs), via `soctest-tam`,
//! * the chip-level E-RPCT wrapper (external channel count `k`, internal
//!   TAM width `w`),
//! * the number of multi-sites `n`,
//!
//! such that the SOC test fits the ATE vector memory in a single load and
//! the wafer-test *throughput* (devices per hour) is maximal — which, as the
//! paper shows, is generally **not** the same as maximising the number of
//! sites.
//!
//! The crate is organised as:
//!
//! * [`problem`] — the optimization variants (stimulus broadcast,
//!   abort-on-fail, re-test) and the full problem configuration,
//! * [`engine`] — the session-oriented [`Engine`]: one shared
//!   demand-driven time table per SOC, serving typed, serde-serialisable
//!   [`OptimizeRequest`] batches (the primary API),
//! * [`optimizer`] — Step 1 (channel-count minimisation) + Step 2 (linear
//!   search over the site count with channel redistribution), plus the
//!   one-shot [`optimize`] convenience wrapper,
//! * [`flat`] — the degenerate Problem 2 for flattened SOCs,
//! * [`sweep`] — the result types of the Figure 6–7 parameter sweeps
//!   and of the channel-versus-memory cost analysis, which the engine
//!   answers,
//! * [`report`] — plain-text and JSON reporting of solutions and curves,
//! * [`service`] — the fault-tolerant streaming NDJSON service behind
//!   the `soc-serve` binary: warm-session registry, cancellation and
//!   deadlines, bounded admission, and a fault-injection harness.
//!
//! # Example
//!
//! ```
//! use soctest_multisite::{Engine, OptimizeRequest, OptimizerConfig, SweepAxis};
//! use soctest_soc_model::benchmarks::d695;
//! use soctest_ate::{AteSpec, ProbeStation, TestCell};
//!
//! let cell = TestCell::new(AteSpec::new(256, 96 * 1024, 5.0e6), ProbeStation::paper_probe_station());
//! let config = OptimizerConfig::new(cell);
//! let engine = Engine::new(&d695());
//! let solution = engine.run(&OptimizeRequest::new(config))?
//!     .into_solution()
//!     .expect("a plain request answers with a solution");
//! assert!(solution.optimal.sites >= 1);
//! assert!(solution.optimal.devices_per_hour > 0.0);
//!
//! // Sweeps are requests too — and batches share the engine's table:
//! let sweep = OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(vec![192, 256]));
//! let curves = engine.run(&sweep)?.into_curves().unwrap();
//! assert_eq!(curves[0].points.len(), 2);
//! # Ok::<(), soctest_multisite::OptimizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod flat;
mod lru;
pub mod optimizer;
mod plan;
pub mod problem;
pub mod report;
pub mod service;
pub mod solution;
pub mod sweep;

pub use engine::{
    Engine, EngineBuilder, EngineStats, OptimizeRequest, OptimizeResponse, RequestTrace, SweepAxis,
};
pub use error::OptimizeError;
pub use optimizer::optimize;
pub use problem::{MultiSiteOptions, OptimizerConfig};
pub use service::{CancelToken, Server, ServerConfig};
pub use solution::{MultiSiteSolution, SitePoint};
pub use sweep::{AxisValue, SweepCurve, SweepPoint};
