//! Session-oriented optimizer engine: batched, table-sharing requests
//! behind a typed request/response schema.
//!
//! The paper's evaluation (Section 7) is thousands of optimizer
//! invocations over **one** SOC with only the test-cell and yield
//! parameters varying — the shape of a high-traffic batch service. The
//! [`Engine`] serves that shape as one session per SOC:
//!
//! * an `Engine` is built **per SOC** (builder pattern) and owns the
//!   widest-needed demand-driven [`LazyTimeTable`] — cells computed on
//!   first probe are reused by every later request, and the per-thread
//!   wrapper-design scratch lives with the table;
//! * work arrives as serde-serialisable [`OptimizeRequest`] values — a
//!   base [`OptimizerConfig`] plus a typed [`SweepAxis`] — and leaves as
//!   [`OptimizeResponse`] values (a [`MultiSiteSolution`] or a set of
//!   [`SweepCurve`]s), in input order;
//! * [`Engine::run_batch`] serves heterogeneous batches (e.g. all of
//!   Figure 6(a) + 6(b) + 7(a) + 7(b) at once) over **one** table and the
//!   persistent work-stealing pool instead of N of each — mixed batches
//!   parallelise at the request level *and* inside each sweep (nested
//!   parallelism composes on the pool without oversubscription);
//! * the pool policy is part of the engine:
//!   [`EngineBuilder::threads`] caps the per-layer fan-out and
//!   [`EngineBuilder::sequential`] pins every request to the calling
//!   thread (results are bit-identical at any cap — see
//!   `tests/sweep_determinism.rs`).
//!
//! Every sweep and driver runs the optimizer through these requests.
//! Results are bit-identical to the reference path,
//! [`crate::optimizer::optimize_with_table`] over a per-call table
//! (`tests/engine_equivalence.rs`); [`crate::optimizer::optimize`] is the
//! one one-shot shim over a throwaway engine.
//!
//! # Example
//!
//! ```
//! use soctest_multisite::engine::{Engine, OptimizeRequest, OptimizeResponse, SweepAxis};
//! use soctest_multisite::problem::OptimizerConfig;
//! use soctest_ate::{AteSpec, ProbeStation, TestCell};
//! use soctest_soc_model::benchmarks::d695;
//!
//! let cell = TestCell::new(AteSpec::new(256, 96 * 1024, 5.0e6),
//!                          ProbeStation::paper_probe_station());
//! let config = OptimizerConfig::new(cell);
//! let engine = Engine::builder(&d695()).max_channels(320).build();
//!
//! // A heterogeneous batch: one plain optimization, one channel sweep.
//! let batch = [
//!     OptimizeRequest::new(config),
//!     OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(vec![256, 320])),
//! ];
//! let responses = engine.run_batch(&batch);
//! let solution = responses[0].as_ref().unwrap().solution().unwrap();
//! assert!(solution.optimal.sites >= 1);
//! let curves = responses[1].as_ref().unwrap().curves().unwrap();
//! assert_eq!(curves[0].points.len(), 2);
//! ```

use crate::error::OptimizeError;
use crate::optimizer::evaluate_point;
use crate::plan::PlanMemo;
use crate::problem::{validate_yield, OptimizerConfig};
use crate::service::cancel::{CancelGuarded, CancelToken};
use crate::solution::MultiSiteSolution;
use crate::sweep::{AxisValue, CostEffectiveness, SweepCurve, SweepPoint};
use serde::{Deserialize, Serialize};
use soctest_ate::AteCostModel;
use soctest_soc_model::validate::{validate_soc, Severity, ValidationIssue};
use soctest_soc_model::Soc;
use soctest_tam::{max_tam_width, LazyTimeTable, RowStore, RowStoreStats, StatsEpoch, TimeLookup};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// A point-level memo the engine consults around every *plain*
/// optimization inside a sweep (each [`SweepAxis::Channels`] /
/// [`SweepAxis::DepthVectors`] / [`SweepAxis::ContactYield`] point, and
/// the [`SweepAxis::ManufacturingYield`] base optimization).
///
/// The key is the point's *effective* configuration — the base config
/// with the swept parameter substituted — wrapped as a plain
/// ([`SweepAxis::None`]) [`OptimizeRequest`], so a memo shared with the
/// service's exact-hit solution cache makes sweep points and standalone
/// requests one namespace: a `Channels([192, 256])` sweep answers a
/// later plain 256-channel request, and vice versa.
///
/// Implementations must be cheap on miss (a map probe) and must only
/// return responses that are bit-identical to recomputation — the engine
/// trusts `get` blindly. `soctest_multisite::service::cache::SessionPointMemo`
/// is the canonical implementation.
pub trait PointMemo: Send + Sync + std::fmt::Debug {
    /// The memoised response for `request`, if one is resident.
    fn get(&self, request: &OptimizeRequest) -> Option<OptimizeResponse>;
    /// Publishes a freshly computed `response` for `request`.
    fn put(&self, request: &OptimizeRequest, response: &OptimizeResponse);
}

/// The swept parameter of an [`OptimizeRequest`]: which test-cell or yield
/// knob varies, and over which values.
///
/// Each variant corresponds to one Section 7 experiment family; the
/// engine answers every sweeping variant with [`OptimizeResponse::Curves`]
/// and [`SweepAxis::None`] with [`OptimizeResponse::Solution`].
///
/// Serialises in real serde's externally-tagged enum format
/// (`"None"`, `{"Channels": [512, 640]}`,
/// `{"ContactYield": {"depths": [...], "contact_yields": [...]}}`, ...),
/// so request files keep working if the vendored serde is swapped for the
/// crates.io release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SweepAxis {
    /// No sweep: one two-step optimization of the request's config.
    None,
    /// ATE channel counts to sweep (Figure 6(a)). One curve results.
    Channels(Vec<usize>),
    /// Per-channel vector-memory depths in vectors to sweep
    /// (Figure 6(b)). One curve results.
    DepthVectors(Vec<u64>),
    /// Depth sweep per contact yield with re-test enabled (Figure 7(a)).
    /// One curve per contact yield results.
    ContactYield {
        /// Vector-memory depths of each curve's x axis.
        depths: Vec<u64>,
        /// One curve per contact yield `p_c`, in this order.
        contact_yields: Vec<f64>,
    },
    /// Expected test time vs. site count under abort-on-fail
    /// (Figure 7(b)). One curve per manufacturing yield results.
    ManufacturingYield {
        /// Site counts `1..=max_sites` form each curve's x axis.
        max_sites: usize,
        /// One curve per manufacturing yield `p_m`, in this order.
        manufacturing_yields: Vec<f64>,
    },
}

/// One unit of work for an [`Engine`]: a base configuration plus an
/// optional sweep axis.
///
/// Marked `#[non_exhaustive]`: construct via [`OptimizeRequest::new`] +
/// [`OptimizeRequest::with_sweep`], so future request knobs (priorities,
/// site caps, ...) can be added without breaking callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct OptimizeRequest {
    /// The base optimizer configuration. Sweeping axes override the swept
    /// parameter per point (e.g. [`SweepAxis::Channels`] replaces
    /// `config.test_cell.ate.channels`) and leave the rest untouched.
    pub config: OptimizerConfig,
    /// Which parameter to sweep, if any.
    pub sweep: SweepAxis,
}

impl OptimizeRequest {
    /// A plain single-optimization request ([`SweepAxis::None`]).
    pub fn new(config: OptimizerConfig) -> Self {
        OptimizeRequest {
            config,
            sweep: SweepAxis::None,
        }
    }

    /// Replaces the sweep axis.
    pub fn with_sweep(mut self, sweep: SweepAxis) -> Self {
        self.sweep = sweep;
        self
    }

    /// The widest ATE channel budget the request touches: the largest
    /// swept channel count for [`SweepAxis::Channels`], the base config's
    /// channel count otherwise. This is the value to pass to
    /// [`EngineBuilder::max_channels`] when pre-sizing an engine for this
    /// request.
    pub fn peak_channels(&self) -> usize {
        match &self.sweep {
            SweepAxis::Channels(counts) => counts.iter().copied().max().unwrap_or(0),
            _ => self.config.test_cell.ate.channels,
        }
    }

    /// The table width the engine must cover to serve this request:
    /// [`max_tam_width`] of [`OptimizeRequest::peak_channels`].
    pub fn needed_width(&self) -> usize {
        max_tam_width(self.peak_channels())
    }
}

/// The engine's answer to one [`OptimizeRequest`].
///
/// Serialises in real serde's externally-tagged enum format
/// (`{"Solution": {...}}` / `{"Curves": [...]}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OptimizeResponse {
    /// The full two-step solution of a [`SweepAxis::None`] request.
    Solution(Box<MultiSiteSolution>),
    /// The labelled curves of a sweeping request, one per curve of the
    /// corresponding figure. Single-parameter axes
    /// ([`SweepAxis::Channels`], [`SweepAxis::DepthVectors`]) produce
    /// exactly one curve; the yield axes produce one curve per yield.
    Curves(Vec<SweepCurve>),
}

impl OptimizeResponse {
    /// The solution of a [`SweepAxis::None`] request, if this is one.
    pub fn solution(&self) -> Option<&MultiSiteSolution> {
        match self {
            OptimizeResponse::Solution(solution) => Some(solution),
            _ => None,
        }
    }

    /// The curves of a sweeping request, if this is one.
    pub fn curves(&self) -> Option<&[SweepCurve]> {
        match self {
            OptimizeResponse::Curves(curves) => Some(curves),
            _ => None,
        }
    }

    /// Consumes the response into its solution, if it is one.
    pub fn into_solution(self) -> Option<MultiSiteSolution> {
        match self {
            OptimizeResponse::Solution(solution) => Some(*solution),
            _ => None,
        }
    }

    /// Consumes the response into its curves, if it is one.
    pub fn into_curves(self) -> Option<Vec<SweepCurve>> {
        match self {
            OptimizeResponse::Curves(curves) => Some(curves),
            _ => None,
        }
    }
}

/// Builder for an [`Engine`]. Obtained from [`Engine::builder`] /
/// [`Engine::builder_arc`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    soc: Arc<Soc>,
    max_channels: usize,
    /// Parallelism cap: `None` = the full rayon pool, `Some(1)` =
    /// sequential, `Some(n)` = at most `n` concurrent tasks per layer.
    threads: Option<usize>,
    /// Shared content-addressed row store, if the session participates in
    /// cross-table / cross-process row reuse.
    row_store: Option<Arc<RowStore>>,
    /// Point-level solution memo, if the session participates in
    /// sweep-point / plain-request reuse.
    point_memo: Option<Arc<dyn PointMemo>>,
}

impl EngineBuilder {
    /// Pre-sizes the engine's table for requests up to `channels` ATE
    /// channels. Without a hint the table starts minimal and is regrown
    /// (keeping every built cell — see [`LazyTimeTable::grown`]) the
    /// first time a wider request arrives; with it, every request within
    /// the hint shares one warm table from the start. Repeated calls keep
    /// the largest hint.
    pub fn max_channels(mut self, channels: usize) -> Self {
        self.max_channels = self.max_channels.max(channels);
        self
    }

    /// Attaches a shared content-addressed [`RowStore`]: the engine's
    /// table consults it before computing any `(module, width)` cell and
    /// publishes fresh cells back, so sessions sharing the store — other
    /// engines, other SOCs with equal module shapes, or earlier processes
    /// via `RowStore::load` — never rebuild each other's rows. Responses
    /// are bit-identical with or without a store (rows are deterministic
    /// functions of module shape).
    pub fn row_store(mut self, store: Arc<RowStore>) -> Self {
        self.row_store = Some(store);
        self
    }

    /// Attaches a [`PointMemo`]: every plain optimization performed
    /// *inside* a sweep first consults `memo` under the point's
    /// effective configuration and publishes its result back on a miss.
    /// Responses are bit-identical with or without a memo (a memo must
    /// only serve what recomputation would produce); plain
    /// [`SweepAxis::None`] requests are untouched — the service caches
    /// those whole-request, one level up.
    pub fn point_memo(mut self, memo: Arc<dyn PointMemo>) -> Self {
        self.point_memo = Some(memo);
        self
    }

    /// Pins request and sweep evaluation to the calling thread instead of
    /// the rayon pool. Results are bit-identical either way (the pool
    /// preserves input order and table cells are deterministic);
    /// sequential mode is for debugging and for callers that manage
    /// parallelism themselves. Shorthand for [`EngineBuilder::threads`]
    /// with `1`.
    pub fn sequential(self) -> Self {
        self.threads(1)
    }

    /// Caps the engine at `threads` concurrent tasks per parallel layer
    /// (requests in a batch, points in a sweep). `1` means sequential;
    /// the cap is clamped up to at least 1. Without a cap the engine uses
    /// the whole work-stealing pool. Results are bit-identical at every
    /// cap — the property pinned by the scheduler stress tests in
    /// `tests/sweep_determinism.rs` and `tests/engine_equivalence.rs`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the engine, preparing (but not filling) its time table.
    ///
    /// The SOC is checked with [`validate_soc`] first: warning-level
    /// findings are recorded in the engine
    /// ([`Engine::validation_issues`], counted in [`Engine::stats`]);
    /// error-level findings make the engine **unusable** — it is still
    /// returned (this constructor is infallible for backwards
    /// compatibility) but only a trivial placeholder table is allocated
    /// and every request answers [`OptimizeError::InvalidSoc`]. Service
    /// callers should prefer [`EngineBuilder::try_build`], which rejects
    /// such SOCs up front.
    pub fn build(self) -> Engine {
        let issues = validate_soc(&self.soc);
        if issues.iter().any(|i| i.severity == Severity::Error) {
            // Unusable SOC: skip the real table allocation entirely.
            let table = LazyTimeTable::new(&self.soc, 1);
            return Engine {
                table: RwLock::new(Arc::new(table)),
                soc: self.soc,
                threads: self.threads,
                point_memo: None,
                plans: PlanMemo::default(),
                points_reused: AtomicU64::new(0),
                points_computed: AtomicU64::new(0),
                validation: EngineValidation::Invalid { issues },
            };
        }
        self.build_validated(issues)
    }

    /// Builds the engine, rejecting SOCs whose description fails
    /// [`validate_soc`] with an error-level finding **before** any table
    /// is allocated. This is the constructor the service layer uses.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::InvalidSoc`] carrying every validation finding
    /// (errors and warnings) when the SOC is unusable.
    pub fn try_build(self) -> Result<Engine, OptimizeError> {
        let issues = validate_soc(&self.soc);
        if issues.iter().any(|i| i.severity == Severity::Error) {
            return Err(OptimizeError::InvalidSoc { issues });
        }
        Ok(self.build_validated(issues))
    }

    /// Builds a validated engine; `warnings` are the (warning-only)
    /// findings of the validation pass already run by the caller.
    fn build_validated(self, warnings: Vec<ValidationIssue>) -> Engine {
        let width = max_tam_width(self.max_channels);
        let table = match &self.row_store {
            Some(store) => LazyTimeTable::with_store(&self.soc, width, Arc::clone(store)),
            None => LazyTimeTable::new(&self.soc, width),
        };
        Engine {
            table: RwLock::new(Arc::new(table)),
            soc: self.soc,
            threads: self.threads,
            point_memo: self.point_memo,
            plans: PlanMemo::default(),
            points_reused: AtomicU64::new(0),
            points_computed: AtomicU64::new(0),
            validation: EngineValidation::Usable { warnings },
        }
    }
}

/// The outcome of the builder's [`validate_soc`] pass, kept with the
/// engine for the lifetime of the session.
#[derive(Debug)]
enum EngineValidation {
    /// The SOC is usable; any warning-level findings ride along.
    Usable { warnings: Vec<ValidationIssue> },
    /// The SOC is unusable; every request answers
    /// [`OptimizeError::InvalidSoc`] with these findings.
    Invalid { issues: Vec<ValidationIssue> },
}

/// What serving one request cost, attributed by epoch diffs taken around
/// the run: table materialisation, row-store traffic, pool occupancy,
/// cancellation probes, wall/CPU time.
///
/// Produced by [`Engine::run_with_cancel_traced`]; aggregated with
/// [`RequestTrace::merge`] (the service folds per-request traces into its
/// final `Bye` summary this way).
///
/// Determinism: the table's `cells_built`/`cells_inherited` deltas are
/// race-deterministic at any thread count and the store's
/// `cells_computed` delta is first-insert-deterministic; wall/CPU time
/// and pool occupancy are run-specific and must stay out of
/// golden-checked output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RequestTrace {
    /// Requests accounted: 1 per traced run; sums under
    /// [`RequestTrace::merge`].
    pub requests: u64,
    /// Wall-clock nanoseconds spent serving.
    pub wall_nanos: u64,
    /// Process CPU nanoseconds (user + system) spent in the window, at
    /// the kernel's ~10 ms accounting granularity; 0 on platforms without
    /// `/proc/self/stat`. Process-wide, so concurrent work is included.
    pub cpu_nanos: u64,
    /// The width of the table that served the request.
    pub table_width: usize,
    /// Table materialisation deltas: cells computed fresh / replayed from
    /// the row store / inherited by a regrow, pages allocated.
    pub table: StatsEpoch,
    /// Row-store counter deltas (zeros when the engine has no store).
    pub store: RowStoreStats,
    /// Pool occupancy deltas over the window (process-global: under
    /// concurrency this includes other requests' jobs).
    pub pool: rayon::PoolStats,
    /// Cancellation-token polls observed while serving (0 without a
    /// token).
    pub cancel_probes: u64,
    /// Sweep points answered from the session's [`PointMemo`] instead of
    /// being optimized (0 without a memo, and for plain requests).
    pub points_reused: u64,
    /// Sweep points optimized fresh and published to the [`PointMemo`]
    /// (0 without a memo).
    pub points_computed: u64,
}

impl RequestTrace {
    /// Component-wise aggregation: counters sum, the table width keeps
    /// the maximum. Wall/CPU times add, so merging traces of *sequential*
    /// requests yields the span's true cost; merging concurrent traces
    /// over-counts shared wall time.
    #[must_use]
    pub fn merge(&self, other: &RequestTrace) -> RequestTrace {
        let mut merged = *self;
        merged.requests += other.requests;
        merged.wall_nanos += other.wall_nanos;
        merged.cpu_nanos += other.cpu_nanos;
        merged.table_width = self.table_width.max(other.table_width);
        merged.table.cells_computed += other.table.cells_computed;
        merged.table.cells_from_store += other.table.cells_from_store;
        merged.table.cells_inherited += other.table.cells_inherited;
        merged.table.pages_allocated += other.table.pages_allocated;
        merged.store.rows += other.store.rows;
        merged.store.cells += other.store.cells;
        merged.store.bytes += other.store.bytes;
        merged.store.rows_evicted += other.store.rows_evicted;
        merged.store.cells_computed += other.store.cells_computed;
        merged.store.cells_served += other.store.cells_served;
        merged.store.cells_loaded += other.store.cells_loaded;
        merged.pool.jobs_local += other.pool.jobs_local;
        merged.pool.jobs_stolen += other.pool.jobs_stolen;
        merged.pool.jobs_injected += other.pool.jobs_injected;
        merged.pool.inline_runs += other.pool.inline_runs;
        merged.cancel_probes += other.cancel_probes;
        merged.points_reused += other.points_reused;
        merged.points_computed += other.points_computed;
        merged
    }

    /// Cells the request materialised, however they got there — the
    /// race-deterministic total.
    #[must_use]
    pub fn cells_built(&self) -> u64 {
        self.table.cells_built()
    }
}

/// Process CPU time (user + system) in nanoseconds from
/// `/proc/self/stat`, assuming the universal 100 Hz `USER_HZ`; 0 where
/// the file is unavailable or unparsable.
fn process_cpu_nanos() -> u64 {
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name: state is the 1st,
        // utime the 12th, stime the 13th.
        if let Some(end) = stat.rfind(')') {
            let mut fields = stat[end + 1..].split_whitespace();
            let utime = fields.nth(11).and_then(|f| f.parse::<u64>().ok());
            let stime = fields.next().and_then(|f| f.parse::<u64>().ok());
            if let (Some(utime), Some(stime)) = (utime, stime) {
                return (utime + stime) * 10_000_000;
            }
        }
    }
    0
}

/// The "before" epochs of a traced run; [`TraceTimer::finish`] diffs
/// them into a [`RequestTrace`].
struct TraceTimer {
    started: Instant,
    cpu_nanos: u64,
    table: StatsEpoch,
    store: RowStoreStats,
    pool: rayon::PoolStats,
    polls: u64,
    points_reused: u64,
    points_computed: u64,
}

impl TraceTimer {
    fn begin(engine: &Engine, table: &LazyTimeTable, token: &CancelToken) -> TraceTimer {
        TraceTimer {
            started: Instant::now(),
            cpu_nanos: process_cpu_nanos(),
            table: table.stats_epoch(),
            store: table.store().map(|s| s.stats()).unwrap_or_default(),
            pool: rayon::pool_stats(),
            polls: token.polls(),
            points_reused: engine.points_reused.load(Ordering::Relaxed),
            points_computed: engine.points_computed.load(Ordering::Relaxed),
        }
    }

    fn finish(self, engine: &Engine, table: &LazyTimeTable, token: &CancelToken) -> RequestTrace {
        RequestTrace {
            requests: 1,
            wall_nanos: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            cpu_nanos: process_cpu_nanos().saturating_sub(self.cpu_nanos),
            table_width: table.max_width(),
            table: table.stats_epoch().delta_since(&self.table),
            store: table
                .store()
                .map(|s| s.stats())
                .unwrap_or_default()
                .delta_since(&self.store),
            pool: rayon::pool_stats().delta_since(&self.pool),
            cancel_probes: token.polls().saturating_sub(self.polls),
            points_reused: engine
                .points_reused
                .load(Ordering::Relaxed)
                .saturating_sub(self.points_reused),
            points_computed: engine
                .points_computed
                .load(Ordering::Relaxed)
                .saturating_sub(self.points_computed),
        }
    }
}

/// A point-in-time summary of an [`Engine`] session — its warm-cache
/// footprint and the outcome of the builder's validation pass.
///
/// Versioned: [`EngineStats::VERSION`] names the snapshot schema (carried
/// in [`EngineStats::version`]), so downstream consumers aggregating or
/// persisting snapshots can detect shape changes. Aggregate across
/// sessions with [`EngineStats::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// The snapshot schema version that produced this value
    /// ([`EngineStats::VERSION`]).
    pub version: u32,
    /// The maximum TAM width the current table covers.
    pub table_width: usize,
    /// `(module, width)` cells materialised so far (computed + served by
    /// the row store + inherited across table regrows).
    pub cells_built: usize,
    /// Cells the current table computed fresh (kernel evaluations).
    pub cells_computed: usize,
    /// Cells the current table filled from the attached row store.
    pub cells_from_store: usize,
    /// Cells the current table inherited from its predecessor across
    /// table regrows.
    pub cells_inherited: usize,
    /// Total cells the current table can hold.
    pub cells_total: usize,
    /// Estimated resident bytes of the table and the session's Step 1 /
    /// Step 2 plans ([`Engine::table_memory_bytes`]).
    pub table_memory_bytes: u64,
    /// Warning-level findings recorded at build time (for an unusable
    /// engine: all findings, errors included).
    pub validation_issues: usize,
    /// Whether the engine serves requests (`false` when the SOC failed
    /// validation and every request answers
    /// [`OptimizeError::InvalidSoc`]).
    pub usable: bool,
}

impl EngineStats {
    /// The current snapshot schema version. Bumped whenever a field is
    /// added, removed or changes meaning; version 2 added
    /// `cells_inherited` and this version stamp.
    pub const VERSION: u32 = 2;

    /// A zeroed snapshot — the identity of [`EngineStats::aggregate`]
    /// (vacuously `usable`, width 0).
    #[must_use]
    pub fn empty() -> EngineStats {
        EngineStats {
            version: EngineStats::VERSION,
            table_width: 0,
            cells_built: 0,
            cells_computed: 0,
            cells_from_store: 0,
            cells_inherited: 0,
            cells_total: 0,
            table_memory_bytes: 0,
            validation_issues: 0,
            usable: true,
        }
    }

    /// Folds session snapshots into one fleet-level summary: cell and
    /// byte counters sum, `table_width` keeps the maximum, and `usable`
    /// holds only if every aggregated session is usable.
    #[must_use]
    pub fn aggregate<I: IntoIterator<Item = EngineStats>>(snapshots: I) -> EngineStats {
        snapshots
            .into_iter()
            .fold(EngineStats::empty(), |sum, next| EngineStats {
                version: EngineStats::VERSION,
                table_width: sum.table_width.max(next.table_width),
                cells_built: sum.cells_built + next.cells_built,
                cells_computed: sum.cells_computed + next.cells_computed,
                cells_from_store: sum.cells_from_store + next.cells_from_store,
                cells_inherited: sum.cells_inherited + next.cells_inherited,
                cells_total: sum.cells_total + next.cells_total,
                table_memory_bytes: sum.table_memory_bytes + next.table_memory_bytes,
                validation_issues: sum.validation_issues + next.validation_issues,
                usable: sum.usable && next.usable,
            })
    }
}

/// A per-SOC optimizer session: one shared demand-driven time table, one
/// pool policy, any number of typed requests.
///
/// See the [module docs](self) for the full story and an example.
#[derive(Debug)]
pub struct Engine {
    soc: Arc<Soc>,
    /// The shared table. Rebuilt (under the write lock) when a request
    /// needs more width than it covers; snapshots are handed out as
    /// `Arc`s so in-flight requests keep their table alive.
    table: RwLock<Arc<LazyTimeTable>>,
    /// Parallelism cap; see [`EngineBuilder::threads`].
    threads: Option<usize>,
    /// Point-level solution memo; see [`EngineBuilder::point_memo`].
    point_memo: Option<Arc<dyn PointMemo>>,
    /// Step 1 architectures and Step 2 trajectories of the current table
    /// snapshot, behind every optimization the engine runs.
    plans: PlanMemo,
    /// Lifetime count of sweep points answered from the point memo.
    points_reused: AtomicU64,
    /// Lifetime count of sweep points computed and published to the memo.
    points_computed: AtomicU64,
    /// Outcome of the builder's [`validate_soc`] pass.
    validation: EngineValidation,
}

impl Engine {
    /// Starts building an engine for `soc` (the engine keeps its own
    /// copy, so the session outlives the caller's borrow). Callers that
    /// already hold the SOC in an `Arc` — or build many sessions over one
    /// large SOC — should use [`Engine::builder_arc`], which shares the
    /// SOC instead of deep-cloning it.
    pub fn builder(soc: &Soc) -> EngineBuilder {
        Engine::builder_arc(Arc::new(soc.clone()))
    }

    /// Starts building an engine that **shares** `soc` instead of cloning
    /// it: no module or scan-chain data is copied, the session just takes
    /// one reference count. This is the constructor for tight loops over
    /// large SOCs (a 10k-module SOC deep-clone is measurable) and for
    /// serving several engine sessions over one in-memory SOC.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use soctest_multisite::engine::Engine;
    /// use soctest_soc_model::benchmarks::d695;
    ///
    /// let soc = Arc::new(d695());
    /// let engine = Engine::builder_arc(Arc::clone(&soc)).build();
    /// assert_eq!(Arc::strong_count(&soc), 2); // caller + engine — no clone
    /// assert_eq!(engine.soc_name(), "d695");
    /// ```
    pub fn builder_arc(soc: Arc<Soc>) -> EngineBuilder {
        EngineBuilder {
            soc,
            max_channels: 0,
            threads: None,
            row_store: None,
            point_memo: None,
        }
    }

    /// An engine for `soc` with the default policy: parallel sweeps, a
    /// table sized on demand.
    pub fn new(soc: &Soc) -> Self {
        Engine::builder(soc).build()
    }

    /// The SOC this engine optimizes.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Name of the SOC this engine optimizes.
    pub fn soc_name(&self) -> &str {
        self.soc.name()
    }

    /// The maximum TAM width the current table covers.
    pub fn table_width(&self) -> usize {
        self.snapshot().max_width()
    }

    /// `(module, width)` cells materialised in the current table so far —
    /// the session's warm-cache footprint.
    pub fn cells_built(&self) -> usize {
        self.snapshot().cells_built()
    }

    /// Estimated resident bytes of the session's time table: 8 bytes per
    /// **allocated** cell (cells come in demand-allocated pages, so this
    /// follows the probed footprint, not the `modules × max_width`
    /// rectangle) plus a small fixed overhead, plus the session's memo of
    /// Step 1 architectures and Step 2 trajectories. This is what the
    /// service's session registry charges against its memory cap — an
    /// estimate of the dominant allocations, not an exact heap
    /// measurement.
    pub fn table_memory_bytes(&self) -> u64 {
        self.snapshot().memory_bytes() + self.plans.memory_bytes()
    }

    /// The validation findings recorded when the engine was built: the
    /// warning-level findings of a usable SOC, or every finding (errors
    /// included) of an unusable one.
    pub fn validation_issues(&self) -> &[ValidationIssue] {
        match &self.validation {
            EngineValidation::Usable { warnings } => warnings,
            EngineValidation::Invalid { issues } => issues,
        }
    }

    /// Whether the engine serves requests. `false` means the SOC failed
    /// validation at build time and every request answers
    /// [`OptimizeError::InvalidSoc`] (see [`EngineBuilder::build`]).
    pub fn is_usable(&self) -> bool {
        matches!(self.validation, EngineValidation::Usable { .. })
    }

    /// A point-in-time summary of the session: table footprint plus the
    /// build-time validation outcome.
    pub fn stats(&self) -> EngineStats {
        let table = self.snapshot();
        EngineStats {
            version: EngineStats::VERSION,
            table_width: table.max_width(),
            cells_built: table.cells_built(),
            cells_computed: table.cells_computed(),
            cells_from_store: table.cells_from_store(),
            cells_inherited: table.cells_inherited(),
            cells_total: table.cells_total(),
            table_memory_bytes: table.memory_bytes() + self.plans.memory_bytes(),
            validation_issues: self.validation_issues().len(),
            usable: self.is_usable(),
        }
    }

    /// The [`OptimizeError::InvalidSoc`] every request must answer when
    /// the SOC failed validation, or `None` for a usable engine.
    fn invalid_error(&self) -> Option<OptimizeError> {
        match &self.validation {
            EngineValidation::Usable { .. } => None,
            EngineValidation::Invalid { issues } => Some(OptimizeError::InvalidSoc {
                issues: issues.clone(),
            }),
        }
    }

    /// The engine's effective parallelism cap per layer: the builder's
    /// [`EngineBuilder::threads`] cap, or the pool size.
    fn thread_cap(&self) -> usize {
        self.threads
            .unwrap_or_else(rayon::current_num_threads)
            .max(1)
    }

    // Lock poisoning is recovered, not propagated: the guarded value is
    // always a valid `Arc<LazyTimeTable>` — the write section below only
    // ever *assigns* a freshly built table, so a panic mid-write cannot
    // leave a torn value behind, and a panicked reader never wrote at
    // all. Recovering keeps one panicked request from wedging every later
    // request on the session.
    fn snapshot(&self) -> Arc<LazyTimeTable> {
        Arc::clone(&self.table.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// A table covering at least `width`, regrowing the shared one if the
    /// current table is too narrow. Regrowing copies every built cell
    /// into the wider table (and keeps the attached row store, if any),
    /// so widening a session never discards warm cells —
    /// [`Engine::cells_built`] does not reset across a regrow.
    fn table_for(&self, width: usize) -> Arc<LazyTimeTable> {
        let current = self.snapshot();
        if current.max_width() >= width {
            return current;
        }
        let mut guard = self.table.write().unwrap_or_else(PoisonError::into_inner);
        if guard.max_width() < width {
            *guard = Arc::new(guard.grown(width));
        }
        Arc::clone(&guard)
    }

    /// Serves one request.
    ///
    /// # Errors
    ///
    /// [`OptimizeError`]: an invalid config, an SOC that failed
    /// validation at build time, or an SOC/test-cell combination with no
    /// feasible architecture (for sweeps, the first failing point in
    /// input order).
    pub fn run(&self, request: &OptimizeRequest) -> Result<OptimizeResponse, OptimizeError> {
        if let Some(err) = self.invalid_error() {
            return Err(err);
        }
        let table = self.table_for(request.needed_width());
        self.run_on(table.as_ref(), None, request)
    }

    /// Serves one request under a cooperative [`CancelToken`]: the token
    /// is polled at sweep-point granularity between optimizations and —
    /// through a guarded table — at table-row granularity inside each
    /// one, so both a `Cancel` frame and a deadline expiry terminate the
    /// work within a few table probes.
    ///
    /// Results are bit-identical to [`Engine::run`] when the token never
    /// fires: the guard only forwards lookups.
    ///
    /// # Errors
    ///
    /// Everything [`Engine::run`] returns, plus
    /// [`OptimizeError::Cancelled`] / [`OptimizeError::DeadlineExceeded`]
    /// when the token stops the request. Genuine panics (not cooperative
    /// stops) are *not* caught here — they unwind to the caller, where
    /// the service's per-request isolation turns them into
    /// [`OptimizeError::Internal`].
    pub fn run_with_cancel(
        &self,
        request: &OptimizeRequest,
        token: &CancelToken,
    ) -> Result<OptimizeResponse, OptimizeError> {
        if let Some(err) = self.invalid_error() {
            return Err(err);
        }
        token.check()?;
        let table = self.table_for(request.needed_width());
        self.run_cancellable_on(table.as_ref(), token, request)
    }

    /// [`Engine::run_with_cancel`] plus attribution: returns the response
    /// together with a [`RequestTrace`] of exactly what serving it cost
    /// (epoch diffs of the table, row store and pool taken around the
    /// run). The service's executor builds its per-request `stats` blocks
    /// from it. The trace's `cancel_probes` counts every poll of `token`
    /// during the run (sweep-point checks and table-row probes alike).
    ///
    /// The response is bit-identical to [`Engine::run_with_cancel`] —
    /// tracing only reads counters.
    pub fn run_with_cancel_traced(
        &self,
        request: &OptimizeRequest,
        token: &CancelToken,
    ) -> (Result<OptimizeResponse, OptimizeError>, RequestTrace) {
        if let Some(err) = self.invalid_error() {
            return (Err(err), self.rejection_trace());
        }
        if let Err(stopped) = token.check() {
            let mut trace = self.rejection_trace();
            trace.cancel_probes = 1;
            return (Err(stopped), trace);
        }
        let table = self.table_for(request.needed_width());
        let timer = TraceTimer::begin(self, &table, token);
        let result = self.run_cancellable_on(table.as_ref(), token, request);
        let trace = timer.finish(self, &table, token);
        (result, trace)
    }

    /// The shared cancellation-guarded core: wraps the table, runs the
    /// request under `catch_unwind`, and converts a cooperative-stop
    /// unwind back into its typed error (genuine panics resume).
    fn run_cancellable_on(
        &self,
        table: &LazyTimeTable,
        token: &CancelToken,
        request: &OptimizeRequest,
    ) -> Result<OptimizeResponse, OptimizeError> {
        let guarded = CancelGuarded::new(table, token);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.run_on(&guarded, Some(token), request)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => match CancelToken::unwind_reason(payload) {
                Ok(reason) => Err(reason),
                Err(panic_payload) => resume_unwind(panic_payload),
            },
        }
    }

    /// The trace of a request rejected before any table was touched
    /// (unusable SOC, already-stopped token): counted, zero deltas.
    fn rejection_trace(&self) -> RequestTrace {
        RequestTrace {
            requests: 1,
            table_width: self.table_width(),
            ..RequestTrace::default()
        }
    }

    /// Serves a batch of heterogeneous requests over one table, answering
    /// in input order. Each request gets its own `Result`, so one
    /// infeasible request does not poison the batch.
    ///
    /// The table is widened once, up front, to the widest request, so no
    /// mid-batch rebuild drops warm cells. The whole batch — mixed or not
    /// — fans out across the work-stealing pool at the **request** level,
    /// and each sweeping request fans out again at the **point** level;
    /// the persistent pool runs both layers on one fixed set of workers
    /// (a blocked outer request helps execute inner points), so a mixed
    /// batch saturates a wide machine without oversubscribing it. The
    /// responses are bit-identical to serving every request sequentially,
    /// at any thread count (`tests/engine_equivalence.rs`,
    /// `tests/sweep_determinism.rs`).
    pub fn run_batch(
        &self,
        requests: &[OptimizeRequest],
    ) -> Vec<Result<OptimizeResponse, OptimizeError>> {
        if let Some(err) = self.invalid_error() {
            return requests.iter().map(|_| Err(err.clone())).collect();
        }
        let width = requests
            .iter()
            .map(OptimizeRequest::needed_width)
            .max()
            .unwrap_or(1);
        let table = self.table_for(width);
        let cap = self.thread_cap();
        if cap > 1 {
            rayon::par_map_init_threads(
                requests,
                || (),
                |(), request| self.run_on(table.as_ref(), None, request),
                cap,
            )
        } else {
            requests
                .iter()
                .map(|request| self.run_on(table.as_ref(), None, request))
                .collect()
        }
    }

    /// The Section 7 channels-versus-memory upgrade comparison, evaluated
    /// on the engine's shared table.
    ///
    /// Each of the three optimizations (base, more channels, deeper
    /// memory) answers what the plain request for its config answers: the
    /// upgraded field is set directly, not through the asserting
    /// `AteSpec` builders.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::InvalidConfig`] when the doubled depth overflows
    /// `u64`; otherwise the first error of the three optimizations, in
    /// that order.
    pub fn cost_effectiveness(
        &self,
        config: &OptimizerConfig,
        prices: &AteCostModel,
    ) -> Result<CostEffectiveness, OptimizeError> {
        if let Some(err) = self.invalid_error() {
            return Err(err);
        }
        let base_ate = config.test_cell.ate;
        let depth = base_ate.vector_memory_depth;
        let doubled_depth = depth
            .checked_mul(2)
            .ok_or_else(|| OptimizeError::InvalidConfig {
                message: format!("vector memory depth {depth} cannot be doubled within u64"),
            })?;
        let budget = prices.memory_doubling_cost(&base_ate, 1);
        let extra_channels = prices.channels_affordable(budget);
        let upgraded_channels = base_ate.channels + extra_channels;

        let table = self.table_for(max_tam_width(upgraded_channels));
        let base = self.optimize(table.as_ref(), config)?;
        let mut wider_cfg = *config;
        wider_cfg.test_cell.ate.channels = upgraded_channels;
        let wider = self.optimize(table.as_ref(), &wider_cfg)?;
        let mut deeper_cfg = *config;
        deeper_cfg.test_cell.ate.vector_memory_depth = doubled_depth;
        let deeper = self.optimize(table.as_ref(), &deeper_cfg)?;

        Ok(CostEffectiveness {
            base_devices_per_hour: base.optimal.objective(),
            memory_upgrade_cost_usd: budget,
            memory_upgrade_devices_per_hour: deeper.optimal.objective(),
            equivalent_extra_channels: extra_channels,
            channel_upgrade_cost_usd: prices
                .channel_upgrade_cost(base_ate.channels, upgraded_channels),
            channel_upgrade_devices_per_hour: wider.optimal.objective(),
        })
    }

    /// Serves one request against an already-sized table snapshot.
    ///
    /// Generic over [`TimeLookup`] so the same dispatch serves both the
    /// plain shared table and a cancellation-guarded view of it; `token`
    /// (when present) is polled between sweep points.
    fn run_on<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        token: Option<&CancelToken>,
        request: &OptimizeRequest,
    ) -> Result<OptimizeResponse, OptimizeError> {
        let config = &request.config;
        match &request.sweep {
            SweepAxis::None => self
                .optimize(table, config)
                .map(|solution| OptimizeResponse::Solution(Box::new(solution))),
            SweepAxis::Channels(counts) => {
                self.channel_points(table, token, config, counts)
                    .map(|points| {
                        OptimizeResponse::Curves(vec![SweepCurve {
                            label: "channels".to_string(),
                            points,
                        }])
                    })
            }
            SweepAxis::DepthVectors(depths) => {
                self.depth_points(table, token, config, depths)
                    .map(|points| {
                        OptimizeResponse::Curves(vec![SweepCurve {
                            label: "depth".to_string(),
                            points,
                        }])
                    })
            }
            SweepAxis::ContactYield {
                depths,
                contact_yields,
            } => self
                .contact_yield_curves(table, token, config, depths, contact_yields)
                .map(OptimizeResponse::Curves),
            SweepAxis::ManufacturingYield {
                max_sites,
                manufacturing_yields,
            } => self
                .abort_on_fail_curves(table, token, config, *max_sites, manufacturing_yields)
                .map(OptimizeResponse::Curves),
        }
    }

    /// One two-step optimization of `config` on `table` (the session's
    /// table snapshot, or a cancellation-guarded view of it), through the
    /// session's memo of Step 1 architectures and Step 2 trajectories:
    /// bit-identical to [`crate::optimizer::optimize_with_table`], with the
    /// same table probes.
    fn optimize<L: TimeLookup + ?Sized>(
        &self,
        table: &L,
        config: &OptimizerConfig,
    ) -> Result<MultiSiteSolution, OptimizeError> {
        self.plans.optimize(self.soc.name(), table, config)
    }

    /// Polls a request's token between sweep points, mapping a fired
    /// token to its typed error. A `None` token (the plain [`Engine::run`]
    /// / [`Engine::run_batch`] paths) costs one predictable branch.
    fn check_token(token: Option<&CancelToken>) -> Result<(), OptimizeError> {
        match token {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Maps `f` over `values` under the engine's pool policy, preserving
    /// input order; the result is the points, or the first error in input
    /// order. Runs on the work-stealing pool (capped at the engine's
    /// thread cap), nesting freely under a parallel [`Engine::run_batch`].
    fn map_points<T, F>(&self, values: &[T], f: F) -> Result<Vec<SweepPoint>, OptimizeError>
    where
        T: Sync,
        F: Fn(&T) -> Result<SweepPoint, OptimizeError> + Sync,
    {
        let cap = self.thread_cap();
        if cap > 1 {
            rayon::par_map_init_threads(values, || (), |(), value| f(value), cap)
                .into_iter()
                .collect()
        } else {
            values.iter().map(f).collect()
        }
    }

    /// The plain optimization behind one sweep point: the point's
    /// *effective* configuration (base config with the swept parameter
    /// substituted), answered through the session's [`PointMemo`] when
    /// one is attached. The memo key is the effective config wrapped as
    /// a [`SweepAxis::None`] request — exactly the key a standalone
    /// request for this configuration would carry, which is what makes
    /// sweep points and plain requests one cache namespace. Without a
    /// memo this is a plain [`Engine::optimize`] call.
    fn point_solution<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        cfg: &OptimizerConfig,
    ) -> Result<MultiSiteSolution, OptimizeError> {
        let Some(memo) = &self.point_memo else {
            return self.optimize(table, cfg);
        };
        let key = OptimizeRequest::new(*cfg);
        if let Some(solution) = memo.get(&key).and_then(OptimizeResponse::into_solution) {
            self.points_reused.fetch_add(1, Ordering::Relaxed);
            return Ok(solution);
        }
        let solution = self.optimize(table, cfg)?;
        memo.put(
            &key,
            &OptimizeResponse::Solution(Box::new(solution.clone())),
        );
        self.points_computed.fetch_add(1, Ordering::Relaxed);
        Ok(solution)
    }

    /// Figure 6(a): one optimization per ATE channel count.
    ///
    /// An all-zero (or empty) channel list yields one empty curve, not an
    /// error. Otherwise each point answers what the plain request for its
    /// effective config answers, a zero count included: the swept field
    /// is set directly, not through the asserting
    /// `AteSpec::with_channels`.
    fn channel_points<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        token: Option<&CancelToken>,
        config: &OptimizerConfig,
        channel_counts: &[usize],
    ) -> Result<Vec<SweepPoint>, OptimizeError> {
        if channel_counts.iter().all(|&channels| channels == 0) {
            return Ok(Vec::new());
        }
        self.map_points(channel_counts, |&channels| {
            Engine::check_token(token)?;
            let mut cfg = *config;
            cfg.test_cell.ate.channels = channels;
            self.point_solution(table, &cfg).map(|solution| SweepPoint {
                parameter: AxisValue::Channels(channels),
                max_sites: solution.max_sites,
                optimal: solution.optimal,
            })
        })
    }

    /// Figure 6(b): one optimization per vector-memory depth. As in
    /// `channel_points`, a zero depth answers what the plain request for
    /// it answers.
    fn depth_points<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        token: Option<&CancelToken>,
        config: &OptimizerConfig,
        depths: &[u64],
    ) -> Result<Vec<SweepPoint>, OptimizeError> {
        self.map_points(depths, |&depth| {
            Engine::check_token(token)?;
            let mut cfg = *config;
            cfg.test_cell.ate.vector_memory_depth = depth;
            self.point_solution(table, &cfg).map(|solution| SweepPoint {
                parameter: AxisValue::DepthVectors(depth),
                max_sites: solution.max_sites,
                optimal: solution.optimal,
            })
        })
    }

    /// Figure 7(a): a depth sweep per contact yield, re-test always on
    /// (that is the effect the figure demonstrates).
    fn contact_yield_curves<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        token: Option<&CancelToken>,
        config: &OptimizerConfig,
        depths: &[u64],
        contact_yields: &[f64],
    ) -> Result<Vec<SweepCurve>, OptimizeError> {
        let mut curves = Vec::with_capacity(contact_yields.len());
        for &contact_yield in contact_yields {
            Engine::check_token(token)?;
            let mut cfg = *config;
            cfg.contact_yield = contact_yield;
            cfg.options.retest_contact_failures = true;
            let points = self.depth_points(table, token, &cfg, depths)?;
            curves.push(SweepCurve {
                label: format!("pc = {contact_yield}"),
                points,
            });
        }
        Ok(curves)
    }

    /// Figure 7(b): expected test time vs. site count per manufacturing
    /// yield, with the architecture fixed at the Step 1 (channel-minimal)
    /// design — as in the paper, the point of the figure is the yield
    /// effect, not the channel redistribution.
    fn abort_on_fail_curves<L: TimeLookup + Sync + ?Sized>(
        &self,
        table: &L,
        token: Option<&CancelToken>,
        config: &OptimizerConfig,
        max_sites: usize,
        manufacturing_yields: &[f64],
    ) -> Result<Vec<SweepCurve>, OptimizeError> {
        // The yields only weight the closed-form points below, which no
        // config validation sees: check them before any work.
        for &manufacturing_yield in manufacturing_yields {
            validate_yield("manufacturing", manufacturing_yield)?;
        }
        // The base optimization is a plain run of the request's config —
        // memoised like any other point. The per-site points below are
        // `evaluate_point` closed forms, not optimizations, so they stay
        // outside the memo.
        let base = self.point_solution(table, config)?;
        let architecture = base.step1_architecture;

        let mut curves = Vec::with_capacity(manufacturing_yields.len());
        for &manufacturing_yield in manufacturing_yields {
            let mut cfg = *config;
            cfg.manufacturing_yield = manufacturing_yield;
            cfg.options.abort_on_fail = true;
            // The inner loop never probes the table, so the guard cannot
            // observe a stop here — poll the token per site point instead.
            let mut points = Vec::with_capacity(max_sites.max(1));
            for sites in 1..=max_sites.max(1) {
                Engine::check_token(token)?;
                points.push(SweepPoint {
                    parameter: AxisValue::Sites(sites),
                    max_sites,
                    optimal: evaluate_point(&architecture, sites, &cfg),
                });
            }
            curves.push(SweepCurve {
                label: format!("pm = {manufacturing_yield}"),
                points,
            });
        }
        Ok(curves)
    }
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
    fn single_request_produces_a_solution() {
        let engine = Engine::new(&d695());
        let response = engine.run(&OptimizeRequest::new(config())).unwrap();
        let solution = response.solution().expect("None axis answers Solution");
        assert!(solution.optimal.sites >= 1);
        assert!(response.curves().is_none());
    }

    #[test]
    fn table_grows_on_demand_and_keeps_the_widest() {
        let engine = Engine::new(&d695());
        assert_eq!(engine.table_width(), 1);
        engine.run(&OptimizeRequest::new(config())).unwrap();
        assert_eq!(engine.table_width(), 128);
        assert!(engine.cells_built() > 0);
        // A narrower request reuses the wide table.
        let mut narrow = config();
        narrow.test_cell.ate = narrow.test_cell.ate.with_channels(64);
        engine.run(&OptimizeRequest::new(narrow)).unwrap();
        assert_eq!(engine.table_width(), 128);
    }

    #[test]
    fn max_channels_hint_presizes_the_table() {
        let engine = Engine::builder(&d695()).max_channels(320).build();
        assert_eq!(engine.table_width(), 160);
    }

    #[test]
    fn regrow_keeps_warm_cells_instead_of_resetting() {
        // Regression: regrowing the table to a wider width used to build
        // a fresh table, discarding every built cell.
        let engine = Engine::new(&d695());
        let mut narrow = config();
        narrow.test_cell.ate = narrow.test_cell.ate.with_channels(64);
        let narrow_response = engine.run(&OptimizeRequest::new(narrow)).unwrap();
        let before = engine.stats();
        assert!(before.cells_built > 0);

        // A wider request forces a regrow (64-channel table -> 128-wide).
        engine.run(&OptimizeRequest::new(config())).unwrap();
        let after = engine.stats();
        assert_eq!(after.table_width, 128);
        assert!(
            after.cells_built >= before.cells_built,
            "cells_built reset across regrow: {} -> {}",
            before.cells_built,
            after.cells_built
        );

        // Re-serving the narrow request probes only inherited cells.
        let computed_after_regrow = engine.stats().cells_computed;
        let replay = engine.run(&OptimizeRequest::new(narrow)).unwrap();
        assert_eq!(replay, narrow_response);
        assert_eq!(
            engine.stats().cells_computed,
            computed_after_regrow,
            "inherited cells were recomputed"
        );
    }

    #[test]
    fn traced_run_attributes_table_deltas_per_request() {
        let engine = Engine::new(&d695());
        let token = CancelToken::new();
        let (first, t1) = engine.run_with_cancel_traced(&OptimizeRequest::new(config()), &token);
        assert_eq!(t1.requests, 1);
        assert_eq!(t1.table_width, 128);
        assert!(t1.table.cells_built() > 0);
        assert!(t1.cells_built() == t1.table.cells_built());
        // Re-serving the identical request touches no new cells.
        let (second, t2) = engine.run_with_cancel_traced(&OptimizeRequest::new(config()), &token);
        assert_eq!(second.unwrap(), first.unwrap());
        assert_eq!(t2.table.cells_built(), 0);
        // Sequential per-request deltas sum to the engine-lifetime total.
        let merged = t1.merge(&t2);
        assert_eq!(merged.requests, 2);
        assert_eq!(
            merged.table.cells_built(),
            engine.stats().cells_built as u64
        );
    }

    #[test]
    fn traced_batch_covers_the_whole_batch() {
        let engine = Engine::new(&d695());
        let batch = [
            OptimizeRequest::new(config()),
            OptimizeRequest::new(config()).with_sweep(SweepAxis::Channels(vec![192, 256])),
        ];
        // Traced one by one, the per-request traces merge into the
        // batch's cost.
        let token = CancelToken::new();
        let (responses, traces): (Vec<_>, Vec<_>) = batch
            .iter()
            .map(|request| engine.run_with_cancel_traced(request, &token))
            .unzip();
        let trace = traces
            .iter()
            .fold(RequestTrace::default(), |sum, next| sum.merge(next));
        assert_eq!(responses.len(), 2);
        assert_eq!(trace.requests, 2);
        assert_eq!(trace.table.cells_built(), engine.stats().cells_built as u64);
        assert_eq!(
            responses,
            engine.run_batch(&batch),
            "tracing changed results"
        );
    }

    #[test]
    fn traced_run_on_an_unusable_engine_reports_a_counted_rejection() {
        // An empty SOC fails validation with an error-level finding.
        let engine = Engine::new(&Soc::new("empty"));
        assert!(!engine.is_usable());
        let (result, trace) =
            engine.run_with_cancel_traced(&OptimizeRequest::new(config()), &CancelToken::new());
        assert!(matches!(result, Err(OptimizeError::InvalidSoc { .. })));
        assert_eq!(trace.requests, 1);
        assert_eq!(trace.table.cells_built(), 0);
    }

    #[test]
    fn engine_stats_snapshot_is_versioned_and_aggregates() {
        let engine = Engine::new(&d695());
        engine.run(&OptimizeRequest::new(config())).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.version, EngineStats::VERSION);
        assert_eq!(
            stats.cells_built,
            stats.cells_computed + stats.cells_from_store + stats.cells_inherited
        );
        let total = EngineStats::aggregate([stats, stats]);
        assert_eq!(total.cells_built, 2 * stats.cells_built);
        assert_eq!(total.cells_total, 2 * stats.cells_total);
        assert_eq!(total.table_width, stats.table_width);
        assert!(total.usable);
        assert_eq!(EngineStats::aggregate([]), EngineStats::empty());
    }

    #[test]
    fn store_backed_engine_is_bit_identical_and_shares_rows() {
        use soctest_tam::RowStore;
        let store = Arc::new(RowStore::new());
        let plain = Engine::new(&d695());
        let backed = Engine::builder(&d695())
            .row_store(Arc::clone(&store))
            .build();
        let request =
            OptimizeRequest::new(config()).with_sweep(SweepAxis::Channels(vec![192, 256]));
        assert_eq!(backed.run(&request).unwrap(), plain.run(&request).unwrap());
        let computed = store.stats().cells_computed;
        assert!(computed > 0);

        // A second engine over the same store computes nothing new.
        let second = Engine::builder(&d695())
            .row_store(Arc::clone(&store))
            .build();
        assert_eq!(second.run(&request).unwrap(), plain.run(&request).unwrap());
        assert_eq!(store.stats().cells_computed, computed);
        assert_eq!(second.stats().cells_computed, 0);
        assert!(second.stats().cells_from_store > 0);
    }

    /// A minimal [`PointMemo`]: plain map from the canonical request
    /// rendering to the response, no eviction. Stands in for the
    /// service's `SessionPointMemo` so the engine-side contract is
    /// testable without a `SolutionCache`.
    #[derive(Debug, Default)]
    struct MapMemo {
        map: std::sync::Mutex<std::collections::HashMap<String, OptimizeResponse>>,
    }

    impl PointMemo for MapMemo {
        fn get(&self, request: &OptimizeRequest) -> Option<OptimizeResponse> {
            let key = crate::service::cache::canonical_request(request);
            self.map.lock().unwrap().get(&key).cloned()
        }
        fn put(&self, request: &OptimizeRequest, response: &OptimizeResponse) {
            let key = crate::service::cache::canonical_request(request);
            self.map.lock().unwrap().insert(key, response.clone());
        }
    }

    #[test]
    fn memo_backed_sweeps_reuse_points_bit_identically() {
        let sweep = OptimizeRequest::new(config()).with_sweep(SweepAxis::Channels(vec![192, 256]));
        let bare = Engine::new(&d695()).run(&sweep).unwrap();

        let memo = Arc::new(MapMemo::default());
        let engine = Engine::builder(&d695())
            .point_memo(Arc::clone(&memo) as Arc<dyn PointMemo>)
            .build();
        let token = CancelToken::new();
        let (first, cold) = engine.run_with_cancel_traced(&sweep, &token);
        assert_eq!(first.unwrap(), bare, "the memo changed the response");
        assert_eq!(cold.points_computed, 2);
        assert_eq!(cold.points_reused, 0);

        // The repeat sweep answers every point from the memo.
        let (second, warm) = engine.run_with_cancel_traced(&sweep, &token);
        assert_eq!(second.unwrap(), bare);
        assert_eq!(warm.points_reused, 2);
        assert_eq!(warm.points_computed, 0);

        // Each point was published under the *plain* effective-config
        // key — exactly what a standalone request for that channel
        // count would ask for, and bit-identical to computing it.
        let mut effective = config();
        effective.test_cell.ate = effective.test_cell.ate.with_channels(192);
        let plain_key = OptimizeRequest::new(effective);
        let memoised = memo
            .get(&plain_key)
            .expect("sweep points live under the plain request key");
        assert_eq!(memoised, Engine::new(&d695()).run(&plain_key).unwrap());
    }

    #[test]
    fn batch_answers_in_input_order_with_per_request_errors() {
        let engine = Engine::new(&d695());
        let mut tiny = config();
        tiny.test_cell.ate = tiny.test_cell.ate.with_channels(4);
        let batch = [
            OptimizeRequest::new(config()),
            OptimizeRequest::new(tiny), // infeasible: 4 channels
            OptimizeRequest::new(config())
                .with_sweep(SweepAxis::DepthVectors(vec![96 * 1024, 128 * 1024])),
        ];
        let responses = engine.run_batch(&batch);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(OptimizeError::Architecture(_))));
        let curves = responses[2].as_ref().unwrap().curves().unwrap();
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].points.len(), 2);
        assert_eq!(
            curves[0].points[0].parameter,
            AxisValue::DepthVectors(96 * 1024)
        );
    }

    #[test]
    fn builder_arc_shares_the_soc_without_cloning() {
        let soc = Arc::new(d695());
        let engine = Engine::builder_arc(Arc::clone(&soc)).build();
        // Caller + engine: the builder took a reference, not a deep copy.
        assert_eq!(Arc::strong_count(&soc), 2);
        // The shared-SOC engine answers exactly like a cloning one.
        let cloned = Engine::builder(&soc).build();
        assert_eq!(
            engine.run(&OptimizeRequest::new(config())).unwrap(),
            cloned.run(&OptimizeRequest::new(config())).unwrap()
        );
        drop(engine);
        assert_eq!(Arc::strong_count(&soc), 1);
    }

    #[test]
    fn thread_cap_is_clamped_and_reported() {
        let soc = d695();
        assert_eq!(Engine::builder(&soc).threads(0).build().thread_cap(), 1);
        assert_eq!(Engine::builder(&soc).sequential().build().thread_cap(), 1);
        assert_eq!(Engine::builder(&soc).threads(2).build().thread_cap(), 2);
    }

    #[test]
    fn mixed_batch_is_identical_at_thread_caps_one_two_and_n() {
        let soc = d695();
        let batch = [
            OptimizeRequest::new(config()),
            OptimizeRequest::new(config())
                .with_sweep(SweepAxis::Channels(vec![128, 192, 256, 320])),
            OptimizeRequest::new(config()).with_sweep(SweepAxis::DepthVectors(vec![
                64 * 1024,
                96 * 1024,
                128 * 1024,
            ])),
        ];
        let sequential = Engine::builder(&soc).sequential().build().run_batch(&batch);
        for cap in [2usize, rayon::current_num_threads().max(2)] {
            let parallel = Engine::builder(&soc).threads(cap).build().run_batch(&batch);
            assert_eq!(
                parallel.len(),
                sequential.len(),
                "batch length changed at cap {cap}"
            );
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(
                    p.as_ref().unwrap(),
                    s.as_ref().unwrap(),
                    "nested-parallel batch diverged at cap {cap}"
                );
            }
        }
    }

    #[test]
    fn sequential_engine_matches_the_parallel_one() {
        let soc = d695();
        let request = OptimizeRequest::new(config())
            .with_sweep(SweepAxis::Channels(vec![128, 192, 256, 320]));
        let parallel = Engine::new(&soc).run(&request).unwrap();
        let sequential_engine = Engine::builder(&soc).sequential().build();
        assert_eq!(sequential_engine.thread_cap(), 1);
        let sequential = sequential_engine.run(&request).unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn zero_channel_sweep_yields_no_points() {
        let engine = Engine::new(&d695());
        let response = engine
            .run(&OptimizeRequest::new(config()).with_sweep(SweepAxis::Channels(vec![0, 0])))
            .unwrap();
        assert!(response.curves().unwrap()[0].points.is_empty());
    }

    #[test]
    fn cost_effectiveness_without_channels_answers_the_plain_request_error() {
        // Regression: the deeper-memory config went through the asserting
        // `AteSpec::with_depth`, which panicked on a zero channel count.
        let engine = Engine::new(&d695());
        let mut bare = config();
        bare.test_cell.ate.channels = 0;
        let plain = engine.run(&OptimizeRequest::new(bare)).unwrap_err();
        assert!(matches!(plain, OptimizeError::Architecture(_)), "{plain}");
        let compared = engine.cost_effectiveness(&bare, &AteCostModel::paper_prices());
        assert_eq!(compared.unwrap_err(), plain);
    }

    #[test]
    fn cost_effectiveness_rejects_a_depth_that_cannot_double() {
        // Regression: doubling a depth above `u64::MAX / 2` overflowed
        // (a panic in debug, a zero depth and an assert in release).
        let engine = Engine::new(&d695());
        let mut deep = config();
        deep.test_cell.ate.vector_memory_depth = u64::MAX / 2 + 1;
        assert!(engine.run(&OptimizeRequest::new(deep)).is_ok());
        let compared = engine.cost_effectiveness(&deep, &AteCostModel::paper_prices());
        assert!(
            matches!(compared, Err(OptimizeError::InvalidConfig { .. })),
            "{compared:?}"
        );
    }

    #[test]
    fn sweep_axis_serialises_in_externally_tagged_format() {
        let axes = [
            SweepAxis::None,
            SweepAxis::Channels(vec![512, 640]),
            SweepAxis::DepthVectors(vec![5 * 1024 * 1024]),
            SweepAxis::ContactYield {
                depths: vec![96 * 1024],
                contact_yields: vec![0.99, 1.0],
            },
            SweepAxis::ManufacturingYield {
                max_sites: 8,
                manufacturing_yields: vec![1.0, 0.7],
            },
        ];
        for axis in &axes {
            let json = serde_json::to_string(axis).unwrap();
            let back: SweepAxis = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, axis, "round trip failed for {json}");
        }
        assert_eq!(serde_json::to_string(&SweepAxis::None).unwrap(), "\"None\"");
        assert_eq!(
            serde_json::to_string(&SweepAxis::Channels(vec![2])).unwrap(),
            "{\"Channels\":[2]}"
        );
    }

    #[test]
    fn requests_and_responses_round_trip_through_json() {
        let engine = Engine::new(&d695());
        let request =
            OptimizeRequest::new(config()).with_sweep(SweepAxis::Channels(vec![192, 256]));
        let request_back: OptimizeRequest =
            serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(request_back, request);

        let response = engine.run(&request).unwrap();
        let response_back: OptimizeResponse =
            serde_json::from_str(&serde_json::to_string(&response).unwrap()).unwrap();
        // Integer fields and structure survive exactly; floats may lose
        // the last ULP through the text round trip, so compare the JSON
        // renderings (shortest-round-trip formatting is stable).
        assert_eq!(
            serde_json::to_string(&response_back).unwrap(),
            serde_json::to_string(&response).unwrap()
        );
    }

    #[test]
    fn unknown_variant_tags_are_rejected() {
        assert!(serde_json::from_str::<SweepAxis>("\"Nope\"").is_err());
        assert!(serde_json::from_str::<SweepAxis>("{\"Nope\":[1]}").is_err());
        assert!(serde_json::from_str::<OptimizeResponse>("{\"Nope\":[]}").is_err());
    }
}
