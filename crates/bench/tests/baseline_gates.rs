//! Correctness and speed-ratio gates on the Section 7 workload: the
//! 274-module PNX8550 stand-in (`pnx_soc`) on the paper's test cell
//! (`paper_config`) and the four-figure batch (Figures 6(a), 6(b), 7(a)
//! and 7(b) as one set of engine requests).
//!
//! Every fast path is checked bit-identical to its reference on this
//! input: the row-kernel `TimeTable` build, the incremental row kernel,
//! the heap LPT, the lazy table, the shared-table engine batch, tracing,
//! nested parallelism, the solution cache, sweep-point memoization and a
//! reloaded row store. Two ratio gates keep the fast paths fast: the
//! row-kernel table build must be at least 10x faster than the naive
//! per-width wrapper design, and a solution-cache hit at least 5x faster
//! than a cold computation. Each ratio compares the medians of at least
//! three timed runs per side. The measured ratios sit two orders of
//! magnitude above their floors, in debug and release builds alike, so a
//! noisy machine does not trip them; losing the fast path does.
//!
//! Absolute timings are not reported here: the service benchmark in
//! `perfbench/` measures every layer end to end.

use soctest_bench::{
    fig6a_channel_counts, fig6b_depths, fig7a_contact_yields, fig7b_manufacturing_yields,
    paper_config, pnx_soc,
};
use soctest_multisite::engine::{
    Engine, OptimizeRequest, OptimizeResponse, RequestTrace, SweepAxis,
};
use soctest_multisite::optimizer::optimize_with_table;
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::service::{CacheOutcome, CancelToken, SessionPointMemo, SolutionCache};
use soctest_multisite::OptimizeError;
use soctest_tam::{max_tam_width, LazyTimeTable, RowStore, TimeTable};
use soctest_wrapper::lpt::{lpt_partition, lpt_partition_reference};
use soctest_wrapper::row::{test_time_row_reference, RowKernel};
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per side of the table-build gate (a naive build takes
/// seconds in a debug build).
const BUILD_RUNS: usize = 3;

/// Timed runs per side of the cache gate. A hot run takes well under a
/// millisecond, so one preemption can inflate it; more runs keep the
/// median clear of that.
const CACHE_RUNS: usize = 9;

/// The table width of the build comparison.
const MAX_WIDTH: usize = 256;

/// Runs `body` `runs` times. Returns the median wall time in seconds and
/// every run's value, so a gate can check what the timed runs built.
fn timed_median<R>(runs: usize, mut body: impl FnMut() -> R) -> (f64, Vec<R>) {
    let mut seconds = Vec::with_capacity(runs);
    let mut values = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let value = body();
        seconds.push(start.elapsed().as_secs_f64());
        values.push(value);
    }
    seconds.sort_by(f64::total_cmp);
    (seconds[runs / 2], values)
}

/// Figures 6(a), 6(b), 7(a) and 7(b) on the paper's grids, as one batch.
fn figure_batch(config: OptimizerConfig) -> Vec<OptimizeRequest> {
    let depths = fig6b_depths();
    vec![
        OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(fig6a_channel_counts())),
        OptimizeRequest::new(config).with_sweep(SweepAxis::DepthVectors(depths.clone())),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ContactYield {
            depths,
            contact_yields: fig7a_contact_yields(),
        }),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: fig7b_manufacturing_yields(),
        }),
    ]
}

/// Unwraps every answer of a batch that must be feasible throughout.
fn feasible(results: Vec<Result<OptimizeResponse, OptimizeError>>) -> Vec<OptimizeResponse> {
    results
        .into_iter()
        .map(|result| result.expect("every figure request is feasible"))
        .collect()
}

#[test]
fn row_kernel_table_build_matches_naive_and_is_at_least_10x_faster() {
    let pnx = pnx_soc();
    let (fast, fast_tables) = timed_median(BUILD_RUNS, || TimeTable::build(&pnx, MAX_WIDTH));
    let (naive, naive_tables) =
        timed_median(BUILD_RUNS, || TimeTable::build_reference(&pnx, MAX_WIDTH));
    let tables_identical = fast_tables
        .iter()
        .zip(&naive_tables)
        .all(|(fast, naive)| fast == naive);
    assert!(
        tables_identical,
        "fast and naive TimeTable builds disagree — the row kernel is wrong"
    );
    let speedup = naive / fast;
    assert!(
        speedup >= 10.0,
        "timetable_build speedup {speedup:.1}x is below the 10x target"
    );
}

#[test]
fn incremental_row_kernel_matches_reference_on_every_module() {
    let pnx = pnx_soc();
    let rows_identical = pnx
        .modules()
        .iter()
        .all(|m| RowKernel::new().compute(m, MAX_WIDTH) == test_time_row_reference(m, MAX_WIDTH));
    assert!(
        rows_identical,
        "incremental and reference row kernels disagree"
    );
}

#[test]
fn heap_lpt_matches_scalar_lpt_on_flattened_chains() {
    // A chain-rich shape (every PNX module's chains concatenated — the
    // flattened Problem 2 profile) over the narrow-region widths where
    // the heap matters.
    let pnx = pnx_soc();
    let all_chains: Vec<u64> = pnx
        .modules()
        .iter()
        .flat_map(|m| m.scan_chains().iter().map(|c| c.length))
        .collect();
    for bins in [4usize, 16, 64, 192] {
        assert_eq!(
            lpt_partition(&all_chains, bins),
            lpt_partition_reference(&all_chains, bins),
            "heap LPT and scalar LPT disagree at {bins} bins"
        );
    }
}

#[test]
fn lazy_table_matches_eager_and_stays_lazy() {
    let pnx = pnx_soc();
    let config = paper_config();
    let width = max_tam_width(config.test_cell.ate.channels);
    let table = LazyTimeTable::new(&pnx, width);
    let lazy_solution = optimize_with_table(pnx.name(), &table, &config)
        .expect("the PNX stand-in fits the paper's test cell");
    let eager = TimeTable::build(&pnx, width);
    let eager_solution = optimize_with_table(pnx.name(), &eager, &config)
        .expect("the PNX stand-in fits the paper's test cell");
    assert_eq!(
        lazy_solution, eager_solution,
        "lazy and eager tables must produce identical solutions"
    );
    assert!(
        table.build_ratio() < 1.0,
        "the lazy table materialised the whole width grid — laziness lost"
    );
}

#[test]
fn engine_batch_matches_the_per_call_sweeps() {
    // Each figure request served alone on a fresh engine, against the
    // same request inside the shared-table batch.
    let pnx = pnx_soc();
    let batch = figure_batch(paper_config());
    let batched = feasible(Engine::new(&pnx).run_batch(&batch));
    assert_eq!(batched.len(), batch.len());
    let sweeps = ["channel", "depth", "contact-yield", "abort-on-fail"];
    for ((request, response), sweep) in batch.iter().zip(&batched).zip(sweeps) {
        let alone = Engine::new(&pnx)
            .run(request)
            .expect("every figure request is feasible");
        assert_eq!(
            response, &alone,
            "engine batch and per-call {sweep} sweep disagree"
        );
    }
}

#[test]
fn traced_batch_matches_the_untraced_one() {
    // The figure requests traced one by one on one engine; their traces
    // merge into the batch's cost.
    let pnx = pnx_soc();
    let batch = figure_batch(paper_config());
    let plain = Engine::new(&pnx).run_batch(&batch);
    let engine = Engine::new(&pnx);
    let token = CancelToken::new();
    let (observed, traces): (Vec<_>, Vec<_>) = batch
        .iter()
        .map(|request| engine.run_with_cancel_traced(request, &token))
        .unzip();
    let trace = traces
        .iter()
        .fold(RequestTrace::default(), |sum, next| sum.merge(next));
    assert_eq!(
        plain, observed,
        "traced figure batch diverged from the untraced one"
    );
    assert_eq!(trace.requests, batch.len() as u64);
    assert!(
        trace.cells_built() > 0,
        "a cold traced batch built no cells"
    );
}

#[test]
fn mixed_batch_parallel_matches_sequential() {
    // Plain optimizations interleaved with every sweep shape: the batch
    // fans out at the request level and again inside each sweep.
    let pnx = pnx_soc();
    let config = paper_config();
    let mut mixed_batch = vec![OptimizeRequest::new(config)];
    mixed_batch.extend(figure_batch(config));
    let mut deep_cfg = config;
    deep_cfg.test_cell.ate = deep_cfg
        .test_cell
        .ate
        .with_depth(deep_cfg.test_cell.ate.vector_memory_depth * 2);
    mixed_batch.push(OptimizeRequest::new(deep_cfg));

    let sequential = Engine::builder(&pnx)
        .sequential()
        .build()
        .run_batch(&mixed_batch);
    let parallel = Engine::new(&pnx).run_batch(&mixed_batch);
    assert_eq!(sequential.len(), parallel.len());
    for (index, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.as_ref().expect("every mixed request is feasible"),
            p.as_ref().expect("every mixed request is feasible"),
            "mixed batch request {index}: nested-parallel result diverged from sequential"
        );
    }
}

#[test]
fn cache_hits_match_computed_answers_and_are_at_least_5x_faster() {
    let pnx = pnx_soc();
    let batch = figure_batch(paper_config());
    let token = CancelToken::new();

    // Warm a cache and check every hit against the computed answer.
    let hot_cache = SolutionCache::new(256, 64 * 1024 * 1024);
    let engine = Engine::new(&pnx);
    for request in &batch {
        let (_, computed) = hot_cache
            .run_coalesced(0, request, &token, || engine.run(request))
            .expect("every figure request is feasible");
        let (outcome, cached) = hot_cache
            .run_coalesced(0, request, &token, || engine.run(request))
            .expect("every figure request is feasible");
        assert!(outcome.is_cached(), "repeated request missed the cache");
        assert_eq!(
            computed, cached,
            "cached response diverged from the computed one"
        );
    }

    // Cold: a fresh cache and engine compute all four figures.
    let (cold, _) = timed_median(CACHE_RUNS, || {
        let cache = SolutionCache::new(256, 64 * 1024 * 1024);
        let engine = Engine::new(&pnx);
        for request in &batch {
            std::hint::black_box(
                cache
                    .run_coalesced(0, request, &token, || engine.run(request))
                    .expect("every figure request is feasible"),
            );
        }
    });
    // Hot: the warmed cache answers the same requests without computing.
    let (hot, _) = timed_median(CACHE_RUNS, || {
        for request in &batch {
            std::hint::black_box(
                hot_cache
                    .run_coalesced(0, request, &token, || {
                        panic!("a warmed cache must not recompute")
                    })
                    .expect("every figure request is feasible"),
            );
        }
    });
    let cache_speedup = cold / hot;
    assert!(
        cache_speedup >= 5.0,
        "solution-cache hits are only {cache_speedup:.1}x faster than cold \
         computation — below the 5x floor"
    );
}

#[test]
fn memoised_sweep_points_answer_the_plain_request_with_zero_cells() {
    // The Figure 6(a) channel sweep through a point-memo-backed engine:
    // every point lands in the solution cache under its plain
    // effective-config key.
    let pnx = pnx_soc();
    let config = paper_config();
    let channels = fig6a_channel_counts();
    let sweep_request = &figure_batch(config)[0];
    let point_cache = Arc::new(SolutionCache::new(256, 64 * 1024 * 1024));
    let memo_engine = || {
        Engine::builder(&pnx)
            .point_memo(Arc::new(SessionPointMemo::new(Arc::clone(&point_cache), 0)))
            .build()
    };

    let bare = Engine::new(&pnx)
        .run(sweep_request)
        .expect("the fig6a sweep is feasible");
    let token = CancelToken::new();
    let (first, cold_trace) = memo_engine().run_with_cancel_traced(sweep_request, &token);
    assert_eq!(
        first.expect("the fig6a sweep is feasible"),
        bare,
        "the point memo changed the sweep's answer"
    );
    assert_eq!(cold_trace.points_computed, channels.len() as u64);

    // A fresh engine over the warmed cache reuses every point.
    let (second, warm_trace) = memo_engine().run_with_cancel_traced(sweep_request, &token);
    assert_eq!(second.expect("the fig6a sweep is feasible"), bare);
    assert_eq!(
        warm_trace.points_reused,
        channels.len() as u64,
        "a repeat sweep must reuse every memoised point"
    );
    assert_eq!(warm_trace.points_computed, 0);

    // After the sweep, a plain request for a swept channel count is a
    // cache Hit that computes nothing: the compute closure is
    // unreachable.
    let mut point_cfg = config;
    point_cfg.test_cell.ate = point_cfg.test_cell.ate.with_channels(channels[0]);
    let plain = OptimizeRequest::new(point_cfg);
    let (outcome, served) = point_cache
        .run_coalesced(0, &plain, &CancelToken::new(), || {
            panic!("a swept point must answer the plain request with zero cells computed")
        })
        .expect("a cached point cannot fail");
    assert_eq!(
        outcome,
        CacheOutcome::Hit,
        "the post-sweep plain request must be a cache hit"
    );
    assert_eq!(
        served,
        Engine::new(&pnx)
            .run(&plain)
            .expect("every fig6a point is feasible"),
        "the memoised point diverged from a cold computation"
    );
}

#[test]
fn reloaded_row_store_rebuilds_zero_rows() {
    // A `--cache-dir` restart: a warmed store saved to `rows.v1`, loaded
    // into a brand-new store as a second process would, and a fresh
    // store-backed engine serving the batch.
    let pnx = pnx_soc();
    let batch = figure_batch(paper_config());
    let rows_path = std::env::temp_dir().join(format!(
        "soctest-baseline-gates-rows-{}.v1",
        std::process::id()
    ));
    let warm = Arc::new(RowStore::new());
    feasible(
        Engine::builder(&pnx)
            .row_store(Arc::clone(&warm))
            .build()
            .run_batch(&batch),
    );
    warm.save(&rows_path).expect("save the warm row store");

    let reloaded = Arc::new(RowStore::new());
    let loaded = reloaded.load(&rows_path);
    let _ = std::fs::remove_file(&rows_path);
    loaded.expect("load the warm row store");
    let store_backed = Engine::builder(&pnx)
        .row_store(Arc::clone(&reloaded))
        .build()
        .run_batch(&batch);
    let baseline = Engine::new(&pnx).run_batch(&batch);
    for (index, (s, b)) in store_backed.iter().zip(&baseline).enumerate() {
        assert_eq!(
            s.as_ref().expect("every figure request is feasible"),
            b.as_ref().expect("every figure request is feasible"),
            "figure request {index}: store-backed result diverged from the plain engine"
        );
    }
    assert_eq!(
        reloaded.stats().cells_computed,
        0,
        "a warm reloaded store rebuilt rows"
    );
}
