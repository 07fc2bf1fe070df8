//! Determinism proofs for the rayon-parallel sweeps: results must be
//! byte-identical to evaluating every sweep point sequentially, and stable
//! across repeated runs — at any thread count, under nested batch
//! parallelism, on the persistent work-stealing pool.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{Engine, OptimizeRequest, OptimizeResponse, SweepAxis};
use soctest_multisite::optimizer::optimize_with_table;
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::report::to_json;
use soctest_multisite::sweep::{AxisValue, SweepPoint};
use soctest_soc_model::benchmarks::d695;
use soctest_soc_model::Soc;
use soctest_tam::TimeTable;

fn config() -> OptimizerConfig {
    OptimizerConfig::new(TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ))
}

/// The points of a single-curve sweep, served on a fresh engine.
fn sweep_points(soc: &Soc, config: OptimizerConfig, axis: SweepAxis) -> Vec<SweepPoint> {
    Engine::new(soc)
        .run(&OptimizeRequest::new(config).with_sweep(axis))
        .unwrap()
        .into_curves()
        .unwrap()
        .remove(0)
        .points
}

#[test]
fn channel_sweep_matches_sequential_evaluation() {
    let soc = d695();
    let channels = [128usize, 160, 192, 224, 256, 320];
    let parallel = sweep_points(&soc, config(), SweepAxis::Channels(channels.to_vec()));

    // The sequential path: the same per-point computation, one at a time.
    let table = TimeTable::build(&soc, channels.iter().max().unwrap() / 2);
    let sequential: Vec<SweepPoint> = channels
        .iter()
        .map(|&k| {
            let mut cfg = config();
            cfg.test_cell.ate = cfg.test_cell.ate.with_channels(k);
            let solution = optimize_with_table(soc.name(), &table, &cfg).unwrap();
            SweepPoint {
                parameter: AxisValue::Channels(k),
                max_sites: solution.max_sites,
                optimal: solution.optimal,
            }
        })
        .collect();

    assert_eq!(parallel, sequential);
    // Byte-identical through the JSON reporter as well.
    assert_eq!(to_json(&parallel), to_json(&sequential));
}

#[test]
fn depth_sweep_is_stable_across_runs() {
    let soc = d695();
    let depths = [64 * 1024, 96 * 1024, 128 * 1024, 192 * 1024];
    let first = sweep_points(&soc, config(), SweepAxis::DepthVectors(depths.to_vec()));
    let second = sweep_points(&soc, config(), SweepAxis::DepthVectors(depths.to_vec()));
    assert_eq!(first, second);
    assert_eq!(to_json(&first), to_json(&second));
}

#[test]
fn concurrent_lazy_table_sweep_matches_eager_sequential_on_a_scaled_soc() {
    // The sweeps share one LazyTimeTable across the rayon pool, so many
    // workers race on the same cells; the results must still be
    // bit-identical to a sequential evaluation on an eager table.
    use soctest_soc_model::synthetic::SyntheticSocSpec;
    let soc = SyntheticSocSpec::new("sweep_scaled", 300)
        .seed(300)
        .memory_fraction(0.3)
        .generate();
    let mut cfg = OptimizerConfig::new(TestCell::new(
        AteSpec::new(512, 7 * 1024 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    cfg.options.retest_contact_failures = true;
    let depths = [4 * 1024 * 1024, 5 * 1024 * 1024, 7 * 1024 * 1024];
    let parallel = sweep_points(&soc, cfg, SweepAxis::DepthVectors(depths.to_vec()));

    let table = TimeTable::build(&soc, 256);
    let sequential: Vec<SweepPoint> = depths
        .iter()
        .map(|&depth| {
            let mut point_cfg = cfg;
            point_cfg.test_cell.ate = point_cfg.test_cell.ate.with_depth(depth);
            let solution = optimize_with_table(soc.name(), &table, &point_cfg).unwrap();
            SweepPoint {
                parameter: AxisValue::DepthVectors(depth),
                max_sites: solution.max_sites,
                optimal: solution.optimal,
            }
        })
        .collect();
    assert_eq!(parallel, sequential);
    assert_eq!(to_json(&parallel), to_json(&sequential));
}

/// The mixed batch of the scheduler stress tests: every axis shape at
/// once, so a parallel `run_batch` exercises request-level fan-out nested
/// over point-level fan-out on one shared lazy table.
fn mixed_axis_batch(config: OptimizerConfig) -> Vec<OptimizeRequest> {
    vec![
        OptimizeRequest::new(config),
        OptimizeRequest::new(config)
            .with_sweep(SweepAxis::Channels(vec![128, 160, 192, 224, 256, 320])),
        OptimizeRequest::new(config).with_sweep(SweepAxis::DepthVectors(vec![
            64 * 1024,
            96 * 1024,
            128 * 1024,
            192 * 1024,
        ])),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ContactYield {
            depths: vec![64 * 1024, 96 * 1024, 128 * 1024],
            contact_yields: vec![0.99, 0.999, 1.0],
        }),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: vec![1.0, 0.9, 0.7],
        }),
    ]
}

#[test]
fn mixed_axis_batch_is_deterministic_across_thread_counts_and_runs() {
    // The scheduler stress test: sequential == parallel == nested-parallel
    // across engine thread caps 1 (sequential), 2, and N (the full pool),
    // each repeated so a racy steal schedule would have runs to diverge
    // in. Every engine is fresh per run, so no warm table masks a
    // scheduling effect; every response must be bit-identical and
    // byte-identical through the JSON reporter.
    let soc = d695();
    let batch = mixed_axis_batch(config());

    let baseline: Vec<OptimizeResponse> = Engine::builder(&soc)
        .sequential()
        .build()
        .run_batch(&batch)
        .into_iter()
        .map(|result| result.expect("every stress request is feasible"))
        .collect();
    let baseline_json: Vec<String> = baseline.iter().map(to_json).collect();

    let pool_threads = rayon::current_num_threads();
    for cap in [1usize, 2, pool_threads.max(3)] {
        for run in 0..3 {
            let engine = Engine::builder(&soc).threads(cap).build();
            let responses: Vec<OptimizeResponse> = engine
                .run_batch(&batch)
                .into_iter()
                .map(|result| result.expect("every stress request is feasible"))
                .collect();
            assert_eq!(
                responses, baseline,
                "thread cap {cap}, run {run}: batch diverged from sequential"
            );
            let json: Vec<String> = responses.iter().map(to_json).collect();
            assert_eq!(
                json, baseline_json,
                "thread cap {cap}, run {run}: JSON rendering diverged"
            );
        }
    }
}

#[test]
fn one_engine_re_answers_identically_while_its_table_warms() {
    // Repeated runs on ONE engine: the shared lazy table accumulates
    // cells between runs, and the answers must not move.
    let soc = d695();
    let batch = mixed_axis_batch(config());
    let engine = Engine::new(&soc);
    let first = engine.run_batch(&batch);
    let cells_after_first = engine.cells_built();
    for _ in 0..2 {
        let again = engine.run_batch(&batch);
        assert_eq!(again.len(), first.len());
        for (a, b) in again.iter().zip(&first) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }
    // The re-runs were served from the warm cache, not recomputed tables.
    assert_eq!(engine.cells_built(), cells_after_first);
}
