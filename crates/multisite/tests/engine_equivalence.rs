//! Equivalence proofs for the session-oriented engine: `Engine::run` /
//! `Engine::run_batch` must be bit-identical to the legacy path —
//! `optimize_with_table` over a per-call `LazyTimeTable` — on the
//! PNX8550 stand-in and a synthetic SOC, and every request of a
//! heterogeneous mixed-axis batch must answer exactly what the same
//! request answers alone on a fresh engine.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{Engine, OptimizeRequest, SweepAxis};
use soctest_multisite::optimizer::{optimize, optimize_with_table};
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::report::to_json;
use soctest_multisite::sweep::{AxisValue, SweepPoint};
use soctest_multisite::MultiSiteSolution;
use soctest_soc_model::synthetic::{pnx8550_like, SyntheticSocSpec};
use soctest_soc_model::Soc;
use soctest_tam::{max_tam_width, LazyTimeTable};

fn small_config() -> OptimizerConfig {
    OptimizerConfig::new(TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ))
}

fn synthetic_soc() -> Soc {
    SyntheticSocSpec::new("engine_equiv", 150)
        .seed(150)
        .memory_fraction(0.3)
        .generate()
}

/// The pre-engine `optimize` path: a fresh per-call table, no engine.
fn legacy_optimize(soc: &Soc, config: &OptimizerConfig) -> MultiSiteSolution {
    let table = LazyTimeTable::new(soc, max_tam_width(config.test_cell.ate.channels));
    optimize_with_table(soc.name(), &table, config).expect("feasible")
}

/// The pre-engine channel-sweep path: one table at the widest count, one
/// sequential `optimize_with_table` per point.
fn legacy_channel_sweep(
    soc: &Soc,
    config: &OptimizerConfig,
    channel_counts: &[usize],
) -> Vec<SweepPoint> {
    let widest = channel_counts.iter().copied().max().unwrap();
    let table = LazyTimeTable::new(soc, max_tam_width(widest));
    channel_counts
        .iter()
        .map(|&channels| {
            let mut cfg = *config;
            cfg.test_cell.ate = cfg.test_cell.ate.with_channels(channels);
            let solution = optimize_with_table(soc.name(), &table, &cfg).expect("feasible");
            SweepPoint {
                parameter: AxisValue::Channels(channels),
                max_sites: solution.max_sites,
                optimal: solution.optimal,
            }
        })
        .collect()
}

#[test]
fn engine_matches_the_legacy_optimize_path_on_the_pnx_stand_in() {
    let soc = pnx8550_like();
    let config = OptimizerConfig::paper_section7();
    let engine = Engine::new(&soc);
    let via_engine = engine
        .run(&OptimizeRequest::new(config))
        .unwrap()
        .into_solution()
        .unwrap();
    let legacy = legacy_optimize(&soc, &config);
    assert_eq!(via_engine, legacy);
    assert_eq!(to_json(&via_engine), to_json(&legacy));
    // The shim agrees too.
    assert_eq!(optimize(&soc, &config).unwrap(), legacy);
}

#[test]
fn engine_matches_the_legacy_optimize_path_on_a_synthetic_soc() {
    let soc = synthetic_soc();
    let config = OptimizerConfig::new(TestCell::new(
        AteSpec::new(512, 4 * 1024 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    let via_engine = Engine::new(&soc)
        .run(&OptimizeRequest::new(config))
        .unwrap()
        .into_solution()
        .unwrap();
    assert_eq!(via_engine, legacy_optimize(&soc, &config));
}

#[test]
fn engine_channel_sweep_is_bit_identical_to_the_legacy_path() {
    let soc = synthetic_soc();
    let config = OptimizerConfig::new(TestCell::new(
        AteSpec::new(512, 4 * 1024 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    let counts = [256usize, 384, 512, 640];
    let curves = Engine::new(&soc)
        .run(&OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(counts.to_vec())))
        .unwrap()
        .into_curves()
        .unwrap();
    let legacy = legacy_channel_sweep(&soc, &config, &counts);
    assert_eq!(curves[0].points, legacy);
    assert_eq!(to_json(&curves[0].points), to_json(&legacy));
}

#[test]
fn mixed_axis_batch_matches_individual_runs_and_the_free_functions() {
    let soc = pnx8550_like();
    let config = OptimizerConfig::paper_section7();
    let channels: Vec<usize> = (0..=4).map(|i| 512 + 128 * i).collect();
    let depths: Vec<u64> = (5..=9).map(|m| m * 1024 * 1024).collect();
    let contact_yields = [0.999, 1.0];
    let manufacturing_yields = [1.0, 0.8];

    let batch = [
        OptimizeRequest::new(config),
        OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(channels)),
        OptimizeRequest::new(config).with_sweep(SweepAxis::DepthVectors(depths.clone())),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ContactYield {
            depths,
            contact_yields: contact_yields.to_vec(),
        }),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: manufacturing_yields.to_vec(),
        }),
    ];

    // One engine, one shared table, all five figure shapes at once.
    let engine = Engine::new(&soc);
    let batched: Vec<_> = engine
        .run_batch(&batch)
        .into_iter()
        .map(|result| result.expect("every batch request is feasible"))
        .collect();

    // Batched answers equal individually-run answers on a fresh engine
    // (table sharing and batch order do not change any result) ...
    for (request, response) in batch.iter().zip(&batched) {
        let fresh = Engine::new(&soc).run(request).unwrap();
        assert_eq!(&fresh, response);
    }

    // ... and the plain request equals the one-shot `optimize` shim.
    assert_eq!(
        batched[0].solution().unwrap(),
        &optimize(&soc, &config).unwrap()
    );
}

#[test]
fn nested_parallel_mixed_batch_is_identical_at_thread_caps_one_two_and_n() {
    // The work-stealing pool runs mixed batches with request-level AND
    // point-level parallelism; this pins scheduler determinism on a
    // synthetic SOC big enough for real stealing: sequential ==
    // thread-cap 2 == full pool, repeated, and equal to each request
    // served alone on a fresh engine.
    let soc = synthetic_soc();
    let config = OptimizerConfig::new(TestCell::new(
        AteSpec::new(512, 4 * 1024 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    let channels = vec![256usize, 384, 512, 640];
    let depths = vec![3 * 1024 * 1024u64, 4 * 1024 * 1024, 6 * 1024 * 1024];
    let batch = [
        OptimizeRequest::new(config),
        OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(channels)),
        OptimizeRequest::new(config).with_sweep(SweepAxis::DepthVectors(depths.clone())),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ContactYield {
            depths,
            contact_yields: vec![0.995, 1.0],
        }),
    ];

    let sequential: Vec<_> = Engine::builder(&soc)
        .sequential()
        .build()
        .run_batch(&batch)
        .into_iter()
        .map(|result| result.expect("feasible"))
        .collect();

    for cap in [2usize, rayon::current_num_threads().max(3)] {
        for run in 0..2 {
            let nested: Vec<_> = Engine::builder(&soc)
                .threads(cap)
                .build()
                .run_batch(&batch)
                .into_iter()
                .map(|result| result.expect("feasible"))
                .collect();
            assert_eq!(
                nested, sequential,
                "cap {cap} run {run}: nested-parallel batch diverged"
            );
            assert_eq!(
                to_json(&nested[0]),
                to_json(&sequential[0]),
                "cap {cap} run {run}: JSON diverged"
            );
        }
    }

    // Each batch request answers what it answers alone on a fresh engine.
    for (index, (request, response)) in batch.iter().zip(&sequential).enumerate() {
        assert_eq!(
            &Engine::new(&soc).run(request).unwrap(),
            response,
            "request {index}: batch answer differs from a fresh engine's"
        );
    }
}

#[test]
fn sequential_and_parallel_engines_agree_on_every_axis() {
    let soc = synthetic_soc();
    let config = small_config().with_test_cell(TestCell::new(
        AteSpec::new(512, 4 * 1024 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    let requests = [
        OptimizeRequest::new(config).with_sweep(SweepAxis::Channels(vec![384, 512])),
        OptimizeRequest::new(config).with_sweep(SweepAxis::DepthVectors(vec![
            3 * 1024 * 1024,
            4 * 1024 * 1024,
        ])),
        OptimizeRequest::new(config).with_sweep(SweepAxis::ContactYield {
            depths: vec![4 * 1024 * 1024],
            contact_yields: vec![0.99, 1.0],
        }),
    ];
    let parallel = Engine::new(&soc);
    let sequential = Engine::builder(&soc).sequential().build();
    for request in &requests {
        assert_eq!(
            parallel.run(request).unwrap(),
            sequential.run(request).unwrap()
        );
    }
}
