//! Cancellation and deadline semantics at the engine boundary, with the
//! property the streaming service leans on: an aborted run never
//! disturbs its siblings. The lazy time table is shared, warm state —
//! after any cancelled or deadline-expired request, subsequent answers
//! from the same engine must be identical to a fresh engine's.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::optimizer::optimize_with_table;
use soctest_multisite::service::CancelToken;
use soctest_multisite::{
    AxisValue, Engine, OptimizeError, OptimizeRequest, OptimizerConfig, SweepAxis,
};
use soctest_soc_model::benchmarks;
use soctest_tam::LazyTimeTable;
use std::time::{Duration, Instant};

fn request() -> OptimizeRequest {
    let cell = TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    OptimizeRequest::new(OptimizerConfig::new(cell))
}

fn sweep_request() -> OptimizeRequest {
    request().with_sweep(SweepAxis::Channels(vec![128, 192, 256]))
}

#[test]
fn pre_cancelled_token_answers_cancelled_immediately() {
    let engine = Engine::new(&benchmarks::d695());
    let token = CancelToken::new();
    token.cancel();
    let err = engine.run_with_cancel(&request(), &token).unwrap_err();
    assert!(matches!(err, OptimizeError::Cancelled));
}

#[test]
fn expired_deadline_answers_deadline_exceeded() {
    let engine = Engine::new(&benchmarks::d695());
    let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    let err = engine.run_with_cancel(&request(), &token).unwrap_err();
    assert!(matches!(err, OptimizeError::DeadlineExceeded));
}

#[test]
fn far_future_deadline_is_invisible_in_the_answer() {
    let engine = Engine::new(&benchmarks::d695());
    let plain = engine.run(&sweep_request()).expect("plain run succeeds");
    let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
    let timed = engine
        .run_with_cancel(&sweep_request(), &token)
        .expect("generous deadline succeeds");
    assert_eq!(plain, timed);
}

#[test]
fn aborted_runs_never_disturb_later_answers() {
    // Abort in every supported way against one engine, then check its
    // answers against an engine that never saw a cancellation. The first
    // abort lands on a *cold* table, so any partially materialised rows
    // from the aborted fill would show up here.
    let survivor = Engine::new(&benchmarks::d695());

    let cancelled = CancelToken::new();
    cancelled.cancel();
    assert!(survivor
        .run_with_cancel(&sweep_request(), &cancelled)
        .is_err());
    let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    assert!(survivor.run_with_cancel(&request(), &expired).is_err());

    let fresh = Engine::new(&benchmarks::d695());
    assert_eq!(
        survivor.run(&sweep_request()).expect("survivor answers"),
        fresh.run(&sweep_request()).expect("fresh answers"),
    );

    // Batch answers (the parallel path) agree as well.
    let batch = [request(), sweep_request()];
    let survivor_batch: Vec<_> = survivor
        .run_batch(&batch)
        .into_iter()
        .map(|r| r.expect("survivor batch answers"))
        .collect();
    let fresh_batch: Vec<_> = fresh
        .run_batch(&batch)
        .into_iter()
        .map(|r| r.expect("fresh batch answers"))
        .collect();
    assert_eq!(survivor_batch, fresh_batch);
}

#[test]
fn mid_run_deadline_interrupts_a_cold_fill() {
    // p93791 with a cold table takes far longer than the budget below, so
    // the deadline must fire *during* the run — exercising the probe
    // inside the lazy table fill, not just the entry check.
    let engine = Engine::new(&benchmarks::p93791());
    let cell = TestCell::new(
        AteSpec::new(512, 4_000_000, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    let plain = OptimizeRequest::new(OptimizerConfig::new(cell));
    let big = plain.clone().with_sweep(SweepAxis::DepthVectors(
        (1_000_000..=3_500_000).step_by(20_000).collect(),
    ));
    let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(5));
    let err = engine.run_with_cancel(&big, &token).unwrap_err();
    assert!(matches!(err, OptimizeError::DeadlineExceeded), "got {err}");

    // The interrupted fill left the engine fully serviceable.
    let fresh = Engine::new(&benchmarks::p93791());
    let after = engine.run(&plain).expect("engine survives interruption");
    assert_eq!(after, fresh.run(&plain).expect("fresh answers"));

    // ...and left no half-built Step 1 or Step 2 plan behind: the same
    // engine's full sweep equals the reference optimizer at every point.
    let sweep = engine.run(&big).expect("full sweep after interruption");
    let points = &sweep.curves().expect("a sweep answers curves")[0].points;
    let SweepAxis::DepthVectors(depths) = &big.sweep else {
        unreachable!("the sweep above is a depth sweep")
    };
    assert_eq!(points.len(), depths.len());
    let table = LazyTimeTable::new(engine.soc(), big.needed_width());
    for (point, &depth) in points.iter().zip(depths) {
        let mut config = big.config;
        config.test_cell.ate = config.test_cell.ate.with_depth(depth);
        let reference =
            optimize_with_table(engine.soc_name(), &table, &config).expect("reference answers");
        assert_eq!(point.parameter, AxisValue::DepthVectors(depth));
        assert_eq!(point.max_sites, reference.max_sites, "depth {depth}");
        assert_eq!(point.optimal, reference.optimal, "depth {depth}");
    }
}
