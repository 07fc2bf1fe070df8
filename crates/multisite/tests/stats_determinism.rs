//! Observability-is-free property tests: the `RequestTrace` seam must
//! never perturb what it observes. Over random SOCs and requests,
//! traced and untraced runs must answer bit-identically (tracing only
//! reads epoch counters, it never influences the optimizer), and the
//! per-request `StatsEpoch` deltas must account exactly: summed across
//! a random sequential batch they equal the engine-lifetime totals,
//! even across table regrows.

use proptest::prelude::*;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::Engine;
use soctest_multisite::{CancelToken, OptimizeRequest, OptimizerConfig, RequestTrace, SweepAxis};
use soctest_soc_model::{Module, Soc};

prop_compose! {
    fn arb_module(index: usize)(
        patterns in 1u64..150,
        inputs in 1u32..60,
        outputs in 1u32..60,
        chains in proptest::collection::vec(1u64..200, 0..6),
    ) -> Module {
        Module::builder(format!("m{index}"))
            .patterns(patterns)
            .inputs(inputs)
            .outputs(outputs)
            .scan_chains(chains)
            .build()
    }
}

fn arb_soc() -> impl Strategy<Value = Soc> {
    (2usize..8).prop_flat_map(|n| {
        let modules: Vec<_> = (0..n).map(arb_module).collect();
        modules.prop_map(|ms| Soc::from_modules("prop_soc", ms))
    })
}

/// A request on a small test cell; sweeping variants can demand wider
/// tables than the plain one, forcing mid-sequence regrows.
fn arb_request() -> impl Strategy<Value = OptimizeRequest> {
    (
        32usize..=128,
        (1u64 << 20)..(1u64 << 24),
        proptest::collection::vec(32usize..=256, 1..4),
        0u8..3,
    )
        .prop_map(|(channels, depth, sweep_channels, which)| {
            let cell = TestCell::new(
                AteSpec::new(channels, depth, 5.0e6),
                ProbeStation::paper_probe_station(),
            );
            let request = OptimizeRequest::new(OptimizerConfig::new(cell));
            match which {
                0 => request,
                1 => request.with_sweep(SweepAxis::Channels(sweep_channels)),
                _ => request.with_sweep(SweepAxis::DepthVectors(vec![depth, depth * 2])),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing is invisible: a traced run answers bit-identically to an
    /// untraced run of the same request on an identically-seeded
    /// engine — successes serialise to the same JSON bytes, failures
    /// compare equal — so the wire `stats` flag can never change the
    /// `solution`/`curves` payload.
    #[test]
    fn traced_runs_answer_bit_identically(soc in arb_soc(), request in arb_request()) {
        let untraced = Engine::new(&soc).run(&request);
        let (traced, trace) =
            Engine::new(&soc).run_with_cancel_traced(&request, &CancelToken::new());
        prop_assert_eq!(&untraced, &traced);
        if let (Ok(plain), Ok(observed)) = (&untraced, &traced) {
            prop_assert_eq!(
                serde_json::to_string(plain).expect("responses serialise"),
                serde_json::to_string(observed).expect("responses serialise")
            );
        }
        prop_assert_eq!(trace.requests, 1);
        // The trace's own invariant: the total is the sum of its parts.
        prop_assert_eq!(
            trace.table.cells_built(),
            trace.table.cells_computed + trace.table.cells_from_store + trace.table.cells_inherited
        );
    }

    /// Sequential per-request `StatsEpoch` deltas sum to the
    /// engine-lifetime totals — nothing double-counted, nothing lost —
    /// including across table regrows (a regrow's eagerly-inherited
    /// cells surface as the final table's `cells_inherited`, exactly
    /// replacing the predecessor's materialised counters).
    #[test]
    fn per_request_deltas_sum_to_lifetime_totals(
        soc in arb_soc(),
        requests in proptest::collection::vec(arb_request(), 1..4),
    ) {
        let engine = Engine::new(&soc);
        let token = CancelToken::new();
        let mut merged = RequestTrace::default();
        for request in &requests {
            let (_, trace) = engine.run_with_cancel_traced(request, &token);
            merged = merged.merge(&trace);
        }
        prop_assert_eq!(merged.requests, requests.len() as u64);
        let lifetime = engine.stats();
        prop_assert_eq!(merged.table.cells_built(), lifetime.cells_built as u64);
    }
}
