//! The plan-memo oracle: an engine answers every optimization through
//! its per-session memo of Step 1 architectures and Step 2 trajectories,
//! and must stay bit-identical to the reference [`optimize_with_table`].
//!
//! Each case sends a sequence of requests — plain ones and all four sweep
//! axes, over random channel counts (crossing table regrows), depths
//! (infeasible ones included), option switches and yields — to one
//! engine, and recomputes every answer with the reference on a twin
//! [`LazyTimeTable`] that regrows to the same widths with its own row
//! store. Answers must be equal, errors included, and so must every
//! request's table counters: the memo probes exactly the cells the
//! reference would.

use proptest::prelude::*;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{Engine, OptimizeResponse};
use soctest_multisite::optimizer::{evaluate_point, optimize_with_table};
use soctest_multisite::service::resolve_named_soc;
use soctest_multisite::{
    AxisValue, CancelToken, MultiSiteOptions, MultiSiteSolution, OptimizeError, OptimizeRequest,
    OptimizerConfig, SweepAxis, SweepCurve, SweepPoint,
};
use soctest_soc_model::synthetic::SyntheticSocSpec;
use soctest_soc_model::{ModuleId, Soc};
use soctest_tam::{LazyTimeTable, RowStore, StatsEpoch};
use std::sync::Arc;

/// The designs `soc-serve` resolves by name.
const CATALOGUE: [&str; 5] = ["d695", "p22810", "p34392", "p93791", "pnx8550_like"];

/// The reference answer to `request`: the engine's sweep semantics
/// (input order, first error wins) with every optimization run by
/// [`optimize_with_table`] on `table`.
fn reference(
    name: &str,
    table: &LazyTimeTable,
    request: &OptimizeRequest,
) -> Result<OptimizeResponse, OptimizeError> {
    let solve = |cfg: &OptimizerConfig| optimize_with_table(name, table, cfg);
    let point = |parameter: AxisValue, solution: MultiSiteSolution| SweepPoint {
        parameter,
        max_sites: solution.max_sites,
        optimal: solution.optimal,
    };
    let depth_points = |config: &OptimizerConfig, depths: &[u64]| {
        depths
            .iter()
            .map(|&depth| {
                let mut cfg = *config;
                cfg.test_cell.ate = cfg.test_cell.ate.with_depth(depth);
                solve(&cfg).map(|solution| point(AxisValue::DepthVectors(depth), solution))
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let curve = |label: String, points: Vec<SweepPoint>| SweepCurve { label, points };
    let config = request.config;
    Ok(match &request.sweep {
        SweepAxis::None => OptimizeResponse::Solution(Box::new(solve(&config)?)),
        SweepAxis::Channels(counts) => {
            let points = if counts.iter().all(|&c| c == 0) {
                Vec::new()
            } else {
                counts
                    .iter()
                    .map(|&channels| {
                        let mut cfg = config;
                        cfg.test_cell.ate = cfg.test_cell.ate.with_channels(channels);
                        solve(&cfg).map(|solution| point(AxisValue::Channels(channels), solution))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            OptimizeResponse::Curves(vec![curve("channels".into(), points)])
        }
        SweepAxis::DepthVectors(depths) => {
            OptimizeResponse::Curves(vec![curve("depth".into(), depth_points(&config, depths)?)])
        }
        SweepAxis::ContactYield {
            depths,
            contact_yields,
        } => {
            let mut curves = Vec::new();
            for &contact_yield in contact_yields {
                let mut cfg = config;
                cfg.contact_yield = contact_yield;
                cfg.options.retest_contact_failures = true;
                curves.push(curve(
                    format!("pc = {contact_yield}"),
                    depth_points(&cfg, depths)?,
                ));
            }
            OptimizeResponse::Curves(curves)
        }
        SweepAxis::ManufacturingYield {
            max_sites,
            manufacturing_yields,
        } => {
            for &manufacturing_yield in manufacturing_yields {
                OptimizerConfig::paper_section7()
                    .with_manufacturing_yield(manufacturing_yield)
                    .validate()?;
            }
            let architecture = solve(&config)?.step1_architecture;
            let mut curves = Vec::new();
            for &manufacturing_yield in manufacturing_yields {
                let mut cfg = config;
                cfg.manufacturing_yield = manufacturing_yield;
                cfg.options.abort_on_fail = true;
                let points = (1..=(*max_sites).max(1))
                    .map(|sites| SweepPoint {
                        parameter: AxisValue::Sites(sites),
                        max_sites: *max_sites,
                        optimal: evaluate_point(&architecture, sites, &cfg),
                    })
                    .collect();
                curves.push(curve(format!("pm = {manufacturing_yield}"), points));
            }
            OptimizeResponse::Curves(curves)
        }
        other => panic!("the oracle does not know sweep axis {other:?}"),
    })
}

/// The SOC of a case: a catalogue design, or a synthetic one with 3–40
/// modules.
#[derive(Debug, Clone)]
enum SocPick {
    Catalogue(usize),
    Synthetic { modules: usize, seed: u64 },
}

impl SocPick {
    fn soc(&self) -> Soc {
        match *self {
            SocPick::Catalogue(index) => resolve_named_soc(CATALOGUE[index]).expect("named"),
            SocPick::Synthetic { modules, seed } => SyntheticSocSpec::new("oracle", modules)
                .seed(seed)
                .generate(),
        }
    }
}

/// One request of a sequence, in numbers; [`RequestPick::request`]
/// scales the depths to the SOC.
#[derive(Debug, Clone)]
struct RequestPick {
    axis: u8,
    channels: usize,
    /// Depth as a fraction `2^-(depth_exp/4)` of the SOC's serial test
    /// time at width 1: small exponents fit on two channels, larger ones
    /// need more channels or cannot be met at all.
    depth_exp: u32,
    switches: u8,
    contact_yield: f64,
    manufacturing_yield: f64,
    sweep_channels: Vec<usize>,
    sweep_depths: Vec<u32>,
    sweep_yields: Vec<f64>,
    max_sites: usize,
}

fn arb_request() -> impl Strategy<Value = RequestPick> {
    (
        (0u8..5, 1usize..=400, 0u32..28, 0u8..8),
        (0.96f64..1.01, 0.5f64..1.05),
        (
            proptest::collection::vec(1usize..=400, 1..4),
            proptest::collection::vec(0u32..28, 1..4),
            proptest::collection::vec(0.5f64..1.05, 1..3),
            1usize..12,
        ),
    )
        .prop_map(
            |(
                (axis, channels, depth_exp, switches),
                (contact_yield, manufacturing_yield),
                (sweep_channels, sweep_depths, sweep_yields, max_sites),
            )| RequestPick {
                axis,
                channels,
                depth_exp,
                switches,
                contact_yield,
                manufacturing_yield,
                sweep_channels,
                sweep_depths,
                sweep_yields,
                max_sites,
            },
        )
}

impl RequestPick {
    fn request(&self, serial_cycles: u64) -> OptimizeRequest {
        let depth = |exp: u32| (serial_cycles >> (exp / 4)).max(1);
        let mut options = MultiSiteOptions::baseline();
        if self.switches & 1 != 0 {
            options = options.with_broadcast();
        }
        if self.switches & 2 != 0 {
            options = options.with_abort_on_fail();
        }
        if self.switches & 4 != 0 {
            options = options.with_retest();
        }
        let config = OptimizerConfig::new(TestCell::new(
            AteSpec::new(self.channels, depth(self.depth_exp), 5.0e6),
            ProbeStation::paper_probe_station(),
        ))
        .with_options(options)
        .with_contact_yield(self.contact_yield)
        .with_manufacturing_yield(self.manufacturing_yield);
        let request = OptimizeRequest::new(config);
        let depths: Vec<u64> = self.sweep_depths.iter().map(|&e| depth(e)).collect();
        request.with_sweep(match self.axis {
            0 => SweepAxis::None,
            1 => SweepAxis::Channels(self.sweep_channels.clone()),
            2 => SweepAxis::DepthVectors(depths),
            3 => SweepAxis::ContactYield {
                depths,
                contact_yields: self.sweep_yields.iter().map(|y| y.min(1.0)).collect(),
            },
            _ => SweepAxis::ManufacturingYield {
                max_sites: self.max_sites,
                manufacturing_yields: self.sweep_yields.clone(),
            },
        })
    }
}

/// The SOC's serial test time: every module at width 1, one after the
/// other — a depth that always fits one two-channel group.
fn serial_cycles(soc: &Soc) -> u64 {
    let table = LazyTimeTable::new(soc, 1);
    (0..soc.num_modules())
        .map(|m| table.time(ModuleId(m), 1))
        .sum()
}

/// What a sequence covered, for the coverage checks.
#[derive(Debug, Default)]
struct Tally {
    failed: usize,
    regrows: usize,
}

/// Serves `requests` in order on one sequential, store-backed engine
/// and, with the reference, on a twin table that regrows at the same
/// requests; asserts equal answers and equal per-request table counters.
fn check_sequence(soc: &Soc, requests: &[OptimizeRequest]) -> Result<Tally, TestCaseError> {
    let engine = Engine::builder(soc)
        .sequential()
        .row_store(Arc::new(RowStore::new()))
        .build();
    let mut twin = Arc::new(LazyTimeTable::with_store(
        soc,
        engine.table_width(),
        Arc::new(RowStore::new()),
    ));
    let mut tally = Tally::default();
    let token = CancelToken::new();
    for (index, request) in requests.iter().enumerate() {
        let (answer, trace) = engine.run_with_cancel_traced(request, &token);
        if request.needed_width() > twin.max_width() {
            twin = Arc::new(twin.grown(request.needed_width()));
            tally.regrows += 1;
        }
        prop_assert_eq!(engine.table_width(), twin.max_width());
        let before = twin.stats_epoch();
        let expected = reference(soc.name(), &twin, request);
        let probed: StatsEpoch = twin.stats_epoch().delta_since(&before);
        prop_assert_eq!(&answer, &expected, "request {} {:?}", index, request);
        prop_assert_eq!(trace.table, probed, "table counters, request {}", index);
        tally.failed += usize::from(answer.is_err());
    }
    Ok(tally)
}

fn arb_soc() -> impl Strategy<Value = SocPick> {
    prop_oneof![
        (0usize..CATALOGUE.len()).prop_map(SocPick::Catalogue),
        (3usize..=40, 0u64..1_000_000)
            .prop_map(|(modules, seed)| SocPick::Synthetic { modules, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random SOCs and request sequences: the engine's memo answers
    /// bit-identically to the reference and probes the same cells.
    #[test]
    fn memo_answers_and_probes_like_the_reference(
        pick in arb_soc(),
        picks in proptest::collection::vec(arb_request(), 4..10),
    ) {
        let soc = pick.soc();
        let serial = serial_cycles(&soc);
        let requests: Vec<OptimizeRequest> = picks.iter().map(|p| p.request(serial)).collect();
        check_sequence(&soc, &requests)?;
    }
}

/// A fixed sequence per catalogue design that is known to cover what the
/// memo must get right: repeated depths at growing and shrinking channel
/// counts, regrows, broadcast, infeasible points of both kinds, and the
/// feasibility boundary `C/2 = W1` at a depth the memo already holds.
#[test]
fn catalogue_sequences_cover_regrows_repeats_and_infeasible_points() {
    let mut total = Tally::default();
    let mut boundaries = 0;
    for name in CATALOGUE {
        let soc = resolve_named_soc(name).expect("named");
        let serial = serial_cycles(&soc);
        let plain = |channels: usize, shift: u32, broadcast: bool| {
            let mut options = MultiSiteOptions::baseline();
            if broadcast {
                options = options.with_broadcast();
            }
            OptimizeRequest::new(
                OptimizerConfig::new(TestCell::new(
                    AteSpec::new(channels, (serial >> shift).max(1), 5.0e6),
                    ProbeStation::paper_probe_station(),
                ))
                .with_options(options),
            )
        };
        let mut requests = vec![
            plain(64, 3, false),
            plain(256, 3, false),
            plain(128, 3, true),
            plain(512, 4, false),
            plain(4, 4, false),
            plain(512, 3, false),
            plain(512, 15, false),
            plain(1024, 5, true),
            plain(96, 5, false).with_sweep(SweepAxis::Channels(vec![1024, 96, 8])),
            plain(700, 4, false).with_sweep(SweepAxis::DepthVectors(vec![
                serial >> 2,
                serial >> 6,
                serial >> 4,
            ])),
        ];
        // Step 1's width at the depth of `plain(512, 4, _)`, which the
        // memo holds by now: channel counts around twice that width.
        let step1_width = Engine::new(&soc)
            .run(&plain(512, 4, false))
            .ok()
            .and_then(|response| Some(response.solution()?.step1_architecture.total_width()));
        if let Some(w1) = step1_width {
            boundaries += 1;
            requests.extend([
                plain(2 * w1, 4, false),
                plain(2 * w1 - 1, 4, false),
                plain(2 * w1 - 2, 4, true),
                plain(2 * w1 + 1, 4, true),
            ]);
        }
        let tally = check_sequence(&soc, &requests).unwrap_or_else(|e| panic!("{name}: {e}"));
        total.failed += tally.failed;
        total.regrows += tally.regrows;
    }
    assert!(
        boundaries >= 3,
        "only {boundaries} designs reached the boundary"
    );
    assert!(total.regrows >= 4 * CATALOGUE.len(), "{total:?}");
    assert!(total.failed > 0, "{total:?}");
}

/// A mixed batch over one engine at thread caps 1, 2 and the pool size:
/// every answer equals the reference on a table of the batch's width.
#[test]
fn parallel_batches_match_the_reference_at_every_thread_cap() {
    let soc = resolve_named_soc("p22810").expect("named");
    let serial = serial_cycles(&soc);
    let base = |channels: usize, shift: u32| {
        OptimizeRequest::new(OptimizerConfig::new(TestCell::new(
            AteSpec::new(channels, (serial >> shift).max(1), 5.0e6),
            ProbeStation::paper_probe_station(),
        )))
    };
    let batch = [
        base(512, 4),
        base(384, 4),
        base(512, 4).with_sweep(SweepAxis::Channels(vec![256, 384, 512, 8])),
        base(512, 4).with_sweep(SweepAxis::DepthVectors(vec![
            serial >> 3,
            serial >> 4,
            serial >> 5,
        ])),
        base(448, 5).with_sweep(SweepAxis::ContactYield {
            depths: vec![serial >> 4, serial >> 5],
            contact_yields: vec![0.99, 1.0],
        }),
        base(320, 4).with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 6,
            manufacturing_yields: vec![0.7, 1.0],
        }),
        base(8, 4),
        base(512, 40),
    ];
    let width = batch
        .iter()
        .map(OptimizeRequest::needed_width)
        .max()
        .unwrap();
    let table = LazyTimeTable::new(&soc, width);
    let expected: Vec<_> = batch
        .iter()
        .map(|request| reference(soc.name(), &table, request))
        .collect();
    assert!(expected.iter().any(Result::is_err) && expected.iter().any(Result::is_ok));
    for cap in [1usize, 2, rayon::current_num_threads().max(2)] {
        let engine = Engine::builder(&soc).threads(cap).build();
        // Twice: cold plans, then warm ones.
        for round in 0..2 {
            let answers = engine.run_batch(&batch);
            for (index, (answer, want)) in answers.iter().zip(&expected).enumerate() {
                assert_eq!(answer, want, "cap {cap}, round {round}, request {index}");
            }
        }
    }
}
