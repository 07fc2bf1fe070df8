//! Writer oracle: `serde_json::to_string` writes each derived type
//! straight into the text, and the `serde::Value` tree writer is the
//! reference. Over random requests, responses and server frames, with
//! integral, negative, tiny and huge floats, strings full of escapes,
//! control characters and non-ASCII, and every `skip_serializing_if`
//! field both present and absent, both writers must give the same bytes,
//! compact and pretty, and fail the same way on a non-finite float.

use proptest::prelude::*;
use proptest::strategy::from_fn;
use proptest::test_runner::TestRng;
use serde::Serialize;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::service::{
    CacheStats, ConnectionStats, ErrorFrame, ErrorKind, Provenance, RequestStats, ResultFrame,
    ServerFrame, ServerStats, TraceSummary,
};
use soctest_multisite::{
    AxisValue, MultiSiteOptions, MultiSiteSolution, OptimizeError, OptimizeRequest,
    OptimizeResponse, OptimizerConfig, SitePoint, SweepAxis, SweepCurve, SweepPoint,
};
use soctest_soc_model::validate::{Severity, ValidationIssue};
use soctest_soc_model::ModuleId;
use soctest_tam::{ChannelGroup, TamError, TestArchitecture};

/// An integer of any magnitude, zero and `u64::MAX` included.
fn int(rng: &mut TestRng) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64() >> rng.below(64),
    }
}

fn size(rng: &mut TestRng) -> usize {
    usize::try_from(int(rng)).expect("64-bit usize")
}

fn flag(rng: &mut TestRng) -> bool {
    rng.below(2) == 0
}

/// Integral, negative, tiny, huge and everyday floats.
fn float(rng: &mut TestRng) -> f64 {
    match rng.below(8) {
        0 => rng.below(1 << 20) as f64,
        1 => -(rng.below(1 << 20) as f64),
        2 => -rng.next_f64() * 1e6,
        3 => rng.next_f64() * 1e-300,
        4 => f64::MIN_POSITIVE * rng.next_f64(),
        5 => (1.0 + rng.next_f64()) * 1e300,
        6 => [0.0, -0.0, 1.0, f64::MAX, f64::MIN, f64::EPSILON][rng.below(6)],
        _ => rng.next_f64(),
    }
}

/// Text made of plain runs, every JSON escape, other control
/// characters, DEL and multi-byte characters.
fn text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 16] = [
        "abc", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}",
        "/", "é", "中", "😀",
    ];
    (0..rng.below(10))
        .map(|_| PIECES[rng.below(PIECES.len())])
        .collect()
}

fn list<T>(rng: &mut TestRng, max: usize, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(max + 1)).map(|_| item(rng)).collect()
}

fn maybe<T>(rng: &mut TestRng, item: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    flag(rng).then(|| item(rng))
}

fn request(rng: &mut TestRng) -> OptimizeRequest {
    let cell = TestCell::new(
        AteSpec {
            channels: size(rng),
            vector_memory_depth: int(rng),
            test_clock_hz: float(rng),
        },
        ProbeStation {
            index_time_s: float(rng),
            contact_test_time_s: float(rng),
        },
    );
    let mut config = OptimizerConfig::new(cell);
    let mut options = MultiSiteOptions::default();
    options.stimulus_broadcast = flag(rng);
    options.abort_on_fail = flag(rng);
    options.retest_contact_failures = flag(rng);
    config.options = options;
    config.contact_yield = float(rng);
    config.manufacturing_yield = float(rng);
    config.erpct.functional_pins = size(rng);
    config.erpct.control_pins = size(rng);
    config.erpct.clock_pins = size(rng);
    config.erpct.power_pins = size(rng);
    let sweep = match rng.below(6) {
        0 => SweepAxis::None,
        1 => SweepAxis::Channels(list(rng, 4, size)),
        2 => SweepAxis::DepthVectors(list(rng, 4, int)),
        3 => SweepAxis::ContactYield {
            depths: list(rng, 3, int),
            contact_yields: list(rng, 3, float),
        },
        4 => SweepAxis::ManufacturingYield {
            max_sites: size(rng),
            manufacturing_yields: list(rng, 3, float),
        },
        _ => SweepAxis::Channels(Vec::new()),
    };
    OptimizeRequest::new(config).with_sweep(sweep)
}

fn point(rng: &mut TestRng) -> SitePoint {
    SitePoint {
        sites: size(rng),
        channels_per_site: size(rng),
        tam_width: size(rng),
        test_time_cycles: int(rng),
        manufacturing_test_time_s: float(rng),
        expected_test_time_s: float(rng),
        devices_per_hour: float(rng),
        unique_devices_per_hour: float(rng),
    }
}

fn architecture(rng: &mut TestRng) -> TestArchitecture {
    TestArchitecture::new(list(rng, 3, |rng| ChannelGroup {
        width: size(rng),
        modules: list(rng, 4, |rng| ModuleId(size(rng))),
        fill_cycles: int(rng),
    }))
}

fn response(rng: &mut TestRng) -> OptimizeResponse {
    if flag(rng) {
        return OptimizeResponse::Solution(Box::new(MultiSiteSolution {
            soc_name: text(rng),
            step1_architecture: architecture(rng),
            max_sites: size(rng),
            curve: list(rng, 4, point),
            optimal: point(rng),
            optimal_architecture: architecture(rng),
            contacted_pads_per_site: size(rng),
        }));
    }
    OptimizeResponse::Curves(list(rng, 3, |rng| SweepCurve {
        label: text(rng),
        points: list(rng, 3, |rng| SweepPoint {
            parameter: match rng.below(3) {
                0 => AxisValue::Channels(size(rng)),
                1 => AxisValue::DepthVectors(int(rng)),
                _ => AxisValue::Sites(size(rng)),
            },
            max_sites: size(rng),
            optimal: point(rng),
        }),
    }))
}

fn error(rng: &mut TestRng) -> OptimizeError {
    match rng.below(7) {
        0 => OptimizeError::Architecture(match rng.below(3) {
            0 => TamError::ModuleInfeasible {
                module: text(rng),
                depth: int(rng),
                max_width: size(rng),
            },
            1 => TamError::InsufficientChannels {
                available_channels: size(rng),
            },
            _ => TamError::EmptySoc,
        }),
        1 => OptimizeError::InvalidConfig { message: text(rng) },
        2 => OptimizeError::InvalidSoc {
            issues: list(rng, 3, |rng| ValidationIssue {
                module: maybe(rng, text),
                severity: if flag(rng) {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                message: text(rng),
            }),
        },
        3 => OptimizeError::internal(text(rng)),
        4 => OptimizeError::Cancelled,
        5 => OptimizeError::DeadlineExceeded,
        _ => OptimizeError::Overloaded,
    }
}

fn frame(rng: &mut TestRng) -> ServerFrame {
    match rng.below(3) {
        0 => ServerFrame::Result(ResultFrame {
            request_id: text(rng),
            warm: flag(rng),
            cached: flag(rng),
            response: response(rng),
            stats: maybe(rng, |rng| RequestStats {
                provenance: [Provenance::Hit, Provenance::Coalesced, Provenance::Computed]
                    [rng.below(3)],
                cells_built: int(rng),
                cells_inherited: int(rng),
                store_cells_computed: int(rng),
                points_reused: if flag(rng) { 0 } else { int(rng) },
            }),
        }),
        1 => {
            let kinds = [
                ErrorKind::Protocol,
                ErrorKind::UnknownRequest,
                ErrorKind::InvalidSoc,
                ErrorKind::InvalidConfig,
                ErrorKind::Architecture,
                ErrorKind::Internal,
                ErrorKind::Cancelled,
                ErrorKind::DeadlineExceeded,
                ErrorKind::Overloaded,
            ];
            let mut frame = if flag(rng) {
                ErrorFrame::from_error(text(rng), &error(rng))
            } else {
                ErrorFrame::protocol(text(rng))
            };
            frame.kind = kinds[rng.below(kinds.len())];
            ServerFrame::Error(frame)
        }
        _ => ServerFrame::Bye(ServerStats {
            served: int(rng),
            errors: int(rng),
            internal_errors: if flag(rng) { 0 } else { int(rng) },
            sessions_created: int(rng),
            session_hits: int(rng),
            session_misses: int(rng),
            evictions: int(rng),
            cache: CacheStats {
                result_hits: int(rng),
                result_misses: int(rng),
                coalesced_waits: int(rng),
                coalesced_served: int(rng),
                result_bytes: int(rng),
                cells_computed: int(rng),
                store_cells_loaded: int(rng),
                store_rows_saved: int(rng),
            },
            trace: maybe(rng, |rng| TraceSummary {
                requests: int(rng),
                cells_built: int(rng),
                cells_inherited: int(rng),
                store_cells_computed: int(rng),
            }),
            connection: maybe(rng, |rng| ConnectionStats {
                id: int(rng),
                requests: int(rng),
            }),
        }),
    }
}

/// Both writers agree on `value`, compact and pretty.
fn same_bytes<T: Serialize + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    let tree = value.to_value();
    prop_assert_eq!(
        serde_json::to_string(value).unwrap(),
        serde_json::to_string(&tree).unwrap()
    );
    prop_assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn derived_writer_matches_the_tree_writer(
        request in from_fn(request),
        response in from_fn(response),
        frame in from_fn(frame),
        error in from_fn(error),
    ) {
        same_bytes(&request)?;
        same_bytes(&response)?;
        same_bytes(&frame)?;
        same_bytes(&error)?;
    }

    #[test]
    fn numbers_and_strings_are_written_as_before(
        unsigned in from_fn(int),
        signed in from_fn(|rng| int(rng) as i64),
        value in from_fn(float),
        line in from_fn(text),
    ) {
        prop_assert_eq!(serde_json::to_string(&unsigned).unwrap(), unsigned.to_string());
        prop_assert_eq!(serde_json::to_string(&signed).unwrap(), signed.to_string());
        // Rust's shortest round-trip form, with `.0` after an integral
        // value so it reads back as a float.
        let shortest = value.to_string();
        let expected = if shortest.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
            format!("{shortest}.0")
        } else {
            shortest
        };
        prop_assert_eq!(serde_json::to_string(&value).unwrap(), expected);
        prop_assert_eq!(serde_json::from_str::<f64>(&serde_json::to_string(&value).unwrap()).unwrap(), value);
        prop_assert_eq!(serde_json::from_str::<String>(&serde_json::to_string(&line).unwrap()).unwrap(), line);
    }

    #[test]
    fn a_non_finite_float_fails_both_writers_alike(
        request in from_fn(request),
        which in 0usize..3,
    ) {
        let mut request = request;
        request.config.contact_yield = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let tree = request.to_value();
        for (direct, reference) in [
            (serde_json::to_string(&request), serde_json::to_string(&tree)),
            (serde_json::to_string_pretty(&request), serde_json::to_string_pretty(&tree)),
        ] {
            let direct = direct.unwrap_err().to_string();
            prop_assert_eq!(&direct, &reference.unwrap_err().to_string());
            prop_assert_eq!(direct, "json error: cannot serialise non-finite float");
        }
    }
}

#[test]
fn fixed_cases_pin_the_number_and_escape_rules() {
    for (value, json) in [
        (1.0, "1.0"),
        (-2.0, "-2.0"),
        (0.5, "0.5"),
        (-0.0, "-0.0"),
        (1e21, "1000000000000000000000.0"),
        (1e-7, "0.0000001"),
    ] {
        assert_eq!(serde_json::to_string(&value).unwrap(), json);
    }
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&"q\"b\\n\nr\rt\t\u{1}\u{7f}é").unwrap(),
        "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\u{7f}é\""
    );
    assert_eq!(
        serde_json::to_string_pretty(&SweepAxis::Channels(vec![1, 2])).unwrap(),
        "{\n  \"Channels\": [\n    1,\n    2\n  ]\n}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&SweepAxis::Channels(vec![])).unwrap(),
        "{\n  \"Channels\": []\n}"
    );
}
