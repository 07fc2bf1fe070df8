//! Byte pins of the wire format: one value per variant of every type
//! that travels in `soc-serve` frames, `soc-batch` files and the
//! persisted `solutions.v1` cache, each next to its exact compact JSON.
//! Every optional field appears both present and omitted. A change to
//! how any of these types is (de)serialised must keep every line here.

use serde::{Deserialize, Serialize};
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::service::{
    CacheStats, ClientFrame, ConnectionStats, ErrorFrame, ErrorKind, OptimizeFrame, Provenance,
    RequestStats, ResultFrame, ServerFrame, ServerStats, SocSpec, TraceSummary,
};
use soctest_multisite::{
    AxisValue, MultiSiteSolution, OptimizeError, OptimizeRequest, OptimizeResponse,
    OptimizerConfig, SitePoint, SweepAxis, SweepCurve, SweepPoint,
};
use soctest_soc_model::validate::{Severity, ValidationIssue};
use soctest_soc_model::ModuleId;
use soctest_tam::{ChannelGroup, TamError, TestArchitecture};
use std::fmt::Debug;

const REQUEST: &str = r#"{"config":{"test_cell":{"ate":{"channels":64,"vector_memory_depth":16384,"test_clock_hz":5000000.0},"probe":{"index_time_s":0.1,"contact_test_time_s":0.001}},"options":{"stimulus_broadcast":false,"abort_on_fail":false,"retest_contact_failures":false},"contact_yield":1.0,"manufacturing_yield":1.0,"erpct":{"functional_pins":500,"control_pins":5,"clock_pins":2,"power_pins":40}},"sweep":"None"}"#;

const POINT: &str = r#"{"sites":2,"channels_per_site":8,"tam_width":4,"test_time_cycles":1000,"manufacturing_test_time_s":0.5,"expected_test_time_s":0.25,"devices_per_hour":3600.0,"unique_devices_per_hour":1800.5}"#;

const ARCHITECTURE: &str = r#"{"groups":[{"width":4,"modules":[0,2],"fill_cycles":1000}]}"#;

const CACHE: &str = r#"{"result_hits":1,"result_misses":2,"coalesced_waits":3,"coalesced_served":4,"result_bytes":5,"cells_computed":6,"store_cells_loaded":7,"store_rows_saved":8}"#;

fn request() -> OptimizeRequest {
    let cell = TestCell::new(
        AteSpec::new(64, 16 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    OptimizeRequest::new(OptimizerConfig::new(cell))
}

fn point() -> SitePoint {
    SitePoint {
        sites: 2,
        channels_per_site: 8,
        tam_width: 4,
        test_time_cycles: 1000,
        manufacturing_test_time_s: 0.5,
        expected_test_time_s: 0.25,
        devices_per_hour: 3600.0,
        unique_devices_per_hour: 1800.5,
    }
}

fn architecture() -> TestArchitecture {
    TestArchitecture::new(vec![ChannelGroup {
        width: 4,
        modules: vec![ModuleId(0), ModuleId(2)],
        fill_cycles: 1000,
    }])
}

fn solution() -> OptimizeResponse {
    OptimizeResponse::Solution(Box::new(MultiSiteSolution {
        soc_name: "t".into(),
        step1_architecture: architecture(),
        max_sites: 2,
        curve: vec![point()],
        optimal: point(),
        optimal_architecture: architecture(),
        contacted_pads_per_site: 555,
    }))
}

fn cache() -> CacheStats {
    CacheStats {
        result_hits: 1,
        result_misses: 2,
        coalesced_waits: 3,
        coalesced_served: 4,
        result_bytes: 5,
        cells_computed: 6,
        store_cells_loaded: 7,
        store_rows_saved: 8,
    }
}

fn optimize_frame(deadline_ms: Option<u64>, stats: bool) -> OptimizeFrame {
    OptimizeFrame {
        request_id: "r1".into(),
        soc: SocSpec::Named("d695".into()),
        request: request(),
        deadline_ms,
        stats,
    }
}

fn request_stats(points_reused: u64) -> RequestStats {
    RequestStats {
        provenance: Provenance::Coalesced,
        cells_built: 9,
        cells_inherited: 2,
        store_cells_computed: 7,
        points_reused,
    }
}

fn result_frame(stats: Option<RequestStats>) -> ResultFrame {
    ResultFrame {
        request_id: "r1".into(),
        warm: true,
        cached: false,
        response: OptimizeResponse::Curves(vec![]),
        stats,
    }
}

fn bare_server_stats() -> ServerStats {
    ServerStats {
        served: 4,
        errors: 1,
        internal_errors: 0,
        sessions_created: 2,
        session_hits: 3,
        session_misses: 2,
        evictions: 1,
        cache: cache(),
        trace: None,
        connection: None,
    }
}

fn full_server_stats() -> ServerStats {
    ServerStats {
        internal_errors: 1,
        trace: Some(TraceSummary {
            requests: 1,
            cells_built: 640,
            cells_inherited: 0,
            store_cells_computed: 320,
        }),
        connection: Some(ConnectionStats { id: 3, requests: 5 }),
        ..bare_server_stats()
    }
}

/// `value` renders as exactly `json`, and `json` parses back to `value`.
fn pin<T: Serialize + Deserialize + PartialEq + Debug>(value: T, json: &str) {
    assert_eq!(serde_json::to_string(&value).unwrap(), json, "{value:?}");
    assert_eq!(serde_json::from_str::<T>(json).unwrap(), value, "{json}");
}

/// `json` (a form the writer never emits, with optional fields left out)
/// parses to `value`.
fn parses<T: Deserialize + PartialEq + Debug>(json: &str, value: T) {
    assert_eq!(serde_json::from_str::<T>(json).unwrap(), value, "{json}");
}

#[test]
fn every_wire_variant_keeps_its_exact_bytes() {
    // TamError
    pin(
        TamError::ModuleInfeasible {
            module: "cpu".into(),
            depth: 1024,
            max_width: 8,
        },
        r#"{"ModuleInfeasible":{"module":"cpu","depth":1024,"max_width":8}}"#,
    );
    pin(
        TamError::InsufficientChannels {
            available_channels: 64,
        },
        r#"{"InsufficientChannels":{"available_channels":64}}"#,
    );
    pin(TamError::EmptySoc, r#""EmptySoc""#);

    // AxisValue
    pin(AxisValue::Channels(512), r#"{"Channels":512}"#);
    pin(AxisValue::DepthVectors(1024), r#"{"DepthVectors":1024}"#);
    pin(AxisValue::Sites(4), r#"{"Sites":4}"#);

    // SweepAxis
    pin(SweepAxis::None, r#""None""#);
    pin(
        SweepAxis::Channels(vec![192, 256]),
        r#"{"Channels":[192,256]}"#,
    );
    pin(
        SweepAxis::DepthVectors(vec![1024]),
        r#"{"DepthVectors":[1024]}"#,
    );
    pin(
        SweepAxis::ContactYield {
            depths: vec![1024, 2048],
            contact_yields: vec![0.999],
        },
        r#"{"ContactYield":{"depths":[1024,2048],"contact_yields":[0.999]}}"#,
    );
    pin(
        SweepAxis::ManufacturingYield {
            max_sites: 4,
            manufacturing_yields: vec![0.9, 1.0],
        },
        r#"{"ManufacturingYield":{"max_sites":4,"manufacturing_yields":[0.9,1.0]}}"#,
    );

    // OptimizeResponse
    pin(
        solution(),
        &format!(
            r#"{{"Solution":{{"soc_name":"t","step1_architecture":{ARCHITECTURE},"max_sites":2,"curve":[{POINT}],"optimal":{POINT},"optimal_architecture":{ARCHITECTURE},"contacted_pads_per_site":555}}}}"#
        ),
    );
    pin(
        OptimizeResponse::Curves(vec![SweepCurve {
            label: "pc = 0.999".into(),
            points: vec![SweepPoint {
                parameter: AxisValue::Channels(64),
                max_sites: 2,
                optimal: point(),
            }],
        }]),
        &format!(
            r#"{{"Curves":[{{"label":"pc = 0.999","points":[{{"parameter":{{"Channels":64}},"max_sites":2,"optimal":{POINT}}}]}}]}}"#
        ),
    );

    // OptimizeError
    pin(
        OptimizeError::Architecture(TamError::EmptySoc),
        r#"{"Architecture":"EmptySoc"}"#,
    );
    pin(
        OptimizeError::InvalidConfig {
            message: "bad".into(),
        },
        r#"{"InvalidConfig":{"message":"bad"}}"#,
    );
    pin(
        OptimizeError::InvalidSoc {
            issues: vec![
                ValidationIssue {
                    module: Some("m".into()),
                    severity: Severity::Error,
                    message: "zero test patterns".into(),
                },
                ValidationIssue {
                    module: None,
                    severity: Severity::Warning,
                    message: "w".into(),
                },
            ],
        },
        r#"{"InvalidSoc":{"issues":[{"module":"m","severity":"Error","message":"zero test patterns"},{"module":null,"severity":"Warning","message":"w"}]}}"#,
    );
    pin(
        OptimizeError::internal("boom"),
        r#"{"Internal":{"message":"boom"}}"#,
    );
    pin(OptimizeError::Cancelled, r#""Cancelled""#);
    pin(OptimizeError::DeadlineExceeded, r#""DeadlineExceeded""#);
    pin(OptimizeError::Overloaded, r#""Overloaded""#);

    // SocSpec
    pin(SocSpec::Inline("soc t\n".into()), r#"{"Inline":"soc t\n"}"#);
    pin(SocSpec::Named("d695".into()), r#"{"Named":"d695"}"#);

    // OptimizeFrame: `deadline_ms` is always written (null when unset)
    // and may be left out on input; `stats` is written only when set.
    pin(
        optimize_frame(Some(250), true),
        &format!(
            r#"{{"request_id":"r1","soc":{{"Named":"d695"}},"request":{REQUEST},"deadline_ms":250,"stats":true}}"#
        ),
    );
    pin(
        optimize_frame(None, false),
        &format!(
            r#"{{"request_id":"r1","soc":{{"Named":"d695"}},"request":{REQUEST},"deadline_ms":null}}"#
        ),
    );
    parses(
        &format!(r#"{{"request_id":"r1","soc":{{"Named":"d695"}},"request":{REQUEST}}}"#),
        optimize_frame(None, false),
    );
    parses(
        &format!(
            r#"{{"request_id":"r1","soc":{{"Named":"d695"}},"request":{REQUEST},"stats":false}}"#
        ),
        optimize_frame(None, false),
    );

    // ClientFrame
    pin(
        ClientFrame::Optimize(optimize_frame(None, true)),
        &format!(
            r#"{{"Optimize":{{"request_id":"r1","soc":{{"Named":"d695"}},"request":{REQUEST},"deadline_ms":null,"stats":true}}}}"#
        ),
    );
    pin(
        ClientFrame::Cancel {
            request_id: "r1".into(),
        },
        r#"{"Cancel":{"request_id":"r1"}}"#,
    );
    pin(ClientFrame::Shutdown, r#""Shutdown""#);

    // RequestStats: `points_reused` is written only when non-zero.
    pin(
        request_stats(3),
        r#"{"provenance":"Coalesced","cells_built":9,"cells_inherited":2,"store_cells_computed":7,"points_reused":3}"#,
    );
    pin(
        request_stats(0),
        r#"{"provenance":"Coalesced","cells_built":9,"cells_inherited":2,"store_cells_computed":7}"#,
    );

    // ResultFrame: `stats` is written only when present.
    pin(
        result_frame(Some(request_stats(0))),
        r#"{"request_id":"r1","warm":true,"cached":false,"response":{"Curves":[]},"stats":{"provenance":"Coalesced","cells_built":9,"cells_inherited":2,"store_cells_computed":7}}"#,
    );
    pin(
        result_frame(None),
        r#"{"request_id":"r1","warm":true,"cached":false,"response":{"Curves":[]}}"#,
    );
    parses(
        r#"{"request_id":"r1","warm":true,"cached":false,"response":{"Curves":[]},"stats":null}"#,
        result_frame(None),
    );

    // ErrorFrame: `request_id` is null for line-level errors.
    pin(
        ErrorFrame::from_error("r9", &OptimizeError::Overloaded),
        r#"{"request_id":"r9","kind":"Overloaded","message":"service overloaded: admission queue full, request shed"}"#,
    );
    pin(
        ErrorFrame::protocol("bad line"),
        r#"{"request_id":null,"kind":"Protocol","message":"bad line"}"#,
    );

    // ServerStats: `internal_errors`, `trace` and `connection` are
    // written only when non-zero / present.
    pin(
        bare_server_stats(),
        &format!(
            r#"{{"served":4,"errors":1,"sessions_created":2,"session_hits":3,"session_misses":2,"evictions":1,"cache":{CACHE}}}"#
        ),
    );
    pin(
        full_server_stats(),
        &format!(
            r#"{{"served":4,"errors":1,"internal_errors":1,"sessions_created":2,"session_hits":3,"session_misses":2,"evictions":1,"cache":{CACHE},"trace":{{"requests":1,"cells_built":640,"cells_inherited":0,"store_cells_computed":320}},"connection":{{"id":3,"requests":5}}}}"#
        ),
    );
    parses(
        &format!(
            r#"{{"served":4,"errors":1,"internal_errors":0,"sessions_created":2,"session_hits":3,"session_misses":2,"evictions":1,"cache":{CACHE},"trace":null,"connection":null}}"#
        ),
        bare_server_stats(),
    );

    // ServerFrame
    pin(
        ServerFrame::Result(result_frame(None)),
        r#"{"Result":{"request_id":"r1","warm":true,"cached":false,"response":{"Curves":[]}}}"#,
    );
    pin(
        ServerFrame::Error(ErrorFrame {
            request_id: Some("r3".into()),
            kind: ErrorKind::DeadlineExceeded,
            message: "late".into(),
        }),
        r#"{"Error":{"request_id":"r3","kind":"DeadlineExceeded","message":"late"}}"#,
    );
    pin(
        ServerFrame::Bye(full_server_stats()),
        &format!(
            r#"{{"Bye":{{"served":4,"errors":1,"internal_errors":1,"sessions_created":2,"session_hits":3,"session_misses":2,"evictions":1,"cache":{CACHE},"trace":{{"requests":1,"cells_built":640,"cells_inherited":0,"store_cells_computed":320}},"connection":{{"id":3,"requests":5}}}}}}"#
        ),
    );
}
