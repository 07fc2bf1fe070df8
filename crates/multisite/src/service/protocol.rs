//! The NDJSON wire protocol of the `soc-serve` streaming service.
//!
//! One JSON value per line, in each direction:
//!
//! * client → server: [`ClientFrame`] — `{"Optimize": {...}}`,
//!   `{"Cancel": {"request_id": "r1"}}`, `"Shutdown"`;
//! * server → client: [`ServerFrame`] — `{"Result": {...}}`,
//!   `{"Error": {...}}`, and a final `{"Bye": {...}}` with session
//!   statistics when the stream drains.
//!
//! The enums are modeled like the `soc-batch` wire types: invalid states
//! are unrepresentable in the Rust types, and the derived serde impls use
//! real serde's externally-tagged enum format, so the frames survive a
//! swap to the crates.io serde. Every object a frame carries is checked
//! for duplicate fields. The frame-level objects are also **strict**
//! (`#[serde(deny_unknown_fields)]`): an unknown field on a frame is a
//! protocol error (a typo'd `"deadline_ms"` must not silently become "no
//! deadline"), while the engine request inside stays lenient. Truncated
//! frames fail JSON parsing one layer below.

use crate::engine::{OptimizeRequest, OptimizeResponse};
use crate::error::OptimizeError;
use serde::{Deserialize, Serialize};

/// The SOC a request targets: inline `.soc` text (parsed and validated
/// per session) or the name of an embedded benchmark
/// (see [`crate::service::resolve_named_soc`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SocSpec {
    /// Inline `.soc` document text.
    Inline(String),
    /// Name of an embedded benchmark (`d695`, `p22810`, `p34392`,
    /// `p93791`, `pnx8550_like`).
    Named(String),
}

/// One optimizer request on the wire: an id chosen by the client (echoed
/// on every frame about this request), the target SOC, the typed engine
/// request, an optional deadline, and an opt-in statistics flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OptimizeFrame {
    /// Client-chosen correlation id; must be unique among in-flight
    /// requests.
    pub request_id: String,
    /// The SOC this request targets.
    pub soc: SocSpec,
    /// The engine request to serve.
    pub request: OptimizeRequest,
    /// Optional deadline in milliseconds, measured from admission; an
    /// expired request answers [`ErrorKind::DeadlineExceeded`]. Absent or
    /// `null` means no deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Opt-in per-request statistics: when `true`, the answering
    /// [`ResultFrame`] carries a [`RequestStats`] block. Absent means
    /// `false`, and a `false` flag is omitted on the wire, so frames
    /// that never ask for statistics serialise exactly as before.
    #[serde(default, skip_serializing_if = "is_false")]
    pub stats: bool,
}

/// One line of client input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ClientFrame {
    /// Admit one optimizer request.
    Optimize(OptimizeFrame),
    /// Cooperatively cancel an in-flight (queued or running) request.
    Cancel {
        /// The id of the request to cancel.
        request_id: String,
    },
    /// Stop reading input, drain the queue, answer `Bye`, exit.
    Shutdown,
}

/// The failure class of an [`ErrorFrame`] — a stable, machine-matchable
/// discriminant next to the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The input line was not a well-formed frame (bad JSON, unknown
    /// variant, unknown/duplicate/missing field, duplicate request id).
    Protocol,
    /// A `Cancel` named a request id that is not in flight.
    UnknownRequest,
    /// The SOC failed to parse, failed validation, or an unknown SOC name
    /// was given.
    InvalidSoc,
    /// The request's optimizer configuration is invalid.
    InvalidConfig,
    /// The architecture design failed (module infeasible, channel
    /// shortage, empty SOC).
    Architecture,
    /// The request panicked or broke an optimizer invariant; the server
    /// keeps serving.
    Internal,
    /// The request was cancelled by a `Cancel` frame.
    Cancelled,
    /// The request's deadline expired before it completed.
    DeadlineExceeded,
    /// The admission queue was full; the request was shed unserved.
    Overloaded,
}

impl From<&OptimizeError> for ErrorKind {
    fn from(error: &OptimizeError) -> Self {
        match error {
            OptimizeError::Architecture(_) => ErrorKind::Architecture,
            OptimizeError::InvalidConfig { .. } => ErrorKind::InvalidConfig,
            OptimizeError::InvalidSoc { .. } => ErrorKind::InvalidSoc,
            OptimizeError::Internal { .. } => ErrorKind::Internal,
            OptimizeError::Cancelled => ErrorKind::Cancelled,
            OptimizeError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            OptimizeError::Overloaded => ErrorKind::Overloaded,
        }
    }
}

/// How a request's response was obtained — the per-request cache
/// provenance reported in the opt-in [`RequestStats`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Served from a resident solution-cache entry without waiting.
    Hit,
    /// Blocked on an identical in-flight computation, then served its
    /// leader's result.
    Coalesced,
    /// This request led the computation (a genuine cache miss).
    Computed,
}

/// The opt-in per-request `stats` block on a [`ResultFrame`], present
/// only when the request's [`OptimizeFrame::stats`] flag was set.
///
/// Every field is race-deterministic for a given input stream at any
/// thread count, so stats-enabled transcripts remain golden-checkable:
/// cell deltas use first-swap-wins counting and the store counter is
/// first-insert-deterministic. Run-specific measurements (wall/CPU time,
/// pool occupancy) deliberately stay off the wire — `soc-serve
/// --stats-summary` reports them on stderr instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RequestStats {
    /// How the response was obtained.
    pub provenance: Provenance,
    /// `(module, width)` table cells this request materialised (computed,
    /// replayed from the row store, or inherited across a table regrow).
    /// Zero for cache hits.
    pub cells_built: u64,
    /// Cells this request inherited by forcing a table regrow.
    pub cells_inherited: u64,
    /// Module rows this request computed fresh into the shared row store
    /// (first insert of a `(shape, width)` pair).
    pub store_cells_computed: u64,
    /// Sweep points this request answered from the point-level cache
    /// index instead of optimizing (see the service cache docs). Zero
    /// for plain requests and for sweeps with nothing to reuse, and
    /// omitted on the wire when zero, so reuse-free transcripts
    /// serialise exactly as before.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub points_reused: u64,
}

/// Deterministic aggregate of every stats-enabled request of a session,
/// carried in the final `Bye` frame — but only when at least one request
/// opted in, so stats-off transcripts stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Requests that asked for statistics (served or failed).
    pub requests: u64,
    /// Total table cells those requests materialised.
    pub cells_built: u64,
    /// Total cells inherited across table regrows.
    pub cells_inherited: u64,
    /// Total module rows computed fresh into the row store.
    pub store_cells_computed: u64,
}

/// A successful answer to one [`OptimizeFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ResultFrame {
    /// The id of the request this answers.
    pub request_id: String,
    /// Whether the request hit an already-warm engine session (same SOC
    /// content served before and still resident in the registry).
    pub warm: bool,
    /// Whether the response came out of the solution cache (an exact
    /// hit or a coalesced wait on an identical in-flight request)
    /// rather than a fresh computation.
    pub cached: bool,
    /// The engine's response.
    pub response: OptimizeResponse,
    /// The opt-in statistics block; `None` (and omitted on the wire)
    /// unless the request set [`OptimizeFrame::stats`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<RequestStats>,
}

/// A typed failure: per-request when `request_id` is set, stream-level
/// (an unparseable line) when it is `null`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ErrorFrame {
    /// The id of the request this answers, or `null` for line-level
    /// protocol errors.
    pub request_id: Option<String>,
    /// The machine-matchable failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorFrame {
    /// The error frame for a typed optimizer failure of `request_id`.
    pub fn from_error(request_id: impl Into<String>, error: &OptimizeError) -> Self {
        ErrorFrame {
            request_id: Some(request_id.into()),
            kind: ErrorKind::from(error),
            message: error.to_string(),
        }
    }

    /// A stream-level protocol error (no request id to blame).
    pub fn protocol(message: impl Into<String>) -> Self {
        ErrorFrame {
            request_id: None,
            kind: ErrorKind::Protocol,
            message: message.into(),
        }
    }
}

/// Solution-cache and row-store statistics inside the final `Bye`
/// frame. Every counter here is deterministic for a given input stream
/// and thread count — duplicate-computation races are settled by
/// first-insert-wins guards before anything is counted — so golden
/// transcripts can compare `Bye` byte-for-byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served from an already-resident solution-cache entry
    /// without waiting (waiter-coalesced serves are counted separately
    /// in [`CacheStats::coalesced_served`], never folded in here).
    pub result_hits: u64,
    /// Requests that led a computation (successfully or not).
    pub result_misses: u64,
    /// Requests that blocked on an identical in-flight computation.
    pub coalesced_waits: u64,
    /// Requests that, after blocking, were served a leader's result
    /// instead of recomputing — the waiter-coalesced half of what
    /// `result_hits` used to conflate.
    pub coalesced_served: u64,
    /// Bytes resident in the solution cache at shutdown.
    pub result_bytes: u64,
    /// Module-row cells computed fresh this session (first insert of a
    /// `(shape, width)` pair). Zero on a warm restart means the row
    /// store rebuilt nothing.
    pub cells_computed: u64,
    /// Row-store cells loaded from the on-disk cache at startup.
    pub store_cells_loaded: u64,
    /// Row-store rows saved to the on-disk cache at shutdown.
    pub store_rows_saved: u64,
}

/// Identity and accounting of the transport connection a `Bye` frame
/// closes, present only in socket mode — stdin/stdout sessions omit the
/// block entirely, keeping their transcripts byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionStats {
    /// Accept-order ordinal of this connection (`1` for the first
    /// connection the listener accepted).
    pub id: u64,
    /// `Optimize` frames this connection submitted (admitted or shed).
    pub requests: u64,
}

/// End-of-session statistics, answered in the final `Bye` frame.
///
/// In socket mode every connection answers its own `Bye`: `served`,
/// `errors`, `internal_errors`, and the `connection` block are scoped to
/// that connection, while the session/cache counters describe the shared
/// server at the moment the connection drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerStats {
    /// `Result` frames written.
    pub served: u64,
    /// `Error` frames written (all kinds, including shed load).
    pub errors: u64,
    /// The subset of `errors` with [`ErrorKind::Internal`] — requests
    /// that died by panic (or broke an optimizer invariant) under the
    /// executor's isolation. Omitted on the wire when zero, so
    /// healthy-session transcripts are unchanged.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub internal_errors: u64,
    /// Engine sessions built over the lifetime of the stream.
    pub sessions_created: u64,
    /// Requests that found their session warm in the registry.
    pub session_hits: u64,
    /// Requests that had to (re)build their session.
    pub session_misses: u64,
    /// Sessions evicted by the registry's LRU / memory cap.
    pub evictions: u64,
    /// Solution-cache and row-store counters.
    pub cache: CacheStats,
    /// Aggregate of the stats-enabled requests; `None` (and omitted on
    /// the wire) when no request of the session opted in.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceSummary>,
    /// The transport connection this `Bye` closes; `None` (and omitted
    /// on the wire) in stdin/stdout mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub connection: Option<ConnectionStats>,
}

/// One line of server output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// A request succeeded.
    Result(ResultFrame),
    /// A request (or input line) failed.
    Error(ErrorFrame),
    /// The stream drained; statistics of the whole session. Always the
    /// last frame.
    Bye(ServerStats),
}

/// `skip_serializing_if` predicate: a `false` flag stays off the wire.
fn is_false(flag: &bool) -> bool {
    !flag
}

/// `skip_serializing_if` predicate: a zero counter stays off the wire.
fn is_zero(count: &u64) -> bool {
    *count == 0
}

/// Parses one line of client input.
///
/// # Errors
///
/// A human-readable message on malformed JSON, unknown variants, and
/// unknown/duplicate/missing fields — rendered back to the client in a
/// [`ErrorKind::Protocol`] frame.
pub fn parse_client_frame(line: &str) -> Result<ClientFrame, String> {
    serde_json::from_str(line).map_err(|err| format!("malformed frame: {err}"))
}

/// Renders one server frame as its single NDJSON line (no trailing
/// newline — the writer adds it).
///
/// # Panics
///
/// Panics if the frame contains a non-finite float (the optimizer never
/// produces one).
pub fn render_server_frame(frame: &ServerFrame) -> String {
    serde_json::to_string(frame).expect("server frames serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepAxis;
    use crate::problem::OptimizerConfig;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_tam::TamError;

    fn sample_request() -> OptimizeRequest {
        let cell = TestCell::new(
            AteSpec::new(64, 16 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        OptimizeRequest::new(OptimizerConfig::new(cell))
    }

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Optimize(OptimizeFrame {
                request_id: "r1".into(),
                soc: SocSpec::Named("d695".into()),
                request: sample_request(),
                deadline_ms: Some(250),
                stats: false,
            }),
            ClientFrame::Optimize(OptimizeFrame {
                request_id: "r2".into(),
                soc: SocSpec::Inline("soc t\n".into()),
                request: sample_request().with_sweep(SweepAxis::Channels(vec![32, 64])),
                deadline_ms: None,
                stats: true,
            }),
            ClientFrame::Cancel {
                request_id: "r1".into(),
            },
            ClientFrame::Shutdown,
        ];
        for frame in &frames {
            let json = serde_json::to_string(frame).unwrap();
            let back = parse_client_frame(&json).unwrap();
            assert_eq!(&back, frame, "round trip failed for {json}");
        }
        assert_eq!(
            serde_json::to_string(&ClientFrame::Shutdown).unwrap(),
            "\"Shutdown\""
        );
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Error(ErrorFrame::protocol("bad line")),
            ServerFrame::Error(ErrorFrame::from_error(
                "r9",
                &OptimizeError::Architecture(TamError::EmptySoc),
            )),
            ServerFrame::Error(ErrorFrame {
                request_id: Some("r3".into()),
                kind: ErrorKind::Overloaded,
                message: "queue full".into(),
            }),
            ServerFrame::Bye(ServerStats {
                served: 4,
                errors: 1,
                internal_errors: 0,
                sessions_created: 2,
                session_hits: 3,
                session_misses: 2,
                evictions: 1,
                cache: CacheStats {
                    result_hits: 2,
                    result_misses: 2,
                    coalesced_waits: 1,
                    coalesced_served: 1,
                    result_bytes: 4096,
                    cells_computed: 77,
                    store_cells_loaded: 11,
                    store_rows_saved: 5,
                },
                trace: None,
                connection: None,
            }),
            ServerFrame::Bye(ServerStats {
                served: 1,
                trace: Some(TraceSummary {
                    requests: 1,
                    cells_built: 640,
                    cells_inherited: 0,
                    store_cells_computed: 320,
                }),
                ..ServerStats::default()
            }),
            ServerFrame::Bye(ServerStats {
                served: 2,
                errors: 1,
                internal_errors: 1,
                connection: Some(ConnectionStats { id: 3, requests: 3 }),
                ..ServerStats::default()
            }),
        ];
        for frame in &frames {
            let json = render_server_frame(frame);
            let back: ServerFrame = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, frame, "round trip failed for {json}");
        }
    }

    #[test]
    fn stats_flag_and_blocks_are_omitted_when_off() {
        // A stats-off Optimize frame must serialise without a `stats`
        // key at all — stats-unaware clients and goldens see identical
        // bytes.
        let off = ClientFrame::Optimize(OptimizeFrame {
            request_id: "r1".into(),
            soc: SocSpec::Named("d695".into()),
            request: sample_request(),
            deadline_ms: None,
            stats: false,
        });
        let rendered = serde_json::to_string(&off).unwrap();
        assert!(!rendered.contains("\"stats\""), "{rendered}");
        // ...and an explicit `"stats":true` round-trips.
        let on = rendered.replace(
            "\"deadline_ms\":null}",
            "\"deadline_ms\":null,\"stats\":true}",
        );
        match parse_client_frame(&on).unwrap() {
            ClientFrame::Optimize(frame) => assert!(frame.stats),
            other => panic!("unexpected frame {other:?}"),
        }
        // Result frames omit an absent block and round-trip a present
        // one; Bye omits an absent trace summary.
        let result = ServerFrame::Result(ResultFrame {
            request_id: "r1".into(),
            warm: false,
            cached: true,
            response: OptimizeResponse::Curves(vec![]),
            stats: None,
        });
        assert!(!render_server_frame(&result).contains("\"stats\""));
        let with_stats = ServerFrame::Result(ResultFrame {
            request_id: "r1".into(),
            warm: true,
            cached: false,
            response: OptimizeResponse::Curves(vec![]),
            stats: Some(RequestStats {
                provenance: Provenance::Computed,
                cells_built: 9,
                cells_inherited: 2,
                store_cells_computed: 7,
                points_reused: 0,
            }),
        });
        let json = render_server_frame(&with_stats);
        assert!(json.contains("\"provenance\":\"Computed\""), "{json}");
        let back: ServerFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with_stats);
        let bye = render_server_frame(&ServerFrame::Bye(ServerStats::default()));
        assert!(!bye.contains("\"trace\""), "{bye}");
        // The connection-scoped fields are likewise omitted by default —
        // a healthy stdin-mode Bye serialises exactly as before.
        assert!(!bye.contains("\"internal_errors\""), "{bye}");
        assert!(!bye.contains("\"connection\""), "{bye}");
        let socket_bye = render_server_frame(&ServerFrame::Bye(ServerStats {
            internal_errors: 2,
            connection: Some(ConnectionStats { id: 1, requests: 5 }),
            ..ServerStats::default()
        }));
        assert!(socket_bye.contains("\"internal_errors\":2"), "{socket_bye}");
        assert!(
            socket_bye.contains("\"connection\":{\"id\":1,\"requests\":5}"),
            "{socket_bye}"
        );
    }

    #[test]
    fn deadline_may_be_omitted_but_other_fields_may_not() {
        let json = r#"{"Optimize":{"request_id":"r1","soc":{"Named":"d695"},"request":REQ}}"#
            .replace("REQ", &serde_json::to_string(&sample_request()).unwrap());
        let frame = parse_client_frame(&json).unwrap();
        match frame {
            ClientFrame::Optimize(inner) => assert_eq!(inner.deadline_ms, None),
            other => panic!("unexpected frame {other:?}"),
        }
        let missing_id = r#"{"Optimize":{"soc":{"Named":"d695"},"request":REQ}}"#
            .replace("REQ", &serde_json::to_string(&sample_request()).unwrap());
        assert!(parse_client_frame(&missing_id)
            .unwrap_err()
            .contains("request_id"));
    }

    #[test]
    fn unknown_fields_are_rejected_at_frame_level() {
        let json =
            r#"{"Optimize":{"request_id":"r1","soc":{"Named":"d695"},"request":REQ,"deadine_ms":5}}"#
                .replace("REQ", &serde_json::to_string(&sample_request()).unwrap());
        let err = parse_client_frame(&json).unwrap_err();
        assert!(err.contains("deadine_ms"), "got: {err}");
        assert!(
            parse_client_frame(r#"{"Cancel":{"request_id":"r1","force":true}}"#)
                .unwrap_err()
                .contains("force")
        );
    }

    #[test]
    fn truncated_and_malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"Optimize\":",
            "\"Shutdow\"",
            "{\"Nope\":{}}",
            "[1,2,3]",
            "{\"Cancel\":{}}",
        ] {
            assert!(parse_client_frame(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn error_kind_maps_every_optimizer_error() {
        let cases = [
            (
                OptimizeError::Architecture(TamError::EmptySoc),
                ErrorKind::Architecture,
            ),
            (
                OptimizeError::InvalidConfig {
                    message: "x".into(),
                },
                ErrorKind::InvalidConfig,
            ),
            (
                OptimizeError::InvalidSoc { issues: vec![] },
                ErrorKind::InvalidSoc,
            ),
            (OptimizeError::internal("x"), ErrorKind::Internal),
            (OptimizeError::Cancelled, ErrorKind::Cancelled),
            (OptimizeError::DeadlineExceeded, ErrorKind::DeadlineExceeded),
            (OptimizeError::Overloaded, ErrorKind::Overloaded),
        ];
        for (error, kind) in cases {
            assert_eq!(ErrorKind::from(&error), kind);
            let frame = ErrorFrame::from_error("r1", &error);
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.message, error.to_string());
        }
    }
}
