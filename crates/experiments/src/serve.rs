//! Helpers behind the `soc-serve` binary: the canonical sample NDJSON
//! session and an in-process session runner.
//!
//! The sample session exercises one of everything deterministic the
//! streaming service does — cold and warm optimizations, a sweep, a
//! second SOC, an exact solution-cache hit, a malformed line, a
//! `Cancel` for an unknown id, an unknown SOC name, and a clean
//! `Shutdown` — so its transcript can be committed as a golden and
//! byte-checked in CI, exactly like the `soc-batch` sample pair. Wall-clock-dependent behaviour (deadlines,
//! cancellation races, overload shedding) is deliberately absent here;
//! the fault-injection e2e suite covers it with bounded assertions
//! instead of byte equality.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::service::{
    named_soc_catalogue, ClientFrame, OptimizeFrame, Server, ServerConfig, SocSpec,
};
use soctest_multisite::{OptimizeRequest, OptimizerConfig, RequestTrace, SweepAxis};
use soctest_tam::RowStoreStats;
use std::fmt::Write as _;
use std::io::Cursor;

/// The `--list-socs` table shared by `soc-serve` and `soc-batch`: one
/// line per named SOC with its module count and the content hash the
/// session registry keys warm sessions by. Two builds printing the same
/// hashes serve bit-identical designs.
#[must_use]
pub fn render_soc_catalogue() -> String {
    let mut out = String::from("name          modules  content_hash\n");
    for entry in named_soc_catalogue() {
        writeln!(
            out,
            "{:<13} {:>7}  {:016x}",
            entry.name, entry.modules, entry.content_hash
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// The paper's 256-channel, 96k-deep test cell.
fn paper_cell() -> TestCell {
    TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    )
}

/// A roomier cell for the larger p22810 SOC.
fn big_cell() -> TestCell {
    TestCell::new(
        AteSpec::new(512, 768 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    )
}

fn line(frame: &ClientFrame) -> String {
    serde_json::to_string(frame).expect("client frames serialise")
}

/// The canonical sample session input: NDJSON client frames, one per
/// line, ending in `Shutdown`. Deterministic, so the transcript the
/// server answers is a committable golden.
pub fn sample_session() -> String {
    let frames = [
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "r1".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
            deadline_ms: None,
            stats: false,
        }),
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "r2".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell()))
                .with_sweep(SweepAxis::Channels(vec![192, 256])),
            deadline_ms: None,
            stats: false,
        }),
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "r3".to_string(),
            soc: SocSpec::Named("p22810".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(big_cell())),
            deadline_ms: None,
            stats: false,
        }),
        // An exact repeat of r1: answered from the solution cache
        // (`"cached":true`), deterministically.
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "r4".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
            deadline_ms: None,
            stats: false,
        }),
    ];
    let mut session = String::new();
    for frame in &frames {
        session.push_str(&line(frame));
        session.push('\n');
    }
    // One of every deterministic failure: a truncated frame, a Cancel
    // for an id that is not in flight, and an unknown SOC name.
    session.push_str("{\"Optimize\":\n");
    session.push_str(&line(&ClientFrame::Cancel {
        request_id: "ghost".to_string(),
    }));
    session.push('\n');
    session.push_str(&line(&ClientFrame::Optimize(OptimizeFrame {
        request_id: "r5".to_string(),
        soc: SocSpec::Named("not_a_soc".to_string()),
        request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
        deadline_ms: None,
        stats: false,
    })));
    session.push('\n');
    session.push_str(&line(&ClientFrame::Shutdown));
    session.push('\n');
    session
}

/// The stats-enabled sample session: three `stats: true` requests
/// covering every provenance (`Computed` cold, `Hit` on an exact
/// repeat, `Computed` for a warm-session sweep), plus one deliberately
/// stats-off repeat proving the block is opt-in per request. Every
/// field in the answered `stats` blocks is race-deterministic, so the
/// transcript is a committable golden at any `SOCTEST_THREADS`.
pub fn sample_session_stats() -> String {
    let frames = [
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "s1".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
            deadline_ms: None,
            stats: true,
        }),
        // An exact repeat of s1: a solution-cache hit with zero deltas.
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "s2".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
            deadline_ms: None,
            stats: true,
        }),
        // A sweep on the warm d695 session that reaches past the 256
        // channels s1 demanded: the engine computes fresh cells for the
        // wider widths, so a warm `Computed` block with real deltas.
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "s3".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell()))
                .with_sweep(SweepAxis::Channels(vec![192, 384])),
            deadline_ms: None,
            stats: true,
        }),
        // Another repeat of s1 that opts *out*: cached, but no block.
        ClientFrame::Optimize(OptimizeFrame {
            request_id: "s4".to_string(),
            soc: SocSpec::Named("d695".to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(paper_cell())),
            deadline_ms: None,
            stats: false,
        }),
    ];
    let mut session = String::new();
    for frame in &frames {
        session.push_str(&line(frame));
        session.push('\n');
    }
    session.push_str(&line(&ClientFrame::Shutdown));
    session.push('\n');
    session
}

/// Serves `input` through an in-process [`Server`] and returns the full
/// transcript (every response line including the final `Bye`).
///
/// # Errors
///
/// Only writer errors, which cannot happen on the in-memory buffer —
/// surfaced anyway rather than unwrapped so the binary can report them.
pub fn run_session_text(input: &str, config: ServerConfig) -> std::io::Result<String> {
    let server = Server::new(config);
    let output = SharedBuf::default();
    server.serve(Cursor::new(input.as_bytes().to_vec()), output.clone())?;
    Ok(output.into_string())
}

/// A cloneable in-memory sink satisfying the `'static` writer bound of
/// [`Server::serve`] (the server's connection owns one clone, the
/// caller reads the transcript back through the other).
#[derive(Debug, Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    fn into_string(self) -> String {
        let bytes = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        String::from_utf8(bytes).expect("server output is UTF-8")
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `input` with [`ServerConfig::trace_all`] forced on and
/// returns the transcript plus the server's in-process session trace,
/// for `soc-serve --stats-summary`.
///
/// # Errors
///
/// Writer errors, exactly as [`run_session_text`].
pub fn run_session_traced(
    input: &str,
    mut config: ServerConfig,
) -> std::io::Result<(String, RequestTrace)> {
    config.trace_all = true;
    let server = Server::new(config);
    let output = SharedBuf::default();
    server.serve(Cursor::new(input.as_bytes().to_vec()), output.clone())?;
    let trace = server.session_trace();
    Ok((output.into_string(), trace))
}

/// Renders a session's merged [`RequestTrace`] as a plain-ASCII
/// utilization summary, modeled on the paper's resource-budget view of
/// a test cell: each bar splits a total into its provenance segments
/// (`#` computed, `+` from the row store, `=` inherited, `-` other).
///
/// Its last line reads the server's row store (`store`, bounded by
/// `store_bound`): resident rows, their byte charge against the bound,
/// and rows evicted.
///
/// The summary is diagnostic stderr output, not a wire frame: it
/// includes the wall/CPU times, pool counters and store gauges that are
/// deliberately kept off the race-deterministic NDJSON transcript.
#[must_use]
pub fn render_stats_summary(
    trace: &RequestTrace,
    store: &RowStoreStats,
    store_bound: Option<u64>,
) -> String {
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let mut out = String::new();
    out.push_str(&format!(
        "session trace: {} traced request(s), {:.1} ms wall, {:.1} ms CPU, {} cancel probe(s)\n",
        trace.requests,
        ms(trace.wall_nanos),
        ms(trace.cpu_nanos),
        trace.cancel_probes,
    ));
    out.push_str(&format!(
        "  widest table  {:>12} channels\n",
        trace.table_width
    ));
    out.push_str(&format!(
        "  cells built   {:>12}  {}  computed {} | store {} | inherited {}\n",
        trace.table.cells_built(),
        segment_bar(&[
            trace.table.cells_computed,
            trace.table.cells_from_store,
            trace.table.cells_inherited,
        ]),
        trace.table.cells_computed,
        trace.table.cells_from_store,
        trace.table.cells_inherited,
    ));
    out.push_str(&format!(
        "  store cells   {:>12}  {}  computed {} | served {} | loaded {}\n",
        trace.store.cells_computed + trace.store.cells_served + trace.store.cells_loaded,
        segment_bar(&[
            trace.store.cells_computed,
            trace.store.cells_served,
            trace.store.cells_loaded,
        ]),
        trace.store.cells_computed,
        trace.store.cells_served,
        trace.store.cells_loaded,
    ));
    out.push_str(&format!(
        "  pool jobs     {:>12}  {}  local {} | stolen {} | injected {} | inline {}\n",
        trace.pool.jobs_local + trace.pool.jobs_stolen + trace.pool.jobs_injected,
        segment_bar(&[
            trace.pool.jobs_local,
            trace.pool.jobs_stolen,
            trace.pool.jobs_injected,
        ]),
        trace.pool.jobs_local,
        trace.pool.jobs_stolen,
        trace.pool.jobs_injected,
        trace.pool.inline_runs,
    ));
    out.push_str(&format!(
        "  row store     {:>12} rows  {} bytes charged, bound {} | evicted {}\n",
        store.rows,
        store.bytes,
        store_bound.map_or_else(|| "none".to_string(), |bound| bound.to_string()),
        store.rows_evicted,
    ));
    out
}

/// A fixed-width bar split proportionally into up to four segments
/// (`#`, `+`, `=`, `-`); cumulative rounding keeps the width exact.
fn segment_bar(parts: &[u64]) -> String {
    const WIDTH: usize = 32;
    const GLYPHS: [char; 4] = ['#', '+', '=', '-'];
    let total: u64 = parts.iter().sum();
    let mut bar = String::with_capacity(WIDTH + 2);
    bar.push('[');
    if total == 0 {
        for _ in 0..WIDTH {
            bar.push(' ');
        }
    } else {
        let mut used = 0;
        let mut acc = 0u128;
        for (part, glyph) in parts.iter().zip(GLYPHS) {
            acc += u128::from(*part);
            let end = usize::try_from(acc * WIDTH as u128 / u128::from(total)).expect("bar fits");
            for _ in used..end {
                bar.push(glyph);
            }
            used = end;
        }
    }
    bar.push(']');
    bar
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_multisite::service::{ErrorKind, ServerFrame};

    fn parse_transcript(transcript: &str) -> Vec<ServerFrame> {
        transcript
            .lines()
            .map(|line| serde_json::from_str::<ServerFrame>(line).expect("server frame parses"))
            .collect()
    }

    #[test]
    fn sample_session_is_deterministic() {
        assert_eq!(sample_session(), sample_session());
        let first = run_session_text(&sample_session(), ServerConfig::default()).unwrap();
        let second = run_session_text(&sample_session(), ServerConfig::default()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn sample_transcript_has_the_expected_shape() {
        let transcript =
            run_session_text(&sample_session(), ServerConfig::default()).expect("session runs");
        let frames = parse_transcript(&transcript);
        assert_eq!(frames.len(), 8);
        for (frame, id) in frames[..4].iter().zip(["r1", "r2", "r3", "r4"]) {
            match frame {
                ServerFrame::Result(result) => {
                    assert_eq!(result.request_id, id);
                    // r2 and r4 re-use r1's warm d695 session.
                    assert_eq!(result.warm, id == "r2" || id == "r4");
                    // Only r4 repeats an earlier request exactly.
                    assert_eq!(result.cached, id == "r4");
                }
                other => panic!("expected result for {id}, got {other:?}"),
            }
        }
        // r4's cached response is bit-identical to r1's computed one.
        match (&frames[0], &frames[3]) {
            (ServerFrame::Result(computed), ServerFrame::Result(cached)) => {
                assert_eq!(computed.response, cached.response);
            }
            other => panic!("expected results, got {other:?}"),
        }
        let kinds: Vec<ErrorKind> = frames[4..7]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Error(error) => error.kind,
                other => panic!("expected error, got {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ErrorKind::Protocol,
                ErrorKind::UnknownRequest,
                ErrorKind::InvalidSoc
            ]
        );
        match &frames[7] {
            ServerFrame::Bye(stats) => {
                assert_eq!(stats.served, 4);
                assert_eq!(stats.errors, 3);
                assert_eq!(stats.sessions_created, 2);
                assert_eq!(stats.session_hits, 2);
                assert_eq!(stats.session_misses, 2);
                assert_eq!(stats.evictions, 0);
                assert_eq!(stats.cache.result_hits, 1);
                assert_eq!(stats.cache.result_misses, 3);
                assert_eq!(stats.cache.coalesced_waits, 0);
                assert_eq!(stats.cache.coalesced_served, 0);
                assert!(stats.cache.result_bytes > 0);
                assert!(stats.cache.cells_computed > 0);
                assert_eq!(stats.cache.store_cells_loaded, 0);
                assert_eq!(stats.cache.store_rows_saved, 0);
                // Nobody opted into stats: no trace block on the wire.
                assert!(stats.trace.is_none());
            }
            other => panic!("expected Bye, got {other:?}"),
        }
    }

    #[test]
    fn stats_session_is_deterministic() {
        assert_eq!(sample_session_stats(), sample_session_stats());
        let first = run_session_text(&sample_session_stats(), ServerConfig::default()).unwrap();
        let second = run_session_text(&sample_session_stats(), ServerConfig::default()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn stats_transcript_has_the_expected_shape() {
        use soctest_multisite::service::Provenance;
        let transcript = run_session_text(&sample_session_stats(), ServerConfig::default())
            .expect("session runs");
        let frames = parse_transcript(&transcript);
        assert_eq!(frames.len(), 5);
        let results: Vec<_> = frames[..4]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Result(result) => result,
                other => panic!("expected result, got {other:?}"),
            })
            .collect();
        // s1 computes cold; its block attributes real table work.
        let s1 = results[0].stats.expect("s1 opted in");
        assert_eq!(s1.provenance, Provenance::Computed);
        assert!(s1.cells_built > 0);
        // s2 is an exact repeat: a hit, with zero deltas by construction.
        let s2 = results[1].stats.expect("s2 opted in");
        assert_eq!(s2.provenance, Provenance::Hit);
        assert_eq!((s2.cells_built, s2.store_cells_computed), (0, 0));
        // s3 sweeps on the warm session: computes more cells.
        let s3 = results[2].stats.expect("s3 opted in");
        assert_eq!(s3.provenance, Provenance::Computed);
        assert!(s3.cells_built > 0);
        // s4 repeats s1 but opted out: cached, no block.
        assert!(results[3].cached);
        assert!(results[3].stats.is_none());
        match &frames[4] {
            ServerFrame::Bye(stats) => {
                let trace = stats.trace.expect("three requests opted in");
                assert_eq!(trace.requests, 3);
                assert_eq!(trace.cells_built, s1.cells_built + s3.cells_built);
            }
            other => panic!("expected Bye, got {other:?}"),
        }
    }

    #[test]
    fn traced_run_returns_the_plain_transcript_and_a_live_trace() {
        let plain = run_session_text(&sample_session(), ServerConfig::default()).unwrap();
        let (traced, trace) =
            run_session_traced(&sample_session(), ServerConfig::default()).unwrap();
        // trace_all is purely in-process: the wire bytes are untouched.
        assert_eq!(plain, traced);
        assert_eq!(trace.requests, 3);
        assert!(trace.cells_built() > 0);
        assert!(trace.wall_nanos > 0);
    }

    #[test]
    fn stats_summary_renders_fixed_width_bars() {
        let mut trace = RequestTrace::default();
        trace.requests = 2;
        trace.wall_nanos = 1_500_000;
        trace.cpu_nanos = 3_000_000;
        trace.table_width = 256;
        trace.table.cells_computed = 48;
        trace.table.cells_inherited = 16;
        let summary = render_stats_summary(&trace, &RowStoreStats::default(), None);
        assert!(summary.contains("2 traced request(s)"));
        assert!(summary.contains("1.5 ms wall"));
        assert!(summary.contains("computed 48 | store 0 | inherited 16"));
        // 48/64 of a 32-wide bar is 24 `#`, the inherited 16/64 is 8 `=`.
        assert!(summary.contains(&format!("[{}{}]", "#".repeat(24), "=".repeat(8))));
        // Empty totals render an all-blank bar, not a division panic.
        let empty = RequestTrace::default();
        assert!(
            render_stats_summary(&empty, &RowStoreStats::default(), None)
                .contains(&format!("[{}]", " ".repeat(32)))
        );
    }

    #[test]
    fn stats_summary_ends_with_the_row_store_line() {
        let mut store = RowStoreStats::default();
        store.rows = 328;
        store.bytes = 65_600;
        store.rows_evicted = 152;
        let summary = render_stats_summary(&RequestTrace::default(), &store, Some(65_536));
        assert_eq!(
            summary.lines().last(),
            Some(
                "  row store              328 rows  65600 bytes charged, bound 65536 | evicted 152"
            )
        );
        let unbounded = render_stats_summary(&RequestTrace::default(), &store, None);
        assert!(unbounded.contains("bytes charged, bound none | evicted 152"));
        // The line is stderr only: a bounded server's transcript equals
        // an unbounded one's.
        let mut config = ServerConfig::default();
        config.max_store_bytes = None;
        assert_eq!(
            run_session_text(&sample_session(), config).unwrap(),
            run_session_text(&sample_session(), ServerConfig::default()).unwrap()
        );
    }

    #[test]
    fn soc_catalogue_lists_every_named_soc_with_stable_hashes() {
        let table = render_soc_catalogue();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 6, "{table}");
        assert!(lines[0].contains("content_hash"));
        for name in ["d695", "p22810", "p34392", "p93791", "pnx8550_like"] {
            assert!(
                lines.iter().any(|line| line.starts_with(name)),
                "{name} missing from:\n{table}"
            );
        }
        // Rendering twice gives identical bytes — the hashes are content
        // hashes, not per-process state.
        assert_eq!(table, render_soc_catalogue());
    }
}
