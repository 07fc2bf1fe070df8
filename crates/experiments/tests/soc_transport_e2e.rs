//! End-to-end tests of the socket transport: a real `soc-serve --listen`
//! subprocess, real `soc-client` subprocesses, concurrent connections,
//! SIGTERM drain, drain-deadline expiry, transport-stage faults, and a
//! TCP smoke test.
//!
//! The central claim under test: a session served over the socket is
//! bit-identical (modulo the connection-scoped `Bye`) to the same
//! session replayed over stdin/stdout, at any executor count — the
//! transport adds concurrency and sharing without perturbing a single
//! response byte.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::service::{
    ClientFrame, ErrorKind, OptimizeFrame, Provenance, ServerFrame, SocSpec,
};
use soctest_multisite::{OptimizeRequest, OptimizerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Duration;

const SAMPLE_INPUT: &str = include_str!("../data/sample_session_input.ndjson");
const SAMPLE_TRANSCRIPT: &str = include_str!("../data/sample_session_transcript.ndjson");

fn optimize_line(request_id: &str, soc: SocSpec, stats: bool) -> String {
    let cell = TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
        request_id: request_id.to_string(),
        soc,
        request: OptimizeRequest::new(OptimizerConfig::new(cell)),
        deadline_ms: None,
        stats,
    }))
    .expect("client frames serialise")
}

fn d695_line(request_id: &str) -> String {
    optimize_line(request_id, SocSpec::Named("d695".to_string()), false)
}

/// A deterministic inline SOC distinct from every named benchmark (and,
/// via `name`/`patterns`, from every other call), so concurrent
/// connections and pipelined requests can exercise disjoint sessions.
fn tiny_soc_line(request_id: &str, name: &str, patterns: u64) -> String {
    let mut tiny = soctest_soc_model::Soc::new(name);
    tiny.push_module(
        soctest_soc_model::Module::builder("m")
            .patterns(patterns)
            .inputs(2)
            .outputs(2)
            .scan_chain(8)
            .build(),
    );
    optimize_line(
        request_id,
        SocSpec::Inline(soctest_soc_model::writer::write_soc(&tiny)),
        false,
    )
}

fn parse_transcript(transcript: &str) -> Vec<ServerFrame> {
    transcript
        .lines()
        .map(|line| serde_json::from_str::<ServerFrame>(line).expect("server frame parses"))
        .collect()
}

/// A listening `soc-serve` subprocess. Construction blocks until the
/// server announces `listening on <addr>` on stderr, so clients never
/// race the bind or the cache-directory load; `drain()` sends SIGTERM
/// and asserts a clean exit.
struct ListeningServer {
    child: Child,
    addr: String,
    /// The stderr lines printed before the announcement (cache-directory
    /// warnings).
    preamble: Vec<String>,
    /// Kept open so the server's drain summary never hits a closed pipe.
    stderr: BufReader<ChildStderr>,
}

impl ListeningServer {
    fn spawn(args: &[&str]) -> ListeningServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_soc-serve"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn soc-serve --listen");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut preamble = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let read = stderr
                .read_line(&mut line)
                .expect("read listen announcement");
            assert!(read > 0, "soc-serve exited before listening: {preamble:?}");
            match line.strip_prefix("listening on ") {
                Some(addr) => break addr.trim().to_string(),
                None => preamble.push(line),
            }
        };
        ListeningServer {
            child,
            addr,
            preamble,
            stderr,
        }
    }

    /// SIGTERM, then wait: the graceful drain must end in exit 0.
    /// Returns the remaining stderr (the drain summary).
    fn drain(mut self) -> String {
        let term = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(term.success(), "kill -TERM failed");
        let status = self.child.wait().expect("soc-serve exits");
        assert!(status.success(), "drained server exits 0, got {status:?}");
        let mut rest = String::new();
        self.stderr
            .read_to_string(&mut rest)
            .expect("read drain summary");
        rest
    }
}

impl Drop for ListeningServer {
    /// A test that fails before `drain` must not leave its server
    /// running; after `drain` the child is already reaped and both calls
    /// fail harmlessly.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `soc-client` against `addr` with `input` on stdin; returns the
/// stdout transcript and the exit code.
fn run_client(addr: &str, input: &str, extra: &[&str]) -> (String, i32) {
    run_client_bytes(addr, input.as_bytes(), extra)
}

/// [`run_client`] with raw bytes on stdin.
fn run_client_bytes(addr: &str, input: &[u8], extra: &[&str]) -> (String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soc-client"))
        .arg(addr)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soc-client");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("write session input");
    let output = child.wait_with_output().expect("soc-client exits");
    (
        String::from_utf8(output.stdout).expect("transcript is UTF-8"),
        output.status.code().unwrap_or(-1),
    )
}

/// The same input replayed over stdin/stdout mode — the byte-identity
/// baseline.
fn run_stdin_mode(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soc-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soc-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write session input");
    let output = child.wait_with_output().expect("soc-serve exits");
    assert!(output.status.success(), "stdin-mode soc-serve failed");
    String::from_utf8(output.stdout).expect("transcript is UTF-8")
}

/// Frames before the `Bye` — the per-connection deterministic prefix.
fn non_bye(transcript: &str) -> Vec<&str> {
    transcript
        .lines()
        .filter(|line| !line.starts_with("{\"Bye\""))
        .collect()
}

fn sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("soctest-e2e-{tag}-{}.sock", std::process::id()))
}

#[test]
fn concurrent_clients_replay_bit_identical_to_stdin_mode() {
    // Four clients, every request a distinct SOC: neither cross-connection
    // nor intra-connection execution order can leak into the warm/cached
    // flags (requests from *one* connection pipeline across executors by
    // design — only response delivery is ordered). Every client's non-Bye
    // transcript must equal a stdin/stdout replay of the same input, byte
    // for byte, at one executor and at four. The warm/cached *progression*
    // of a repeated request is covered at a single executor in
    // `sample_session_over_the_socket_matches_the_committed_transcript`.
    let inputs = [
        format!(
            "{}\n{}\n",
            d695_line("a1"),
            tiny_soc_line("a2", "tiny_a", 3)
        ),
        format!(
            "{}\n{}\n",
            tiny_soc_line("b1", "tiny_b1", 4),
            tiny_soc_line("b2", "tiny_b2", 5)
        ),
        format!(
            "{}\n{}\n",
            tiny_soc_line("c1", "tiny_c1", 6),
            tiny_soc_line("c2", "tiny_c2", 7)
        ),
        format!(
            "{}\n{}\n",
            tiny_soc_line("d1", "tiny_d1", 8),
            tiny_soc_line("d2", "tiny_d2", 9)
        ),
    ];
    let baselines: Vec<String> = inputs
        .iter()
        .map(|input| run_stdin_mode(&[], input))
        .collect();
    for executors in ["1", "4"] {
        let sock = sock_path(&format!("bitident-{executors}"));
        let server =
            ListeningServer::spawn(&["--listen", sock.to_str().unwrap(), "--executors", executors]);
        let addr = server.addr.clone();
        let outputs: Vec<(String, i32)> = std::thread::scope(|scope| {
            let clients: Vec<_> = inputs
                .iter()
                .map(|input| scope.spawn(|| run_client(&addr, input, &[])))
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("client thread"))
                .collect()
        });
        for (client, ((out, code), baseline)) in outputs.iter().zip(&baselines).enumerate() {
            assert_eq!(*code, 0, "client {client} exits clean");
            assert_eq!(
                non_bye(out),
                non_bye(baseline),
                "client {client} bit-identical at --executors {executors}"
            );
            // The Bye frames are connection-scoped: each counts its own
            // two requests and carries its own identity.
            match parse_transcript(out).pop().expect("a final frame") {
                ServerFrame::Bye(stats) => {
                    assert_eq!(stats.served, 2);
                    assert_eq!(stats.errors, 0);
                    let connection = stats.connection.expect("socket Bye has identity");
                    assert_eq!(connection.requests, 2);
                    assert!(connection.id >= 1 && connection.id <= 4, "{connection:?}");
                }
                other => panic!("expected Bye, got {other:?}"),
            }
        }
        let summary = server.drain();
        assert!(summary.contains("4 connection(s)"), "{summary}");
        assert!(summary.contains("8 served"), "{summary}");
    }
}

#[test]
fn deeply_nested_line_fails_one_connection_not_the_listener() {
    // A line nesting far past the JSON parser's recursion limit answers
    // one Protocol error on its own connection. Unbounded recursion
    // would overflow that connection thread's stack and abort the whole
    // listener, taking every other connection and the drain with it.
    let nested = format!("{}\n{}\n", "[".repeat(10_000), d695_line("n1"));
    let input_b = format!(
        "{}\n{}\n",
        tiny_soc_line("b1", "tiny_nested_b1", 4),
        tiny_soc_line("b2", "tiny_nested_b2", 5)
    );
    let baseline_b = run_stdin_mode(&[], &input_b);
    let sock = sock_path("nested");
    let server = ListeningServer::spawn(&["--listen", sock.to_str().unwrap()]);
    let addr = server.addr.clone();
    let (out_a, out_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_client(&addr, &nested, &[]));
        let b = scope.spawn(|| run_client(&addr, &input_b, &[]));
        (a.join().expect("client a"), b.join().expect("client b"))
    });
    assert_eq!(out_b.1, 0, "client b exits clean");
    assert_eq!(non_bye(&out_b.0), non_bye(&baseline_b));
    let frames = parse_transcript(&out_a.0);
    assert_eq!(frames.len(), 3, "{}", out_a.0);
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id, None);
            assert_eq!(error.kind, ErrorKind::Protocol);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "n1"));
    assert!(matches!(&frames[2], ServerFrame::Bye(_)));
    let summary = server.drain();
    assert!(summary.contains("2 connection(s)"), "{summary}");
}

#[test]
fn a_line_that_is_not_utf8_fails_itself_not_its_connection() {
    // A line that is not UTF-8 answers one line-level Protocol error,
    // the same connection goes on to answer its next frame, and another
    // connection's answers stay bit-identical to stdin mode. Connection
    // a writes its raw bytes itself, so the server side is tested apart
    // from soc-client.
    let mut raw = b"ab\xffcd\n".to_vec();
    raw.extend_from_slice(format!("{}\n", d695_line("u1")).as_bytes());
    let input_b = format!(
        "{}\n{}\n",
        tiny_soc_line("b1", "tiny_utf8_b1", 4),
        tiny_soc_line("b2", "tiny_utf8_b2", 5)
    );
    let baseline_b = run_stdin_mode(&[], &input_b);
    let sock = sock_path("utf8");
    let server = ListeningServer::spawn(&["--listen", sock.to_str().unwrap()]);
    let addr = server.addr.clone();
    let (out_a, out_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut stream = UnixStream::connect(&addr).expect("connect");
            stream.write_all(&raw).expect("send raw lines");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let mut transcript = String::new();
            stream
                .read_to_string(&mut transcript)
                .expect("read the answers");
            transcript
        });
        let b = scope.spawn(|| run_client(&addr, &input_b, &[]));
        (a.join().expect("client a"), b.join().expect("client b"))
    });
    assert_eq!(out_b.1, 0, "client b exits clean");
    assert_eq!(non_bye(&out_b.0), non_bye(&baseline_b));
    let frames = parse_transcript(&out_a);
    assert_eq!(frames.len(), 3, "{out_a}");
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id, None);
            assert_eq!(error.kind, ErrorKind::Protocol);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "u1"));
    match &frames[2] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (1, 1)),
        other => panic!("expected Bye, got {other:?}"),
    }
    let summary = server.drain();
    assert!(summary.contains("2 connection(s)"), "{summary}");
}

#[test]
fn soc_client_forwards_a_line_that_is_not_utf8_and_every_frame_after_it() {
    // soc-client forwards stdin lines as raw bytes: a line that is not
    // UTF-8 reaches the server, which answers one Protocol error, and
    // the frame after it is still sent and answered.
    let mut input = b"ab\xffcd\n".to_vec();
    input.extend_from_slice(format!("{}\n", d695_line("c1")).as_bytes());
    let sock = sock_path("client-utf8");
    let server = ListeningServer::spawn(&["--listen", sock.to_str().unwrap()]);
    let (transcript, code) = run_client_bytes(&server.addr, &input, &[]);
    assert_eq!(code, 0, "{transcript}");
    let frames = parse_transcript(&transcript);
    assert_eq!(frames.len(), 3, "{transcript}");
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id, None);
            assert_eq!(error.kind, ErrorKind::Protocol);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "c1"));
    match &frames[2] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (1, 1)),
        other => panic!("expected Bye, got {other:?}"),
    }
    server.drain();
}

#[test]
fn sample_session_over_the_socket_matches_the_committed_transcript() {
    // The committed sample session (which exercises warm sessions, cache
    // hits, a sweep, and a typed error) replayed through soc-client at
    // the default single executor: admission order is execution order,
    // so every response byte — including the warm/cached progression —
    // must match the committed stdin/stdout golden. Only the Bye
    // differs, by its connection-scoped counters.
    let sock = sock_path("sample");
    let server = ListeningServer::spawn(&["--listen", sock.to_str().unwrap()]);
    let (transcript, code) = run_client(&server.addr, SAMPLE_INPUT, &[]);
    assert_eq!(code, 0, "{transcript}");
    assert_eq!(non_bye(&transcript), non_bye(SAMPLE_TRANSCRIPT));
    server.drain();
}

#[test]
fn identical_concurrent_connections_compute_exactly_once() {
    // Three connections submit the same stats-enabled request. The
    // injected optimize-stage delay holds every in-flight copy long
    // enough that they overlap, so the cache's in-flight coalescing —
    // not timing luck — must guarantee a single computation.
    let sock = sock_path("coalesce");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--executors",
        "4",
        "--faults",
        "optimize:delay:800",
    ]);
    let addr = server.addr.clone();
    let input = format!(
        "{}\n",
        optimize_line("same", SocSpec::Named("d695".to_string()), true)
    );
    let outputs: Vec<(String, i32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| run_client(&addr, &input, &[])))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client"))
            .collect()
    });
    let mut provenance = Vec::new();
    let mut responses = Vec::new();
    for (transcript, code) in &outputs {
        assert_eq!(*code, 0, "client exits clean");
        match &parse_transcript(transcript)[0] {
            ServerFrame::Result(result) => {
                provenance.push(result.stats.expect("stats requested").provenance);
                responses.push(result.response.clone());
            }
            other => panic!("expected result, got {other:?}"),
        }
    }
    let computed = provenance
        .iter()
        .filter(|p| **p == Provenance::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one computation ran: {provenance:?}");
    assert!(
        provenance.iter().all(|p| matches!(
            p,
            Provenance::Computed | Provenance::Coalesced | Provenance::Hit
        )),
        "{provenance:?}"
    );
    // All three answers are bit-identical to the leader's.
    assert_eq!(responses[0], responses[1]);
    assert_eq!(responses[0], responses[2]);
    server.drain();
}

#[test]
fn sigterm_drain_finishes_in_flight_requests() {
    // The request is mid-flight (held by the injected delay) when
    // SIGTERM lands; the drain's 5 s grace lets it finish, so the
    // client still gets its Result and a Bye.
    let sock = sock_path("drain-finish");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--drain-ms",
        "5000",
        "--faults",
        "optimize:delay:500@slow",
    ]);
    let mut client = Command::new(env!("CARGO_BIN_EXE_soc-client"))
        .arg(&server.addr)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soc-client");
    let mut stdin = client.stdin.take().expect("piped stdin");
    writeln!(
        stdin,
        "{}",
        optimize_line("slow", SocSpec::Named("d695".to_string()), false)
    )
    .expect("send");
    stdin.flush().expect("flush");
    // Long enough to be accepted and admitted, still sleeping in the
    // injected fault when the drain starts.
    std::thread::sleep(Duration::from_millis(250));
    let summary = server.drain();
    drop(stdin);
    let output = client.wait_with_output().expect("soc-client exits");
    assert!(output.status.success(), "client saw a clean Bye");
    let transcript = String::from_utf8(output.stdout).unwrap();
    let frames = parse_transcript(&transcript);
    assert_eq!(frames.len(), 2, "{transcript}");
    assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "slow"));
    assert!(matches!(&frames[1], ServerFrame::Bye(_)));
    assert!(summary.contains("1 served"), "{summary}");
}

#[test]
fn drain_deadline_cancels_overdue_requests() {
    // Same shape, but the grace (100 ms) is far shorter than the
    // injected 700 ms hold: the drain imposes its deadline on the
    // in-flight token and the request answers deadline_exceeded instead
    // of holding the server open.
    let sock = sock_path("drain-cancel");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--drain-ms",
        "100",
        "--faults",
        "optimize:delay:700@slow",
    ]);
    let mut client = Command::new(env!("CARGO_BIN_EXE_soc-client"))
        .arg(&server.addr)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soc-client");
    let mut stdin = client.stdin.take().expect("piped stdin");
    writeln!(
        stdin,
        "{}",
        optimize_line("slow", SocSpec::Named("d695".to_string()), false)
    )
    .expect("send");
    stdin.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(250));
    server.drain();
    drop(stdin);
    let output = client.wait_with_output().expect("soc-client exits");
    let transcript = String::from_utf8(output.stdout).unwrap();
    let frames = parse_transcript(&transcript);
    assert_eq!(frames.len(), 2, "{transcript}");
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id.as_deref(), Some("slow"));
            assert_eq!(error.kind, ErrorKind::DeadlineExceeded);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Bye(_)));
}

#[test]
fn connection_fault_is_isolated_and_fail_on_error_reports_it() {
    let sock = sock_path("conn-fault");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--faults",
        "connection:panic@1",
    ]);
    // Connection 1 is failed by the injected panic: a typed Internal
    // frame, a clean Bye — and `--fail-on-error` turns it into exit 3.
    let (transcript, code) = run_client(&server.addr, &d695_line("r1"), &["--fail-on-error"]);
    assert_eq!(code, 3, "{transcript}");
    let frames = parse_transcript(&transcript);
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.kind, ErrorKind::Internal);
            assert!(
                error.message.contains("connection failed"),
                "{}",
                error.message
            );
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert!(matches!(frames.last(), Some(ServerFrame::Bye(_))));
    // Connection 2 is served normally — same server, same socket.
    let (transcript, code) = run_client(&server.addr, &d695_line("r2"), &["--fail-on-error"]);
    assert_eq!(code, 0, "{transcript}");
    assert!(matches!(
        &parse_transcript(&transcript)[0],
        ServerFrame::Result(r) if r.request_id == "r2"
    ));
    server.drain();
}

#[test]
fn accept_fault_refuses_one_connection_without_a_bye() {
    let sock = sock_path("accept-fault");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--faults",
        "accept:panic@1",
    ]);
    // The refused connection never gets a frame — soc-client reports
    // "closed without a Bye" as exit 1.
    let (transcript, code) = run_client(&server.addr, &d695_line("r1"), &[]);
    assert_eq!(code, 1, "{transcript:?}");
    assert_eq!(transcript, "");
    // The very next accept works.
    let (transcript, code) = run_client(&server.addr, &d695_line("r2"), &[]);
    assert_eq!(code, 0, "{transcript}");
    let summary = server.drain();
    assert!(summary.contains("1 refused accept(s)"), "{summary}");
}

#[test]
fn listening_is_announced_after_the_cache_directory_loaded() {
    // A corrupt solutions.v1: its warning comes from the load, which must
    // finish before the server reports itself ready.
    let dir = std::env::temp_dir().join(format!("soctest-e2e-ready-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    std::fs::write(dir.join("solutions.v1"), b"not a solution cache").expect("write");
    let sock = sock_path("ready");
    let server = ListeningServer::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        server
            .preamble
            .iter()
            .any(|line| line.starts_with("warning: ignoring solution cache")),
        "warning not printed before `listening on`: {:?}",
        server.preamble
    );
    let (transcript, code) = run_client(&server.addr, &d695_line("r1"), &[]);
    assert_eq!(code, 0, "{transcript}");
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_listener_announces_its_port_and_serves() {
    // `:0` picks a free port; the stderr announcement is the only way
    // to learn it, which is exactly how this test (and any script)
    // connects.
    let server = ListeningServer::spawn(&["--listen", "127.0.0.1:0"]);
    assert!(
        server.addr.starts_with("127.0.0.1:"),
        "announced TCP addr, got {}",
        server.addr
    );
    assert_ne!(server.addr, "127.0.0.1:0", "port resolved");
    let (transcript, code) = run_client(&server.addr, &d695_line("r1"), &[]);
    assert_eq!(code, 0, "{transcript}");
    let frames = parse_transcript(&transcript);
    assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
    assert!(matches!(&frames[1], ServerFrame::Bye(_)));
    server.drain();
}

#[test]
fn list_socs_prints_one_shared_catalogue() {
    let serve = Command::new(env!("CARGO_BIN_EXE_soc-serve"))
        .arg("--list-socs")
        .output()
        .expect("soc-serve --list-socs");
    let batch = Command::new(env!("CARGO_BIN_EXE_soc-batch"))
        .arg("--list-socs")
        .output()
        .expect("soc-batch --list-socs");
    assert!(serve.status.success());
    assert!(batch.status.success());
    assert_eq!(
        serve.stdout, batch.stdout,
        "both binaries print the same catalogue"
    );
    let text = String::from_utf8(serve.stdout).unwrap();
    for name in ["d695", "p22810", "p34392", "p93791", "pnx8550_like"] {
        assert!(text.contains(name), "{name} missing:\n{text}");
    }
}
