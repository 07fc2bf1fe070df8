//! `soc-serve` — the persistent streaming optimizer service, on
//! stdin/stdout by default or on a socket with `--listen`.
//!
//! ```text
//! soc-serve                           serve NDJSON frames until EOF/Shutdown
//! soc-serve --listen PATH|HOST:PORT   accept concurrent connections on a
//!                                     Unix socket path or TCP address; each
//!                                     runs its own session over the shared
//!                                     server (drain on SIGTERM/SIGINT)
//! soc-serve --executors N             executor workers draining the shared
//!                                     admission queue (default 1)
//! soc-serve --drain-ms N              grace for in-flight requests once a
//!                                     drain starts (default 2000)
//! soc-serve --write-timeout-ms N      per-socket write timeout; a client
//!                                     that stops reading becomes a dead
//!                                     sink instead of blocking an
//!                                     executor (default 30000)
//! soc-serve --queue-cap N             bound the admission queue (default 64)
//! soc-serve --max-sessions N          bound the warm-session LRU (default 8)
//! soc-serve --max-table-bytes N       bound charged table memory (default 256 MiB)
//! soc-serve --cache-dir DIR           persist the module-row store in DIR/rows.v1
//!                                     and the solution cache in DIR/solutions.v1
//! soc-serve --max-store-bytes N       bound the module-row store, resident
//!                                     and in DIR/rows.v1: evict the coldest
//!                                     rows no session holds, and drop the
//!                                     coldest-touched rows from a save until
//!                                     it fits (default 16 MiB)
//! soc-serve --max-result-entries N    bound the solution cache entries (default 256)
//! soc-serve --max-result-bytes N      bound the solution cache bytes (default 64 MiB)
//! soc-serve --faults SPEC             arm the fault-injection harness
//! soc-serve --list-socs               print the named-SOC catalogue and exit
//! soc-serve --emit-sample-session     print the canonical sample input
//! soc-serve --emit-sample-session-stats
//!                                     print the stats-enabled sample input
//! soc-serve --stats-summary           after serving, print an ASCII
//!                                     utilization summary on stderr
//! soc-serve --check GOLDEN            serve stdin, byte-compare the
//!                                     transcript against GOLDEN; exit 1 on drift
//! ```
//!
//! In socket mode the server announces `listening on <addr>` on stderr
//! once bound (with a TCP `:0` operand that line carries the real
//! port), serves until `SIGTERM`/`SIGINT`, then drains: it stops
//! accepting, lets in-flight requests finish within `--drain-ms`
//! (overdue ones answer `deadline_exceeded`; a connection that still
//! refuses to finish is abandoned and counted lost rather than allowed
//! to wedge the drain), ends every connection with its own `Bye`, and
//! persists the row store once — even when the listener exits on an
//! accept error. All
//! connections share one session registry, one row store, one solution
//! cache, and one admission queue drained by `--executors` workers;
//! per-connection responses keep admission order at any executor
//! count, and each connection's `Bye` carries connection-scoped
//! counters plus a `connection` identity block.
//!
//! One JSON frame per line in each direction: `{"Optimize": {...}}`,
//! `{"Cancel": {...}}`, `"Shutdown"` in; `{"Result": {...}}`,
//! `{"Error": {...}}`, and a final `{"Bye": {...}}` out, in admission
//! order. Requests name a SOC (embedded benchmark or inline `.soc`
//! text); identical SOC content shares one warm engine session behind an
//! LRU with memory accounting. Requests are isolated: a panicking
//! request answers a typed `Internal` error and the server keeps
//! serving. Identical `(SOC, request)` pairs are answered from an
//! exact-hit solution cache (in-flight duplicates coalesce onto one
//! computation). The content-addressed module time rows are bounded by
//! `--max-store-bytes` in memory and on disk; with `--cache-dir` both
//! those rows (`rows.v1`) and the successful responses themselves
//! (`solutions.v1`) persist across processes, so a restarted server
//! rebuilds zero rows and replays repeat requests as cache hits — the
//! final `Bye` frame's `cache` block reports both.
//! Requests that set `"stats": true` are answered with a per-request
//! `stats` block (cache provenance plus race-deterministic table
//! deltas) and the `Bye` gains an aggregate `trace` block;
//! `--stats-summary` additionally traces every request in-process and
//! prints a human-readable utilization summary on stderr after the
//! session ends (with the row store's resident rows, charge and
//! evictions), keeping timing and pool counters off the wire. The
//! fault spec (`--faults`, or the `SOCTEST_FAULTS` environment variable
//! when the flag is absent) is `stage:kind[:arg][@request_id]`,
//! comma-separated — e.g. `optimize:panic@r2,respond:delay:50,
//! store:panic@load`.

use soctest_experiments::serve::{
    render_soc_catalogue, render_stats_summary, run_session_text, sample_session,
    sample_session_stats,
};
use soctest_multisite::service::{
    BoundListener, FaultPlan, ListenAddr, Server, ServerConfig, TransportConfig,
};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

struct Options {
    config: ServerConfig,
    listen: Option<String>,
    drain_ms: u64,
    write_timeout_ms: u64,
    emit_sample: bool,
    emit_sample_stats: bool,
    list_socs: bool,
    stats_summary: bool,
    check: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: soc-serve [--listen PATH|HOST:PORT] [--executors N] [--drain-ms N] \
         [--write-timeout-ms N] [--queue-cap N] [--max-sessions N] [--max-table-bytes N] \
         [--cache-dir DIR] [--max-store-bytes N] [--max-result-entries N] [--max-result-bytes N] \
         [--faults SPEC] [--stats-summary] [--check GOLDEN]\n\
         \x20      soc-serve --list-socs\n\
         \x20      soc-serve --emit-sample-session | --emit-sample-session-stats\n\
         serves NDJSON optimizer frames on stdin/stdout, or accepts concurrent \
         connections with --listen (drains on SIGTERM/SIGINT); --check \
         byte-compares the transcript against GOLDEN and exits 1 on drift"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut config = ServerConfig::default();
    let mut listen = None;
    let mut drain_ms = 2000;
    let mut write_timeout_ms = 30_000;
    let mut emit_sample = false;
    let mut emit_sample_stats = false;
    let mut list_socs = false;
    let mut stats_summary = false;
    let mut check = None;
    let mut faults_flag: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-sample-session" => emit_sample = true,
            "--emit-sample-session-stats" => emit_sample_stats = true,
            "--list-socs" => list_socs = true,
            "--stats-summary" => stats_summary = true,
            "--queue-cap" => config.queue_capacity = parse_number(args.next()),
            "--max-sessions" => config.max_sessions = parse_number(args.next()),
            "--max-table-bytes" => config.max_table_bytes = parse_number(args.next()),
            "--max-store-bytes" => config.max_store_bytes = Some(parse_number(args.next())),
            "--max-result-entries" => config.max_result_entries = parse_number(args.next()),
            "--max-result-bytes" => config.max_result_bytes = parse_number(args.next()),
            "--executors" => config.executors = parse_number(args.next()),
            "--drain-ms" => drain_ms = parse_number(args.next()),
            "--write-timeout-ms" => write_timeout_ms = parse_number(args.next()),
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr),
                None => usage(),
            },
            "--cache-dir" => match args.next() {
                Some(dir) => config.cache_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--faults" => match args.next() {
                Some(spec) => faults_flag = Some(spec),
                None => usage(),
            },
            "--check" => match args.next() {
                Some(file) => check = Some(PathBuf::from(file)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if (emit_sample || emit_sample_stats || list_socs) && (check.is_some() || listen.is_some()) {
        usage();
    }
    if check.is_some() && listen.is_some() {
        usage();
    }
    if stats_summary {
        config.trace_all = true;
    }
    let faults = match faults_flag {
        Some(spec) => FaultPlan::parse(&spec),
        None => FaultPlan::from_env(),
    };
    config.faults = match faults {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("invalid fault spec: {message}");
            std::process::exit(2)
        }
    };
    Options {
        config,
        listen,
        drain_ms,
        write_timeout_ms,
        emit_sample,
        emit_sample_stats,
        list_socs,
        stats_summary,
        check,
    }
}

/// Set by the `SIGTERM`/`SIGINT` handler; the transport accept loop
/// polls it and starts the graceful drain when it flips.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signal: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the drain trigger for socket mode. The only non-library
/// code in the repo that needs `unsafe`: registering a handler for
/// `SIGTERM` (15) and `SIGINT` (2) via the C `signal` entry point —
/// the handler itself only flips an atomic, which is async-signal-safe.
fn install_drain_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

/// Socket mode: bind, announce, serve until a drain signal, report the
/// server-lifetime aggregate on stderr.
fn serve_listener(addr_text: &str, options: &Options) -> ExitCode {
    let addr = match ListenAddr::parse(addr_text) {
        Ok(addr) => addr,
        Err(message) => {
            eprintln!("invalid --listen address: {message}");
            return ExitCode::from(2);
        }
    };
    let listener = match BoundListener::bind(&addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("failed to bind {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    install_drain_signals();
    // Loads `--cache-dir` before the announcement, so the line means
    // ready.
    let server = Server::new(options.config.clone());
    // Announced on stderr so scripts (and the e2e suite) can discover a
    // TCP `:0` port without racing the first client.
    eprintln!("listening on {}", listener.local_addr());
    let mut transport = TransportConfig::default();
    transport.drain_grace = Duration::from_millis(options.drain_ms);
    transport.write_timeout = Duration::from_millis(options.write_timeout_ms.max(1));
    match listener.serve(&server, &transport, &SHUTDOWN) {
        Ok(stats) => {
            eprintln!(
                "drained: {} connection(s), {} served, {} error(s) ({} internal), \
                 {} refused accept(s), {} lost, {} row(s) persisted",
                stats.connections,
                stats.served,
                stats.errors,
                stats.internal_errors,
                stats.refused_accepts,
                stats.lost_connections,
                stats.store_rows_saved,
            );
            if options.stats_summary {
                print_stats_summary(&server);
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("listener failed: {error}");
            ExitCode::FAILURE
        }
    }
}

/// `--stats-summary`: the session trace and the row store, on stderr.
fn print_stats_summary(server: &Server) {
    eprint!(
        "{}",
        render_stats_summary(
            &server.session_trace(),
            &server.row_store().stats(),
            server.config().max_store_bytes,
        )
    );
}

fn parse_number<N: std::str::FromStr>(arg: Option<String>) -> N {
    match arg.and_then(|raw| raw.parse().ok()) {
        Some(value) => value,
        None => usage(),
    }
}

fn main() -> ExitCode {
    let options = parse_args();

    if options.emit_sample {
        print!("{}", sample_session());
        return ExitCode::SUCCESS;
    }

    if options.emit_sample_stats {
        print!("{}", sample_session_stats());
        return ExitCode::SUCCESS;
    }

    if options.list_socs {
        print!("{}", render_soc_catalogue());
        return ExitCode::SUCCESS;
    }

    if let Some(addr_text) = &options.listen {
        return serve_listener(addr_text, &options);
    }

    if let Some(golden_path) = options.check {
        // Byte-compare the whole transcript: read stdin fully, serve
        // in-process, diff against the committed golden.
        let mut input = String::new();
        if let Err(err) = std::io::stdin().read_to_string(&mut input) {
            eprintln!("failed to read stdin: {err}");
            return ExitCode::FAILURE;
        }
        let transcript = match run_session_text(&input, options.config) {
            Ok(transcript) => transcript,
            Err(err) => {
                eprintln!("session failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let golden = match std::fs::read_to_string(&golden_path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to read golden {}: {err}", golden_path.display());
                return ExitCode::FAILURE;
            }
        };
        if golden != transcript {
            eprintln!(
                "FAIL: transcript drifted from golden {} — regenerate with \
                 `soc-serve --emit-sample-session | soc-serve > {}` and commit \
                 the diff if intentional",
                golden_path.display(),
                golden_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "OK: transcript matches golden {} byte-for-byte",
            golden_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let server = Server::new(options.config);
    let stdin = std::io::stdin();
    let served = server.serve(stdin.lock(), std::io::stdout());
    if options.stats_summary {
        print_stats_summary(&server);
    }
    match served {
        Ok(_) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("write error on stdout: {err}");
            ExitCode::FAILURE
        }
    }
}
