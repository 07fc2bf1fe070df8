//! `perfbench` — the end-to-end and per-layer benchmark of `soc-serve`.
//!
//! ```text
//! perfbench --server BIN --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` each run starts a fresh `soc-serve --listen` over an
//! identical copy of a cache directory built from the seed, drives it from
//! two connections that each keep a fixed window of requests in flight,
//! checks every reply, and reports the end-to-end metrics. With
//! `--trace 1` it replays the same seeded frames in-process through each
//! layer's public functions with a span around every call and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any reply fails verification. `perfbench/README.md`
//! describes the workloads and metrics.

mod client;
mod replay;
mod stats;
mod workload;

use client::{
    closed_loop, cpu_ticks, machine_ticks, peak_rss_kib, Expected, Lane, PassReport, ServerProcess,
    CONNECTIONS, TICKS_PER_SECOND, WINDOW,
};
use replay::{Replay, Stack};
use soctest_multisite::engine::Engine;
use soctest_multisite::service::{
    resolve_named_soc, Server, ServerConfig, ServerStats, SOLUTIONS_FILE,
};
use stats::{mean, median, quantile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Plan, Req, Target, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("server_cpu_ms_per_req", "ms"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("protocol.client_parse_us", "us"),
    ("protocol.render_response_us", "us"),
    ("protocol.response_bytes", "B"),
    ("protocol.parse_request_us", "us"),
    ("protocol.request_bytes", "B"),
    ("soc_model.parse_inline_us", "us"),
    ("registry.lookup_us", "us"),
    ("registry.build_ms", "ms"),
    ("registry.evictions", "count"),
    ("tam.fill_ms", "ms"),
    ("tam.cells_computed_per_req", "count"),
    ("tam.cells_from_store_per_req", "count"),
    ("wrapper.row_us_per_cell", "us"),
    ("cache.hit_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.miss_overhead_us", "us"),
    ("cache.point_reuse_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.run_ms", "ms"),
    ("engine.points_per_req", "count"),
    ("optimizer.step1_us", "us"),
    ("optimizer.step2_us", "us"),
    ("cache.load_ms", "ms"),
    ("tam.store_load_ms", "ms"),
    ("cache.file_kb", "KiB"),
    ("tam.store_rows", "count"),
    ("transport.rtt_us", "us"),
    ("transport.overhead_us", "us"),
    ("trace.overhead_pct", "%"),
    ("replay.request_us", "us"),
    ("replay.accounted_pct", "%"),
];

/// Set-ups of an end-to-end run before the measured pass (the last one
/// serves the stream) and after it; `setup_s` is the median of all. A
/// fresh server's single-threaded cache load runs up to twice as long at
/// some moments as at others on a shared VM, so the set-ups sample two
/// moments of the run, seconds apart.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// The traced run replays this fraction of the stream.
const TRACE_SHARE: usize = 8;
/// Admission-answered round trips of the transport probe.
const PINGS: usize = 200;
/// Stream requests sent one at a time for the transport probe.
const SINGLES: usize = 200;
/// Requests of each layer probe.
const PROBE_SAMPLE: usize = 8;
/// Where runs keep their files, relative to the checkout root.
const WORK_DIR: &str = ".bench_build/perfbench";

struct Args {
    server: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --server BIN --workload repeat_hits|new_designs|whatif_sweeps|all \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![workload]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One workload's result.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn main() -> ExitCode {
    // Pin the engine to one thread per caller, as the spawned server is
    // pinned, before anything starts the pool.
    std::env::set_var("SOCTEST_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        match run(workload, &args) {
            Ok(outcome) => outcomes.push((workload, outcome)),
            Err(message) => {
                eprintln!("perfbench: {}: {message}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let prefix = |workload: Workload, name: &str| match args.workloads.len() {
        1 => name.to_string(),
        _ => format!("{}.{name}", workload.name()),
    };
    let mut metrics = Vec::new();
    for (workload, outcome) in &outcomes {
        for &(name, unit, value) in &outcome.metrics {
            if !value.is_finite() {
                eprintln!("perfbench: {}: {name} is not finite", workload.name());
                return ExitCode::FAILURE;
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                prefix(*workload, name)
            ));
        }
    }
    let attempted: usize = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|(_, o)| o.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run's private directory under [`WORK_DIR`], removed when dropped.
struct RunDir {
    root: PathBuf,
}

impl RunDir {
    fn create(workload: Workload, seed: u64) -> Result<RunDir, String> {
        let root =
            Path::new(WORK_DIR).join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(root.join("seeded")).map_err(|e| e.to_string())?;
        Ok(RunDir { root })
    }

    /// The cache directory built from the seed; never served from.
    fn seeded(&self) -> PathBuf {
        self.root.join("seeded")
    }

    /// A fresh copy of the seeded cache directory: draining rewrites the
    /// files, so no two starts may share one.
    fn fresh_copy(&self, index: usize) -> Result<PathBuf, String> {
        let copy = self.root.join(format!("start{index}"));
        std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(self.seeded()).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        Ok(copy)
    }

    /// A relative socket path, well inside the 107-byte limit of Unix
    /// socket names wherever the checkout lives.
    fn socket(&self) -> PathBuf {
        self.root.join("s.sock")
    }

    fn log(&self, index: usize) -> PathBuf {
        self.root.join(format!("server{index}.log"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let requests = workload.requests_per_second() * args.seconds as usize;
    let plan = workload.plan(args.seed, requests);
    let dir = RunDir::create(workload, args.seed)?;
    prime(&plan, &dir.seeded())?;
    let expected = references(&plan)?;
    println!(
        "workload {} seed {} trace {}: {} measured requests, {} warm-up, {} in the seeded cache directory",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        plan.stream.len(),
        plan.warmup.len(),
        plan.prime.len(),
    );
    let outcome = if args.trace {
        layers(workload, &plan, &expected, &dir, args)?
    } else {
        end_to_end(&plan, &expected, &dir, args)?
    };
    for &(name, unit, value) in &outcome.metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    println!(
        "  failed {} of {} ({:.3}%)",
        outcome.failed,
        outcome.attempted,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    Ok(outcome)
}

/// Builds the seeded cache directory: serves the prime requests
/// in-process with `--cache-dir` semantics, so the session's `Bye`
/// persists `rows.v1` and `solutions.v1`.
fn prime(plan: &Plan, dir: &Path) -> Result<(), String> {
    let mut config = ServerConfig::default();
    config.cache_dir = Some(dir.to_path_buf());
    config.queue_capacity = plan.prime.len().max(1);
    let input: String = plan.prime.iter().map(|req| req.wire.as_str()).collect();
    let stats = Server::new(config)
        .serve(input.as_bytes(), std::io::sink())
        .map_err(|e| e.to_string())?;
    if stats.errors > 0 || stats.served as usize != plan.prime.len() {
        return Err(format!(
            "prime pass: {} served, {} errors",
            stats.served, stats.errors
        ));
    }
    Ok(())
}

/// The response bytes an in-process `Engine` gives every checked stream
/// request: one engine per named design, one per inline design, no row
/// store and no cache in between.
fn references(plan: &Plan) -> Result<Expected, String> {
    let mut engines: HashMap<String, Engine> = HashMap::new();
    let mut expected = Expected::new();
    for req in plan.stream.iter().filter(|req| req.checked) {
        if expected.contains_key(&req.key) {
            continue;
        }
        let response = match &req.target {
            Target::Named(name) => {
                if !engines.contains_key(name) {
                    engines.insert(name.clone(), Engine::new(&resolve_named_soc(name)?));
                }
                engines[name].run(&req.request)
            }
            Target::Inline(soc) => Engine::builder_arc(soc.clone()).build().run(&req.request),
            Target::Sent => return Err(format!("{}: checked without its design", req.id)),
        }
        .map_err(|e| format!("{}: the in-process engine fails: {e}", req.id))?;
        let rendered = serde_json::to_string(&response).expect("responses serialise");
        expected.insert(req.key.clone(), rendered);
    }
    Ok(expected)
}

/// Starts a server over a fresh copy of the seeded cache directory,
/// connects `connections` clients and answers the warm-up pass. Returns
/// the server, its clients and the seconds from spawn to the last
/// warm-up reply.
fn set_up(
    plan: &Plan,
    expected: &Expected,
    dir: &RunDir,
    args: &Args,
    index: usize,
    connections: usize,
) -> Result<(ServerProcess, Vec<Lane>, f64), String> {
    let cache_dir = dir.fresh_copy(index)?;
    let socket = dir.socket();
    let started = Instant::now();
    let mut server = ServerProcess::spawn(&args.server, &socket, &cache_dir, &dir.log(index))
        .map_err(|e| format!("cannot start {}: {e}", args.server.display()))?;
    let mut lanes = (0..connections)
        .map(|_| server.connect(&socket))
        .collect::<std::io::Result<Vec<Lane>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let warm = closed_loop(&mut lanes, &plan.warmup, WINDOW, expected);
    let seconds = started.elapsed().as_secs_f64();
    if let Some(why) = warm.failures.first() {
        return Err(format!("warm-up failed: {why}"));
    }
    Ok((server, lanes, seconds))
}

/// A measured pass during which the machine lost more than this share of
/// its CPU ticks to steal ran beside a noisy neighbour: the stream is
/// measured again, once, on a fresh set-up, and the pass with less steal
/// is reported. Steal normally stays under 2% on the 2-vCPU VM the
/// benchmark is tuned on; a neighbour's burst lasting tens of seconds
/// takes 7–11% and nearly doubles `latency_p99_ms`.
const STEAL_LIMIT: f64 = 0.03;

/// One measured pass over the stream, with the readings around it.
struct Measured {
    pass: PassReport,
    steal_share: f64,
    server_cpu_ms: f64,
    peak_kib: u64,
    bye: ServerStats,
}

/// Sends the stream to a set-up server, reads its CPU time and peak
/// resident set, collects the `Bye` of every connection and stops it.
fn measure(
    plan: &Plan,
    expected: &Expected,
    server: ServerProcess,
    mut lanes: Vec<Lane>,
) -> Result<Measured, String> {
    let pid = server.pid();
    let machine_before = machine_ticks().map_err(|e| e.to_string())?;
    let cpu_before = cpu_ticks(pid).map_err(|e| e.to_string())?;
    let pass = closed_loop(&mut lanes, &plan.stream, WINDOW, expected);
    let cpu_after = cpu_ticks(pid).map_err(|e| e.to_string())?;
    let peak_kib = peak_rss_kib(pid).map_err(|e| e.to_string())?;
    let machine_after = machine_ticks().map_err(|e| e.to_string())?;
    let mut byes = lanes
        .iter_mut()
        .map(Lane::goodbye)
        .collect::<Result<Vec<_>, _>>()?;
    drop(lanes);
    server.stop().map_err(|e| e.to_string())?;
    let steal = machine_after.0 - machine_before.0;
    let ticks = (machine_after.1 - machine_before.1).max(1);
    Ok(Measured {
        pass,
        steal_share: steal as f64 / ticks as f64,
        server_cpu_ms: (cpu_after - cpu_before) as f64 / TICKS_PER_SECOND * 1e3,
        peak_kib,
        bye: byes.pop().expect("one Bye per connection"),
    })
}

fn end_to_end(
    plan: &Plan,
    expected: &Expected,
    dir: &RunDir,
    args: &Args,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut passes: Vec<Measured> = Vec::new();
    let mut index = 0;
    while passes.len() < 2 {
        let (server, lanes, seconds) = set_up(plan, expected, dir, args, index, CONNECTIONS)?;
        index += 1;
        setup_s.push(seconds);
        if index < SETUPS_BEFORE {
            drop(lanes);
            server.stop().map_err(|e| e.to_string())?;
            continue;
        }
        let measured = measure(plan, expected, server, lanes)?;
        let noisy = measured.steal_share > STEAL_LIMIT;
        passes.push(measured);
        if !noisy {
            break;
        }
    }
    for _ in 0..SETUPS_AFTER {
        let (server, lanes, seconds) = set_up(plan, expected, dir, args, index, CONNECTIONS)?;
        index += 1;
        setup_s.push(seconds);
        drop(lanes);
        server.stop().map_err(|e| e.to_string())?;
    }
    println!(
        "  set-ups {:?} s",
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    );
    for (index, measured) in passes.iter().enumerate() {
        let bye = &measured.bye;
        println!(
            "  pass {}: latency samples {}; cpu steal {:.2}% of ticks; Bye: sessions_created {}, \
             result_hits {}, cells_computed {}, evictions {}",
            index + 1,
            measured.pass.latencies_ms.len(),
            100.0 * measured.steal_share,
            bye.sessions_created,
            bye.cache.result_hits,
            bye.cache.cells_computed,
            bye.evictions,
        );
        for why in measured.pass.failures.iter().take(5) {
            println!("  FAILED {why}");
        }
    }
    let attempted = plan.stream.len() * passes.len();
    let verified: usize = passes.iter().map(|measured| measured.pass.verified).sum();
    let best = passes
        .iter()
        .min_by(|a, b| a.steal_share.total_cmp(&b.steal_share))
        .expect("at least one pass");
    let pass = &best.pass;
    let nan = f64::NAN;
    Ok(Outcome {
        attempted,
        failed: attempted - verified,
        metrics: vec![
            (
                "throughput_rps",
                "1/s",
                pass.verified as f64 / pass.wall.as_secs_f64(),
            ),
            (
                "latency_p50_ms",
                "ms",
                median(&pass.latencies_ms).unwrap_or(nan),
            ),
            (
                "latency_p99_ms",
                "ms",
                quantile(&pass.latencies_ms, 0.99).unwrap_or(nan),
            ),
            (
                "server_cpu_ms_per_req",
                "ms",
                best.server_cpu_ms / pass.latencies_ms.len().max(1) as f64,
            ),
            ("rss_peak_mb", "MB", best.peak_kib as f64 * 1024.0 / 1e6),
            ("setup_s", "s", median(&setup_s).expect("set-ups ran")),
        ],
    })
}

/// Distinct checked stream requests for the layer probes.
fn probe_sample(plan: &Plan) -> Vec<&Req> {
    let mut seen = std::collections::HashSet::new();
    plan.stream
        .iter()
        .filter(|req| req.checked && seen.insert(req.key.as_str()))
        .take(PROBE_SAMPLE)
        .collect()
}

fn layers(
    workload: Workload,
    plan: &Plan,
    expected: &Expected,
    dir: &RunDir,
    args: &Args,
) -> Result<Outcome, String> {
    let replayed = &plan.stream[..(plan.stream.len() / TRACE_SHARE).max(1)];
    let singles = &replayed[..SINGLES.min(replayed.len())];

    // The socket probes, on an otherwise idle server after set-up. Each
    // single request on the socket is followed by the same request on an
    // in-process stack that mirrors the server's state, so the difference
    // is the transport's share, untouched by drifts in machine speed.
    let (server, mut lanes, _) = set_up(plan, expected, dir, args, 0, 1)?;
    let mut rtt_us = Vec::with_capacity(PINGS);
    for index in 0..PINGS {
        rtt_us.push(lanes[0].ping(&format!("ping{index}"))?.as_secs_f64() * 1e6);
    }
    let mirror = Stack::load(&dir.fresh_copy(1)?)?;
    for req in &plan.warmup {
        replay::serve_plain(&mirror, req, expected)?;
    }
    let mut overhead_us = Vec::with_capacity(singles.len());
    for req in singles {
        let socket_ms = client::round_trip(&mut lanes[0], req, expected)?;
        let in_process = replay::serve_plain(&mirror, req, expected)?;
        overhead_us.push(socket_ms * 1e3 - in_process.as_secs_f64() * 1e6);
    }
    lanes[0].goodbye()?;
    drop(lanes);
    server.stop().map_err(|e| e.to_string())?;
    let mut load_ms = vec![(mirror.cache_load_ms, mirror.store_load_ms)];
    drop(mirror);

    let plain = Stack::load(&dir.fresh_copy(2)?)?;
    let traced_stack = Stack::load(&dir.fresh_copy(3)?)?;
    let run = replay::replay(&plain, &traced_stack, &plan.warmup, replayed, expected);
    let tail = &replayed[replayed.len().saturating_sub(8)..];
    let lookups = replay::probe_lookups(&traced_stack, tail)?;
    let rows_loaded = traced_stack.rows_loaded;
    for stack in [plain, traced_stack] {
        load_ms.push((stack.cache_load_ms, stack.store_load_ms));
    }
    let spans_path = Path::new(WORK_DIR).join(format!("spans-{}.ndjson", workload.name()));
    replay::write_spans(&spans_path, &run.spans).map_err(|e| e.to_string())?;
    let probes = replay::probe(&probe_sample(plan), expected)?;

    let file_kib = std::fs::metadata(dir.seeded().join(SOLUTIONS_FILE))
        .map(|meta| meta.len() as f64 / 1024.0)
        .unwrap_or(0.0);
    for why in run.failures.iter().take(5) {
        println!("  FAILED {why}");
    }
    let metrics = layer_metrics(LayerInputs {
        replayed,
        run: &run,
        overhead_us: &overhead_us,
        rtt_us: &rtt_us,
        lookups_us: &lookups,
        load_ms: &load_ms,
        probes: &probes,
        file_kib,
        rows_loaded,
    });
    println!("  spans written to {}", spans_path.display());
    Ok(Outcome {
        attempted: 2 * (plan.warmup.len() + replayed.len()) + singles.len() + PINGS,
        failed: run.failures.len(),
        metrics,
    })
}

struct LayerInputs<'a> {
    replayed: &'a [Req],
    run: &'a Replay,
    overhead_us: &'a [f64],
    rtt_us: &'a [f64],
    lookups_us: &'a [f64],
    /// `(cache, store)` load times of every stack loaded, in ms.
    load_ms: &'a [(f64, f64)],
    probes: &'a replay::Probes,
    file_kib: f64,
    rows_loaded: u64,
}

/// Mean of `values`, or of `fallback` when the replay made no such call.
fn mean_or(values: &[f64], fallback: &[f64]) -> f64 {
    mean(values).or_else(|| mean(fallback)).unwrap_or(f64::NAN)
}

fn layer_metrics(input: LayerInputs<'_>) -> Vec<(&'static str, &'static str, f64)> {
    use replay::*;
    let LayerInputs {
        replayed,
        run: traced,
        overhead_us,
        rtt_us,
        lookups_us,
        load_ms,
        probes,
        file_kib,
        rows_loaded,
    } = input;
    let requests = replayed.len() as f64;
    let selfs = self_times(&traced.spans);
    let first = traced.warmup as u32;
    let fact = |span: &Span| traced.facts[span.request as usize];
    // (span, self ns) pairs of the stream part, and of the whole replay.
    let all: Vec<(&Span, f64)> = traced
        .spans
        .iter()
        .zip(selfs.iter().map(|&ns| ns as f64))
        .collect();
    let stream: Vec<(&Span, f64)> = all
        .iter()
        .copied()
        .filter(|(span, _)| span.request >= first)
        .collect();
    let per_request_us = |name: &str| {
        stream
            .iter()
            .filter(|(span, _)| span.name == name)
            // Folded from +0.0: `sum` of no spans is -0.0.
            .fold(0.0, |total, &(_, ns)| total + ns)
            / requests
            / 1e3
    };
    let select = |spans: &[(&Span, f64)], name: &str, keep: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|(span, _)| span.name == name && keep(span))
            .map(|&(_, ns)| ns / 1e3)
            .collect::<Vec<f64>>()
    };
    let warm_lookups = select(&stream, GET_OR_BUILD, &|span| fact(span).warm);
    let builds_us = select(&all, GET_OR_BUILD, &|span| !fact(span).warm);
    let hit = soctest_multisite::service::CacheOutcome::Hit;
    let computed = soctest_multisite::service::CacheOutcome::Computed;
    let hits_us = select(&all, RUN_COALESCED, &|span| fact(span).outcome == hit);
    let misses_us = select(&all, RUN_COALESCED, &|span| fact(span).outcome == computed);
    let engine_us: Vec<f64> = stream
        .iter()
        .filter(|(span, _)| span.name == ENGINE_RUN)
        .map(|(span, _)| span.duration_ns() as f64 / 1e3)
        .collect();
    let roots: Vec<&Span> = traced
        .spans
        .iter()
        .filter(|span| span.name == REQUEST && span.request >= first)
        .collect();
    let root_us: Vec<f64> = roots.iter().map(|s| s.duration_ns() as f64 / 1e3).collect();
    let root_total: f64 = root_us.iter().sum();
    let layer_total: f64 = LAYERS.iter().map(|name| per_request_us(name)).sum::<f64>() * requests;

    let (before, after) = (&traced.before, &traced.after);
    let stream_facts = &traced.facts[traced.warmup..];
    let hits = stream_facts.iter().filter(|f| f.outcome == hit).count();
    let computed_reqs: Vec<&Req> = replayed
        .iter()
        .zip(stream_facts)
        .filter(|(_, f)| f.outcome == computed)
        .map(|(req, _)| req)
        .collect();
    let point_hits = after.cache.point_hits - before.cache.point_hits;
    let point_inserts = after.cache.point_insertions - before.cache.point_insertions;
    let points_per_req = if computed_reqs.is_empty() {
        mean(&probes.points.iter().map(|&p| p as f64).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    } else {
        let plain = computed_reqs.iter().filter(|req| !req.is_sweep()).count();
        (plain as u64 + point_inserts) as f64 / computed_reqs.len() as f64
    };
    let fill_total: f64 = probes.fill_ms.iter().sum();
    let cells_total: u64 = probes.cells.iter().sum();
    let untraced_s = traced.untraced.as_secs_f64();
    let cache_loads: Vec<f64> = load_ms.iter().map(|&(cache, _)| cache).collect();
    let store_loads: Vec<f64> = load_ms.iter().map(|&(_, store)| store).collect();

    print_breakdown(&per_request_us, root_total / requests);
    vec![
        (
            "protocol.client_parse_us",
            "us",
            per_request_us(CLIENT_PARSE),
        ),
        ("protocol.render_response_us", "us", per_request_us(RENDER)),
        (
            "protocol.response_bytes",
            "B",
            traced.reply_bytes as f64 / requests,
        ),
        (
            "protocol.parse_request_us",
            "us",
            per_request_us(PARSE_REQUEST),
        ),
        (
            "protocol.request_bytes",
            "B",
            replayed.iter().map(|req| req.line().len()).sum::<usize>() as f64 / requests,
        ),
        ("soc_model.parse_inline_us", "us", per_request_us(RESOLVE)),
        (
            "registry.lookup_us",
            "us",
            mean_or(&warm_lookups, lookups_us),
        ),
        (
            "registry.build_ms",
            "ms",
            mean(&builds_us).unwrap_or(f64::NAN) / 1e3,
        ),
        (
            "registry.evictions",
            "count",
            (after.registry.evictions - before.registry.evictions) as f64,
        ),
        (
            "tam.fill_ms",
            "ms",
            median(&probes.fill_ms).unwrap_or(f64::NAN),
        ),
        (
            "tam.cells_computed_per_req",
            "count",
            (after.store.cells_computed - before.store.cells_computed) as f64 / requests,
        ),
        (
            "tam.cells_from_store_per_req",
            "count",
            (after.store.cells_served - before.store.cells_served) as f64 / requests,
        ),
        (
            "wrapper.row_us_per_cell",
            "us",
            fill_total * 1e3 / cells_total.max(1) as f64,
        ),
        ("cache.hit_us", "us", mean_or(&hits_us, &probes.hit_us)),
        ("cache.hit_ratio", "ratio", hits as f64 / requests),
        (
            "cache.miss_overhead_us",
            "us",
            mean_or(&misses_us, &probes.miss_us),
        ),
        (
            "cache.point_reuse_ratio",
            "ratio",
            if point_hits + point_inserts == 0 {
                0.0
            } else {
                point_hits as f64 / (point_hits + point_inserts) as f64
            },
        ),
        (
            "cache.evictions",
            "count",
            (after.cache.evictions - before.cache.evictions) as f64,
        ),
        (
            "engine.run_ms",
            "ms",
            mean_or(
                &engine_us,
                &probes
                    .warm_run_ms
                    .iter()
                    .map(|ms| ms * 1e3)
                    .collect::<Vec<_>>(),
            ) / 1e3,
        ),
        ("engine.points_per_req", "count", points_per_req),
        (
            "optimizer.step1_us",
            "us",
            mean(&probes.step1_us).unwrap_or(f64::NAN),
        ),
        (
            "optimizer.step2_us",
            "us",
            mean(&probes.step2_us).unwrap_or(f64::NAN),
        ),
        (
            "cache.load_ms",
            "ms",
            median(&cache_loads).unwrap_or(f64::NAN),
        ),
        (
            "tam.store_load_ms",
            "ms",
            median(&store_loads).unwrap_or(f64::NAN),
        ),
        ("cache.file_kb", "KiB", file_kib),
        ("tam.store_rows", "count", rows_loaded as f64),
        ("transport.rtt_us", "us", median(rtt_us).unwrap_or(f64::NAN)),
        (
            "transport.overhead_us",
            "us",
            median(overhead_us).unwrap_or(f64::NAN),
        ),
        (
            "trace.overhead_pct",
            "%",
            (traced.traced.as_secs_f64() - untraced_s) / untraced_s * 100.0,
        ),
        ("replay.request_us", "us", root_total / requests),
        (
            "replay.accounted_pct",
            "%",
            layer_total / root_total * 100.0,
        ),
    ]
}

/// The per-request split of the replayed time by layer self time.
fn print_breakdown(per_request_us: &dyn Fn(&str) -> f64, request_us: f64) {
    println!("  replayed per-request self time ({request_us:.1} us/request):");
    let mut accounted = 0.0;
    for name in replay::LAYERS {
        let us = per_request_us(name);
        accounted += us;
        println!(
            "    {name:<28} {us:>10.1} us {:>6.1}%",
            100.0 * us / request_us
        );
    }
    let glue = request_us - accounted;
    println!(
        "    {:<28} {glue:>10.1} us {:>6.1}%",
        "(between spans)",
        100.0 * glue / request_us
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let spec: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_prefix_of_every_workload_answers_results_in_process() {
        std::env::set_var("SOCTEST_THREADS", "1");
        for workload in Workload::ALL {
            let plan = workload.plan(11, 12);
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join(WORK_DIR)
                .join(format!("test-{}-{}", workload.name(), std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            prime(&plan, &dir).unwrap();
            let expected = references(&plan).unwrap();
            let plain = Stack::load(&dir).unwrap();
            let traced = Stack::load(&dir).unwrap();
            let run = replay::replay(&plain, &traced, &plan.warmup, &plan.stream, &expected);
            std::fs::remove_dir_all(&dir).unwrap();
            assert!(
                run.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                run.failures
            );
            assert_eq!(run.facts.len(), plan.warmup.len() + plan.stream.len());
        }
    }
}
