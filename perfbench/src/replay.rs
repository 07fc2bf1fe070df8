//! The traced run: a single-threaded, in-process replay of a workload's
//! seeded frames through each layer's public functions, in the order
//! `Server::execute` calls them, with a span around every call. The
//! program itself is not instrumented; the spans live here.

use crate::client::{verify, Expected};
use crate::workload::{Req, Target};
use soctest_multisite::engine::{Engine, OptimizeResponse};
use soctest_multisite::optimizer::optimize_with_table;
use soctest_multisite::service::{
    parse_client_frame, render_server_frame, resolve_named_soc, CacheOutcome, CancelToken,
    ClientFrame, RegistryStats, ResultFrame, ServerConfig, ServerFrame, SessionRegistry, SocSpec,
    SolutionCache, SolutionCacheStats, ROWS_FILE, SOLUTIONS_FILE,
};
use soctest_soc_model::parser::parse_soc;
use soctest_soc_model::Soc;
use soctest_tam::step1::design_with_table;
use soctest_tam::{max_tam_width, LazyTimeTable, RowStore, RowStoreStats};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The root span of one replayed request.
pub const REQUEST: &str = "request";
/// `parse_client_frame`.
pub const PARSE_REQUEST: &str = "protocol.parse_request";
/// `parse_soc` for an inline SOC, `resolve_named_soc` for a named one.
pub const RESOLVE: &str = "soc_model.resolve";
/// `SessionRegistry::get_or_build`.
pub const GET_OR_BUILD: &str = "registry.get_or_build";
/// `SolutionCache::run_coalesced`; its children are the compute closure.
pub const RUN_COALESCED: &str = "cache.run_coalesced";
/// `Engine::run_with_cancel`, inside the compute closure.
pub const ENGINE_RUN: &str = "engine.run_with_cancel";
/// `SessionRegistry::reassess`, inside the compute closure.
pub const REASSESS: &str = "registry.reassess";
/// `render_server_frame` of the `Result` frame.
pub const RENDER: &str = "protocol.render_response";
/// The client's `serde_json::from_str::<ServerFrame>` of the reply.
pub const CLIENT_PARSE: &str = "protocol.client_parse";

/// Every layer span under [`REQUEST`], in call order.
pub const LAYERS: [&str; 8] = [
    PARSE_REQUEST,
    RESOLVE,
    GET_OR_BUILD,
    RUN_COALESCED,
    ENGINE_RUN,
    REASSESS,
    RENDER,
    CLIENT_PARSE,
];

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; when disabled, every call is a plain call
/// with no clock read, which is the untraced replay.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    request: Cell<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(if enabled { capacity } else { 0 })),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    fn nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                name,
                request: self.request.get(),
                parent: self.open.borrow().last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            self.open.borrow_mut().push(id);
            id
        };
        self.spans.borrow_mut()[id as usize].start_ns = self.nanos();
        let out = f();
        let end = self.nanos();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, inner)| span.duration_ns().saturating_sub(inner))
        .collect()
}

/// Writes `spans` as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// The server's shared state, built in-process from a cache directory
/// exactly as `Server::new` builds it: solution cache first, then rows.
pub struct Stack {
    pub registry: SessionRegistry,
    pub cache: Arc<SolutionCache>,
    pub store: Arc<RowStore>,
    pub cache_load_ms: f64,
    pub store_load_ms: f64,
    /// Rows resident after the load.
    pub rows_loaded: u64,
}

impl Stack {
    pub fn load(dir: &Path) -> Result<Stack, String> {
        let config = ServerConfig::default();
        let cache = Arc::new(SolutionCache::new(
            config.max_result_entries,
            config.max_result_bytes,
        ));
        let started = Instant::now();
        cache
            .load_if_present(&dir.join(SOLUTIONS_FILE))
            .map_err(|e| e.to_string())?;
        let cache_load_ms = millis(started.elapsed());
        let store = Arc::new(RowStore::new());
        let started = Instant::now();
        store
            .load_if_present(&dir.join(ROWS_FILE))
            .map_err(|e| e.to_string())?;
        let store_load_ms = millis(started.elapsed());
        let rows_loaded = store.stats().rows;
        let registry = SessionRegistry::with_row_store(
            config.max_sessions,
            config.max_table_bytes,
            Arc::clone(&store),
        )
        .with_solution_cache(Arc::clone(&cache));
        Ok(Stack {
            registry,
            cache,
            store,
            cache_load_ms,
            store_load_ms,
            rows_loaded,
        })
    }
}

pub fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn micros(nanos: f64) -> f64 {
    nanos / 1e3
}

/// What serving one replayed request decided.
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    pub warm: bool,
    pub outcome: CacheOutcome,
}

/// Counters read before and after the stream part of a replay — never
/// per request: `RowStore::stats` walks every resident row.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub cache: SolutionCacheStats,
    pub store: RowStoreStats,
    pub registry: RegistryStats,
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        Counters {
            cache: stack.cache.stats(),
            store: stack.store.stats(),
            registry: stack.registry.stats(),
        }
    }
}

/// One lockstep replay of the warm-up pass and a stream prefix.
pub struct Replay {
    pub spans: Vec<Span>,
    /// One entry per replayed request, warm-up first.
    pub facts: Vec<Facts>,
    pub warmup: usize,
    /// Time the stream part took untraced, and traced.
    pub untraced: Duration,
    pub traced: Duration,
    /// Bytes of the stream part's reply lines.
    pub reply_bytes: u64,
    /// Counters of the traced stack around the stream part.
    pub before: Counters,
    pub after: Counters,
    pub failures: Vec<String>,
}

/// Replays `warmup` then `stream` on two stacks, each freshly loaded from
/// the seeded cache directory: every request is served once untraced on
/// `plain` and once traced on `traced`, in alternating order, so a drift
/// in machine speed or a warming cache weighs on both alike. Every reply
/// is checked like the socket client checks it.
pub fn replay(
    plain: &Stack,
    traced: &Stack,
    warmup: &[Req],
    stream: &[Req],
    expected: &Expected,
) -> Replay {
    let total = warmup.len() + stream.len();
    let off = Tracer::new(false, 0);
    let tracer = Tracer::new(true, total * (LAYERS.len() + 1));
    let mut facts = Vec::with_capacity(total);
    let mut failures = Vec::new();
    let mut before = None;
    let mut reply_bytes = 0;
    let (mut untraced_time, mut traced_time) = (Duration::ZERO, Duration::ZERO);
    for (index, req) in warmup.iter().chain(stream).enumerate() {
        let in_stream = index >= warmup.len();
        if index == warmup.len() {
            before = Some(Counters::read(traced));
        }
        tracer
            .request
            .set(u32::try_from(index).expect("fewer than 2^32 requests"));
        let run_plain = || {
            let started = Instant::now();
            let served = serve_one(plain, &off, req);
            (served, started.elapsed())
        };
        let run_traced = || {
            let started = Instant::now();
            let served = tracer.span(REQUEST, || serve_one(traced, &tracer, req));
            (served, started.elapsed())
        };
        let ((plain_served, plain_took), (traced_served, traced_took)) = if index % 2 == 0 {
            let first = run_plain();
            (first, run_traced())
        } else {
            let first = run_traced();
            (run_plain(), first)
        };
        if in_stream {
            untraced_time += plain_took;
            traced_time += traced_took;
        }
        if let Err(why) = check(req, plain_served, expected) {
            failures.push(why);
        }
        match check(req, traced_served, expected) {
            Ok((bytes, fact)) => {
                if in_stream {
                    reply_bytes += bytes as u64;
                }
                facts.push(fact);
            }
            Err(why) => {
                failures.push(why);
                facts.push(Facts {
                    warm: false,
                    outcome: CacheOutcome::Computed,
                });
            }
        }
    }
    let after = Counters::read(traced);
    Replay {
        spans: tracer.into_spans(),
        facts,
        warmup: warmup.len(),
        untraced: untraced_time,
        traced: traced_time,
        reply_bytes,
        before: before.unwrap_or(after),
        after,
        failures,
    }
}

/// Verifies one served request; returns its reply length and facts.
fn check(
    req: &Req,
    served: Result<(String, ServerFrame, Facts), String>,
    expected: &Expected,
) -> Result<(usize, Facts), String> {
    let (reply, parsed, fact) = served.map_err(|why| format!("{}: {why}", req.id))?;
    verify(req, &reply, Ok(parsed), expected)?;
    Ok((reply.len(), fact))
}

/// Serves `req` untraced on `stack` and checks the reply; returns how
/// long serving took.
pub fn serve_plain(stack: &Stack, req: &Req, expected: &Expected) -> Result<Duration, String> {
    let started = Instant::now();
    let served = serve_one(stack, &Tracer::new(false, 0), req);
    let took = started.elapsed();
    check(req, served, expected).map(|_| took)
}

/// One request through the layers, as `Server::execute` and the
/// connection writer run them, then the client's parse of the reply.
fn serve_one(
    stack: &Stack,
    tracer: &Tracer,
    req: &Req,
) -> Result<(String, ServerFrame, Facts), String> {
    let frame = match tracer.span(PARSE_REQUEST, || parse_client_frame(req.line()))? {
        ClientFrame::Optimize(frame) => frame,
        other => return Err(format!("not an Optimize frame: {other:?}")),
    };
    let soc = tracer.span(RESOLVE, || resolve(&frame.soc))?;
    let handle = tracer
        .span(GET_OR_BUILD, || stack.registry.get_or_build(&soc))
        .map_err(|e| e.to_string())?;
    let token = CancelToken::new();
    let (outcome, response) = tracer
        .span(RUN_COALESCED, || {
            stack
                .cache
                .run_coalesced(handle.key, &frame.request, &token, || {
                    let served = tracer.span(ENGINE_RUN, || {
                        handle.engine.run_with_cancel(&frame.request, &token)
                    });
                    tracer.span(REASSESS, || {
                        stack.registry.reassess(handle.key, &handle.canonical)
                    });
                    served
                })
        })
        .map_err(|e| e.to_string())?;
    let reply = tracer.span(RENDER, || {
        render_server_frame(&ServerFrame::Result(ResultFrame {
            request_id: frame.request_id,
            warm: handle.warm,
            cached: outcome.is_cached(),
            response,
            stats: None,
        }))
    });
    let parsed = tracer
        .span(CLIENT_PARSE, || serde_json::from_str::<ServerFrame>(&reply))
        .map_err(|e| e.to_string())?;
    Ok((
        reply,
        parsed,
        Facts {
            warm: handle.warm,
            outcome,
        },
    ))
}

fn resolve(spec: &SocSpec) -> Result<Soc, String> {
    match spec {
        SocSpec::Inline(text) => parse_soc(text).map_err(|e| e.to_string()),
        SocSpec::Named(name) => resolve_named_soc(name),
    }
}

/// The SOC a generated request targets.
pub fn target_soc(target: &Target) -> Result<Arc<Soc>, String> {
    match target {
        Target::Named(name) => resolve_named_soc(name).map(Arc::new),
        Target::Inline(soc) => Ok(Arc::clone(soc)),
        Target::Sent => Err("the design was dropped after its frame was rendered".to_string()),
    }
}

/// Direct calls of single layers on a sample of the workload's own
/// requests, for the layer metrics the replayed stream cannot give.
#[derive(Debug, Default)]
pub struct Probes {
    /// Cold run minus warm rerun of one request on a store-less engine:
    /// the table fill through the wrapper row kernel.
    pub fill_ms: Vec<f64>,
    /// Cells the cold runs computed.
    pub cells: Vec<u64>,
    /// The warm reruns.
    pub warm_run_ms: Vec<f64>,
    /// Sweep points of the sampled requests.
    pub points: Vec<usize>,
    /// `design_with_table` on a warm table.
    pub step1_us: Vec<f64>,
    /// `optimize_with_table` minus Step 1 on the same table.
    pub step2_us: Vec<f64>,
    /// `run_coalesced` self time on a miss (probe plus insert).
    pub miss_us: Vec<f64>,
    /// `run_coalesced` on the resulting hit.
    pub hit_us: Vec<f64>,
}

/// Repetitions of each optimizer-layer call.
const OPTIMIZER_REPS: usize = 5;

/// Runs every probe on `sample`, whose reference responses are in
/// `expected`.
pub fn probe(sample: &[&Req], expected: &Expected) -> Result<Probes, String> {
    let mut probes = Probes::default();
    let config = ServerConfig::default();
    let cache = SolutionCache::new(config.max_result_entries, config.max_result_bytes);
    for (index, req) in sample.iter().enumerate() {
        let soc = target_soc(&req.target)?;
        let token = CancelToken::new();

        let engine = Engine::builder_arc(Arc::clone(&soc)).build();
        let started = Instant::now();
        engine
            .run_with_cancel(&req.request, &token)
            .map_err(|e| e.to_string())?;
        let cold = started.elapsed();
        let started = Instant::now();
        engine
            .run_with_cancel(&req.request, &token)
            .map_err(|e| e.to_string())?;
        let warm = started.elapsed();
        probes.fill_ms.push(millis(cold.saturating_sub(warm)));
        probes.warm_run_ms.push(millis(warm));
        probes.cells.push(engine.stats().cells_computed as u64);
        probes.points.push(req.points());

        let config = req.request.config;
        let (channels, depth) = (
            config.test_cell.ate.channels,
            config.test_cell.ate.vector_memory_depth,
        );
        let table = LazyTimeTable::new(&soc, max_tam_width(channels));
        optimize_with_table(soc.name(), &table, &config).map_err(|e| e.to_string())?;
        let mut step1 = Vec::new();
        let mut both = Vec::new();
        for _ in 0..OPTIMIZER_REPS {
            let started = Instant::now();
            design_with_table(&table, channels, depth).map_err(|e| e.to_string())?;
            step1.push(started.elapsed().as_nanos() as f64);
            let started = Instant::now();
            optimize_with_table(soc.name(), &table, &config).map_err(|e| e.to_string())?;
            both.push(started.elapsed().as_nanos() as f64);
        }
        let step1 = crate::stats::median(&step1).expect("repetitions ran");
        let both = crate::stats::median(&both).expect("repetitions ran");
        probes.step1_us.push(micros(step1));
        probes.step2_us.push(micros(both - step1));

        let want = expected
            .get(&req.key)
            .ok_or_else(|| format!("{}: no reference response", req.id))?;
        let response: OptimizeResponse = serde_json::from_str(want).map_err(|e| e.to_string())?;
        let soc_key = index as u64;
        let mut inner = Duration::ZERO;
        let started = Instant::now();
        cache
            .run_coalesced(soc_key, &req.request, &token, || {
                let started = Instant::now();
                let copy = response.clone();
                inner = started.elapsed();
                Ok(copy)
            })
            .map_err(|e| e.to_string())?;
        probes.miss_us.push(micros(
            started.elapsed().saturating_sub(inner).as_nanos() as f64
        ));
        let started = Instant::now();
        let (outcome, _) = cache
            .run_coalesced(soc_key, &req.request, &token, || {
                Err(soctest_multisite::OptimizeError::internal("probe must hit"))
            })
            .map_err(|e| e.to_string())?;
        probes
            .hit_us
            .push(micros(started.elapsed().as_nanos() as f64));
        if outcome != CacheOutcome::Hit {
            return Err(format!("{}: cache probe did not hit", req.id));
        }
    }
    Ok(probes)
}

/// Warm `get_or_build` of requests whose sessions are still resident
/// after a replay, in microseconds.
pub fn probe_lookups(stack: &Stack, reqs: &[Req]) -> Result<Vec<f64>, String> {
    let mut lookups = Vec::new();
    for req in reqs {
        let soc = match parse_client_frame(req.line())? {
            ClientFrame::Optimize(frame) => resolve(&frame.soc)?,
            other => return Err(format!("not an Optimize frame: {other:?}")),
        };
        let started = Instant::now();
        let handle = stack
            .registry
            .get_or_build(&soc)
            .map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if handle.warm {
            lookups.push(micros(elapsed.as_nanos() as f64));
        }
    }
    Ok(lookups)
}
