//! The streaming optimizer server: reads [`ClientFrame`] lines, answers
//! [`ServerFrame`] lines, in admission order.
//!
//! Since the transport subsystem landed, the server core is
//! *connection-shaped*: all shared state — the session registry, the
//! solution cache, the row store, and one bounded admission queue —
//! lives on the [`Server`], while everything stream-scoped lives on a
//! `Connection` (per-connection cancellation tokens, an ordered output
//! window, per-connection `Bye` accounting). The stdin/stdout session of
//! [`Server::serve`] is simply the one-connection special case, and its
//! transcripts are byte-identical to the pre-transport server.
//!
//! Work flows through three roles:
//!
//! * a **reader** per connection parses frames, admits `Optimize`
//!   requests to the shared bounded queue (shedding with a typed
//!   `Overloaded` frame when full), applies `Cancel` frames immediately
//!   to the in-flight token, and closes the connection on EOF or
//!   `Shutdown`;
//! * **executors** (`ServerConfig::executors` of them, shared by every
//!   connection) drain the queue in admission order, serving each
//!   request under [`std::panic::catch_unwind`] isolation so a panicking
//!   request becomes an [`ErrorKind::Internal`] frame while the server
//!   keeps serving;
//! * the connection's **output window** re-orders completions: each
//!   admitted item owns a slot, and a frame leaves the wire only once
//!   every earlier slot of the same connection has — so per-connection
//!   responses arrive in admission order at any executor count, and the
//!   final `Bye` statistics frame leaves once the connection is closed
//!   and drained.
//!
//! Responses are deterministic for a given input stream (modulo
//! wall-clock effects the client asked for — deadlines and cancellation
//! races — and cross-request races the client opted into by running
//! more than one executor).

use crate::engine::RequestTrace;
use crate::error::OptimizeError;
use crate::service::cache::{CacheOutcome, SolutionCache};
use crate::service::cancel::CancelToken;
use crate::service::faults::{FaultPlan, Stage};
use crate::service::protocol::{
    parse_client_frame, render_server_frame, CacheStats, ClientFrame, ConnectionStats, ErrorFrame,
    ErrorKind, OptimizeFrame, Provenance, RequestStats, ResultFrame, ServerFrame, ServerStats,
    SocSpec, TraceSummary,
};
use crate::service::registry::SessionRegistry;
use crate::service::resolve_named_soc;
use soctest_soc_model::parser::parse_soc;
use soctest_soc_model::validate::{Severity, ValidationIssue};
use soctest_soc_model::Soc;
use soctest_tam::{RowStore, StoreError};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// File name of the persisted row store inside
/// [`ServerConfig::cache_dir`] (the extension names the on-disk format
/// version).
pub const ROWS_FILE: &str = "rows.v1";

/// File name of the persisted solution cache inside
/// [`ServerConfig::cache_dir`] — every *successful* whole-request and
/// sweep-point response, in the same checksummed envelope format as
/// `rows.v1`. Loaded at startup and saved whenever the row store is, so
/// a restarted server answers repeat requests as cache hits without
/// recomputing a single cell.
pub const SOLUTIONS_FILE: &str = "solutions.v1";

/// The default [`ServerConfig::max_store_bytes`]: 16 MiB of row charge,
/// about 50,000 rows of ITC'02-sized cores.
pub const DEFAULT_MAX_STORE_BYTES: u64 = 16 * 1024 * 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Maximum number of admitted-but-unclaimed requests across all
    /// connections; an `Optimize` frame arriving with the queue full is
    /// shed with [`ErrorKind::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum number of warm engine sessions resident at once.
    pub max_sessions: usize,
    /// Maximum bytes of charged table memory across all resident
    /// sessions (the LRU evicts past either cap, always sparing the
    /// hottest session).
    pub max_table_bytes: u64,
    /// Maximum entries in the exact-hit solution cache.
    pub max_result_entries: usize,
    /// Maximum bytes charged to the solution cache (canonical keys plus
    /// rendered responses; the LRU evicts past either cap, sparing the
    /// hottest entry).
    pub max_result_bytes: u64,
    /// When set, the module-row store is loaded from
    /// `<cache_dir>/rows.v1` at startup and saved back at shutdown, so
    /// a restarted server rebuilds zero rows. A missing, corrupt, or
    /// version-mismatched file is a clean miss (a stderr warning, an
    /// empty store), never an error.
    pub cache_dir: Option<PathBuf>,
    /// When set, bounds the module-row store, resident and on disk
    /// alike, in the bytes each row takes in `rows.v1` (`24 + key + 16 ×
    /// cells`). Past the bound the resident store evicts the coldest rows
    /// that no live session's table holds, and recomputes an evicted row
    /// bit-identically on its next use; a save of `<cache_dir>/rows.v1`
    /// drops the coldest rows (by last touch, an order the file itself
    /// persists) until the file fits. `None` bounds neither. Default:
    /// [`DEFAULT_MAX_STORE_BYTES`] (16 MiB).
    pub max_store_bytes: Option<u64>,
    /// The armed fault plan (empty in production).
    pub faults: FaultPlan,
    /// Trace every request (not only those with the wire `stats` flag),
    /// feeding the in-process [`Server::session_trace`] aggregate —
    /// what `soc-serve --stats-summary` turns into its utilization
    /// report. Off by default: untraced requests skip the epoch
    /// snapshots entirely, keeping the stats-off path zero-cost.
    pub trace_all: bool,
    /// Number of executor workers draining the shared admission queue.
    /// With one executor (the default) requests of a session run
    /// strictly sequentially and transcripts are deterministic; more
    /// executors trade that for throughput across connections —
    /// per-connection response *order* is still admission order, but
    /// warm/provenance flags may race between connections touching the
    /// same SOC.
    pub executors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            max_sessions: 8,
            max_table_bytes: 256 * 1024 * 1024,
            max_result_entries: 256,
            max_result_bytes: 64 * 1024 * 1024,
            cache_dir: None,
            max_store_bytes: Some(DEFAULT_MAX_STORE_BYTES),
            faults: FaultPlan::none(),
            trace_all: false,
            executors: 1,
        }
    }
}

/// One admitted request, waiting for (or being served by) an executor.
#[derive(Debug)]
struct Job {
    frame: OptimizeFrame,
    token: CancelToken,
}

/// One slot of a connection's ordered output window. Every admitted
/// item owns a slot; frames leave the wire strictly in slot order, so
/// per-connection responses keep admission order at any executor count.
#[derive(Debug)]
enum Slot {
    /// Admitted, waiting in the shared run queue for an executor.
    Waiting(Job),
    /// Claimed by an executor, still being served.
    Running,
    /// Decided — either served, or settled at admission time (protocol
    /// errors, shed load). Leaves as soon as every earlier slot has.
    Done(ServerFrame),
}

/// Stream-scoped server state under the connection's state lock.
#[derive(Debug, Default)]
struct ConnState {
    /// The output window; `slots[0]` has sequence number `front_seq`.
    slots: VecDeque<Slot>,
    front_seq: u64,
    /// Cleared on EOF / `Shutdown` / forced drain; once clear and the
    /// window is empty, the `Bye` frame leaves and the connection is
    /// finished.
    open: bool,
    /// `Optimize` frames submitted on this connection (admitted or
    /// shed) — the `requests` count of the `Bye` connection block.
    requests: u64,
    /// The wire aggregate covers only requests that asked for stats,
    /// so stats-off sessions answer a byte-identical `Bye`.
    wire_trace: RequestTrace,
    stats_requests: u64,
}

impl ConnState {
    fn push_done(&mut self, frame: ServerFrame) {
        self.slots.push_back(Slot::Done(frame));
    }
}

/// The connection's output half, under its own lock: frames are written
/// (and counted) only while this lock is held, which is what serialises
/// multi-executor completions into one byte stream. Writes run on
/// whichever thread flushes (usually an executor), so socket sinks are
/// given a write timeout by the transport — a client that stops reading
/// turns into a timed-out write here, which marks the sink dead instead
/// of parking the executor pool behind one connection.
struct ConnWriter {
    sink: Box<dyn Write + Send>,
    served: u64,
    errors: u64,
    internal_errors: u64,
    /// First write error; later frames are counted but not written, so
    /// the session still drains and `wait_finished` can report it.
    error: Option<std::io::Error>,
    /// Set once the `Bye` frame has left (or was skipped on a dead
    /// sink); the connection is complete.
    finished: bool,
    /// Set when the transport's drain gives up on a stuck connection
    /// ([`Server::abandon_connection`]): releases waiters that must not
    /// block on a `Bye` that may never leave.
    abandoned: bool,
    /// The `Bye` statistics, recorded when `finished` is set.
    bye: Option<ServerStats>,
}

impl ConnWriter {
    fn new(sink: Box<dyn Write + Send>) -> Self {
        ConnWriter {
            sink,
            served: 0,
            errors: 0,
            internal_errors: 0,
            error: None,
            finished: false,
            abandoned: false,
            bye: None,
        }
    }

    fn write_frame(&mut self, frame: &ServerFrame) {
        match frame {
            ServerFrame::Result(_) => self.served += 1,
            ServerFrame::Error(error) => {
                self.errors += 1;
                if error.kind == ErrorKind::Internal {
                    self.internal_errors += 1;
                }
            }
            ServerFrame::Bye(_) => {}
        }
        if self.error.is_some() {
            return;
        }
        // One write per frame: each write call wakes the client.
        let mut line = render_server_frame(frame);
        line.push('\n');
        let attempt = self
            .sink
            .write_all(line.as_bytes())
            .and_then(|()| self.sink.flush());
        if let Err(error) = attempt {
            self.error = Some(error);
        }
    }
}

/// One NDJSON session: the stdin/stdout stream of [`Server::serve`], or
/// one accepted socket of the transport listener. Shared between the
/// connection's reader, every executor, and (in socket mode) the drain
/// logic, hence the `Arc` and the three locks (state, tokens, writer —
/// see the field docs for what each guards).
pub(crate) struct Connection {
    /// Accept-order ordinal in socket mode; `0` for the stdin session.
    id: u64,
    /// Whether the `Bye` frame carries a [`ConnectionStats`] block
    /// (socket mode). The stdin session omits it, staying byte-identical
    /// to the pre-transport server.
    wire_identity: bool,
    /// Whether this connection's `Bye` persists the row store (stdin
    /// mode; the transport saves once at listener drain instead, so N
    /// connections don't write the file N times).
    persist_on_bye: bool,
    state: Mutex<ConnState>,
    /// Cancellation tokens of in-flight (queued or running) requests of
    /// this connection, keyed by request id; entries are removed when
    /// the request's frame is decided, so `Cancel` for a finished id
    /// answers [`ErrorKind::UnknownRequest`]. Per-connection, so one
    /// client cannot cancel another's requests.
    tokens: Mutex<HashMap<String, CancelToken>>,
    writer: Mutex<ConnWriter>,
    /// Signalled (with the writer lock) when `finished` flips.
    finished_cv: Condvar,
}

impl Connection {
    /// The accept-order ordinal (0 for the stdin session).
    pub(crate) fn ordinal(&self) -> u64 {
        self.id
    }
}

impl fmt::Debug for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connection").field("id", &self.id).finish()
    }
}

/// The shared bounded admission queue: `(connection, slot)` pairs in
/// global admission order, drained by the executor pool.
#[derive(Debug, Default)]
struct RunQueue {
    entries: VecDeque<(Arc<Connection>, u64)>,
    /// Set when the serving scope ends; idle executors exit.
    closed: bool,
}

/// The streaming multi-SOC optimizer service. See the
/// [module docs](self) and [`Server::serve`].
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    registry: SessionRegistry,
    /// The exact-hit `(SOC, canonical request) → response` cache with
    /// in-flight coalescing, shared with the registry so every engine's
    /// sweep points read and feed the same namespace; persisted to
    /// [`ServerConfig::cache_dir`] when set.
    solutions: Arc<SolutionCache>,
    /// The content-addressed module-row store every session's table
    /// draws from; persisted to [`ServerConfig::cache_dir`] when set.
    row_store: Arc<RowStore>,
    /// Cells merged from the on-disk cache at startup.
    store_cells_loaded: u64,
    run_queue: Mutex<RunQueue>,
    run_ready: Condvar,
    /// Merged [`RequestTrace`] of every traced request (wire `stats`
    /// flag or [`ServerConfig::trace_all`]), exposed via
    /// [`Server::session_trace`].
    trace: Mutex<RequestTrace>,
}

/// What [`Server::execute`] hands back to the executor loop: the frame
/// to write, the engine trace when the run was traced, and whether the
/// client asked for wire statistics.
struct Executed {
    frame: ServerFrame,
    trace: Option<RequestTrace>,
    wants_stats: bool,
}

impl Server {
    /// A server with the given knobs, an empty session registry, and a
    /// row store bounded by [`ServerConfig::max_store_bytes`] and warmed
    /// from [`ServerConfig::cache_dir`] when set (a bad cache file
    /// degrades to a cold store, never an error).
    pub fn new(config: ServerConfig) -> Self {
        let row_store = Arc::new(
            config
                .max_store_bytes
                .map_or_else(RowStore::new, RowStore::bounded),
        );
        let solutions = Arc::new(SolutionCache::new(
            config.max_result_entries,
            config.max_result_bytes,
        ));
        let store_cells_loaded = match &config.cache_dir {
            Some(dir) => {
                let faults = &config.faults;
                load_isolated("solution cache", dir, SOLUTIONS_FILE, faults, |path| {
                    solutions.load_if_present(path)
                });
                load_isolated("row cache", dir, ROWS_FILE, faults, |path| {
                    row_store.load_if_present(path)
                })
            }
            None => 0,
        };
        let registry = SessionRegistry::with_row_store(
            config.max_sessions,
            config.max_table_bytes,
            Arc::clone(&row_store),
        )
        .with_faults(config.faults.clone())
        .with_solution_cache(Arc::clone(&solutions));
        Server {
            config,
            registry,
            solutions,
            row_store,
            store_cells_loaded,
            run_queue: Mutex::new(RunQueue::default()),
            run_ready: Condvar::new(),
            trace: Mutex::new(RequestTrace::default()),
        }
    }

    /// The server's configuration (as given to [`Server::new`]).
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server's shared module-row store (one per server, shared by
    /// every session its registry builds, bounded by
    /// [`ServerConfig::max_store_bytes`]).
    pub fn row_store(&self) -> &Arc<RowStore> {
        &self.row_store
    }

    /// The merged [`RequestTrace`] of every traced request served so
    /// far — requests that set the wire `stats` flag, plus all requests
    /// when [`ServerConfig::trace_all`] is on. Includes the
    /// run-specific measurements (wall/CPU time, pool occupancy) that
    /// deliberately stay off the wire.
    pub fn session_trace(&self) -> RequestTrace {
        *lock(&self.trace)
    }

    /// Serves one NDJSON session: reads `input` to EOF (or a `Shutdown`
    /// frame), writes one [`ServerFrame`] line per admitted item in
    /// admission order, ends with a `Bye` frame, and returns the same
    /// statistics. [`ServerConfig::executors`] workers drain the queue
    /// (one by default, which keeps transcripts fully deterministic).
    ///
    /// A read error on `input` is treated as end of stream (the session
    /// still drains and answers `Bye`).
    ///
    /// # Errors
    ///
    /// Only write errors on `output` are fatal.
    pub fn serve<R: BufRead, W: Write + Send + 'static>(
        &self,
        input: R,
        output: W,
    ) -> std::io::Result<ServerStats> {
        let conn = self.open_connection(Box::new(output), 0, false, true);
        thread::scope(|scope| {
            self.reopen_queue();
            let workers: Vec<_> = (0..self.config.executors.max(1))
                .map(|_| scope.spawn(|| self.run_worker()))
                .collect();
            self.run_reader(input, &conn);
            let outcome = self.wait_finished(&conn);
            self.close_queue();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    // Executors isolate request panics; anything escaping
                    // them is a server bug worth surfacing loudly.
                    resume_unwind(payload);
                }
            }
            outcome
        })
    }

    /// Opens one connection over `sink`. The transport passes the accept
    /// ordinal and turns the identity block on; the stdin session of
    /// [`Server::serve`] stays anonymous and persists the row store at
    /// its own `Bye`.
    pub(crate) fn open_connection(
        &self,
        sink: Box<dyn Write + Send>,
        id: u64,
        wire_identity: bool,
        persist_on_bye: bool,
    ) -> Arc<Connection> {
        Arc::new(Connection {
            id,
            wire_identity,
            persist_on_bye,
            state: Mutex::new(ConnState {
                open: true,
                ..ConnState::default()
            }),
            tokens: Mutex::new(HashMap::new()),
            writer: Mutex::new(ConnWriter::new(sink)),
            finished_cv: Condvar::new(),
        })
    }

    /// Reopens the shared run queue for a new serving scope.
    pub(crate) fn reopen_queue(&self) {
        lock(&self.run_queue).closed = false;
    }

    /// Closes the shared run queue; idle executors drain and exit.
    pub(crate) fn close_queue(&self) {
        lock(&self.run_queue).closed = true;
        self.run_ready.notify_all();
    }

    /// The reader loop of one connection: parses lines, admits / sheds /
    /// cancels, closes the connection when the stream ends. A line that
    /// is not UTF-8 answers one line-level protocol error and reading
    /// goes on; only EOF, `Shutdown` or an I/O error ends the stream.
    pub(crate) fn run_reader<R: BufRead>(&self, mut input: R, conn: &Arc<Connection>) {
        let mut buffer = Vec::new();
        loop {
            buffer.clear();
            match input.read_until(b'\n', &mut buffer) {
                Ok(0) | Err(_) => break, // end of stream, or a read error
                Ok(_) => {}
            }
            // Strip `\n` or `\r\n`, as `BufRead::lines` does.
            let mut bytes = buffer.as_slice();
            if let Some(rest) = bytes.strip_suffix(b"\n") {
                bytes = rest.strip_suffix(b"\r").unwrap_or(rest);
            }
            let line = match std::str::from_utf8(bytes) {
                Ok(line) => line,
                Err(err) => {
                    let message = format!("malformed frame: {err}");
                    self.note(conn, ServerFrame::Error(ErrorFrame::protocol(message)));
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_client_frame(line) {
                Ok(ClientFrame::Optimize(frame)) => self.admit(conn, frame),
                Ok(ClientFrame::Cancel { request_id }) => self.cancel(conn, &request_id),
                Ok(ClientFrame::Shutdown) => break,
                Err(message) => {
                    self.note(conn, ServerFrame::Error(ErrorFrame::protocol(message)));
                }
            }
        }
        self.close_connection(conn);
    }

    /// Closes a connection's input side: no more admissions; once the
    /// output window drains, `Bye` leaves. Idempotent (the transport
    /// also calls it when force-draining a connection whose reader
    /// died).
    pub(crate) fn close_connection(&self, conn: &Arc<Connection>) {
        lock(&conn.state).open = false;
        self.flush(conn);
    }

    /// Fails a connection whose reader died outside a request (e.g. an
    /// injected connection-stage panic): notes one typed `Internal`
    /// frame so the client sees *why*, then closes the connection so it
    /// still drains to a well-formed `Bye`.
    pub(crate) fn fail_connection(&self, conn: &Arc<Connection>, message: String) {
        self.note(
            conn,
            ServerFrame::Error(ErrorFrame {
                request_id: None,
                kind: ErrorKind::Internal,
                message,
            }),
        );
        self.close_connection(conn);
    }

    /// Appends an admission-time frame to the output window and flushes
    /// whatever the window allows out.
    fn note(&self, conn: &Arc<Connection>, frame: ServerFrame) {
        lock(&conn.state).push_done(frame);
        self.flush(conn);
    }

    /// Admits one `Optimize` frame: rejects duplicate in-flight ids,
    /// sheds when the shared queue is full, otherwise arms the request's
    /// token (deadline measured from here), claims the next output slot,
    /// and queues the job for the executor pool.
    fn admit(&self, conn: &Arc<Connection>, frame: OptimizeFrame) {
        self.config.faults.fire(Stage::Admission, &frame.request_id);
        let mut tokens = lock(&conn.tokens);
        if tokens.contains_key(&frame.request_id) {
            let note = ServerFrame::Error(ErrorFrame {
                request_id: Some(frame.request_id),
                kind: ErrorKind::Protocol,
                message: "duplicate in-flight request id".to_string(),
            });
            drop(tokens);
            lock(&conn.state).requests += 1;
            self.note(conn, note);
            return;
        }
        // The shed-or-admit decision and both pushes happen under the
        // shared queue lock, so the capacity check is atomic across
        // concurrently admitting connections.
        let mut queue = lock(&self.run_queue);
        let mut state = lock(&conn.state);
        state.requests += 1;
        if queue.entries.len() >= self.config.queue_capacity {
            state.push_done(ServerFrame::Error(ErrorFrame {
                request_id: Some(frame.request_id),
                kind: ErrorKind::Overloaded,
                message: format!(
                    "admission queue full (capacity {}); request shed",
                    self.config.queue_capacity
                ),
            }));
            drop(state);
            drop(queue);
            drop(tokens);
            self.flush(conn);
        } else {
            let token = match frame.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            tokens.insert(frame.request_id.clone(), token.clone());
            let seq = state.front_seq + state.slots.len() as u64;
            state.slots.push_back(Slot::Waiting(Job { frame, token }));
            queue.entries.push_back((Arc::clone(conn), seq));
            drop(state);
            drop(queue);
            drop(tokens);
            self.run_ready.notify_one();
        }
    }

    /// Applies a `Cancel` frame immediately: flips the in-flight token
    /// (the request's own `Cancelled` frame is the acknowledgement), or
    /// notes `UnknownRequest` for an id that is not in flight on this
    /// connection.
    fn cancel(&self, conn: &Arc<Connection>, request_id: &str) {
        let tokens = lock(&conn.tokens);
        match tokens.get(request_id) {
            Some(token) => token.cancel(),
            None => {
                drop(tokens);
                self.note(
                    conn,
                    ServerFrame::Error(ErrorFrame {
                        request_id: Some(request_id.to_string()),
                        kind: ErrorKind::UnknownRequest,
                        message: "no such request in flight".to_string(),
                    }),
                );
            }
        }
    }

    /// One executor worker: claims `(connection, slot)` entries off the
    /// shared queue in admission order until the queue closes.
    pub(crate) fn run_worker(&self) {
        loop {
            let entry = {
                let mut queue = lock(&self.run_queue);
                loop {
                    if let Some(entry) = queue.entries.pop_front() {
                        break entry;
                    }
                    if queue.closed {
                        return;
                    }
                    queue = self
                        .run_ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let (conn, seq) = entry;
            self.serve_slot(&conn, seq);
        }
    }

    /// Serves one claimed slot: runs the request under panic isolation,
    /// records its trace, marks the slot done, and flushes the
    /// connection's output window.
    fn serve_slot(&self, conn: &Arc<Connection>, seq: u64) {
        let job = claim(conn, seq);
        let request_id = job.frame.request_id.clone();
        let executed = self.execute(job);
        lock(&conn.tokens).remove(&request_id);
        if let Some(trace) = &executed.trace {
            let mut session = lock(&self.trace);
            *session = session.merge(trace);
        }
        {
            let mut state = lock(&conn.state);
            if executed.wants_stats {
                state.stats_requests += 1;
                if let Some(trace) = &executed.trace {
                    state.wire_trace = state.wire_trace.merge(trace);
                }
            }
            let index = usize::try_from(seq - state.front_seq).expect("window fits in memory");
            state.slots[index] = Slot::Done(executed.frame);
        }
        self.flush(conn);
    }

    /// Writes every leading `Done` slot of the connection (in slot
    /// order), then the `Bye` frame once the connection is closed and
    /// its window is empty. Pops happen only under the writer lock, so
    /// concurrent flushers (executors, the reader, the drain) serialise
    /// into one correctly ordered byte stream.
    fn flush(&self, conn: &Connection) {
        let mut writer = lock(&conn.writer);
        if writer.finished {
            return;
        }
        loop {
            let mut state = lock(&conn.state);
            match state.slots.front() {
                Some(Slot::Done(_)) => {
                    let Some(Slot::Done(frame)) = state.slots.pop_front() else {
                        unreachable!("front slot just matched Done");
                    };
                    state.front_seq += 1;
                    drop(state);
                    writer.write_frame(&frame);
                }
                // An earlier admission is still in flight: its frame
                // must leave first.
                Some(_) => return,
                None => {
                    if state.open {
                        return;
                    }
                    drop(state);
                    self.write_bye(conn, &mut writer);
                    conn.finished_cv.notify_all();
                    return;
                }
            }
        }
    }

    /// Builds and writes the connection's final `Bye` frame: the
    /// connection-scoped counters, the shared registry/cache statistics
    /// at this moment, and (stdin mode) the persisted row store.
    fn write_bye(&self, conn: &Connection, writer: &mut ConnWriter) {
        let mut stats = ServerStats {
            served: writer.served,
            errors: writer.errors,
            internal_errors: writer.internal_errors,
            ..ServerStats::default()
        };
        let registry = self.registry.stats();
        stats.sessions_created = registry.created;
        stats.session_hits = registry.hits;
        stats.session_misses = registry.misses;
        stats.evictions = registry.evictions;
        // Persist the row store before `Bye` so the saved-row count can
        // ride in the statistics frame.
        let store_rows_saved = if conn.persist_on_bye {
            self.save_store_now()
        } else {
            0
        };
        let solutions = self.solutions.stats();
        stats.cache = CacheStats {
            result_hits: solutions.hits,
            result_misses: solutions.misses,
            coalesced_waits: solutions.coalesced_waits,
            coalesced_served: solutions.coalesced_served,
            result_bytes: solutions.bytes,
            cells_computed: self.row_store.stats().cells_computed,
            store_cells_loaded: self.store_cells_loaded,
            store_rows_saved,
        };
        {
            let state = lock(&conn.state);
            stats.trace = (state.stats_requests > 0).then(|| TraceSummary {
                requests: state.stats_requests,
                cells_built: state.wire_trace.cells_built(),
                cells_inherited: state.wire_trace.table.cells_inherited,
                store_cells_computed: state.wire_trace.store.cells_computed,
            });
            stats.connection = conn.wire_identity.then(|| ConnectionStats {
                id: conn.id,
                requests: state.requests,
            });
        }
        writer.write_frame(&ServerFrame::Bye(stats));
        writer.bye = Some(stats);
        writer.finished = true;
    }

    /// Blocks until the connection's `Bye` has left, then reports the
    /// session outcome exactly as [`Server::serve`] does.
    ///
    /// # Errors
    ///
    /// The first write error of the connection's sink, if any.
    pub(crate) fn wait_finished(&self, conn: &Connection) -> std::io::Result<ServerStats> {
        let mut writer = lock(&conn.writer);
        while !writer.finished {
            writer = conn
                .finished_cv
                .wait(writer)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match writer.error.take() {
            Some(error) => Err(error),
            None => Ok(writer.bye.expect("finished connection recorded its Bye")),
        }
    }

    /// Blocks until the connection's `Bye` has left — or until the
    /// drain abandons the connection — without consuming the outcome.
    /// For the transport's per-connection closer thread, which only
    /// needs the *moment* (the drain collects the outcome via
    /// [`Server::wait_finished`] afterwards). The abandonment arm is
    /// what keeps the closer thread joinable when a connection never
    /// finishes: the wait here must never outlive the drain's own
    /// bounded wait.
    pub(crate) fn await_finished(&self, conn: &Connection) {
        let mut writer = lock(&conn.writer);
        while !writer.finished && !writer.abandoned {
            writer = conn
                .finished_cv
                .wait(writer)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Gives up on a stuck connection: releases every
    /// [`Server::await_finished`] waiter even though the `Bye` has not
    /// (and may never have) left. The transport's drain calls this
    /// after its bounded wait expires, right before shutting the socket
    /// down, so the connection's closer thread stays joinable.
    pub(crate) fn abandon_connection(&self, conn: &Connection) {
        lock(&conn.writer).abandoned = true;
        conn.finished_cv.notify_all();
    }

    /// Waits up to `timeout` for the connection to finish; `true` once
    /// its `Bye` has left.
    pub(crate) fn wait_finished_timeout(&self, conn: &Connection, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut writer = lock(&conn.writer);
        while !writer.finished {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = conn
                .finished_cv
                .wait_timeout(writer, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            writer = guard;
        }
        true
    }

    /// Tightens every in-flight token of the connection to at most
    /// `deadline` — the transport's drain bound: requests that outlive
    /// the grace period answer [`ErrorKind::DeadlineExceeded`] instead
    /// of holding the drain open.
    pub(crate) fn impose_drain_deadline(&self, conn: &Connection, deadline: Instant) {
        for token in lock(&conn.tokens).values() {
            token.impose_deadline(deadline);
        }
    }

    /// Persists the solution cache and the row store now (a persisting
    /// connection's `Bye`, or the transport's drain) and returns the rows
    /// saved; `0` without a configured cache dir.
    pub(crate) fn save_store_now(&self) -> u64 {
        let Some(dir) = &self.config.cache_dir else {
            return 0;
        };
        let faults = &self.config.faults;
        save_isolated("solution cache", dir, SOLUTIONS_FILE, faults, |path| {
            self.solutions.save(path).map(|()| 0)
        });
        // With a byte bound the coldest-touched rows are dropped until
        // the file fits.
        let cap = self.config.max_store_bytes.unwrap_or(u64::MAX);
        save_isolated("row cache", dir, ROWS_FILE, faults, |path| {
            self.row_store.save_capped(path, cap)
        })
    }

    /// Serves one admitted request, converting every failure mode —
    /// typed optimizer errors, cancellation, deadline expiry, and
    /// outright panics — into its frame, and attaching the request's
    /// [`RequestTrace`] when the request (or [`ServerConfig::trace_all`])
    /// asked for one.
    fn execute(&self, job: Job) -> Executed {
        let Job { frame, token } = job;
        let OptimizeFrame {
            request_id,
            soc,
            request,
            stats: wants_stats,
            ..
        } = frame;
        let traced = wants_stats || self.config.trace_all;
        // Cancelled while queued / deadline expired while queued: answer
        // without touching the engine.
        if let Err(error) = token.check() {
            return Executed {
                frame: ServerFrame::Error(ErrorFrame::from_error(request_id, &error)),
                trace: None,
                wants_stats,
            };
        }
        let faults = &self.config.faults;
        // Written by the compute closure when this request leads the
        // computation; stays `None` on cache hits and coalesced waits.
        let trace_slot = Cell::new(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            faults.fire(Stage::Optimize, &request_id);
            let soc = resolve_soc_spec(&soc)?;
            let handle = self.registry.get_or_build(&soc)?;
            // The coalescing seam: an exact `(SOC, canonical request)`
            // hit answers from the cache, an identical in-flight request
            // blocks on its leader, and only a genuine miss runs the
            // engine.
            let (cache_outcome, response) =
                self.solutions
                    .run_coalesced(handle.key, &request, &token, || {
                        let served = if traced {
                            let (served, trace) =
                                handle.engine.run_with_cancel_traced(&request, &token);
                            trace_slot.set(Some(trace));
                            served
                        } else {
                            handle.engine.run_with_cancel(&request, &token)
                        };
                        // Re-charge the session's (possibly grown) table
                        // before inspecting the result, so even failed
                        // runs account.
                        self.registry.reassess(handle.key, &handle.canonical);
                        served
                    })?;
            faults.fire(Stage::Respond, &request_id);
            Ok((handle.warm, cache_outcome, response))
        }));
        let trace = trace_slot.take();
        match outcome {
            Ok(Ok((warm, cache_outcome, response))) => {
                let stats = wants_stats.then(|| {
                    let provenance = match cache_outcome {
                        CacheOutcome::Hit => Provenance::Hit,
                        CacheOutcome::Coalesced => Provenance::Coalesced,
                        CacheOutcome::Computed => Provenance::Computed,
                    };
                    // Served-from-cache requests did no table work: the
                    // deltas are zero by construction, keeping the block
                    // race-deterministic across thread counts.
                    let trace = trace.unwrap_or_default();
                    RequestStats {
                        provenance,
                        cells_built: trace.cells_built(),
                        cells_inherited: trace.table.cells_inherited,
                        store_cells_computed: trace.store.cells_computed,
                        points_reused: trace.points_reused,
                    }
                });
                Executed {
                    frame: ServerFrame::Result(ResultFrame {
                        request_id,
                        warm,
                        cached: cache_outcome.is_cached(),
                        response,
                        stats,
                    }),
                    trace,
                    wants_stats,
                }
            }
            Ok(Err(error)) => Executed {
                frame: ServerFrame::Error(ErrorFrame::from_error(request_id, &error)),
                trace,
                wants_stats,
            },
            Err(payload) => Executed {
                frame: ServerFrame::Error(ErrorFrame {
                    request_id: Some(request_id),
                    kind: ErrorKind::Internal,
                    message: format!("request panicked: {}", panic_message(payload.as_ref())),
                }),
                trace,
                wants_stats,
            },
        }
    }
}

/// Takes the job out of a claimed slot, leaving `Running` behind.
fn claim(conn: &Connection, seq: u64) -> Job {
    let mut state = lock(&conn.state);
    let index = usize::try_from(seq - state.front_seq).expect("window fits in memory");
    match std::mem::replace(&mut state.slots[index], Slot::Running) {
        Slot::Waiting(job) => job,
        other => unreachable!("claimed slot {seq} held {other:?}"),
    }
}

/// Loads the cache file `file` of `dir` with `load`, isolating every
/// failure mode — I/O errors, corruption, and injected store-stage
/// panics — into a stderr warning about the `noun` and a cold start. A
/// missing file is `load`'s to treat as empty. Returns what `load`
/// counted (0 on failure).
fn load_isolated(
    noun: &str,
    dir: &Path,
    file: &str,
    faults: &FaultPlan,
    load: impl FnOnce(&Path) -> Result<u64, StoreError>,
) -> u64 {
    let path = dir.join(file);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        faults.fire(Stage::Store, "load");
        load(&path)
    }));
    match attempt {
        Ok(Ok(count)) => count,
        Ok(Err(error)) => {
            eprintln!(
                "warning: ignoring {noun} {}: {error}; starting cold",
                path.display()
            );
            0
        }
        Err(payload) => {
            eprintln!(
                "warning: {noun} load panicked: {}; starting cold",
                panic_message(payload.as_ref())
            );
            0
        }
    }
}

/// Saves the cache file `file` into `dir` (created if absent) with
/// `save`, with the isolation of [`load_isolated`]: a failed save costs
/// the cache, not the session. Returns what `save` counted (0 on
/// failure).
fn save_isolated(
    noun: &str,
    dir: &Path,
    file: &str,
    faults: &FaultPlan,
    save: impl FnOnce(&Path) -> std::io::Result<u64>,
) -> u64 {
    let path = dir.join(file);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        faults.fire(Stage::Store, "save");
        std::fs::create_dir_all(dir)?;
        save(&path)
    }));
    match attempt {
        Ok(Ok(count)) => count,
        Ok(Err(error)) => {
            eprintln!("warning: failed to save {noun} {}: {error}", path.display());
            0
        }
        Err(payload) => {
            eprintln!(
                "warning: {noun} save panicked: {}; cache not written",
                panic_message(payload.as_ref())
            );
            0
        }
    }
}

/// Resolves the SOC a request targets; every failure is a typed
/// [`OptimizeError::InvalidSoc`].
fn resolve_soc_spec(spec: &SocSpec) -> Result<Soc, OptimizeError> {
    match spec {
        SocSpec::Inline(text) => {
            parse_soc(text).map_err(|err| invalid_soc(format!("inline SOC failed to parse: {err}")))
        }
        SocSpec::Named(name) => resolve_named_soc(name).map_err(invalid_soc),
    }
}

fn invalid_soc(message: String) -> OptimizeError {
    OptimizeError::InvalidSoc {
        issues: vec![ValidationIssue {
            module: None,
            severity: Severity::Error,
            message,
        }],
    }
}

/// Best-effort text of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "<non-string panic payload>"
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OptimizeRequest, OptimizeResponse, SweepAxis};
    use crate::problem::OptimizerConfig;
    use crate::sweep::SweepCurve;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use std::io::Cursor;

    /// A cloneable `'static` sink for [`Server::serve`] in tests — the
    /// connection owns one clone, the test keeps another to read the
    /// transcript back.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> Vec<u8> {
            lock(&self.0).clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_request() -> OptimizeRequest {
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        OptimizeRequest::new(OptimizerConfig::new(cell))
    }

    /// A d695 frame carrying `request` as given.
    fn d695_frame(request_id: &str, request: OptimizeRequest) -> String {
        serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
            request_id: request_id.to_string(),
            soc: SocSpec::Named("d695".into()),
            request,
            deadline_ms: None,
            stats: false,
        }))
        .unwrap()
    }

    fn optimize_line(request_id: &str, soc: SocSpec, deadline_ms: Option<u64>) -> String {
        serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
            request_id: request_id.to_string(),
            soc,
            request: sample_request(),
            deadline_ms,
            stats: false,
        }))
        .unwrap()
    }

    fn optimize_line_stats(request_id: &str, soc: SocSpec) -> String {
        serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
            request_id: request_id.to_string(),
            soc,
            request: sample_request(),
            deadline_ms: None,
            stats: true,
        }))
        .unwrap()
    }

    fn run_session(config: ServerConfig, input: &str) -> (Vec<ServerFrame>, ServerStats) {
        run_session_bytes(config, input.as_bytes())
    }

    fn run_session_bytes(config: ServerConfig, input: &[u8]) -> (Vec<ServerFrame>, ServerStats) {
        let server = Server::new(config);
        let output = SharedBuf::default();
        let stats = server
            .serve(Cursor::new(input.to_vec()), output.clone())
            .expect("serve");
        let frames = String::from_utf8(output.contents())
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str::<ServerFrame>(line).expect("server frame parses"))
            .collect();
        (frames, stats)
    }

    #[test]
    fn empty_session_answers_only_bye() {
        let (frames, stats) = run_session(ServerConfig::default(), "\n  \n");
        assert_eq!(frames, vec![ServerFrame::Bye(ServerStats::default())]);
        assert_eq!(stats, ServerStats::default());
    }

    #[test]
    fn named_requests_share_a_warm_session() {
        let input = format!(
            "{}\n{}\n\"Shutdown\"\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
            optimize_line("r2", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(ServerConfig::default(), &input);
        assert_eq!(frames.len(), 3);
        match (&frames[0], &frames[1]) {
            (ServerFrame::Result(first), ServerFrame::Result(second)) => {
                assert_eq!(first.request_id, "r1");
                assert!(!first.warm);
                assert!(!first.cached);
                assert_eq!(second.request_id, "r2");
                assert!(second.warm);
                // Identical SOC + request: the second answer comes out
                // of the solution cache, bit-identical.
                assert!(second.cached);
                assert_eq!(first.response, second.response);
            }
            other => panic!("expected two results, got {other:?}"),
        }
        assert_eq!(stats.served, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.sessions_created, 1);
        assert_eq!(stats.session_hits, 1);
        assert_eq!(stats.session_misses, 1);
        assert_eq!(stats.cache.result_hits, 1);
        assert_eq!(stats.cache.result_misses, 1);
        assert!(stats.cache.result_bytes > 0);
        assert!(stats.cache.cells_computed > 0);
        // The stdin session carries no connection identity block.
        assert!(stats.connection.is_none());
    }

    #[test]
    fn stats_requests_carry_provenance_and_a_bye_trace() {
        let input = format!(
            "{}\n{}\n{}\n\"Shutdown\"\n",
            optimize_line_stats("r1", SocSpec::Named("d695".into())),
            optimize_line_stats("r2", SocSpec::Named("d695".into())),
            optimize_line("r3", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(ServerConfig::default(), &input);
        assert_eq!(frames.len(), 4);
        let results: Vec<&ResultFrame> = frames[..3]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Result(result) => result,
                other => panic!("expected result, got {other:?}"),
            })
            .collect();
        // r1 computes: its stats block attributes the table work.
        let first = results[0].stats.expect("r1 opted in");
        assert_eq!(first.provenance, Provenance::Computed);
        assert!(first.cells_built > 0);
        // r2 repeats r1 and is served from the cache without table work.
        let second = results[1].stats.expect("r2 opted in");
        assert_eq!(second.provenance, Provenance::Hit);
        assert_eq!(second.cells_built, 0);
        assert_eq!(second.store_cells_computed, 0);
        // r3 did not opt in: no block, even though it hit the cache too.
        assert!(results[2].stats.is_none());
        assert!(results[2].cached);
        // The Bye trace aggregates exactly the two opted-in requests.
        let trace = stats.trace.expect("two requests opted in");
        assert_eq!(trace.requests, 2);
        assert_eq!(trace.cells_built, first.cells_built);
        // The session-wide in-process trace saw the same single engine run.
        let session = Server::new(ServerConfig::default());
        assert_eq!(session.session_trace().requests, 0);
    }

    #[test]
    fn stats_flag_never_perturbs_the_response_payload() {
        let plain = format!(
            "{}\n\"Shutdown\"\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
        );
        let traced = format!(
            "{}\n\"Shutdown\"\n",
            optimize_line_stats("r1", SocSpec::Named("d695".into())),
        );
        let (plain_frames, plain_stats) = run_session(ServerConfig::default(), &plain);
        let (traced_frames, _) = run_session(ServerConfig::default(), &traced);
        match (&plain_frames[0], &traced_frames[0]) {
            (ServerFrame::Result(p), ServerFrame::Result(t)) => {
                assert_eq!(p.response, t.response);
                assert!(p.stats.is_none());
                assert!(t.stats.is_some());
            }
            other => panic!("expected two results, got {other:?}"),
        }
        // A stats-off session answers a Bye without a trace block.
        assert!(plain_stats.trace.is_none());
    }

    #[test]
    fn trace_all_feeds_the_session_trace_without_wire_stats() {
        let config = ServerConfig {
            trace_all: true,
            ..ServerConfig::default()
        };
        let server = Server::new(config);
        let input = format!(
            "{}\n\"Shutdown\"\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
        );
        let output = SharedBuf::default();
        let stats = server
            .serve(Cursor::new(input), output.clone())
            .expect("serve");
        // Nothing on the wire...
        assert!(stats.trace.is_none());
        let text = String::from_utf8(output.contents()).unwrap();
        assert!(!text.contains("\"stats\""));
        assert!(!text.contains("\"trace\""));
        // ...but the in-process aggregate recorded the run.
        let trace = server.session_trace();
        assert_eq!(trace.requests, 1);
        assert!(trace.cells_built() > 0);
    }

    #[test]
    fn malformed_lines_do_not_stop_the_server() {
        let input = format!(
            "{{\n\"Shutdow\"\n{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(ServerConfig::default(), &input);
        assert_eq!(frames.len(), 4);
        for frame in &frames[..2] {
            match frame {
                ServerFrame::Error(error) => {
                    assert_eq!(error.request_id, None);
                    assert_eq!(error.kind, ErrorKind::Protocol);
                }
                other => panic!("expected protocol error, got {other:?}"),
            }
        }
        assert!(matches!(&frames[2], ServerFrame::Result(r) if r.request_id == "r1"));
        assert_eq!((stats.served, stats.errors), (1, 2));
        // Protocol errors are not internal errors.
        assert_eq!(stats.internal_errors, 0);
    }

    #[test]
    fn deeply_nested_line_is_one_protocol_error() {
        // Nesting far past the JSON parser's recursion limit must answer
        // one typed error; unbounded recursion would overflow the
        // reader's stack and abort the process.
        let input = format!(
            "{}\n{}\n",
            "[".repeat(200_000),
            optimize_line("r1", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(ServerConfig::default(), &input);
        assert_eq!(frames.len(), 3, "{frames:?}");
        match &frames[0] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id, None);
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert!(error.message.contains("recursion limit"), "{error:?}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r1"));
        assert!(matches!(&frames[2], ServerFrame::Bye(_)));
        assert_eq!((stats.served, stats.errors), (1, 1));
    }

    #[test]
    fn out_of_range_numbers_answer_typed_errors_not_panics() {
        // Each frame parses (or, for the overflowing literal, fails to
        // parse) but used to reach a panic: a non-finite response float
        // in the cache, the throughput model's asserts, or rendering an
        // infinite cache key.
        let with = |edit: fn(&mut OptimizerConfig)| {
            let mut request = sample_request();
            edit(&mut request.config);
            request
        };
        let yields = sample_request().with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 4,
            manufacturing_yields: vec![2.0],
        });
        let overflow = d695_frame("inf", sample_request())
            .replace("\"index_time_s\":0.1,", "\"index_time_s\":1e309,");
        assert!(overflow.contains("1e309"), "{overflow}");
        let lines = [
            d695_frame("clock0", with(|c| c.test_cell.ate.test_clock_hz = 0.0)),
            d695_frame("clock-", with(|c| c.test_cell.ate.test_clock_hz = -5.0)),
            d695_frame("index-", with(|c| c.test_cell.probe.index_time_s = -0.1)),
            d695_frame("yield2", yields),
            overflow,
        ];
        let (frames, stats) = run_session(ServerConfig::default(), &(lines.join("\n") + "\n"));
        assert_eq!(frames.len(), 6, "{frames:?}");
        let errors: Vec<&ErrorFrame> = frames[..5]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Error(error) => error,
                other => panic!("expected a typed error, got {other:?}"),
            })
            .collect();
        for id in ["clock0", "clock-", "index-", "yield2"] {
            let error = errors
                .iter()
                .find(|error| error.request_id.as_deref() == Some(id))
                .unwrap_or_else(|| panic!("no answer for {id}: {errors:?}"));
            assert_eq!(error.kind, ErrorKind::InvalidConfig, "{error:?}");
        }
        let protocol = errors
            .iter()
            .find(|error| error.kind == ErrorKind::Protocol)
            .expect("the overflowing literal is a protocol error");
        assert!(
            protocol.message.contains("number out of range"),
            "{protocol:?}"
        );
        assert!(matches!(&frames[5], ServerFrame::Bye(_)));
        assert_eq!((stats.served, stats.errors), (0, 5));
        assert_eq!(stats.internal_errors, 0);
    }

    #[test]
    fn zero_channel_and_zero_depth_sweep_points_answer_like_plain_requests() {
        // A sweep point with a zero channel count or a zero depth used to
        // reach the asserting `AteSpec` setters and answer `Internal`.
        // Each sweep must answer exactly what the plain request for its
        // first failing point answers in the same session.
        let depth = sample_request().config.test_cell.ate.vector_memory_depth;
        let with_ate = |channels: usize, depth: u64| {
            let mut request = sample_request();
            request.config.test_cell.ate.channels = channels;
            request.config.test_cell.ate.vector_memory_depth = depth;
            request
        };
        let lines = [
            d695_frame("depth0", with_ate(256, 0)),
            d695_frame("channels0", with_ate(0, depth)),
            d695_frame(
                "sweep-depths",
                sample_request().with_sweep(SweepAxis::DepthVectors(vec![0, depth])),
            ),
            d695_frame(
                "sweep-channels",
                sample_request().with_sweep(SweepAxis::Channels(vec![0, 256])),
            ),
            d695_frame(
                "sweep-on-channels0",
                with_ate(0, depth).with_sweep(SweepAxis::DepthVectors(vec![depth])),
            ),
            d695_frame(
                "all-zero",
                sample_request().with_sweep(SweepAxis::Channels(vec![0, 0])),
            ),
        ];
        let (frames, stats) = run_session(ServerConfig::default(), &(lines.join("\n") + "\n"));
        assert_eq!(frames.len(), 7, "{frames:?}");
        let answer = |id: &str| {
            frames
                .iter()
                .find(|frame| match frame {
                    ServerFrame::Result(result) => result.request_id == id,
                    ServerFrame::Error(error) => error.request_id.as_deref() == Some(id),
                    ServerFrame::Bye(_) => false,
                })
                .unwrap_or_else(|| panic!("no answer for {id}: {frames:?}"))
        };
        let error = |id: &str| match answer(id) {
            ServerFrame::Error(error) => (error.kind, error.message.clone()),
            other => panic!("expected a typed error for {id}, got {other:?}"),
        };
        for (sweep, plain) in [
            ("sweep-depths", "depth0"),
            ("sweep-channels", "channels0"),
            ("sweep-on-channels0", "channels0"),
        ] {
            assert_ne!(error(plain).0, ErrorKind::Internal, "{plain}");
            assert_eq!(error(sweep), error(plain), "{sweep} answers like {plain}");
        }
        match answer("all-zero") {
            ServerFrame::Result(result) => assert_eq!(
                result.response,
                OptimizeResponse::Curves(vec![SweepCurve {
                    label: "channels".to_string(),
                    points: Vec::new(),
                }])
            ),
            other => panic!("expected one empty curve, got {other:?}"),
        }
        assert!(matches!(&frames[6], ServerFrame::Bye(_)));
        assert_eq!((stats.served, stats.errors), (1, 5));
        assert_eq!(stats.internal_errors, 0);
    }

    #[test]
    fn unparseable_and_invalid_socs_answer_invalid_soc() {
        let input = format!(
            "{}\n{}\n",
            optimize_line(
                "r1",
                SocSpec::Inline("soc broken\nnot a line\n".into()),
                None
            ),
            optimize_line("r2", SocSpec::Named("no_such_soc".into()), None),
        );
        let (frames, _) = run_session(ServerConfig::default(), &input);
        for (frame, id) in frames[..2].iter().zip(["r1", "r2"]) {
            match frame {
                ServerFrame::Error(error) => {
                    assert_eq!(error.request_id.as_deref(), Some(id));
                    assert_eq!(error.kind, ErrorKind::InvalidSoc);
                }
                other => panic!("expected InvalidSoc for {id}, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_answers_a_protocol_error_and_reading_goes_on() {
        let mut input = b"ab\xffcd\n".to_vec();
        input
            .extend_from_slice(optimize_line("r1", SocSpec::Named("d695".into()), None).as_bytes());
        input.extend_from_slice(b"\r\n\"Shutdown\"\n");
        let (frames, stats) = run_session_bytes(ServerConfig::default(), &input);
        assert_eq!(frames.len(), 3, "{frames:?}");
        match &frames[0] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id, None);
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert!(error.message.contains("utf-8"), "{}", error.message);
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(
            matches!(&frames[1], ServerFrame::Result(result) if result.request_id == "r1"),
            "{:?}",
            frames[1]
        );
        assert!(matches!(&frames[2], ServerFrame::Bye(_)));
        assert_eq!((stats.served, stats.errors), (1, 1));
    }

    /// A sink that records each `write` call's bytes separately.
    #[derive(Debug, Clone, Default)]
    struct CountingSink(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let input = format!(
            "{}\nnot json\n\"Shutdown\"\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None)
        );
        let sink = CountingSink::default();
        Server::new(ServerConfig::default())
            .serve(Cursor::new(input), sink.clone())
            .expect("serve");
        let writes = lock(&sink.0).clone();
        let kinds: Vec<&str> = writes
            .iter()
            .map(|write| {
                let line = std::str::from_utf8(write).unwrap();
                let frame = line.strip_suffix('\n').expect("a whole line per write");
                assert!(!frame.contains('\n'), "one frame per write: {line:?}");
                match serde_json::from_str::<ServerFrame>(frame).unwrap() {
                    ServerFrame::Result(_) => "Result",
                    ServerFrame::Error(_) => "Error",
                    ServerFrame::Bye(_) => "Bye",
                }
            })
            .collect();
        assert_eq!(kinds, ["Result", "Error", "Bye"]);
    }

    #[test]
    fn cancel_of_unknown_request_is_reported() {
        let (frames, _) = run_session(
            ServerConfig::default(),
            "{\"Cancel\":{\"request_id\":\"ghost\"}}\n",
        );
        match &frames[0] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some("ghost"));
                assert_eq!(error.kind, ErrorKind::UnknownRequest);
            }
            other => panic!("expected UnknownRequest, got {other:?}"),
        }
    }

    #[test]
    fn panicking_request_is_isolated_and_counted() {
        let config = ServerConfig {
            faults: FaultPlan::parse("optimize:panic@r1").unwrap(),
            ..ServerConfig::default()
        };
        let input = format!(
            "{}\n{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
            optimize_line("r2", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(config, &input);
        match &frames[0] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some("r1"));
                assert_eq!(error.kind, ErrorKind::Internal);
                assert!(
                    error.message.contains("injected fault"),
                    "{}",
                    error.message
                );
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r2"));
        assert_eq!((stats.served, stats.errors), (1, 1));
        // The panic shows up in the typed Bye counter, not just as the
        // per-request Error frame...
        assert_eq!(stats.internal_errors, 1);
        match &frames[2] {
            ServerFrame::Bye(bye) => assert_eq!(bye.internal_errors, 1),
            other => panic!("expected Bye, got {other:?}"),
        }
        // ...and non-internal failures (unknown SOC) do not inflate it.
        let (_, clean) = run_session(
            ServerConfig::default(),
            &format!(
                "{}\n",
                optimize_line("r1", SocSpec::Named("no_such_soc".into()), None)
            ),
        );
        assert_eq!(clean.errors, 1);
        assert_eq!(clean.internal_errors, 0);
    }

    #[test]
    fn multi_executor_session_keeps_admission_order() {
        // r1 is held by a 300 ms fault while r2/r3 (distinct sweeps, so
        // no coalescing) finish on other executors; the output window
        // must still release frames in admission order.
        let config = ServerConfig {
            executors: 4,
            faults: FaultPlan::parse("optimize:delay:300@r1").unwrap(),
            ..ServerConfig::default()
        };
        let sweep_line = |request_id: &str, channels: Vec<usize>| {
            serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
                request_id: request_id.to_string(),
                soc: SocSpec::Named("d695".into()),
                request: sample_request().with_sweep(SweepAxis::Channels(channels)),
                deadline_ms: None,
                stats: false,
            }))
            .unwrap()
        };
        let input = format!(
            "{}\n{}\n{}\n\"Shutdown\"\n",
            sweep_line("r1", vec![16, 24]),
            sweep_line("r2", vec![32]),
            sweep_line("r3", vec![48]),
        );
        let (frames, stats) = run_session(config, &input);
        let ids: Vec<&str> = frames[..3]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Result(result) => result.request_id.as_str(),
                other => panic!("expected result, got {other:?}"),
            })
            .collect();
        assert_eq!(ids, ["r1", "r2", "r3"]);
        assert_eq!((stats.served, stats.errors), (3, 0));
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // r1 runs slowly (held by the delay fault) while r2 fills the
        // single queue slot, so r3 must be shed. The admission delay on
        // r2 gives the executor time to claim r1 first, making the
        // capacity arithmetic deterministic.
        let config = ServerConfig {
            queue_capacity: 1,
            faults: FaultPlan::parse("optimize:delay:400@r1, admission:delay:100@r2").unwrap(),
            ..ServerConfig::default()
        };
        let input = format!(
            "{}\n{}\n{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
            optimize_line("r2", SocSpec::Named("d695".into()), None),
            optimize_line("r3", SocSpec::Named("d695".into()), None),
        );
        let (frames, stats) = run_session(config, &input);
        assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
        assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r2"));
        match &frames[2] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some("r3"));
                assert_eq!(error.kind, ErrorKind::Overloaded);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!((stats.served, stats.errors), (2, 1));
    }

    #[test]
    fn duplicate_in_flight_id_is_a_protocol_error() {
        let config = ServerConfig {
            faults: FaultPlan::parse("optimize:delay:400@r1").unwrap(),
            ..ServerConfig::default()
        };
        let input = format!(
            "{}\n{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None),
            optimize_line("r1", SocSpec::Named("d695".into()), None),
        );
        let (frames, _) = run_session(config, &input);
        assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
        match &frames[1] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some("r1"));
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert!(error.message.contains("duplicate"));
            }
            other => panic!("expected duplicate-id error, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_answers_deadline_exceeded() {
        let input = format!(
            "{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), Some(0)),
        );
        let (frames, _) = run_session(ServerConfig::default(), &input);
        match &frames[0] {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some("r1"));
                assert_eq!(error.kind, ErrorKind::DeadlineExceeded);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn session_cap_of_one_forces_rebuilds() {
        let config = ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        };
        // p22810 needs a deeper vector memory than the default sample
        // cell, so all three requests use a roomier one.
        let cell = TestCell::new(
            AteSpec::new(512, 768 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        let big_cell_line = |request_id: &str, name: &str| {
            serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
                request_id: request_id.to_string(),
                soc: SocSpec::Named(name.to_string()),
                request: OptimizeRequest::new(OptimizerConfig::new(cell)),
                deadline_ms: None,
                stats: false,
            }))
            .unwrap()
        };
        let input = format!(
            "{}\n{}\n{}\n",
            big_cell_line("r1", "d695"),
            big_cell_line("r2", "p22810"),
            big_cell_line("r3", "d695"),
        );
        let (frames, stats) = run_session(config, &input);
        let warms: Vec<bool> = frames[..3]
            .iter()
            .map(|frame| match frame {
                ServerFrame::Result(result) => result.warm,
                other => panic!("expected result, got {other:?}"),
            })
            .collect();
        assert_eq!(warms, [false, false, false]);
        assert_eq!(stats.sessions_created, 3);
        assert!(stats.evictions >= 2);
        // r3 repeats r1 exactly: its session was evicted (cold engine),
        // but the solution cache outlives the session and still hits.
        match &frames[2] {
            ServerFrame::Result(result) => assert!(result.cached),
            other => panic!("expected result, got {other:?}"),
        }
        assert_eq!(stats.cache.result_hits, 1);
        assert_eq!(stats.cache.result_misses, 2);
    }

    #[test]
    fn a_bounded_row_store_answers_fresh_designs_like_an_unbounded_one() {
        // Sixty fresh inline designs of eight one-off cores each, served
        // through two warm sessions. Under a 64 KiB bound the store must
        // evict the rows of designs no session holds any more, and every
        // answer must stay byte-identical to the unbounded store's.
        use soctest_soc_model::{writer::write_soc, Module};
        use soctest_wrapper::row::ModuleShape;
        let designs: Vec<Soc> = (0..60u64)
            .map(|design| {
                let mut soc = Soc::new(format!("fresh{design}"));
                for core in 0..8u64 {
                    let k = design * 8 + core;
                    soc.push_module(
                        Module::builder(format!("c{core}"))
                            .patterns(20 + k % 100)
                            .inputs(4)
                            .outputs(4)
                            .scan_chain(30 + k % 97)
                            .scan_chain(10 + k % 13)
                            .build(),
                    );
                }
                soc
            })
            .collect();
        let input: String = designs
            .iter()
            .enumerate()
            .map(|(i, soc)| {
                let soc = SocSpec::Inline(write_soc(soc));
                optimize_line(&format!("r{i}"), soc, None) + "\n"
            })
            .collect();
        let serve = |max_store_bytes| {
            let server = Server::new(ServerConfig {
                max_sessions: 2,
                max_store_bytes,
                ..ServerConfig::default()
            });
            let output = SharedBuf::default();
            server
                .serve(Cursor::new(input.clone().into_bytes()), output.clone())
                .expect("serve");
            let answers: Vec<String> = String::from_utf8(output.contents())
                .unwrap()
                .lines()
                .filter(|line| !line.starts_with(r#"{"Bye""#))
                .map(str::to_owned)
                .collect();
            (server, answers)
        };
        let bound = 64 * 1024;
        let (bounded, bounded_answers) = serve(Some(bound));
        let (unbounded, unbounded_answers) = serve(None);
        assert_eq!(bounded_answers.len(), designs.len());
        assert!(bounded_answers
            .iter()
            .all(|l| l.starts_with(r#"{"Result""#)));
        assert_eq!(bounded_answers, unbounded_answers);

        let stats = bounded.row_store().stats();
        assert!(stats.rows_evicted > 0, "the bound evicted nothing");
        assert_eq!(unbounded.row_store().stats().rows_evicted, 0);
        assert!(unbounded.row_store().stats().bytes > bound);
        // The two live sessions, the last two designs, hold their rows;
        // everything else fits the bound.
        let held: u64 = designs[designs.len() - 2..]
            .iter()
            .flat_map(|soc| soc.modules())
            .map(|module| {
                let shape = ModuleShape::of(module);
                let row = bounded.row_store().row_for_shape(&shape);
                24 + shape.content_key().len() as u64 + 16 * row.len() as u64
            })
            .sum();
        assert!(
            stats.bytes <= bound + held,
            "{} bytes resident, over the bound {bound} plus {held} held",
            stats.bytes
        );
    }

    /// A unique scratch directory for cache-dir tests, removed by
    /// `CacheDirGuard`.
    struct CacheDirGuard(std::path::PathBuf);

    impl CacheDirGuard {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("soctest-server-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create cache dir");
            CacheDirGuard(dir)
        }
    }

    impl Drop for CacheDirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn warm_cache_dir_restart_rebuilds_zero_rows() {
        let guard = CacheDirGuard::new("warm-restart");
        let config = || ServerConfig {
            cache_dir: Some(guard.0.clone()),
            ..ServerConfig::default()
        };
        let input = format!(
            "{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None)
        );
        let (cold_frames, cold) = run_session(config(), &input);
        assert!(cold.cache.cells_computed > 0, "cold run computes rows");
        assert!(cold.cache.store_rows_saved > 0, "cold run persists rows");
        assert_eq!(cold.cache.store_cells_loaded, 0);
        // A second server on the same cache dir — a "new process" as far
        // as the store is concerned — rebuilds nothing and answers
        // bit-identically.
        let (warm_frames, warm) = run_session(config(), &input);
        assert_eq!(
            warm.cache.cells_computed, 0,
            "warm restart rebuilds zero rows"
        );
        assert!(warm.cache.store_cells_loaded > 0);
        match (&cold_frames[0], &warm_frames[0]) {
            (ServerFrame::Result(a), ServerFrame::Result(b)) => {
                assert_eq!(a.response, b.response);
                // The solution cache persists alongside the rows: the
                // restarted server replays the response as a hit rather
                // than recomputing it from stored rows.
                assert!(!a.cached);
                assert!(b.cached, "persisted solutions answer the repeat");
            }
            other => panic!("expected results, got {other:?}"),
        }
        assert!(guard.0.join(SOLUTIONS_FILE).is_file());
    }

    #[test]
    fn corrupt_cache_file_degrades_to_a_cold_start() {
        let guard = CacheDirGuard::new("corrupt");
        std::fs::write(guard.0.join(ROWS_FILE), b"SOCROWS1 garbage \x00\x01").unwrap();
        let config = ServerConfig {
            cache_dir: Some(guard.0.clone()),
            ..ServerConfig::default()
        };
        let input = format!(
            "{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None)
        );
        let (frames, stats) = run_session(config, &input);
        assert!(matches!(&frames[0], ServerFrame::Result(_)), "{frames:?}");
        assert_eq!(
            stats.cache.store_cells_loaded, 0,
            "corrupt file is a clean miss"
        );
        assert!(stats.cache.cells_computed > 0);
        // The drain overwrote the garbage with a valid file.
        let (_, recovered) = run_session(
            ServerConfig {
                cache_dir: Some(guard.0.clone()),
                ..ServerConfig::default()
            },
            &input,
        );
        assert!(recovered.cache.store_cells_loaded > 0);
        assert_eq!(recovered.cache.cells_computed, 0);
    }

    #[test]
    fn store_stage_faults_cost_the_cache_not_the_session() {
        let guard = CacheDirGuard::new("store-fault");
        let input = format!(
            "{}\n",
            optimize_line("r1", SocSpec::Named("d695".into()), None)
        );
        // A panicking save still answers the request and a clean Bye.
        let (frames, stats) = run_session(
            ServerConfig {
                cache_dir: Some(guard.0.clone()),
                faults: FaultPlan::parse("store:panic@save").unwrap(),
                ..ServerConfig::default()
            },
            &input,
        );
        assert!(matches!(&frames[0], ServerFrame::Result(_)), "{frames:?}");
        assert_eq!(stats.cache.store_rows_saved, 0);
        assert_eq!(stats.served, 1);
        // A panicking load degrades to a cold store.
        let (frames, stats) = run_session(
            ServerConfig {
                cache_dir: Some(guard.0.clone()),
                faults: FaultPlan::parse("store:panic@load").unwrap(),
                ..ServerConfig::default()
            },
            &input,
        );
        assert!(matches!(&frames[0], ServerFrame::Result(_)), "{frames:?}");
        assert_eq!(stats.cache.store_cells_loaded, 0);
        assert!(stats.cache.cells_computed > 0);
    }
}
