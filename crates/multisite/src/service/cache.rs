//! The content-addressed solution cache with in-flight coalescing.
//!
//! A [`SolutionCache`] memoises whole `(SOC, OptimizeRequest) →
//! OptimizeResponse` computations for the service. The key is the
//! session registry's SOC content hash plus the *canonical* request —
//! the parsed [`OptimizeRequest`] re-rendered through
//! [`canonical_request`] — so two clients spelling the same request with
//! different JSON field orders or explicit defaults share one entry.
//! Hash collisions are harmless: lookups compare the full canonical key
//! on every hash match, so a collision costs a string compare, never a
//! wrong response.
//!
//! The cache also *coalesces* identical in-flight work: while one
//! request (the leader) is computing a key, later identical requests
//! (waiters) block on the leader's result instead of recomputing it.
//! Waiters poll their own [`CancelToken`] while they wait, so
//! cancelling a waiter never disturbs the leader, and a cancelled or
//! failing leader never poisons its waiters — the in-flight marker is
//! removed by an unwind-safe guard and each waiter simply retries
//! (becoming the next leader at most once).
//!
//! Successful responses are cached, and so — *negatively* — are
//! deterministic failures: an invalid SOC, an invalid configuration, or
//! an infeasible architecture fails identically on every repeat, so the
//! typed error is admitted behind a typed negative flag and replayed
//! without recomputation. Wall-clock-dependent failures (cancellation,
//! deadline expiry, shed load, panics) are never cached. Entries of both
//! polarities live in one bounded recency list under the entry-count and
//! byte caps (`crate::lru`), each charged its canonical key plus its
//! rendered response, and leaders and waiters follow that module's
//! in-flight protocol.
//!
//! # Point-level reuse
//!
//! Sweep requests decompose into plain per-point optimizations, and each
//! point's *effective* configuration is itself a valid
//! [`SweepAxis::None`](crate::engine::SweepAxis::None) request — so the
//! cache keeps a second, point-level index in the same `(soc hash,
//! canonical request)` namespace. [`SessionPointMemo`] is the engine's
//! view of it (see [`crate::engine::PointMemo`]): every sweep point
//! consults the whole-request index *and* the point index before
//! optimizing, and publishes fresh results to the point index. A
//! `Channels([192, 256])` sweep therefore answers a later plain
//! 256-channel request as a [`CacheOutcome::Hit`], and a cached plain
//! request answers a later sweep's identical point. The indexes stay
//! separate so the wire-visible `result_bytes` gauge keeps meaning
//! "whole-request entries"; the point index carries its own
//! `point_entries` / `point_bytes` gauges in a second list under the same
//! caps.
//!
//! # Persistence (`solutions.v1`)
//!
//! [`SolutionCache::save`] persists every *successful* entry (both
//! indexes, coldest first so a load replays the LRU order) to a
//! checksummed, atomically replaced envelope — the same
//! magic/version/FNV-1a trailer format as the row store's `rows.v1`,
//! via [`seal_envelope`] / [`open_envelope`]. Negative entries are not
//! persisted: typed errors are cheap to recompute and have no canonical
//! wire rendering. [`SolutionCache::load`] verifies the envelope, every
//! length field, every entry's canonical-text hash and that every
//! response parses, *before* touching the resident cache — a corrupt
//! file is a typed [`StoreError`] and a clean miss, never a panic and
//! never a wrong response.

use crate::engine::{OptimizeRequest, OptimizeResponse, PointMemo};
use crate::error::OptimizeError;
use crate::lru::{wait, Flight, Lru};
use crate::service::cancel::CancelToken;
use crate::service::registry::fnv1a64;
use soctest_tam::{open_envelope, push_u64, seal_envelope, write_atomic, Cursor, StoreError};
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// File magic (7 bytes) of the persisted solution cache, followed by the
/// one-byte format version — `solutions.v1` in the cache directory.
const SOLUTIONS_MAGIC: &[u8; 7] = b"SOCSOLS";
/// Current `solutions.v1` format version byte.
const SOLUTIONS_VERSION: u8 = b'1';

/// Renders a parsed request back to its canonical JSON string — the
/// content-addressed identity used by [`SolutionCache`]. Parsing
/// already normalised field order and filled defaulted fields, so any
/// two spellings of the same request canonicalise identically.
pub fn canonical_request(request: &OptimizeRequest) -> String {
    serde_json::to_string(request).expect("requests serialise")
}

/// How a [`SolutionCache::run_coalesced`] call obtained its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident entry without waiting.
    Hit,
    /// Blocked on an identical in-flight computation, then served its
    /// result (or a successor leader's).
    Coalesced,
    /// This call was the leader: it ran the computation.
    Computed,
}

impl CacheOutcome {
    /// Whether the response came out of the cache rather than a fresh
    /// computation by this caller.
    pub fn is_cached(self) -> bool {
        !matches!(self, CacheOutcome::Computed)
    }
}

/// Cache counters, exposed for the service's `Bye` statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolutionCacheStats {
    /// Requests served a success from an already-resident entry without
    /// waiting. Waiter serves are counted in
    /// [`SolutionCacheStats::coalesced_served`], never folded in here.
    pub hits: u64,
    /// Requests that led a computation (successful or not).
    pub misses: u64,
    /// Requests that blocked at least once on an identical in-flight
    /// computation.
    pub coalesced_waits: u64,
    /// Requests that, after blocking, were served a leader's successful
    /// result instead of recomputing.
    pub coalesced_served: u64,
    /// Successful responses admitted to the cache.
    pub insertions: u64,
    /// Deterministic failures admitted as negative entries.
    pub negative_insertions: u64,
    /// Requests answered a replayed failure from a negative entry
    /// (waited or not).
    pub negative_hits: u64,
    /// Entries evicted by the LRU / byte cap (both indexes).
    pub evictions: u64,
    /// Currently resident whole-request entries.
    pub entries: u64,
    /// Currently resident whole-request bytes (canonical keys + rendered
    /// responses). This is the wire-visible `result_bytes` gauge; the
    /// point index is accounted separately in
    /// [`SolutionCacheStats::point_bytes`].
    pub bytes: u64,
    /// Point-level lookups (a sweep point's memo probe, or a plain
    /// request finding a sweep's point) served a success from either
    /// index.
    pub point_hits: u64,
    /// Sweep-point responses admitted to the point index.
    pub point_insertions: u64,
    /// Currently resident point-index entries.
    pub point_entries: u64,
    /// Currently resident point-index bytes.
    pub point_bytes: u64,
}

/// What a resident entry replays: a successful response, or — the typed
/// negative flag — a deterministic failure cached so identical repeats
/// skip the doomed computation.
#[derive(Debug, Clone)]
enum CachedResponse {
    /// A successful [`OptimizeResponse`].
    Success(OptimizeResponse),
    /// A deterministic failure (see [`negative_cacheable`]).
    Negative(OptimizeError),
}

/// Whether a failure is deterministic — a pure function of the `(SOC,
/// request)` key, safe to replay from a negative cache entry. Anything
/// wall-clock- or load-dependent (cancellation, deadlines, shed load,
/// internal panics) must recompute.
fn negative_cacheable(error: &OptimizeError) -> bool {
    matches!(
        error,
        OptimizeError::Architecture(_)
            | OptimizeError::InvalidConfig { .. }
            | OptimizeError::InvalidSoc { .. }
    )
}

/// One resident solution.
#[derive(Debug)]
struct CacheEntry {
    /// FNV-1a of `canonical` (the lookup fast path).
    hash: u64,
    /// The owning session's SOC content hash.
    soc: u64,
    /// The canonical request text (the collision-proof identity).
    canonical: String,
    /// The cached response (successful or negative).
    response: CachedResponse,
}

impl CacheEntry {
    fn matches(&self, soc: u64, hash: u64, canonical: &str) -> bool {
        self.soc == soc && self.hash == hash && self.canonical == canonical
    }

    /// The entry's charge: canonical key plus rendered response.
    fn charge(&self) -> u64 {
        let rendered = match &self.response {
            CachedResponse::Success(response) => {
                serde_json::to_string(response).expect("responses serialise")
            }
            CachedResponse::Negative(error) => error.to_string(),
        };
        (self.canonical.len() + rendered.len()) as u64
    }
}

#[derive(Debug)]
struct CacheInner {
    /// Whole-request entries.
    entries: Lru<CacheEntry>,
    /// Sweep-point entries (successes only) — same key namespace as
    /// `entries`, kept apart so whole-request accounting (the wire
    /// `result_bytes`) is undisturbed by sweep traffic.
    points: Lru<CacheEntry>,
    /// Keys currently being computed by a leader.
    inflight: Vec<(u64, u64, String)>,
    stats: SolutionCacheStats,
}

/// An exact-hit LRU of [`OptimizeResponse`]s keyed by `(SOC content
/// hash, canonical request)`, with in-flight coalescing. See the
/// [module docs](self).
#[derive(Debug)]
pub struct SolutionCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever a leader finishes (result landed or leader
    /// gave up) so waiters re-check.
    ready: Condvar,
}

impl SolutionCache {
    /// An empty cache holding at most `max_entries` responses and at
    /// most `max_bytes` of charged memory in each index. An entry cap of
    /// zero acts as one; the hottest entry is never evicted, so a single
    /// oversized response may exist alone.
    pub fn new(max_entries: usize, max_bytes: u64) -> Self {
        SolutionCache {
            inner: Mutex::new(CacheInner {
                entries: Lru::new(max_entries, max_bytes),
                points: Lru::new(max_entries, max_bytes),
                inflight: Vec::new(),
                stats: SolutionCacheStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Serves `request` for the session keyed `soc`: from the cache if
    /// resident, by waiting on an identical in-flight computation if
    /// one is running, or by calling `compute` as the leader otherwise.
    /// A successful leader's response is cached before waiters wake.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns when this call leads and the
    /// computation fails (deterministic failures are cached negatively
    /// and replayed to identical repeats; transient ones leave the
    /// cache untouched), a replayed failure when the key has a resident
    /// negative entry, or [`OptimizeError::Cancelled`] /
    /// [`OptimizeError::DeadlineExceeded`] when this call's own `token`
    /// fires while waiting on a leader. A leader's *transient* failure
    /// is not propagated to its waiters — they retry, and the first
    /// retry becomes the next leader.
    pub fn run_coalesced<F>(
        &self,
        soc: u64,
        request: &OptimizeRequest,
        token: &CancelToken,
        compute: F,
    ) -> Result<(CacheOutcome, OptimizeResponse), OptimizeError>
    where
        F: FnOnce() -> Result<OptimizeResponse, OptimizeError>,
    {
        let canonical = canonical_request(request);
        let hash = fnv1a64(&canonical);
        let matches = |entry: &CacheEntry| entry.matches(soc, hash, &canonical);
        let mut compute = Some(compute);
        let mut waited = false;
        let mut inner = self.lock();
        loop {
            // Touch: a match moves to the hot end. With no whole-request
            // entry, a sweep may have computed this exact configuration
            // as one of its points. Point entries hold only successes, so
            // a match is a full, free answer.
            let served = match inner.entries.touch(matches) {
                Some(entry) => Some(entry.response.clone()),
                None => {
                    let point = inner.points.touch(matches).map(|e| e.response.clone());
                    inner.stats.point_hits += u64::from(point.is_some());
                    point
                }
            };
            match served {
                Some(CachedResponse::Success(response)) => {
                    // The leader-computed vs waiter-coalesced split: a
                    // direct hit and a waiter waking to find its leader's
                    // entry are counted apart.
                    let outcome = if waited {
                        inner.stats.coalesced_served += 1;
                        CacheOutcome::Coalesced
                    } else {
                        inner.stats.hits += 1;
                        CacheOutcome::Hit
                    };
                    return Ok((outcome, response));
                }
                Some(CachedResponse::Negative(error)) => {
                    inner.stats.negative_hits += 1;
                    return Err(error);
                }
                None => {}
            }

            let in_flight = inner
                .inflight
                .iter()
                .any(|(s, h, c)| *s == soc && *h == hash && *c == canonical);
            if in_flight {
                if !waited {
                    waited = true;
                    inner.stats.coalesced_waits += 1;
                }
                // Sleep until the leader's guard notifies (or the
                // slice elapses), then poll our own token: a cancelled
                // waiter gives up without touching the leader.
                inner = wait(&self.ready, inner);
                token.check()?;
                continue;
            }

            // No entry, no leader: lead. `compute` is consumed here, and
            // the leader path always returns, so a caller leads at most
            // once — a waiter whose leader failed retries into this arm.
            inner.stats.misses += 1;
            let flight = Flight::lead(
                &self.inner,
                &self.ready,
                inner,
                |inner| &mut inner.inflight,
                (soc, hash, canonical.clone()),
            );
            let result = (compute.take().expect("leader leads at most once"))();
            match &result {
                Ok(response) => self.insert(
                    soc,
                    hash,
                    &canonical,
                    CachedResponse::Success(response.clone()),
                ),
                Err(error) if negative_cacheable(error) => self.insert(
                    soc,
                    hash,
                    &canonical,
                    CachedResponse::Negative(error.clone()),
                ),
                Err(_) => {}
            }
            // Remove the in-flight marker and wake waiters — also runs
            // on unwind if `compute` panicked, so waiters never hang.
            drop(flight);
            return result.map(|response| (CacheOutcome::Computed, response));
        }
    }

    /// Admits a successful response or a deterministic failure, touching
    /// it hottest and applying the caps.
    fn insert(&self, soc: u64, hash: u64, canonical: &str, response: CachedResponse) {
        let entry = CacheEntry {
            hash,
            soc,
            canonical: canonical.to_string(),
            response,
        };
        let bytes = entry.charge();
        let mut inner = self.lock();
        if matches!(entry.response, CachedResponse::Negative(_)) {
            inner.stats.negative_insertions += 1;
        } else {
            inner.stats.insertions += 1;
        }
        // A resident duplicate is impossible while our in-flight marker
        // blocks other leaders, but stay defensive: replace, don't stack.
        inner.entries.remove(|e| e.matches(soc, hash, canonical));
        inner.stats.evictions += inner.entries.push(entry, bytes);
    }

    /// The memoised success for `request` under session `soc`, from
    /// either index — the read half of [`SessionPointMemo`]. Touches the
    /// served entry hottest and counts a `point_hit`; deliberately off
    /// the wire-visible hit/miss counters, because a memo probe is part
    /// of serving one sweep request, not a request of its own. A
    /// resident *negative* entry answers `None`: the point recomputes
    /// and fails exactly as the cached request did.
    fn get_point(&self, soc: u64, request: &OptimizeRequest) -> Option<OptimizeResponse> {
        let canonical = canonical_request(request);
        let hash = fnv1a64(&canonical);
        let matches = |entry: &CacheEntry| entry.matches(soc, hash, &canonical);
        let mut guard = self.lock();
        let inner = &mut *guard;
        let served = inner
            .entries
            .touch(matches)
            .or_else(|| inner.points.touch(matches))?
            .response
            .clone();
        match served {
            CachedResponse::Success(response) => {
                inner.stats.point_hits += 1;
                Some(response)
            }
            CachedResponse::Negative(_) => None,
        }
    }

    /// Publishes a sweep point's fresh success to the point index — the
    /// write half of [`SessionPointMemo`]. First publisher wins: a key
    /// already resident in either index is left untouched (racing points
    /// of one sweep carry bit-identical responses anyway).
    fn put_point(&self, soc: u64, request: &OptimizeRequest, response: &OptimizeResponse) {
        let canonical = canonical_request(request);
        let entry = CacheEntry {
            hash: fnv1a64(&canonical),
            soc,
            canonical,
            response: CachedResponse::Success(response.clone()),
        };
        let bytes = entry.charge();
        let mut inner = self.lock();
        if inner.is_resident(&entry) {
            return;
        }
        inner.stats.point_insertions += 1;
        inner.stats.evictions += inner.points.push(entry, bytes);
    }

    /// Current counters (entry/byte gauges read from the running
    /// accounting, which eviction keeps exact).
    pub fn stats(&self) -> SolutionCacheStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.entries = inner.entries.len() as u64;
        stats.bytes = inner.entries.bytes();
        stats.point_entries = inner.points.len() as u64;
        stats.point_bytes = inner.points.bytes();
        stats
    }

    /// Persists every successful entry (both indexes, coldest first so
    /// [`SolutionCache::load`] replays the LRU order) as a `solutions.v1`
    /// envelope at `path`, atomically replaced. Negative entries are
    /// skipped — typed errors are cheap to recompute.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let inner = self.lock();
        let bytes = seal_envelope(SOLUTIONS_MAGIC, SOLUTIONS_VERSION, |out| {
            for list in [&inner.entries, &inner.points] {
                let successes: Vec<(&CacheEntry, String)> = list
                    .iter()
                    .filter_map(|(entry, _)| match &entry.response {
                        CachedResponse::Success(response) => Some((
                            entry,
                            serde_json::to_string(response).expect("responses serialise"),
                        )),
                        CachedResponse::Negative(_) => None,
                    })
                    .collect();
                push_u64(out, successes.len() as u64);
                for (entry, rendered) in successes {
                    push_u64(out, entry.soc);
                    push_u64(out, entry.hash);
                    push_u64(out, entry.canonical.len() as u64);
                    out.extend_from_slice(entry.canonical.as_bytes());
                    push_u64(out, rendered.len() as u64);
                    out.extend_from_slice(rendered.as_bytes());
                }
            }
        });
        drop(inner);
        write_atomic(path, &bytes)
    }

    /// Merges every entry of the `solutions.v1` file at `path` into the
    /// cache (resident entries win ties) and returns the number merged.
    /// The whole file is verified first — envelope, lengths, each
    /// entry's canonical-text hash, each response parsing — so a corrupt
    /// file leaves the cache exactly as it was: a typed clean miss.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on unreadable, truncated, corrupted or
    /// version-mismatched files.
    pub fn load(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = std::fs::read(path)?;
        let [requests, points] = parse_solutions_file(&bytes)?;
        let mut inner = self.lock();
        let mut merged = 0u64;
        for (into_points, parsed) in [(false, requests), (true, points)] {
            for (soc, hash, canonical, response, charge) in parsed {
                let entry = CacheEntry {
                    hash,
                    soc,
                    canonical,
                    response: CachedResponse::Success(response),
                };
                if inner.is_resident(&entry) {
                    continue;
                }
                let list = if into_points {
                    &mut inner.points
                } else {
                    &mut inner.entries
                };
                list.append(entry, charge);
                merged += 1;
            }
        }
        // The whole file is merged before the caps apply, so a key in
        // both sections is skipped as resident even if the caps would
        // have evicted its first copy.
        inner.stats.evictions += inner.entries.trim() + inner.points.trim();
        Ok(merged)
    }

    /// [`SolutionCache::load`], treating a missing file as an empty
    /// cache. Returns `Ok(0)` when `path` does not exist.
    ///
    /// # Errors
    ///
    /// As [`SolutionCache::load`] for files that exist but fail
    /// verification.
    pub fn load_if_present(&self, path: &Path) -> Result<u64, StoreError> {
        match self.load(path) {
            Err(StoreError::Io(err)) if err.kind() == io::ErrorKind::NotFound => Ok(0),
            other => other,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // Leaders mutate the cache only at guarded points (marker push,
    // insert, marker removal), never mid-structure — recover from
    // poisoning like the registry does.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CacheInner {
    /// Whether `entry`'s key is resident in either index.
    fn is_resident(&self, entry: &CacheEntry) -> bool {
        let matches = |(resident, _): (&CacheEntry, u64)| {
            resident.matches(entry.soc, entry.hash, &entry.canonical)
        };
        self.entries.iter().chain(self.points.iter()).any(matches)
    }
}

/// One verified `solutions.v1` entry: `(soc, hash, canonical, response,
/// charged bytes)`.
type ParsedSolution = (u64, u64, String, OptimizeResponse, u64);

/// Verifies and parses a whole `solutions.v1` file into its two
/// sections (whole-request entries, then points), each coldest first.
/// Pure — no cache state is touched, so callers reject corrupt files
/// with nothing to roll back. Every length field is validated against
/// the remaining byte count before any allocation, every canonical key
/// must re-hash to its stored hash, and every response must parse back
/// through the wire serde; anything else is [`StoreError::Corrupt`].
fn parse_solutions_file(bytes: &[u8]) -> Result<[Vec<ParsedSolution>; 2], StoreError> {
    let payload = open_envelope(SOLUTIONS_MAGIC, SOLUTIONS_VERSION, bytes)?;
    let mut cursor = Cursor::new(payload);
    let mut sections: [Vec<ParsedSolution>; 2] = [Vec::new(), Vec::new()];
    for section in &mut sections {
        let count = cursor.u64()?;
        let count = usize::try_from(count)
            .ok()
            // Each entry carries at least four u64 length/key fields.
            .filter(|&count| {
                count
                    .checked_mul(32)
                    .is_some_and(|min| min <= cursor.remaining())
            })
            .ok_or_else(|| StoreError::Corrupt("entry count exceeds file".to_string()))?;
        section.reserve(count);
        for _ in 0..count {
            let soc = cursor.u64()?;
            let hash = cursor.u64()?;
            let stored_canonical_len = cursor.u64()?;
            let canonical_len = checked_len(&cursor, stored_canonical_len, "canonical length")?;
            let canonical = std::str::from_utf8(cursor.take(canonical_len)?)
                .map_err(|_| StoreError::Corrupt("canonical text is not UTF-8".to_string()))?
                .to_string();
            if fnv1a64(&canonical) != hash {
                return Err(StoreError::Corrupt(
                    "entry hash does not match its canonical text".to_string(),
                ));
            }
            let stored_rendered_len = cursor.u64()?;
            let rendered_len = checked_len(&cursor, stored_rendered_len, "response length")?;
            let rendered = std::str::from_utf8(cursor.take(rendered_len)?)
                .map_err(|_| StoreError::Corrupt("response text is not UTF-8".to_string()))?;
            let response: OptimizeResponse = serde_json::from_str(rendered)
                .map_err(|err| StoreError::Corrupt(format!("response does not parse: {err}")))?;
            let charge = (canonical.len() + rendered.len()) as u64;
            section.push((soc, hash, canonical, response, charge));
        }
    }
    if cursor.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last entry",
            cursor.remaining()
        )));
    }
    Ok(sections)
}

/// Bounds a stored length field by the cursor's remaining bytes before
/// it is used to allocate.
fn checked_len(cursor: &Cursor<'_>, stored: u64, what: &str) -> Result<usize, StoreError> {
    usize::try_from(stored)
        .ok()
        .filter(|&len| len <= cursor.remaining())
        .ok_or_else(|| StoreError::Corrupt(format!("{what} exceeds file")))
}

/// One session's view of the point-level index: a [`PointMemo`] bound to
/// the session's SOC content hash, handed to the engine at build time by
/// the registry. Every sweep point the engine optimizes consults and
/// populates the shared [`SolutionCache`] through this seam, which is
/// what lets a sweep pre-answer later plain requests (and vice versa)
/// across sessions of the same SOC.
#[derive(Debug)]
pub struct SessionPointMemo {
    cache: Arc<SolutionCache>,
    soc: u64,
}

impl SessionPointMemo {
    /// A memo over `cache`, keyed by the session's SOC content hash.
    pub fn new(cache: Arc<SolutionCache>, soc: u64) -> Self {
        SessionPointMemo { cache, soc }
    }
}

impl PointMemo for SessionPointMemo {
    fn get(&self, request: &OptimizeRequest) -> Option<OptimizeResponse> {
        self.cache.get_point(self.soc, request)
    }

    fn put(&self, request: &OptimizeRequest, response: &OptimizeResponse) {
        self.cache.put_point(self.soc, request, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OptimizerConfig;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn request(channels: usize) -> OptimizeRequest {
        let cell = TestCell::new(
            AteSpec::new(channels, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        OptimizeRequest::new(OptimizerConfig::new(cell))
    }

    fn response(marker: usize) -> OptimizeResponse {
        // A cheap, distinguishable stand-in — the cache never inspects
        // response contents.
        OptimizeResponse::Curves(Vec::with_capacity(marker))
    }

    /// Re-walks both indexes from scratch, re-charging every entry; the
    /// running byte totals of the two lists must always equal this, or
    /// the O(1) eviction accounting has drifted.
    fn resummed(cache: &SolutionCache) -> (u64, u64) {
        let inner = cache.lock();
        let rewalk = |list: &Lru<CacheEntry>| list.iter().map(|(entry, _)| entry.charge()).sum();
        (rewalk(&inner.entries), rewalk(&inner.points))
    }

    /// A self-deleting temp-file path for the persistence tests.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("soctest-solutions-{tag}-{}.v1", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn second_identical_request_hits_without_recomputing() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(response(0))
        };
        let (first, a) = cache
            .run_coalesced(7, &request(64), &token, compute)
            .unwrap();
        let (second, b) = cache
            .run_coalesced(7, &request(64), &token, || {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(response(0))
            })
            .unwrap();
        assert_eq!(first, CacheOutcome::Computed);
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(a, b);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn different_socs_and_requests_get_distinct_entries() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        cache
            .run_coalesced(1, &request(64), &token, || Ok(response(0)))
            .unwrap();
        // Same request under another SOC key must recompute...
        let (outcome, _) = cache
            .run_coalesced(2, &request(64), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        // ...and so must a different request under the first SOC.
        let (outcome, _) = cache
            .run_coalesced(1, &request(128), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_computation() {
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let runs = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let start = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    cache
                        .run_coalesced(3, &request(64), &CancelToken::new(), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // stragglers to arrive and wait.
                            thread::sleep(Duration::from_millis(100));
                            Ok(response(0))
                        })
                        .unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one computation");
        let expected = response(0);
        for (_, got) in &results {
            assert_eq!(*got, expected);
        }
        let computed = results
            .iter()
            .filter(|(outcome, _)| *outcome == CacheOutcome::Computed)
            .count();
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        // The split: every non-leader was either a direct hit (arrived
        // after the leader finished) or a waiter served its leader's
        // result — never folded together.
        assert_eq!(stats.hits + stats.coalesced_served, threads as u64 - 1);
        assert!(stats.coalesced_waits >= 1);
        assert_eq!(
            stats.coalesced_served, stats.coalesced_waits,
            "every waiter of a successful leader is served, and only waiters count as coalesced"
        );
    }

    #[test]
    fn leader_computed_and_waiter_coalesced_counts_stay_apart() {
        // Pins the exact split with a deterministic interleaving: one
        // leader, one waiter blocked mid-flight, one late direct hit.
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let entered = Arc::new(Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                cache.run_coalesced(11, &request(64), &CancelToken::new(), || {
                    entered.wait();
                    // Hold the flight open while the waiter blocks.
                    thread::sleep(Duration::from_millis(150));
                    Ok(response(0))
                })
            })
        };
        entered.wait();
        let (outcome, _) = cache
            .run_coalesced(11, &request(64), &CancelToken::new(), || {
                panic!("the waiter must not recompute")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Coalesced);
        leader.join().unwrap().unwrap();
        let (outcome, _) = cache
            .run_coalesced(11, &request(64), &CancelToken::new(), || {
                panic!("the direct hit must not recompute")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one leader");
        assert_eq!(stats.hits, 1, "one direct hit, waiter not folded in");
        assert_eq!(stats.coalesced_waits, 1);
        assert_eq!(stats.coalesced_served, 1);
    }

    #[test]
    fn deterministic_failures_are_cached_negatively() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        let failure = OptimizeError::InvalidConfig {
            message: "always broken".into(),
        };
        let err = cache
            .run_coalesced(12, &request(64), &token, || Err(failure.clone()))
            .unwrap_err();
        assert_eq!(err, failure);
        // The repeat replays the cached failure without recomputing.
        let err = cache
            .run_coalesced(12, &request(64), &token, || {
                panic!("negative hit must not recompute")
            })
            .unwrap_err();
        assert_eq!(err, failure);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.negative_insertions, 1);
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn transient_failures_are_never_cached() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        let runs = AtomicUsize::new(0);
        for _ in 0..2 {
            let err = cache
                .run_coalesced(13, &request(64), &token, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Err(OptimizeError::Cancelled)
                })
                .unwrap_err();
            assert!(matches!(err, OptimizeError::Cancelled));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2, "every repeat recomputes");
        let stats = cache.stats();
        assert_eq!(stats.negative_insertions, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn negative_entries_age_out_of_the_lru() {
        let cache = SolutionCache::new(2, u64::MAX);
        let token = CancelToken::new();
        let failure = OptimizeError::InvalidConfig {
            message: "always broken".into(),
        };
        cache
            .run_coalesced(14, &request(64), &token, || Err(failure.clone()))
            .unwrap_err();
        // Two successes push the (coldest) negative entry out.
        for channels in [128, 256] {
            cache
                .run_coalesced(14, &request(channels), &token, || Ok(response(0)))
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The failure is gone: the repeat recomputes (and re-caches).
        let runs = AtomicUsize::new(0);
        let err = cache
            .run_coalesced(14, &request(64), &token, || {
                runs.fetch_add(1, Ordering::SeqCst);
                Err(failure.clone())
            })
            .unwrap_err();
        assert_eq!(err, failure);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.negative_insertions, 2);
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&cache));
    }

    #[test]
    fn failed_leader_does_not_poison_waiters() {
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let runs = Arc::new(AtomicUsize::new(0));
        let threads = 6;
        let start = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    cache.run_coalesced(4, &request(64), &CancelToken::new(), || {
                        let run = runs.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(50));
                        if run == 0 {
                            // The first leader is "cancelled".
                            Err(OptimizeError::Cancelled)
                        } else {
                            Ok(response(0))
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 1, "only the first leader sees its own error");
        for result in results.iter().filter(|r| r.is_ok()) {
            assert_eq!(result.as_ref().unwrap().1, response(0));
        }
        // The first leader failed, exactly one successor recomputed.
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_leader_frees_the_flight_for_waiters() {
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let entered = Arc::new(Barrier::new(2));
        let waiter = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                entered.wait();
                // Give the leader time to panic mid-flight.
                thread::sleep(Duration::from_millis(50));
                cache
                    .run_coalesced(5, &request(64), &CancelToken::new(), || Ok(response(0)))
                    .unwrap()
            })
        };
        let leader = catch_unwind(AssertUnwindSafe(|| {
            cache.run_coalesced(5, &request(64), &CancelToken::new(), || {
                entered.wait();
                thread::sleep(Duration::from_millis(100));
                panic!("injected fault");
            })
        }));
        assert!(leader.is_err());
        let (_, got) = waiter.join().unwrap();
        assert_eq!(got, response(0));
        assert!(cache.lock().inflight.is_empty(), "marker cleaned on unwind");
    }

    #[test]
    fn cancelled_waiter_gives_up_without_disturbing_the_leader() {
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let entered = Arc::new(Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                cache.run_coalesced(6, &request(64), &CancelToken::new(), || {
                    entered.wait();
                    thread::sleep(Duration::from_millis(200));
                    Ok(response(0))
                })
            })
        };
        entered.wait();
        let token = CancelToken::new();
        token.cancel();
        let err = cache
            .run_coalesced(6, &request(64), &token, || Ok(response(0)))
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Cancelled));
        // The leader still completes and caches normally.
        let (outcome, got) = leader.join().unwrap().unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(got, response(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_lru_and_spares_the_hottest() {
        let cache = SolutionCache::new(2, u64::MAX);
        let token = CancelToken::new();
        for channels in [64, 128, 256] {
            cache
                .run_coalesced(9, &request(channels), &token, || Ok(response(0)))
                .unwrap();
        }
        // 64 was coldest and evicted; 128 and 256 are resident, and the
        // running byte counter shed the evictee exactly.
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&cache));
        let (outcome, _) = cache
            .run_coalesced(9, &request(256), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let (outcome, _) = cache
            .run_coalesced(9, &request(64), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
    }

    #[test]
    fn byte_cap_evicts_down_to_the_hottest() {
        let cache = SolutionCache::new(8, 1); // 1 byte: everything oversized
        let token = CancelToken::new();
        cache
            .run_coalesced(9, &request(64), &token, || Ok(response(0)))
            .unwrap();
        cache
            .run_coalesced(9, &request(128), &token, || Ok(response(0)))
            .unwrap();
        // Only the hottest survives under the 1-byte cap, and the byte
        // gauge still matches a from-scratch re-sum of the survivors.
        assert_eq!(cache.len(), 1);
        let (outcome, _) = cache
            .run_coalesced(9, &request(128), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let stats = cache.stats();
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&cache));
        assert!(stats.bytes > 1, "the spared entry may exceed the cap");
    }

    #[test]
    fn canonical_request_is_stable_across_clones() {
        let a = request(64);
        let b = a.clone();
        assert_eq!(canonical_request(&a), canonical_request(&b));
        assert_ne!(canonical_request(&a), canonical_request(&request(128)));
    }

    #[test]
    fn point_entries_answer_plain_requests_and_vice_versa() {
        let cache = SolutionCache::new(8, u64::MAX);
        // A sweep publishes one of its points...
        cache.put_point(21, &request(64), &response(0));
        let stats = cache.stats();
        assert_eq!(stats.point_insertions, 1);
        assert_eq!(stats.point_entries, 1);
        assert!(stats.point_bytes > 0);
        assert_eq!(
            stats.entries, 0,
            "points never sit in the whole-request index"
        );
        // ...and the identical *plain* request is a full cache hit.
        let (outcome, got) = cache
            .run_coalesced(21, &request(64), &CancelToken::new(), || {
                panic!("a point-index hit must not recompute")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(got, response(0));
        assert_eq!(cache.stats().point_hits, 1);

        // The reverse: a whole-request entry pre-answers a sweep's memo
        // probe for the same configuration.
        let token = CancelToken::new();
        cache
            .run_coalesced(22, &request(128), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(cache.get_point(22, &request(128)), Some(response(0)));

        // A memo miss moves no wire-visible counter — the probe is part
        // of serving one sweep, not a request of its own.
        let before = cache.stats();
        assert_eq!(cache.get_point(22, &request(256)), None);
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));

        // First publisher wins: re-publishing a resident key is a no-op.
        cache.put_point(21, &request(64), &response(0));
        assert_eq!(cache.stats().point_insertions, 1);
    }

    #[test]
    fn session_point_memo_scopes_points_to_its_soc() {
        let cache = Arc::new(SolutionCache::new(8, u64::MAX));
        let memo_a = SessionPointMemo::new(Arc::clone(&cache), 1);
        let memo_b = SessionPointMemo::new(Arc::clone(&cache), 2);
        memo_a.put(&request(64), &response(0));
        assert_eq!(memo_a.get(&request(64)), Some(response(0)));
        assert_eq!(
            memo_b.get(&request(64)),
            None,
            "another SOC's session must not see the point"
        );
    }

    #[test]
    fn negative_entries_never_answer_point_probes() {
        let cache = SolutionCache::new(8, u64::MAX);
        let failure = OptimizeError::InvalidConfig {
            message: "always broken".into(),
        };
        cache
            .run_coalesced(23, &request(64), &CancelToken::new(), || {
                Err(failure.clone())
            })
            .unwrap_err();
        // The sweep point recomputes (and fails as the request did)
        // instead of being handed a failure it cannot type.
        assert_eq!(cache.get_point(23, &request(64)), None);
    }

    #[test]
    fn solutions_survive_a_save_load_round_trip() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        cache
            .run_coalesced(31, &request(64), &token, || Ok(response(0)))
            .unwrap();
        cache
            .run_coalesced(31, &request(128), &token, || Ok(response(0)))
            .unwrap();
        cache.put_point(31, &request(256), &response(0));
        // Negative entries are cheap to recompute and never persist.
        cache
            .run_coalesced(31, &request(512), &token, || {
                Err(OptimizeError::InvalidConfig {
                    message: "always broken".into(),
                })
            })
            .unwrap_err();
        let file = TempFile::new("round-trip");
        cache.save(&file.0).unwrap();

        let reloaded = SolutionCache::new(8, u64::MAX);
        assert_eq!(
            reloaded.load(&file.0).unwrap(),
            3,
            "two whole-request successes plus one point, no negatives"
        );
        let (outcome, _) = reloaded
            .run_coalesced(31, &request(64), &CancelToken::new(), || {
                panic!("a persisted entry must answer")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(reloaded.get_point(31, &request(256)), Some(response(0)));
        // The counters stay exact through the merge.
        let stats = reloaded.stats();
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&reloaded));
        // The dropped negative recomputes from scratch.
        let (outcome, _) = reloaded
            .run_coalesced(31, &request(512), &CancelToken::new(), || Ok(response(0)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
    }

    #[test]
    fn load_merges_without_clobbering_resident_entries() {
        let saved = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        saved
            .run_coalesced(32, &request(64), &token, || Ok(response(0)))
            .unwrap();
        saved
            .run_coalesced(32, &request(128), &token, || Ok(response(0)))
            .unwrap();
        let file = TempFile::new("merge");
        saved.save(&file.0).unwrap();

        // A cache already holding one of the keys merges only the other.
        let target = SolutionCache::new(8, u64::MAX);
        target
            .run_coalesced(32, &request(64), &token, || Ok(response(0)))
            .unwrap();
        assert_eq!(target.load(&file.0).unwrap(), 1);
        assert_eq!(target.len(), 2);
        let stats = target.stats();
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&target));
    }

    #[test]
    fn load_applies_the_caps_of_the_loading_cache() {
        let saved = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        for channels in [64, 128, 256] {
            saved
                .run_coalesced(33, &request(channels), &token, || Ok(response(0)))
                .unwrap();
        }
        let file = TempFile::new("caps");
        saved.save(&file.0).unwrap();

        // A smaller cache loads all three, then evicts down to its own
        // entry cap — keeping the hottest (the last-saved) entries.
        let small = SolutionCache::new(2, u64::MAX);
        assert_eq!(small.load(&file.0).unwrap(), 3);
        assert_eq!(small.len(), 2);
        let (outcome, _) = small
            .run_coalesced(33, &request(256), &CancelToken::new(), || {
                panic!("the hottest saved entry must survive the merge")
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn corrupt_solution_files_are_typed_clean_misses() {
        let cache = SolutionCache::new(8, u64::MAX);
        let token = CancelToken::new();
        cache
            .run_coalesced(34, &request(64), &token, || Ok(response(0)))
            .unwrap();
        cache.put_point(34, &request(128), &response(0));
        let file = TempFile::new("corrupt");
        cache.save(&file.0).unwrap();
        let pristine = std::fs::read(&file.0).unwrap();

        // A battery of mutilations: each must be rejected as a typed
        // Corrupt error with the loading cache left untouched.
        let truncated = pristine[..pristine.len() - 3].to_vec();
        let mut bad_magic = pristine.clone();
        bad_magic[0] ^= 0xff;
        let mut flipped_payload = pristine.clone();
        flipped_payload[SOLUTIONS_MAGIC.len() + 12] ^= 0x01;
        let mut trailing = pristine.clone();
        trailing.push(0);
        for (what, bytes) in [
            ("truncated", truncated),
            ("bad magic", bad_magic),
            ("flipped payload byte", flipped_payload),
            ("trailing garbage", trailing),
        ] {
            std::fs::write(&file.0, &bytes).unwrap();
            let target = SolutionCache::new(8, u64::MAX);
            let err = target.load(&file.0).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "{what}: expected a typed Corrupt error, got {err:?}"
            );
            assert!(target.is_empty(), "{what}: the cache must stay untouched");
            assert_eq!(target.stats().point_entries, 0);
        }

        // The pristine bytes still load — the mutations were the problem.
        std::fs::write(&file.0, &pristine).unwrap();
        let target = SolutionCache::new(8, u64::MAX);
        assert_eq!(target.load(&file.0).unwrap(), 2);
    }

    #[test]
    fn a_key_in_both_sections_merges_once_before_the_caps_apply() {
        // A file whose point section repeats the coldest whole-request
        // key. The whole file merges before the caps apply, so the repeat
        // is skipped as resident, although the entry cap then evicts its
        // first copy.
        let rendered = serde_json::to_string(&response(0)).unwrap();
        let canonicals = [64, 128, 256].map(|channels| canonical_request(&request(channels)));
        let bytes = seal_envelope(SOLUTIONS_MAGIC, SOLUTIONS_VERSION, |out| {
            for section in [&canonicals[..], &canonicals[..1]] {
                push_u64(out, section.len() as u64);
                for canonical in section {
                    push_u64(out, 35);
                    push_u64(out, fnv1a64(canonical));
                    push_u64(out, canonical.len() as u64);
                    out.extend_from_slice(canonical.as_bytes());
                    push_u64(out, rendered.len() as u64);
                    out.extend_from_slice(rendered.as_bytes());
                }
            }
        });
        let file = TempFile::new("both-sections");
        std::fs::write(&file.0, bytes).unwrap();
        let cache = SolutionCache::new(2, u64::MAX);
        assert_eq!(cache.load(&file.0).unwrap(), 3);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.point_entries, stats.evictions),
            (2, 0, 1)
        );
        assert_eq!(cache.get_point(35, &request(64)), None);
        assert_eq!(cache.get_point(35, &request(256)), Some(response(0)));
    }

    /// A small deterministic generator for the threaded test: each call
    /// answers a value below `bound`.
    fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    #[test]
    fn threaded_operations_keep_the_charges_exact_and_the_caps_held() {
        // Four threads mix hits, misses, negative and transient failures,
        // point publishes and point probes over a few keys, under an
        // entry cap and a byte cap of about three entries. Negative
        // entries carry messages of random length, so the charges vary.
        // After the join each index's running total equals a re-walk
        // that re-charges every entry, neither index is over a cap unless
        // it holds one entry, no flight is left behind, and every
        // admitted entry is resident or counted evicted.
        let max_entries = 4;
        let max_bytes = 3 * (canonical_request(&request(64)).len() as u64 + 60);
        let cache = Arc::new(SolutionCache::new(max_entries, max_bytes));
        let threads: Vec<_> = (0..4)
            .map(|seed| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let mut next = xorshift(seed + 1);
                    for _ in 0..300 {
                        let soc = next(3);
                        let request = request(64 + 32 * next(6) as usize);
                        match next(5) {
                            0 => cache.put_point(soc, &request, &response(0)),
                            1 => drop(cache.get_point(soc, &request)),
                            kind => {
                                let message = "x".repeat(next(120) as usize);
                                let token = CancelToken::new();
                                let _ = cache.run_coalesced(soc, &request, &token, || match kind {
                                    2 => Ok(response(0)),
                                    3 => Err(OptimizeError::InvalidConfig { message }),
                                    _ => Err(OptimizeError::Cancelled),
                                });
                            }
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.bytes, stats.point_bytes), resummed(&cache));
        for (entries, bytes) in [
            (stats.entries, stats.bytes),
            (stats.point_entries, stats.point_bytes),
        ] {
            assert!(
                entries <= 1 || (entries <= max_entries as u64 && bytes <= max_bytes),
                "{entries} entries of {bytes} bytes are over a cap"
            );
        }
        assert!(stats.evictions > 0, "the caps were exercised");
        assert!(cache.lock().inflight.is_empty());
        assert_eq!(
            stats.entries + stats.point_entries + stats.evictions,
            stats.insertions + stats.negative_insertions + stats.point_insertions
        );
    }

    #[test]
    fn load_if_present_treats_a_missing_file_as_empty() {
        let cache = SolutionCache::new(8, u64::MAX);
        let file = TempFile::new("missing");
        assert_eq!(cache.load_if_present(&file.0).unwrap(), 0);
        assert!(cache.is_empty());
    }
}
