//! The content-addressed module row store: `hash(ModuleShape) → time row`.
//!
//! The optimizer's dominant cost is computing `t(m, w)` cells, and the
//! identity of a cell depends on nothing but the module's *shape* — its
//! pattern count, wrapper cell counts, and sorted scan-chain lengths
//! ([`ModuleShape::content_key`]). Two modules with equal shapes have
//! bit-identical rows even across different SOCs, so a store keyed by
//! shape content lets
//!
//! * a table regrown wider re-serve every cell the narrower table built,
//! * two SOCs sharing module profiles (the NoC-reuse workloads of Amory
//!   et al.) share rows inside one process, and
//! * a **new process** start warm from a cache directory
//!   (`soc-serve --cache-dir`), never recomputing a row an earlier run
//!   produced.
//!
//! Lookups are content-addressed in the torc-verify `ProofCache` style:
//! an FNV-1a fast path over the canonical key bytes, with the full key
//! compared on hash hits so a (cosmically unlikely) collision degrades to
//! two separate rows, never to a wrong time.
//!
//! # On-disk format (`rows.v1`)
//!
//! A single little-endian binary file, atomically replaced on save
//! (write-to-temp + rename), so concurrent writers and crashed processes
//! can only ever leave a fully old, fully new, or checksum-failing file:
//!
//! ```text
//! magic    b"SOCROWS" + version byte b'1'
//! payload  u64 row_count, then per row (coldest-touched first):
//!              u64 shape hash
//!              u64 key length, then the canonical key bytes
//!              u64 cell count, then per cell: u64 width, u64 time
//! trailer  u64 FNV-1a of every preceding byte (magic included)
//! ```
//!
//! Row *order* carries the last-touch recency: rows are written coldest
//! first (ties broken by `(hash, key)` so saves stay deterministic), and
//! [`RowStore::load`] replays touches in file order, so recency survives
//! a save/load cycle without any change to the byte layout — files
//! written before ordering existed still load, they just start with an
//! arbitrary recency. That ordering is what [`RowStore::save_capped`]
//! compacts by: when the serialized store exceeds its byte bound, the
//! coldest rows are dropped until the file fits. A bounded store's
//! [`RowStore::load`] trims by the same order once, after merging.
//!
//! # Resident layout
//!
//! One resident row is a single `Arc` allocation holding the canonical
//! key as a `Box<[u8]>` (32 bytes of header words plus 8 per scan chain),
//! its cells as one `Vec<(width, time)>` sorted by width behind the row's
//! mutex, the touch stamp, and a handle to the store's cell gauge.
//! [`StoreRow::get`] binary-searches the cells and [`StoreRow::insert`]
//! shifts one in; the vector grows geometrically, so a row's dozen or so
//! inserts reallocate it a few times rather than once each, and a freed
//! row's blocks are the sizes the next rows ask for. [`RowStore::load`]
//! merges a file row's sorted cells in one pass. The map holds one `Arc`
//! per content hash.
//!
//! A row whose hash is already taken by a row with a different key goes
//! in a side list, where lookups match it by its full key, so a hash
//! collision yields two distinct rows that never see each other's cells.
//!
//! # Resident bound
//!
//! [`RowStore::bounded`] caps the resident rows at a byte charge, each
//! row charged its `rows.v1` size: `24 + key + 16 × cells` bytes. The
//! charge is a running total of three gauges (rows, key bytes, cells), so
//! checking it costs three relaxed loads. Past the bound the store evicts
//! by a second-chance CLOCK over an admission queue that holds every
//! resident row's handle. Each queue entry remembers the row's touch
//! stamp when the hand last passed it. When a resolve finds the store
//! over its bound, the hand visits at most 16 entries (`EVICT_VISITS`)
//! from the front. It re-queues a row that a table still holds, or that
//! was touched since the hand last passed it (its second chance), and
//! evicts any other row, until the charge fits. A row a live table holds
//! is never evicted: a table's handle keeps the `Arc`'s count above the
//! store's own two, and no new handle can appear while the store's lock
//! is held. Evicted rows are freed after that lock is released. A shape
//! whose row was evicted resolves to a new, empty row and is recomputed
//! bit-identically on its next probe. Because one resolve visits a fixed
//! number of entries, the hand never re-stamps the whole queue at once;
//! the charge can therefore run past the bound for a while, by the rows
//! still held and by the cells that held rows gain between resolves.
//! [`RowStore::new`] is unbounded.
//!
//! The envelope (magic + version + checksummed payload + atomic rename)
//! is shared with the service's `solutions.v1` file through
//! [`seal_envelope`], [`open_envelope`] and [`write_atomic`].
//!
//! [`RowStore::load`] verifies the magic, the version, the checksum and
//! every length field *before* touching the resident map; any mismatch —
//! truncation, bit flips, version bumps, torn concurrent writes — returns
//! a typed [`StoreError`] and leaves the store exactly as it was, so a
//! corrupt cache file is a clean miss, never a panic and never a wrong
//! row (`crates/tam/tests/row_store_corruption.rs`).

use soctest_wrapper::row::ModuleShape;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{self, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// File magic (7 bytes) followed by the one-byte format version.
const MAGIC: &[u8; 7] = b"SOCROWS";
/// Current on-disk format version byte.
const VERSION: u8 = b'1';

/// Bytes a row is charged for its hash, key length and cell count words,
/// as in `rows.v1`.
const ROW_WORDS: u64 = 24;
/// Bytes a row is charged per `(width, time)` cell, as in `rows.v1`.
const CELL_BYTES: u64 = 16;

/// Clock entries one resolve may visit while the store is over its
/// bound. A small fixed number keeps each admission cheap and stops one
/// admission from re-stamping the whole queue, after which the next
/// admissions would evict hot rows in queue order.
const EVICT_VISITS: usize = 16;

/// Handles the store itself keeps on a resident row: its map (or side
/// list) entry and its clock entry. A count above this means a table, or
/// another caller, holds the row.
const STORE_HANDLES: usize = 2;

/// A row's charge, resident or on disk: its size in `rows.v1`.
fn row_charge(key_len: usize, cells: usize) -> u64 {
    ROW_WORDS + key_len as u64 + CELL_BYTES * cells as u64
}

/// The process-wide last-touch clock: every [`StoreRow::get`] /
/// [`StoreRow::insert`] stamps its row with the next tick, so "coldest"
/// is well-defined across every store in the process. Only the ordering
/// of stamps matters, never their absolute values.
static TOUCH_CLOCK: AtomicU64 = AtomicU64::new(1);

/// FNV-1a 64-bit over raw bytes — the same stable, dependency-free hash
/// the service registry uses over canonical SOC text.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a cache file was rejected. Every variant is a *clean miss*: the
/// resident store is untouched and the caller may simply proceed cold.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read (except `NotFound`, which loaders treat
    /// as an empty store before constructing this error).
    Io(io::Error),
    /// The bytes were readable but not a valid `rows.v1` file: bad magic,
    /// unsupported version, checksum mismatch, truncated or trailing data.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "row-store file unreadable: {err}"),
            StoreError::Corrupt(why) => write!(f, "row-store file rejected: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// One resident row: the canonical shape identity plus every `(width,
/// time)` cell known for it. Shared (`Arc`) between the store, every
/// table that resolved it, and the persistence layer.
#[derive(Debug)]
pub struct StoreRow {
    /// The hash the store's map files this row under.
    hash: u64,
    key: Box<[u8]>,
    /// Cells sorted by ascending width.
    cells: Mutex<Vec<(u64, u64)>>,
    /// Last [`TOUCH_CLOCK`] tick that read or wrote this row — the
    /// recency [`RowStore::save_capped`] compacts by and the eviction
    /// clock's second chance reads.
    touch: AtomicU64,
    /// The owning store's resident-cell gauge, bumped on every cell this
    /// row gains.
    resident_cells: Arc<AtomicU64>,
}

impl StoreRow {
    fn new(hash: u64, key: Vec<u8>, resident_cells: Arc<AtomicU64>) -> Self {
        StoreRow {
            hash,
            key: key.into_boxed_slice(),
            cells: Mutex::new(Vec::new()),
            touch: AtomicU64::new(0),
            resident_cells,
        }
    }

    fn touch_now(&self) {
        self.touch.store(
            TOUCH_CLOCK.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// The cached time at `width`, if any earlier computation produced it.
    pub fn get(&self, width: usize) -> Option<u64> {
        self.touch_now();
        let cells = lock(&self.cells);
        let at = cells.binary_search_by_key(&(width as u64), |&(w, _)| w);
        at.ok().map(|at| cells[at].1)
    }

    /// Records `time` at `width`; returns `true` iff the cell was absent.
    /// First writer wins — racing writers carry the same deterministic
    /// value, so the "loser" changes nothing.
    pub fn insert(&self, width: usize, time: u64) -> bool {
        self.touch_now();
        let width = width as u64;
        let mut cells = lock(&self.cells);
        let Err(at) = cells.binary_search_by_key(&width, |&(w, _)| w) else {
            return false;
        };
        cells.insert(at, (width, time));
        self.resident_cells.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Merges `loaded` (sorted by width, widths distinct) into the row;
    /// resident cells win ties. Returns the cells added.
    fn merge(&self, loaded: Vec<(u64, u64)>) -> u64 {
        let mut cells = lock(&self.cells);
        let merged = if cells.is_empty() {
            loaded
        } else {
            let mut merged = Vec::with_capacity(cells.len() + loaded.len());
            let mut resident = cells.iter().copied().peekable();
            for cell in loaded {
                merged.extend(std::iter::from_fn(|| resident.next_if(|r| r.0 < cell.0)));
                if resident.peek().is_none_or(|r| r.0 != cell.0) {
                    merged.push(cell);
                }
            }
            merged.extend(resident);
            merged
        };
        let added = (merged.len() - cells.len()) as u64;
        if added > 0 {
            *cells = merged;
            self.resident_cells.fetch_add(added, Ordering::Relaxed);
        }
        added
    }

    /// Number of cells resident in this row.
    pub fn len(&self) -> usize {
        lock(&self.cells).len()
    }

    /// Whether no cell is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Point-in-time counters of a [`RowStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RowStoreStats {
    /// Distinct shapes resident: a gauge, which falls when a bounded
    /// store evicts.
    pub rows: u64,
    /// `(shape, width)` cells resident across all rows: a gauge, like
    /// `rows`.
    pub cells: u64,
    /// The resident rows' charge in bytes, `24 + key + 16 × cells` per
    /// row (its size in `rows.v1`): the gauge a bounded store holds to
    /// its bound.
    pub bytes: u64,
    /// Rows a bounded store evicted since construction.
    pub rows_evicted: u64,
    /// Cells computed fresh since construction — counted on first insert
    /// of a `(shape, width)` pair, so the count is deterministic under
    /// racing duplicate computations. "Zero rows rebuilt" on a warm
    /// restart means exactly this counter staying zero. A cell of an
    /// evicted row counts again when it is recomputed.
    pub cells_computed: u64,
    /// Cells a table filled from the store instead of computing (counted
    /// by the first table cell each serves; concurrent probes that race a
    /// fresh computation may compute instead of hitting, so this counter
    /// is a lower bound under parallelism).
    pub cells_served: u64,
    /// Cells merged from disk by [`RowStore::load`].
    pub cells_loaded: u64,
}

impl RowStoreStats {
    /// Counter growth from `earlier` to `self` — the same epoch/diff
    /// pattern as `LazyTimeTable::stats_epoch`, so one request's store
    /// traffic can be attributed by snapshotting around it. Saturating:
    /// `rows`, `cells` and `bytes` are resident gauges, so their "delta"
    /// is growth (never negative), and stale snapshots yield zeros.
    #[must_use]
    pub fn delta_since(&self, earlier: &RowStoreStats) -> RowStoreStats {
        RowStoreStats {
            rows: self.rows.saturating_sub(earlier.rows),
            cells: self.cells.saturating_sub(earlier.cells),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            rows_evicted: self.rows_evicted.saturating_sub(earlier.rows_evicted),
            cells_computed: self.cells_computed.saturating_sub(earlier.cells_computed),
            cells_served: self.cells_served.saturating_sub(earlier.cells_served),
            cells_loaded: self.cells_loaded.saturating_sub(earlier.cells_loaded),
        }
    }
}

/// A process-wide, thread-safe store of content-addressed module rows.
/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct RowStore {
    rows: Mutex<ResidentRows>,
    /// The resident byte bound; `None` never evicts.
    max_bytes: Option<u64>,
    /// Gauges behind [`RowStore::stats`] and the charge: rows and key
    /// bytes resident (changed under the `rows` lock), and cells resident
    /// (shared with every row).
    resident_rows: AtomicU64,
    resident_key_bytes: AtomicU64,
    resident_cells: Arc<AtomicU64>,
    rows_evicted: AtomicU64,
    cells_computed: AtomicU64,
    cells_served: AtomicU64,
    cells_loaded: AtomicU64,
}

/// The resident rows: one per content hash, plus the rare rows whose hash
/// an earlier row with a different key already holds, and the eviction
/// clock over all of them.
#[derive(Debug, Default)]
struct ResidentRows {
    by_hash: HashMap<u64, Arc<StoreRow>>,
    collided: Vec<Arc<StoreRow>>,
    /// Every resident row once, in admission order rotated by the hand
    /// (the front), each with its touch stamp when the hand last passed
    /// it (`0` until then).
    clock: VecDeque<(Arc<StoreRow>, u64)>,
}

impl ResidentRows {
    fn iter(&self) -> impl Iterator<Item = &Arc<StoreRow>> {
        self.clock.iter().map(|(row, _)| row)
    }

    /// Drops an evicted row's map entry; a side-list row with the same
    /// hash takes over the map slot.
    fn unlink(&mut self, row: &Arc<StoreRow>) {
        let holds = |r: &Arc<StoreRow>| Arc::ptr_eq(r, row);
        if !self.by_hash.get(&row.hash).is_some_and(holds) {
            self.collided.retain(|r| !holds(r));
        } else if let Some(at) = self.collided.iter().position(|r| r.hash == row.hash) {
            self.by_hash.insert(row.hash, self.collided.swap_remove(at));
        } else {
            self.by_hash.remove(&row.hash);
        }
    }
}

impl RowStore {
    /// An empty, unbounded store: no resident row is ever evicted.
    pub fn new() -> Self {
        RowStore::default()
    }

    /// An empty store whose resident rows are held to `max_bytes` of
    /// charge (see [Resident bound](self#resident-bound)): past it, a
    /// resolve evicts the coldest rows that no table holds.
    pub fn bounded(max_bytes: u64) -> Self {
        RowStore {
            max_bytes: Some(max_bytes),
            ..RowStore::default()
        }
    }

    /// The resident row for `shape`, created empty if absent. The handle
    /// is shared: every table resolving an equal shape gets the same row,
    /// and a bounded store never evicts a row while a handle is held.
    pub fn row_for_shape(&self, shape: &ModuleShape) -> Arc<StoreRow> {
        let key = shape.content_key();
        self.row_for_key(fnv1a64(&key), key)
    }

    /// Get-or-create by `(hash, key)`, then, over the bound, one
    /// eviction pass; the victims are freed after the lock is released.
    fn row_for_key(&self, hash: u64, key: Vec<u8>) -> Arc<StoreRow> {
        let mut rows = lock(&self.rows);
        let row = self.resolve(&mut rows, hash, key);
        let victims = self.evict(&mut rows, EVICT_VISITS);
        drop(rows);
        drop(victims);
        row
    }

    /// Get-or-create under the lock: the row under `hash` if its key is
    /// `key`, else a side-list row with that key, else a new row admitted
    /// at the back of the clock.
    fn resolve(&self, rows: &mut ResidentRows, hash: u64, key: Vec<u8>) -> Arc<StoreRow> {
        let ResidentRows {
            by_hash,
            collided,
            clock,
        } = rows;
        let holder = by_hash.entry(hash);
        if let Entry::Occupied(holder) = &holder {
            let mut candidates = std::iter::once(holder.get()).chain(collided.iter());
            if let Some(row) = candidates.find(|row| *row.key == *key) {
                return Arc::clone(row);
            }
        }
        self.resident_key_bytes
            .fetch_add(key.len() as u64, Ordering::Relaxed);
        let row = Arc::new(StoreRow::new(hash, key, Arc::clone(&self.resident_cells)));
        match holder {
            Entry::Occupied(_) => collided.push(Arc::clone(&row)),
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&row));
            }
        }
        clock.push_back((Arc::clone(&row), 0));
        self.resident_rows.fetch_add(1, Ordering::Relaxed);
        row
    }

    /// The resident rows' charge: three relaxed loads.
    fn charge(&self) -> u64 {
        ROW_WORDS * self.resident_rows.load(Ordering::Relaxed)
            + self.resident_key_bytes.load(Ordering::Relaxed)
            + CELL_BYTES * self.resident_cells.load(Ordering::Relaxed)
    }

    /// While the charge is over the bound, moves the clock hand over at
    /// most `visits` entries: a row that is held, or was touched since
    /// the hand last passed it, goes to the back with its stamp renewed;
    /// any other row is evicted. Returns the victims, for the caller to
    /// free once the lock is released.
    fn evict(&self, rows: &mut ResidentRows, visits: usize) -> Vec<Arc<StoreRow>> {
        let mut victims = Vec::new();
        let Some(max_bytes) = self.max_bytes else {
            return victims;
        };
        for _ in 0..visits {
            if self.charge() <= max_bytes {
                break;
            }
            let Some((row, seen)) = rows.clock.pop_front() else {
                break;
            };
            let touch = row.touch.load(Ordering::Relaxed);
            if touch != seen || Arc::strong_count(&row) > STORE_HANDLES {
                rows.clock.push_back((row, touch));
                continue;
            }
            // Pairs with the release decrement of the last outside
            // handle, so its cell writes are visible before the row goes.
            atomic::fence(Ordering::Acquire);
            rows.unlink(&row);
            self.resident_rows.fetch_sub(1, Ordering::Relaxed);
            self.resident_key_bytes
                .fetch_sub(row.key.len() as u64, Ordering::Relaxed);
            self.resident_cells
                .fetch_sub(row.len() as u64, Ordering::Relaxed);
            self.rows_evicted.fetch_add(1, Ordering::Relaxed);
            victims.push(row);
        }
        victims
    }

    /// Counts one fresh `(shape, width)` computation. Call only when
    /// [`StoreRow::insert`] returned `true` — that guard is what keeps the
    /// counter deterministic under racing duplicate computations.
    pub(crate) fn note_computed(&self) {
        self.cells_computed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one table cell filled from the store (first filler only).
    pub(crate) fn note_served(&self) {
        self.cells_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters: relaxed loads of running gauges, O(1) however
    /// many rows are resident.
    pub fn stats(&self) -> RowStoreStats {
        RowStoreStats {
            rows: self.resident_rows.load(Ordering::Relaxed),
            cells: self.resident_cells.load(Ordering::Relaxed),
            bytes: self.charge(),
            rows_evicted: self.rows_evicted.load(Ordering::Relaxed),
            cells_computed: self.cells_computed.load(Ordering::Relaxed),
            cells_served: self.cells_served.load(Ordering::Relaxed),
            cells_loaded: self.cells_loaded.load(Ordering::Relaxed),
        }
    }

    /// Merges every row of the `rows.v1` file at `path` into the store
    /// (resident cells win ties; the values are deterministic anyway) and
    /// returns the number of cells merged. A bounded store then applies
    /// its bound once: the hand may pass every row twice, so the rows the
    /// store keeps are the hottest, by the file's coldest-first order.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on unreadable, truncated, corrupted or
    /// version-mismatched files. The store is untouched on error — the
    /// whole file is parsed and verified first.
    pub fn load(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = fs::read(path)?;
        let parsed = parse_rows_file(&bytes)?;
        let mut merged = 0u64;
        let mut rows = lock(&self.rows);
        for (hash, key, cells) in parsed {
            let row = self.resolve(&mut rows, hash, key);
            merged += row.merge(cells);
            // Replay the file's recency: rows are stored coldest first,
            // so touching in file order restores the save-time ordering.
            row.touch_now();
        }
        let visits = 2 * rows.clock.len();
        let victims = self.evict(&mut rows, visits);
        drop(rows);
        drop(victims);
        self.cells_loaded.fetch_add(merged, Ordering::Relaxed);
        Ok(merged)
    }

    /// [`RowStore::load`], treating a missing file as an empty store.
    /// Returns `Ok(0)` when `path` does not exist.
    ///
    /// # Errors
    ///
    /// As [`RowStore::load`] for files that exist but fail verification.
    pub fn load_if_present(&self, path: &Path) -> Result<u64, StoreError> {
        match self.load(path) {
            Err(StoreError::Io(err)) if err.kind() == io::ErrorKind::NotFound => Ok(0),
            other => other,
        }
    }

    /// Writes the store as a `rows.v1` file at `path`, atomically (see
    /// [`write_atomic`]). Returns the number of rows written. Output is
    /// deterministic for a given store content and touch ordering: rows
    /// are written coldest-touched first (ties by `(hash, key)`), cells
    /// by width, and saving never counts as a touch — two back-to-back
    /// saves produce identical bytes.
    ///
    /// # Errors
    ///
    /// Any I/O error creating, writing, syncing or renaming the file.
    pub fn save(&self, path: &Path) -> io::Result<u64> {
        self.save_capped(path, u64::MAX)
    }

    /// [`RowStore::save`] with a garbage-collection bound: when the
    /// serialized store would exceed `max_bytes`, the coldest-touched
    /// rows are dropped (from the *file* only — the resident store is
    /// untouched) until the file fits. The bound is strict: the written
    /// file is always `<= max_bytes`, even if that means writing a
    /// valid, empty envelope. Returns the number of rows written.
    ///
    /// # Errors
    ///
    /// Any I/O error creating, writing, syncing or renaming the file.
    pub fn save_capped(&self, path: &Path, max_bytes: u64) -> io::Result<u64> {
        // Snapshot rows (touch + cells) up front so a concurrently
        // growing row cannot desync the size accounting from the bytes
        // actually serialized.
        type RowSnapshot<'a> = (u64, u64, &'a [u8], Vec<(u64, u64)>);
        let rows: Vec<Arc<StoreRow>> = lock(&self.rows).iter().cloned().collect();
        let mut snapshot: Vec<RowSnapshot> = rows
            .iter()
            .map(|row| {
                (
                    row.touch.load(Ordering::Relaxed),
                    fnv1a64(&row.key),
                    &*row.key,
                    lock(&row.cells).clone(),
                )
            })
            .collect();
        // Coldest first; (hash, key) tiebreak keeps saves deterministic.
        snapshot.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));

        // Envelope overhead: magic + version + row count + checksum.
        let overhead = (MAGIC.len() + 1 + 8 + 8) as u64;
        let mut total = overhead
            + snapshot
                .iter()
                .map(|(_, _, k, c)| row_charge(k.len(), c.len()))
                .sum::<u64>();
        let mut first_kept = 0;
        while total > max_bytes && first_kept < snapshot.len() {
            let (_, _, key, cells) = &snapshot[first_kept];
            total -= row_charge(key.len(), cells.len());
            first_kept += 1;
        }
        let kept = &snapshot[first_kept..];

        let bytes = seal_envelope(MAGIC, VERSION, |out| {
            push_u64(out, kept.len() as u64);
            for (_, hash, key, cells) in kept {
                push_u64(out, *hash);
                push_u64(out, key.len() as u64);
                out.extend_from_slice(key);
                push_u64(out, cells.len() as u64);
                for &(width, time) in cells.iter() {
                    push_u64(out, width);
                    push_u64(out, time);
                }
            }
        });
        debug_assert!(bytes.len() as u64 <= max_bytes || kept.is_empty());
        write_atomic(path, &bytes)?;
        Ok(kept.len() as u64)
    }
}

/// Builds a checksummed envelope: `magic` and `version`, the payload
/// `build` appends, and a trailing FNV-1a of every preceding byte. The
/// counterpart of [`open_envelope`]; shared by `rows.v1` and the
/// service's `solutions.v1`.
pub fn seal_envelope(magic: &[u8; 7], version: u8, build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(magic);
    bytes.push(version);
    build(&mut bytes);
    let checksum = fnv1a64(&bytes);
    push_u64(&mut bytes, checksum);
    bytes
}

/// Verifies an envelope's magic, version and trailing checksum, and
/// returns the payload slice between header and trailer.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on a short file, wrong magic, unsupported
/// version, or checksum mismatch.
pub fn open_envelope<'a>(
    magic: &[u8; 7],
    version: u8,
    bytes: &'a [u8],
) -> Result<&'a [u8], StoreError> {
    let minimum = magic.len() + 1 + 8; // magic, version, checksum
    if bytes.len() < minimum {
        return Err(StoreError::Corrupt(format!(
            "file too short ({} bytes) for an envelope header",
            bytes.len()
        )));
    }
    if &bytes[..magic.len()] != magic {
        return Err(StoreError::Corrupt("bad magic".to_string()));
    }
    let found = bytes[magic.len()];
    if found != version {
        return Err(StoreError::Corrupt(format!(
            "unsupported format version {:?} (expected {:?})",
            char::from(found),
            char::from(version),
        )));
    }
    let (checked, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let actual = fnv1a64(checked);
    if stored != actual {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(&checked[magic.len() + 1..])
}

/// Writes `bytes` to `path` atomically: a sibling temporary file first,
/// renamed into place, so a concurrent reader (or a second writer racing
/// this one) observes a complete old or complete new file, never a torn
/// one.
///
/// # Errors
///
/// Any I/O error creating, writing, syncing or renaming the file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // The temp name must be unique per *call*, not just per process:
    // two in-process savers racing one path would otherwise rename
    // each other's half-written temp file into place.
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let temp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = (|| -> io::Result<()> {
        let mut file = fs::File::create(&temp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&temp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&temp);
    }
    written
}

/// Appends a little-endian `u64` — the envelope formats' only scalar
/// encoding.
pub fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Strict bounds-checked reader over an envelope payload. Every read is
/// validated against the remaining byte count before slicing, so a
/// bit-flipped length field yields a typed error, never a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| StoreError::Corrupt("truncated row data".to_string()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
}

/// Verifies and parses a whole `rows.v1` file. Pure: no store state is
/// touched, so callers can reject corrupt files with nothing to roll
/// back. Length fields are validated against the remaining byte count
/// *before* any allocation, so a bit-flipped count cannot balloon memory.
#[allow(clippy::type_complexity)]
fn parse_rows_file(bytes: &[u8]) -> Result<Vec<(u64, Vec<u8>, Vec<(u64, u64)>)>, StoreError> {
    let payload = open_envelope(MAGIC, VERSION, bytes)?;
    let mut cursor = Cursor::new(payload);
    let row_count = cursor.u64()?;
    let mut rows = Vec::new();
    for _ in 0..row_count {
        let hash = cursor.u64()?;
        let key_len = cursor.u64()?;
        let key_len = usize::try_from(key_len)
            .ok()
            .filter(|&len| len <= cursor.remaining())
            .ok_or_else(|| StoreError::Corrupt("key length exceeds file".to_string()))?;
        let key = cursor.take(key_len)?.to_vec();
        if fnv1a64(&key) != hash {
            return Err(StoreError::Corrupt(
                "row hash does not match its key".to_string(),
            ));
        }
        let cell_count = cursor.u64()?;
        let cell_count = usize::try_from(cell_count)
            .ok()
            .filter(|&count| {
                count
                    .checked_mul(16)
                    .is_some_and(|b| b <= cursor.remaining())
            })
            .ok_or_else(|| StoreError::Corrupt("cell count exceeds file".to_string()))?;
        let mut cells = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            let width = cursor.u64()?;
            let time = cursor.u64()?;
            if width == 0 {
                return Err(StoreError::Corrupt("zero cell width".to_string()));
            }
            cells.push((width, time));
        }
        // Saves write each row's widths strictly ascending. A file that
        // does not is put in that order, and its first cell at a repeated
        // width wins, as cell-by-cell inserts would have it.
        if !cells.is_sorted_by(|a, b| a.0 < b.0) {
            cells.sort_by_key(|&(width, _)| width);
            cells.dedup_by_key(|&mut (width, _)| width);
        }
        rows.push((hash, key, cells));
    }
    if cursor.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last row",
            cursor.remaining()
        )));
    }
    Ok(rows)
}

// Poisoning is recovered, not propagated: every critical section above is
// a short map/tree mutation that cannot be observed half-done, and a
// panicking optimizer thread must not wedge the whole process's cache.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::Module;

    fn shape(patterns: u64, chains: &[u64]) -> ModuleShape {
        let mut builder = Module::builder("m").patterns(patterns).inputs(2).outputs(2);
        for &chain in chains {
            builder = builder.scan_chain(chain);
        }
        ModuleShape::of(&builder.build())
    }

    #[test]
    fn equal_shapes_share_one_row() {
        let store = RowStore::new();
        let a = store.row_for_shape(&shape(7, &[3, 9]));
        let b = store.row_for_shape(&shape(7, &[9, 3]));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats().rows, 1);
        let c = store.row_for_shape(&shape(8, &[3, 9]));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.stats().rows, 2);
    }

    #[test]
    fn insert_reports_first_writer_and_get_serves_it() {
        let store = RowStore::new();
        let row = store.row_for_shape(&shape(7, &[3]));
        assert_eq!(row.get(4), None);
        assert!(row.insert(4, 99));
        assert!(!row.insert(4, 99));
        assert_eq!(row.get(4), Some(99));
        assert_eq!(row.len(), 1);
    }

    #[test]
    fn save_load_round_trips_and_is_deterministic() {
        let dir = ScratchDir::new("roundtrip");
        let path = dir.file("roundtrip.rows.v1");

        let store = RowStore::new();
        for (p, widths) in [(5u64, [1usize, 8]), (11, [3, 17])] {
            let row = store.row_for_shape(&shape(p, &[4, 2]));
            for w in widths {
                row.insert(w, p * w as u64);
            }
        }
        assert_eq!(store.save(&path).unwrap(), 2);
        let first = fs::read(&path).unwrap();
        assert_eq!(store.save(&path).unwrap(), 2);
        assert_eq!(
            first,
            fs::read(&path).unwrap(),
            "save must be deterministic"
        );

        let reloaded = RowStore::new();
        assert_eq!(reloaded.load(&path).unwrap(), 4);
        for (p, widths) in [(5u64, [1usize, 8]), (11, [3, 17])] {
            let row = reloaded.row_for_shape(&shape(p, &[4, 2]));
            for w in widths {
                assert_eq!(row.get(w), Some(p * w as u64));
            }
        }
        let stats = reloaded.stats();
        assert_eq!((stats.rows, stats.cells, stats.cells_loaded), (2, 4, 4));
        assert_eq!(stats.cells_computed, 0, "loading is not computing");
    }

    #[test]
    fn save_capped_drops_coldest_rows_and_respects_the_bound() {
        let dir = ScratchDir::new("cap");
        let path = dir.file("capped.rows.v1");

        let store = RowStore::new();
        for p in [3u64, 5, 7] {
            let row = store.row_for_shape(&shape(p, &[4, 2]));
            row.insert(2, p);
            row.insert(4, 2 * p);
        }
        // Re-touch the p=3 and p=7 rows so p=5 is the coldest.
        store.row_for_shape(&shape(3, &[4, 2])).get(2);
        store.row_for_shape(&shape(7, &[4, 2])).get(2);

        let full = store.save(&path).unwrap();
        assert_eq!(full, 3);
        let full_len = fs::metadata(&path).unwrap().len();

        // A cap just below the full size must drop exactly the coldest.
        assert_eq!(store.save_capped(&path, full_len - 1).unwrap(), 2);
        assert!(fs::metadata(&path).unwrap().len() < full_len);
        let reloaded = RowStore::new();
        reloaded.load(&path).unwrap();
        assert_eq!(reloaded.stats().rows, 2);
        assert!(reloaded.row_for_shape(&shape(5, &[4, 2])).is_empty());
        assert_eq!(reloaded.row_for_shape(&shape(3, &[4, 2])).get(2), Some(3));
        assert_eq!(reloaded.row_for_shape(&shape(7, &[4, 2])).get(2), Some(7));

        // A tiny cap still writes a valid (empty) envelope.
        assert_eq!(store.save_capped(&path, 40).unwrap(), 0);
        assert!(fs::metadata(&path).unwrap().len() <= 40);
        let empty = RowStore::new();
        assert_eq!(empty.load(&path).unwrap(), 0);
        assert_eq!(empty.stats().rows, 0);
    }

    #[test]
    fn touch_order_survives_a_save_load_cycle() {
        let dir = ScratchDir::new("touch");
        let path = dir.file("touch.rows.v1");
        let again = dir.file("touch-again.rows.v1");

        let store = RowStore::new();
        for p in [3u64, 5, 7] {
            store.row_for_shape(&shape(p, &[4, 2])).insert(2, p);
        }
        // Deliberately scramble recency away from insertion order.
        store.row_for_shape(&shape(5, &[4, 2])).get(2);
        store.row_for_shape(&shape(3, &[4, 2])).get(2);
        store.save(&path).unwrap();

        // A fresh store that loads the file and saves it untouched must
        // reproduce the same bytes: load replays the file's recency.
        let reloaded = RowStore::new();
        reloaded.load(&path).unwrap();
        reloaded.save(&again).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            fs::read(&again).unwrap(),
            "row order (recency) must survive a round trip"
        );
    }

    /// `(rows, cells, bytes)` counted the slow way: a walk over every
    /// resident row.
    fn walked(store: &RowStore) -> (u64, u64, u64) {
        let rows = lock(&store.rows);
        let by_map = rows.by_hash.len() + rows.collided.len();
        assert_eq!(by_map, rows.clock.len(), "map and clock list the same rows");
        rows.iter().fold((0, 0, 0), |(count, cells, bytes), row| {
            let len = row.len();
            (
                count + 1,
                cells + len as u64,
                bytes + row_charge(row.key.len(), len),
            )
        })
    }

    /// The gauges, as [`walked`] counts them.
    fn gauges(store: &RowStore) -> (u64, u64, u64) {
        let stats = store.stats();
        (stats.rows, stats.cells, stats.bytes)
    }

    /// Which of the `shape(p, &[4, 2])` rows are resident, found without
    /// a resolve or a touch.
    fn resident(store: &RowStore, patterns: &[u64]) -> Vec<u64> {
        let rows = lock(&store.rows);
        let keys: Vec<&[u8]> = rows.iter().map(|row| &*row.key).collect();
        patterns
            .iter()
            .copied()
            .filter(|&p| keys.contains(&&*shape(p, &[4, 2]).content_key()))
            .collect()
    }

    /// The charge of one `shape(p, &[4, 2])` row with `cells` cells.
    fn charge_of(cells: usize) -> u64 {
        row_charge(shape(1, &[4, 2]).content_key().len(), cells)
    }

    /// A directory of one test's own under the temp dir, removed with
    /// its files when the test ends, pass or fail.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("soctest-rowstore-{tag}-{}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }

        fn file(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn colliding_keys_become_distinct_rows() {
        let store = RowStore::new();
        let a = store.row_for_key(42, b"key a".to_vec());
        let b = store.row_for_key(42, b"key b".to_vec());
        assert!(!Arc::ptr_eq(&a, &b), "one hash, two keys: two rows");
        assert!(Arc::ptr_eq(&a, &store.row_for_key(42, b"key a".to_vec())));
        assert!(Arc::ptr_eq(&b, &store.row_for_key(42, b"key b".to_vec())));

        assert!(a.insert(3, 30));
        assert!(b.insert(5, 50));
        assert!(b.insert(3, 31));
        assert_eq!(a.get(5), None, "a row never sees its twin's cells");
        assert_eq!(
            (a.get(3), b.get(3), b.get(5)),
            (Some(30), Some(31), Some(50))
        );
        let stats = store.stats();
        assert_eq!((stats.rows, stats.cells), (2, 3));
        assert_eq!(walked(&store), gauges(&store));

        // Both rows are saved, each under its key's own hash, so both load.
        let dir = ScratchDir::new("collided");
        let path = dir.file("collided.rows.v1");
        assert_eq!(store.save(&path).unwrap(), 2);
        let reloaded = RowStore::new();
        assert_eq!(reloaded.load(&path).unwrap(), 3);
        let a = reloaded.row_for_key(fnv1a64(b"key a"), b"key a".to_vec());
        let b = reloaded.row_for_key(fnv1a64(b"key b"), b"key b".to_vec());
        assert_eq!(
            (a.get(3), a.get(5), b.get(3), b.get(5)),
            (Some(30), None, Some(31), Some(50))
        );
        assert_eq!(reloaded.stats().rows, 2);
    }

    #[test]
    fn gauges_equal_a_full_walk_after_threads_and_a_load() {
        let store = RowStore::new();
        std::thread::scope(|scope| {
            for thread in 0..4usize {
                let store = &store;
                scope.spawn(move || {
                    for p in 1..=6u64 {
                        let row = store.row_for_shape(&shape(p, &[4, 2]));
                        // Shared widths race; width 10 + thread is private.
                        for width in (1..=8).chain([10 + thread]) {
                            row.insert(width, p * 100 + width as u64);
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!((stats.rows, stats.cells), (6, 6 * 12));
        assert_eq!(walked(&store), gauges(&store));

        let dir = ScratchDir::new("gauges");
        let path = dir.file("gauges.rows.v1");
        store.save(&path).unwrap();
        let other = RowStore::new();
        other.row_for_shape(&shape(3, &[4, 2])).insert(1, 301);
        other.row_for_shape(&shape(9, &[1])).insert(2, 7);
        assert_eq!(other.load(&path).unwrap(), 6 * 12 - 1);
        let stats = other.stats();
        assert_eq!(
            (stats.rows, stats.cells, stats.cells_loaded),
            (7, 6 * 12 + 1, 71)
        );
        assert_eq!(walked(&other), gauges(&other));
    }

    #[test]
    fn load_merges_sorted_cells_and_resident_cells_win() {
        let dir = ScratchDir::new("merge");
        let path = dir.file("merge.rows.v1");
        let saved = RowStore::new();
        let row = saved.row_for_shape(&shape(5, &[4, 2]));
        for (width, time) in [(9, 90), (1, 10), (4, 40)] {
            row.insert(width, time);
        }
        saved.save(&path).unwrap();

        let store = RowStore::new();
        let row = store.row_for_shape(&shape(5, &[4, 2]));
        row.insert(6, 60);
        row.insert(4, 999);
        assert_eq!(store.load(&path).unwrap(), 2, "width 4 was resident");
        assert_eq!(
            **lock(&row.cells),
            [(1, 10), (4, 999), (6, 60), (9, 90)],
            "one sorted slice, resident value kept"
        );
        assert_eq!(store.stats().cells, 4);
    }

    #[test]
    fn out_of_order_file_cells_load_as_cell_by_cell_inserts_would() {
        let key = shape(5, &[4, 2]).content_key();
        let bytes = seal_envelope(MAGIC, VERSION, |out| {
            push_u64(out, 1);
            push_u64(out, fnv1a64(&key));
            push_u64(out, key.len() as u64);
            out.extend_from_slice(&key);
            push_u64(out, 3);
            for (width, time) in [(4, 40), (2, 20), (4, 41)] {
                push_u64(out, width);
                push_u64(out, time);
            }
        });
        let dir = ScratchDir::new("unsorted");
        let path = dir.file("unsorted.rows.v1");
        fs::write(&path, bytes).unwrap();
        let store = RowStore::new();
        assert_eq!(store.load(&path).unwrap(), 2);
        let row = store.row_for_shape(&shape(5, &[4, 2]));
        assert_eq!((row.get(2), row.get(4), row.len()), (Some(20), Some(40), 2));
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = RowStore::new();
        let path = std::env::temp_dir().join("soctest-rowstore-definitely-missing.rows.v1");
        assert_eq!(store.load_if_present(&path).unwrap(), 0);
        assert!(matches!(store.load(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn a_bounded_store_evicts_unheld_rows_and_never_a_held_one() {
        let store = RowStore::bounded(0);
        let held = store.row_for_shape(&shape(3, &[4, 2]));
        assert!(held.insert(1, 30));
        assert!(store.row_for_shape(&shape(5, &[4, 2])).insert(1, 50));
        // Over a zero bound, the next resolve evicts p=5, the one row no
        // handle holds; p=3 and the new p=7 are held.
        let seven = store.row_for_shape(&shape(7, &[4, 2]));
        assert_eq!(resident(&store, &[3, 5, 7]), [3, 7]);
        assert_eq!(store.stats().rows_evicted, 1);
        assert_eq!(walked(&store), gauges(&store));
        assert_eq!(gauges(&store), (2, 1, charge_of(1) + charge_of(0)));

        // The evicted shape resolves to a new, empty row; resolving it
        // evicts p=7, now released.
        drop(seven);
        let again = store.row_for_shape(&shape(5, &[4, 2]));
        assert!(again.is_empty());
        assert_eq!(resident(&store, &[3, 5, 7]), [3, 5]);
        assert_eq!(held.get(1), Some(30), "a held row keeps its cells");
        let stats = store.stats();
        assert_eq!((stats.rows_evicted, stats.cells_loaded), (2, 0));
        assert_eq!(walked(&store), gauges(&store));
    }

    #[test]
    fn a_row_touched_since_the_hand_passed_gets_a_second_chance() {
        let store = RowStore::bounded(3 * charge_of(2));
        let fill = |p: u64| {
            let row = store.row_for_shape(&shape(p, &[4, 2]));
            row.insert(1, p);
            row.insert(2, p);
        };
        fill(3);
        fill(5);
        fill(7);
        assert_eq!(store.stats().bytes, 3 * charge_of(2), "at the bound");
        // A fourth row puts the store over. The hand passes p=3, 5 and 7
        // once (each was touched after it was admitted), then evicts
        // p=3, which nothing touched since.
        let nine = store.row_for_shape(&shape(9, &[4, 2]));
        assert_eq!(resident(&store, &[3, 5, 7, 9]), [5, 7, 9]);
        // Touch p=5, now at the front of the clock, and go over again:
        // p=5 gets its second chance and p=7 goes instead.
        assert_eq!(store.row_for_shape(&shape(5, &[4, 2])).get(1), Some(5));
        nine.insert(1, 9);
        nine.insert(2, 9);
        drop(nine);
        let _eleven = store.row_for_shape(&shape(11, &[4, 2]));
        assert_eq!(resident(&store, &[3, 5, 7, 9, 11]), [5, 9, 11]);
        assert_eq!(store.stats().rows_evicted, 2);
        assert_eq!(walked(&store), gauges(&store));
    }

    #[test]
    fn a_bounded_load_keeps_the_hottest_rows_of_the_file() {
        let dir = ScratchDir::new("bounded-load");
        let path = dir.file("bounded.rows.v1");
        let saved = RowStore::new();
        for p in [5u64, 3, 7] {
            let row = saved.row_for_shape(&shape(p, &[4, 2]));
            row.insert(2, p);
            row.insert(4, 2 * p);
        }
        saved.save(&path).unwrap();

        // The file holds p=5 coldest, then p=3, then p=7; a bound of two
        // rows keeps the two hottest.
        let store = RowStore::bounded(2 * charge_of(2));
        assert_eq!(store.load(&path).unwrap(), 6);
        assert_eq!(resident(&store, &[3, 5, 7]), [3, 7]);
        let stats = store.stats();
        assert_eq!((stats.rows_evicted, stats.cells_loaded), (1, 6));
        assert_eq!(stats.bytes, 2 * charge_of(2));
        assert_eq!(walked(&store), gauges(&store));
        assert_eq!(store.row_for_shape(&shape(7, &[4, 2])).get(4), Some(14));

        // An unbounded store and a roomy bound keep every row.
        for roomy in [RowStore::new(), RowStore::bounded(3 * charge_of(2))] {
            roomy.load(&path).unwrap();
            assert_eq!(resident(&roomy, &[3, 5, 7]), [3, 5, 7]);
            assert_eq!(roomy.stats().rows_evicted, 0);
        }
    }

    #[test]
    fn an_evicted_map_row_hands_its_slot_to_a_colliding_twin() {
        let store = RowStore::bounded(0);
        let a = store.row_for_key(42, b"key a".to_vec());
        let b = store.row_for_key(42, b"key b".to_vec());
        assert!(b.insert(3, 31));
        drop(a);
        let _c = store.row_for_key(7, b"key c".to_vec());
        assert_eq!(store.stats().rows_evicted, 1, "a was the one row unheld");
        {
            let rows = lock(&store.rows);
            assert!(rows.collided.is_empty());
            assert!(Arc::ptr_eq(&rows.by_hash[&42], &b), "b took a's slot");
        }
        assert!(Arc::ptr_eq(&b, &store.row_for_key(42, b"key b".to_vec())));
        assert!(store.row_for_key(42, b"key a".to_vec()).is_empty());
        assert_eq!(walked(&store), gauges(&store));
    }

    #[test]
    fn threaded_resolves_keep_the_charge_exact_and_never_evict_a_held_row() {
        // Four threads resolve, fill, hold and drop rows of twelve shapes
        // under a bound of about three rows while eviction runs. A row a
        // thread holds must stay the shape's resident row, every cell
        // anyone reads must be the shape's own, and after the join the
        // gauges must equal a walk and a full pass must restore the bound.
        let bound = 3 * charge_of(8);
        let store = RowStore::bounded(bound);
        let time = |p: u64, width: usize| p * 100 + width as u64;
        std::thread::scope(|scope| {
            for seed in 1..=4u64 {
                let store = &store;
                scope.spawn(move || {
                    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    let mut next = |bound: u64| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % bound
                    };
                    let mut held: Vec<(u64, Arc<StoreRow>)> = Vec::new();
                    for _ in 0..200 {
                        let p = 1 + next(12);
                        let row = store.row_for_shape(&shape(p, &[4, 2]));
                        for width in 1..=8 {
                            match row.get(width) {
                                Some(found) => assert_eq!(found, time(p, width)),
                                None => {
                                    row.insert(width, time(p, width));
                                }
                            }
                        }
                        for (q, kept) in &held {
                            let now = store.row_for_shape(&shape(*q, &[4, 2]));
                            assert!(Arc::ptr_eq(kept, &now), "held row {q} was evicted");
                            assert_eq!(kept.len(), 8);
                        }
                        if next(3) == 0 {
                            held.push((p, row));
                        }
                        if held.len() > 2 {
                            held.remove(next(held.len() as u64) as usize);
                        }
                    }
                });
            }
        });
        assert!(store.stats().rows_evicted > 0, "the bound was exercised");
        assert_eq!(walked(&store), gauges(&store));
        for row in lock(&store.rows).iter() {
            let p = (1..=12)
                .find(|&p| *shape(p, &[4, 2]).content_key() == *row.key)
                .expect("a test shape");
            for &(width, found) in lock(&row.cells).iter() {
                assert_eq!(found, time(p, width as usize));
            }
        }
        // Nothing is held now: a pass that may visit every row twice
        // brings the charge within the bound.
        let mut rows = lock(&store.rows);
        let visits = 2 * rows.clock.len();
        drop(store.evict(&mut rows, visits));
        drop(rows);
        assert!(store.stats().bytes <= bound);
        assert_eq!(walked(&store), gauges(&store));
    }
}
