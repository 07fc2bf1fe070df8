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
//! coldest rows are dropped until the file fits.
//!
//! # Resident layout
//!
//! One resident row is a single `Arc` allocation holding the canonical
//! key as a `Box<[u8]>` (32 bytes of header words plus 8 per scan chain),
//! its cells as one exact-size `Box<[(width, time)]>` sorted by width
//! behind the row's mutex, the touch stamp, and a handle to the store's
//! cell gauge. [`StoreRow::get`] binary-searches the slice; a first
//! [`StoreRow::insert`] copies it into a slice one cell longer, and
//! [`RowStore::load`] merges a file row's sorted cells into one new
//! slice. The map holds one `Arc` per content hash. On a `new_designs`
//! benchmark run (about 13 cells per row) that is about 34 bytes per
//! resident cell; the earlier layout — a `Mutex<BTreeMap<u64, u64>>` per
//! row, a `Vec` bucket per hash and a `Vec<u8>` key — cost about 71.
//!
//! A row whose hash is already taken by a row with a different key goes
//! in a side list, where lookups match it by its full key, so a hash
//! collision yields two distinct rows that never see each other's cells.
//! The resident store never shrinks: `save_capped` bounds the file, not
//! memory.
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
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// File magic (7 bytes) followed by the one-byte format version.
const MAGIC: &[u8; 7] = b"SOCROWS";
/// Current on-disk format version byte.
const VERSION: u8 = b'1';

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
    key: Box<[u8]>,
    /// Cells sorted by ascending width, one exact-size allocation.
    cells: Mutex<Box<[(u64, u64)]>>,
    /// Last [`TOUCH_CLOCK`] tick that read or wrote this row — the
    /// recency [`RowStore::save_capped`] compacts by.
    touch: AtomicU64,
    /// The owning store's resident-cell gauge, bumped on every cell this
    /// row gains.
    resident_cells: Arc<AtomicU64>,
}

impl StoreRow {
    fn new(key: Vec<u8>, resident_cells: Arc<AtomicU64>) -> Self {
        StoreRow {
            key: key.into_boxed_slice(),
            cells: Mutex::new(Box::default()),
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
        let mut grown = Vec::with_capacity(cells.len() + 1);
        grown.extend_from_slice(&cells[..at]);
        grown.push((width, time));
        grown.extend_from_slice(&cells[at..]);
        *cells = grown.into_boxed_slice();
        self.resident_cells.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Merges `loaded` (sorted by width, widths distinct) into the row in
    /// one allocation; resident cells win ties. Returns the cells added.
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
            *cells = merged.into_boxed_slice();
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
    /// Distinct shapes resident.
    pub rows: u64,
    /// `(shape, width)` cells resident across all rows.
    pub cells: u64,
    /// Cells computed fresh since construction — counted on first insert
    /// of a `(shape, width)` pair, so the count is deterministic under
    /// racing duplicate computations. "Zero rows rebuilt" on a warm
    /// restart means exactly this counter staying zero.
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
    /// `rows`/`cells` are resident gauges, so their "delta" is growth
    /// (never negative), and stale snapshots yield zeros.
    #[must_use]
    pub fn delta_since(&self, earlier: &RowStoreStats) -> RowStoreStats {
        RowStoreStats {
            rows: self.rows.saturating_sub(earlier.rows),
            cells: self.cells.saturating_sub(earlier.cells),
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
    /// Gauges behind [`RowStore::stats`]: rows created, and cells first
    /// inserted or merged (shared with every row).
    resident_rows: AtomicU64,
    resident_cells: Arc<AtomicU64>,
    cells_computed: AtomicU64,
    cells_served: AtomicU64,
    cells_loaded: AtomicU64,
}

/// The resident rows: one per content hash, plus the rare rows whose hash
/// an earlier row with a different key already holds.
#[derive(Debug, Default)]
struct ResidentRows {
    by_hash: HashMap<u64, Arc<StoreRow>>,
    collided: Vec<Arc<StoreRow>>,
}

impl ResidentRows {
    fn iter(&self) -> impl Iterator<Item = &Arc<StoreRow>> {
        self.by_hash.values().chain(&self.collided)
    }
}

impl RowStore {
    /// An empty store.
    pub fn new() -> Self {
        RowStore::default()
    }

    /// The resident row for `shape`, created empty if absent. The handle
    /// is shared: every table resolving an equal shape gets the same row.
    pub fn row_for_shape(&self, shape: &ModuleShape) -> Arc<StoreRow> {
        let key = shape.content_key();
        self.row_for_key(fnv1a64(&key), key)
    }

    /// Get-or-create by `(hash, key)`: the row under `hash` if its key is
    /// `key`, else a side-list row with that key, else a new row.
    fn row_for_key(&self, hash: u64, key: Vec<u8>) -> Arc<StoreRow> {
        let mut rows = lock(&self.rows);
        let ResidentRows { by_hash, collided } = &mut *rows;
        let holder = by_hash.entry(hash);
        if let Entry::Occupied(holder) = &holder {
            let mut candidates = std::iter::once(holder.get()).chain(collided.iter());
            if let Some(row) = candidates.find(|row| *row.key == *key) {
                return Arc::clone(row);
            }
        }
        let row = Arc::new(StoreRow::new(key, Arc::clone(&self.resident_cells)));
        match holder {
            Entry::Occupied(_) => collided.push(Arc::clone(&row)),
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&row));
            }
        }
        self.resident_rows.fetch_add(1, Ordering::Relaxed);
        row
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
            cells_computed: self.cells_computed.load(Ordering::Relaxed),
            cells_served: self.cells_served.load(Ordering::Relaxed),
            cells_loaded: self.cells_loaded.load(Ordering::Relaxed),
        }
    }

    /// Merges every row of the `rows.v1` file at `path` into the store
    /// (resident cells win ties; the values are deterministic anyway) and
    /// returns the number of cells merged.
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
        for (hash, key, cells) in parsed {
            let row = self.row_for_key(hash, key);
            merged += row.merge(cells);
            // Replay the file's recency: rows are stored coldest first,
            // so touching in file order restores the save-time ordering.
            row.touch_now();
        }
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
        type RowSnapshot<'a> = (u64, u64, &'a [u8], Box<[(u64, u64)]>);
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
        let row_cost = |key: &[u8], cells: &[(u64, u64)]| {
            8 + 8 + key.len() as u64 + 8 + 16 * cells.len() as u64
        };
        let mut total = overhead
            + snapshot
                .iter()
                .map(|(_, _, k, c)| row_cost(k, c))
                .sum::<u64>();
        let mut first_kept = 0;
        while total > max_bytes && first_kept < snapshot.len() {
            let (_, _, key, cells) = &snapshot[first_kept];
            total -= row_cost(key, cells);
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

    /// `(rows, cells)` counted the slow way: a walk over every resident row.
    fn walked(store: &RowStore) -> (u64, u64) {
        lock(&store.rows).iter().fold((0, 0), |(rows, cells), row| {
            (rows + 1, cells + row.len() as u64)
        })
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
        assert_eq!(walked(&store), (2, 3));

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
        assert_eq!(walked(&store), (stats.rows, stats.cells));

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
        assert_eq!(walked(&other), (stats.rows, stats.cells));
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
}
