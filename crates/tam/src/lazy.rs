//! Demand-driven module test-time table.
//!
//! The two-step optimizer only ever probes a sparse subset of TAM widths:
//! Step 1 binary-searches each module's minimum width (O(log W) probes) and
//! then looks up group widths, Step 2 re-wraps the fullest groups one width
//! step at a time. Eagerly materialising every `(module, width)` cell — as
//! [`crate::TimeTable::build`] does — therefore wastes almost the whole
//! table on large SOCs, and is the wall between the 2000-module tier and
//! the 10k-module / flat-SOC workloads.
//!
//! [`LazyTimeTable`] keeps one width-independent
//! [`soctest_wrapper::row::ModuleShape`] per module (chains sorted once at
//! construction) and a paged per-cell atomic cache: cell pages of
//! `PAGE_WIDTHS` (64) widths are allocated only when a probe first lands in
//! them, so the resident footprint follows the *probed* widths instead of
//! the `modules × max_width` rectangle (which alone is ~80 MB at the
//! 10k-module / 3072-channel tier). A cell is computed on first probe —
//! O(s) in the wide region, O(s log w) through the heap-based LPT in the
//! narrow region — and every later probe is a single atomic load.
//!
//! Two further sources can fill a cell without computing it:
//!
//! * a **row store** ([`crate::RowStore`], attached via
//!   [`LazyTimeTable::with_store`]): before computing, the table consults
//!   the content-addressed store row of the module's shape, so rows
//!   computed by another table, another SOC sharing the shape, or another
//!   *process* (via `RowStore::load`) are reused instead of rebuilt;
//! * a **predecessor table** (via [`LazyTimeTable::grown`]): regrowing to
//!   a larger width copies every already-built cell across, so widening a
//!   session's table never discards its warm cells.
//!
//! Concurrency: cells are `AtomicU64`s whose value *is* the entire payload
//! (`u64::MAX` = not yet computed), so plain relaxed loads/stores suffice —
//! no locks on the probe path (pages initialise through `OnceLock`). Two
//! threads racing on an unset cell both compute the same deterministic
//! value and store it twice; the table is therefore safe to share across a
//! rayon sweep, and parallel probe results are bit-identical to
//! [`crate::TimeTable::build_sequential`] (`tests/lazy_equivalence.rs`).
//! Per-thread LPT scratch lives in a thread-local, so steady-state probes
//! allocate nothing.

use crate::store::{RowStore, StoreRow};
use crate::timetable::TimeLookup;
use rayon::prelude::*;
use soctest_soc_model::{ModuleId, Soc};
use soctest_wrapper::row::{ModuleShape, ShapeScratch};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cell sentinel: "not computed yet". Reserved out of the test-time domain
/// by the row kernel (`fit_u64` rejects times that do not fit *strictly
/// below* `u64::MAX`).
const UNSET: u64 = u64::MAX;

/// Widths per lazily-allocated cell page. Optimizer probes cluster (binary
/// searches and Step 2's one-step re-wraps walk neighbouring widths), so a
/// modest page amortises the `OnceLock` per-page cost while keeping the
/// footprint close to the probed set.
const PAGE_WIDTHS: usize = 64;

thread_local! {
    /// Reusable LPT scratch per thread. The rayon pool is persistent, so
    /// each worker allocates this once on its first probe ever and then
    /// reuses it across *all* tables, sweeps and engine batches for the
    /// rest of the process — steady-state probes allocate nothing.
    static SCRATCH: RefCell<ShapeScratch> = RefCell::new(ShapeScratch::new());
}

/// A point-in-time snapshot of a [`LazyTimeTable`]'s materialisation
/// counters, taken with [`LazyTimeTable::stats_epoch`].
///
/// The epoch/diff pattern is what turns engine-lifetime totals into
/// per-request attribution: snapshot before serving a request, snapshot
/// after, and [`StatsEpoch::delta_since`] yields exactly what that
/// request added — cells computed fresh, cells replayed from the row
/// store, cells inherited by a regrow, pages allocated.
///
/// Determinism: the deltas of [`StatsEpoch::cells_built`],
/// `cells_inherited` and `pages_allocated` are race-deterministic at any
/// thread count (first-swap-wins counting admits exactly one counted
/// writer per cell); the *split* between `cells_computed` and
/// `cells_from_store` can shift when concurrent probes race a store
/// publication, so wire-visible stats should report the sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsEpoch {
    /// Cells computed fresh by the table at snapshot time.
    pub cells_computed: u64,
    /// Cells filled from the attached row store at snapshot time.
    pub cells_from_store: u64,
    /// Cells copied from a predecessor table at snapshot time.
    pub cells_inherited: u64,
    /// Cell pages allocated at snapshot time.
    pub pages_allocated: u64,
}

impl StatsEpoch {
    /// Counter growth from `earlier` to `self`, saturating: diffing
    /// epochs of two different tables (e.g. across a regrow) yields
    /// zeros for counters that restarted, never a wrapped giant.
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsEpoch) -> StatsEpoch {
        StatsEpoch {
            cells_computed: self.cells_computed.saturating_sub(earlier.cells_computed),
            cells_from_store: self
                .cells_from_store
                .saturating_sub(earlier.cells_from_store),
            cells_inherited: self.cells_inherited.saturating_sub(earlier.cells_inherited),
            pages_allocated: self.pages_allocated.saturating_sub(earlier.pages_allocated),
        }
    }

    /// Cells materialised however they got here — the race-deterministic
    /// total ([`LazyTimeTable::cells_built`] at snapshot time).
    #[must_use]
    pub fn cells_built(&self) -> u64 {
        self.cells_computed + self.cells_from_store + self.cells_inherited
    }
}

/// The lazily-materialised cell state of one module.
#[derive(Debug)]
struct ModuleCells {
    /// `pages[p]` covers widths `p * PAGE_WIDTHS + 1 ..= (p + 1) * PAGE_WIDTHS`,
    /// allocated on first probe into the page.
    pages: Vec<OnceLock<Box<[AtomicU64]>>>,
    /// The module's content-addressed store row, resolved on the first
    /// probe that misses the local cells (only when a store is attached).
    store_row: OnceLock<Arc<StoreRow>>,
}

impl ModuleCells {
    fn new(pages: usize) -> Self {
        ModuleCells {
            pages: (0..pages).map(|_| OnceLock::new()).collect(),
            store_row: OnceLock::new(),
        }
    }
}

/// A module test-time table that computes `(module, width)` cells on first
/// probe instead of eagerly for every width.
///
/// Implements [`TimeLookup`], so [`crate::step1`], [`crate::redistribute`]
/// and the multi-site optimizer accept it interchangeably with the eager
/// [`crate::TimeTable`]; probed entries are bit-identical between the two.
///
/// # Example
///
/// ```
/// use soctest_soc_model::benchmarks::d695;
/// use soctest_tam::{LazyTimeTable, TimeLookup, TimeTable};
///
/// let soc = d695();
/// let lazy = LazyTimeTable::new(&soc, 32);
/// let eager = TimeTable::build(&soc, 32);
/// let id = soctest_soc_model::ModuleId(3);
/// assert_eq!(lazy.time(id, 7), eager.time(id, 7));
/// // Only the probed cell was materialised.
/// assert_eq!(lazy.cells_built(), 1);
/// ```
pub struct LazyTimeTable {
    /// Width-independent per-module state (sorted chains, cells, patterns).
    shapes: Vec<ModuleShape>,
    /// Paged cell cache, one entry per module.
    cells: Vec<ModuleCells>,
    max_width: usize,
    /// Cells computed fresh by this table (each counted once).
    computed: AtomicUsize,
    /// Cells filled from the attached row store (each counted once).
    from_store: AtomicUsize,
    /// Cells copied from a predecessor table by [`LazyTimeTable::grown`].
    inherited: AtomicUsize,
    /// Pages allocated so far, across all modules (memory accounting).
    pages_allocated: AtomicUsize,
    /// The content-addressed row store consulted before computing a cell,
    /// if one is attached.
    store: Option<Arc<RowStore>>,
}

impl LazyTimeTable {
    /// Prepares the table for `soc`, covering widths `1..=max_width`.
    ///
    /// No test time is computed and no cell page is allocated yet;
    /// construction only sorts each module's scan chains (in parallel
    /// over modules).
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn new(soc: &Soc, max_width: usize) -> Self {
        LazyTimeTable::from_soc(soc, max_width, None)
    }

    /// [`LazyTimeTable::new`] with a content-addressed row store attached:
    /// every cell probe that misses the local pages consults the store
    /// row of the module's shape before computing, and every fresh
    /// computation is published back — so tables (and processes) sharing
    /// `store` never rebuild each other's rows.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn with_store(soc: &Soc, max_width: usize, store: Arc<RowStore>) -> Self {
        LazyTimeTable::from_soc(soc, max_width, Some(store))
    }

    fn from_soc(soc: &Soc, max_width: usize, store: Option<Arc<RowStore>>) -> Self {
        // Parallel over modules; nests under an engine batch running on
        // the same work-stealing pool (a table built from inside a batch
        // worker fans its rows out instead of running them serially).
        let shapes: Vec<ModuleShape> = soc.modules().par_iter().map(ModuleShape::of).collect();
        LazyTimeTable::from_parts(shapes, max_width, store)
    }

    fn from_parts(
        shapes: Vec<ModuleShape>,
        max_width: usize,
        store: Option<Arc<RowStore>>,
    ) -> Self {
        assert!(max_width > 0, "max_width must be at least 1");
        let pages = max_width.div_ceil(PAGE_WIDTHS);
        let cells = (0..shapes.len()).map(|_| ModuleCells::new(pages)).collect();
        LazyTimeTable {
            shapes,
            cells,
            max_width,
            computed: AtomicUsize::new(0),
            from_store: AtomicUsize::new(0),
            inherited: AtomicUsize::new(0),
            pages_allocated: AtomicUsize::new(0),
            store,
        }
    }

    /// A new table covering `new_width`, inheriting everything this table
    /// already knows: the sorted shapes, the attached store (if any), and
    /// **every built cell** — copied across, so regrowing never discards
    /// warm cells ([`LazyTimeTable::cells_built`] does not reset). Cells
    /// built in `self` *concurrently with* the copy may be missed (they
    /// are recomputed on demand, deterministically); cells already built
    /// when the copy starts all survive.
    ///
    /// # Panics
    ///
    /// Panics if `new_width < self.max_width()` — regrow only widens.
    pub fn grown(&self, new_width: usize) -> LazyTimeTable {
        assert!(
            new_width >= self.max_width,
            "grown({new_width}) must not shrink a width-{} table",
            self.max_width
        );
        let table = LazyTimeTable::from_parts(self.shapes.clone(), new_width, self.store.clone());
        let mut copied = 0usize;
        for (module, source) in self.cells.iter().enumerate() {
            // The shared store row is already resolved — hand it on.
            if let Some(row) = source.store_row.get() {
                let _ = table.cells[module].store_row.set(Arc::clone(row));
            }
            for (page_index, page) in source.pages.iter().enumerate() {
                let Some(source_page) = page.get() else {
                    continue;
                };
                // Page geometry is width-independent, so source page `p`
                // is destination page `p` verbatim.
                let destination = table.page(module, page_index);
                for (offset, cell) in source_page.iter().enumerate() {
                    let value = cell.load(Ordering::Relaxed);
                    if value != UNSET {
                        destination[offset].store(value, Ordering::Relaxed);
                        copied += 1;
                    }
                }
            }
        }
        table.inherited.store(copied, Ordering::Relaxed);
        table
    }

    /// The attached row store, if any.
    pub fn store(&self) -> Option<&Arc<RowStore>> {
        self.store.as_ref()
    }

    /// The maximum width covered by the table.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Number of modules covered by the table.
    pub fn num_modules(&self) -> usize {
        self.shapes.len()
    }

    /// The (initialised-on-first-use) cell page `page_index` of `module`.
    fn page(&self, module: usize, page_index: usize) -> &[AtomicU64] {
        self.cells[module].pages[page_index].get_or_init(|| {
            self.pages_allocated.fetch_add(1, Ordering::Relaxed);
            (0..PAGE_WIDTHS)
                .map(|_| AtomicU64::new(UNSET))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
    }

    /// Test time of `module` at `width` wrapper chains, computing and
    /// caching the cell on first probe (consulting the attached row store,
    /// if any, before computing).
    ///
    /// # Panics
    ///
    /// Panics if `module` or `width` is out of range.
    pub fn time(&self, module: ModuleId, width: usize) -> u64 {
        assert!(
            width >= 1 && width <= self.max_width,
            "width {width} out of range"
        );
        let index = width - 1;
        let page = self.page(module.0, index / PAGE_WIDTHS);
        let cell = &page[index % PAGE_WIDTHS];
        let cached = cell.load(Ordering::Relaxed);
        if cached != UNSET {
            return cached;
        }
        if let Some(store) = &self.store {
            let row = self.cells[module.0]
                .store_row
                .get_or_init(|| store.row_for_shape(&self.shapes[module.0]));
            if let Some(value) = row.get(width) {
                if cell.swap(value, Ordering::Relaxed) == UNSET {
                    self.from_store.fetch_add(1, Ordering::Relaxed);
                    store.note_served();
                }
                return value;
            }
            let value = self.compute(module.0, width);
            if row.insert(width, value) {
                // First publisher of this (shape, width) pair anywhere in
                // the process — the deterministic "rows rebuilt" count.
                store.note_computed();
            }
            if cell.swap(value, Ordering::Relaxed) == UNSET {
                self.computed.fetch_add(1, Ordering::Relaxed);
            }
            return value;
        }
        let value = self.compute(module.0, width);
        if cell.swap(value, Ordering::Relaxed) == UNSET {
            // First writer of this cell; racing duplicates store the same
            // deterministic value and are not double-counted.
            self.computed.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    fn compute(&self, module: usize, width: usize) -> u64 {
        let value =
            SCRATCH.with(|scratch| self.shapes[module].time_at(width, &mut scratch.borrow_mut()));
        debug_assert_ne!(value, UNSET, "fit_u64 keeps times below the sentinel");
        value
    }

    /// Whether the `(module, width)` cell has been computed already.
    /// Never allocates: an untouched page reports `false`.
    pub fn is_built(&self, module: ModuleId, width: usize) -> bool {
        assert!(
            width >= 1 && width <= self.max_width,
            "width {width} out of range"
        );
        let index = width - 1;
        match self.cells[module.0].pages[index / PAGE_WIDTHS].get() {
            Some(page) => page[index % PAGE_WIDTHS].load(Ordering::Relaxed) != UNSET,
            None => false,
        }
    }

    /// A snapshot of the materialisation counters for per-request
    /// attribution: take one epoch before a unit of work, another after,
    /// and [`StatsEpoch::delta_since`] is what the work added. Four
    /// relaxed loads — cheap enough to take per request.
    pub fn stats_epoch(&self) -> StatsEpoch {
        StatsEpoch {
            cells_computed: self.computed.load(Ordering::Relaxed) as u64,
            cells_from_store: self.from_store.load(Ordering::Relaxed) as u64,
            cells_inherited: self.inherited.load(Ordering::Relaxed) as u64,
            pages_allocated: self.pages_allocated.load(Ordering::Relaxed) as u64,
        }
    }

    /// Number of `(module, width)` cells materialised so far, however they
    /// got here: computed fresh, served by the row store, or inherited
    /// from the table [`LazyTimeTable::grown`] regrew.
    pub fn cells_built(&self) -> usize {
        self.cells_computed() + self.cells_from_store() + self.cells_inherited()
    }

    /// Cells this table computed fresh (kernel evaluations).
    pub fn cells_computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Cells filled from the attached row store instead of computed.
    pub fn cells_from_store(&self) -> usize {
        self.from_store.load(Ordering::Relaxed)
    }

    /// Cells copied from the predecessor table by [`LazyTimeTable::grown`].
    pub fn cells_inherited(&self) -> usize {
        self.inherited.load(Ordering::Relaxed)
    }

    /// Total number of cells an eager build would compute
    /// (`num_modules · max_width`).
    pub fn cells_total(&self) -> usize {
        self.num_modules() * self.max_width
    }

    /// Estimated resident bytes: 8 per *allocated* cell (cells come in
    /// pages of `PAGE_WIDTHS` (64)) plus a small fixed overhead — the probed
    /// footprint, not the `modules × max_width` rectangle.
    pub fn memory_bytes(&self) -> u64 {
        1024 + (self.pages_allocated.load(Ordering::Relaxed) as u64) * (PAGE_WIDTHS as u64) * 8
    }

    /// `cells_built / cells_total`: the fraction of the full table that was
    /// actually computed, where an eager build computes all of it. The
    /// Section 7 gate tests (`crates/bench/tests/baseline_gates.rs`) require
    /// it below 1 after a two-step optimization of the PNX8550 stand-in.
    pub fn build_ratio(&self) -> f64 {
        if self.cells_total() == 0 {
            return 0.0;
        }
        self.cells_built() as f64 / self.cells_total() as f64
    }
}

impl TimeLookup for LazyTimeTable {
    fn num_modules(&self) -> usize {
        LazyTimeTable::num_modules(self)
    }

    fn max_width(&self) -> usize {
        LazyTimeTable::max_width(self)
    }

    fn time(&self, module: ModuleId, width: usize) -> u64 {
        LazyTimeTable::time(self, module, width)
    }
    // `min_width_for_time` / `group_fill` use the trait defaults: the
    // probing binary search (sound by the width-monotonicity theorem in
    // `soctest_wrapper::row`) and the per-module time sum.
}

impl fmt::Debug for LazyTimeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyTimeTable")
            .field("modules", &self.num_modules())
            .field("max_width", &self.max_width)
            .field("cells_built", &self.cells_built())
            .field("cells_computed", &self.cells_computed())
            .field("cells_from_store", &self.cells_from_store())
            .field("cells_inherited", &self.cells_inherited())
            .field("store", &self.store.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timetable::TimeTable;
    use soctest_soc_model::benchmarks::d695;

    #[test]
    fn probed_cells_match_the_eager_table() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 24);
        let eager = TimeTable::build_sequential(&soc, 24);
        for (id, _) in soc.iter() {
            for width in [1usize, 2, 5, 13, 24] {
                assert_eq!(lazy.time(id, width), eager.time(id, width));
            }
        }
    }

    #[test]
    fn cells_are_built_on_demand_only() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 24);
        assert_eq!(lazy.cells_built(), 0);
        assert!(!lazy.is_built(ModuleId(0), 5));
        let first = lazy.time(ModuleId(0), 5);
        assert!(lazy.is_built(ModuleId(0), 5));
        assert_eq!(lazy.cells_built(), 1);
        assert_eq!(lazy.cells_computed(), 1);
        // A second probe serves the cache and does not recount.
        assert_eq!(lazy.time(ModuleId(0), 5), first);
        assert_eq!(lazy.cells_built(), 1);
        assert_eq!(lazy.cells_total(), soc.num_modules() * 24);
        assert!(lazy.build_ratio() > 0.0 && lazy.build_ratio() < 1.0);
    }

    #[test]
    fn stats_epoch_deltas_attribute_per_request_work() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 24);
        let e0 = lazy.stats_epoch();
        assert_eq!(e0, StatsEpoch::default());
        lazy.time(ModuleId(0), 5);
        lazy.time(ModuleId(1), 5);
        let e1 = lazy.stats_epoch();
        let d1 = e1.delta_since(&e0);
        assert_eq!(d1.cells_computed, 2);
        assert_eq!(d1.cells_built(), 2);
        assert_eq!(d1.pages_allocated, 2);
        lazy.time(ModuleId(0), 5); // cached probe adds nothing
        lazy.time(ModuleId(2), 7);
        let d2 = lazy.stats_epoch().delta_since(&e1);
        assert_eq!(d2.cells_computed, 1);
        // Per-step deltas sum to the lifetime totals.
        assert_eq!(
            d1.cells_built() + d2.cells_built(),
            lazy.cells_built() as u64
        );
        // A regrown table restarts its counters; diffing across the swap
        // saturates to zero instead of wrapping.
        let wide = lazy.grown(96);
        let regrown = wide.stats_epoch();
        assert_eq!(regrown.cells_computed, 0);
        assert_eq!(regrown.cells_inherited, lazy.cells_built() as u64);
        assert_eq!(e1.delta_since(&regrown).cells_inherited, 0);
    }

    #[test]
    fn memory_follows_the_probed_footprint() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 4096);
        let untouched = lazy.memory_bytes();
        assert!(
            untouched < 64 * 1024,
            "an unprobed wide table must not allocate its rectangle, got {untouched}"
        );
        lazy.time(ModuleId(0), 1);
        lazy.time(ModuleId(0), 4096);
        let probed = lazy.memory_bytes();
        // Two pages (the first and the last) for one module.
        assert_eq!(probed, untouched + 2 * (PAGE_WIDTHS as u64) * 8);
        // Probing within an allocated page is free.
        lazy.time(ModuleId(0), 2);
        assert_eq!(lazy.memory_bytes(), probed);
    }

    #[test]
    fn store_backed_table_reuses_rows_instead_of_recomputing() {
        let soc = d695();
        let store = Arc::new(RowStore::new());
        let first = LazyTimeTable::with_store(&soc, 24, Arc::clone(&store));
        let plain = LazyTimeTable::new(&soc, 24);
        for (id, _) in soc.iter() {
            for width in [1usize, 7, 24] {
                assert_eq!(first.time(id, width), plain.time(id, width));
            }
        }
        let computed = store.stats().cells_computed;
        assert!(computed > 0);
        // A second table over the same store recomputes nothing.
        let second = LazyTimeTable::with_store(&soc, 24, Arc::clone(&store));
        for (id, _) in soc.iter() {
            for width in [1usize, 7, 24] {
                assert_eq!(second.time(id, width), plain.time(id, width));
            }
        }
        assert_eq!(store.stats().cells_computed, computed);
        assert_eq!(second.cells_computed(), 0);
        assert!(second.cells_from_store() > 0);
        assert_eq!(second.cells_built(), second.cells_from_store());
    }

    #[test]
    fn grown_table_keeps_built_cells_and_matches_the_eager_table() {
        let soc = d695();
        let narrow = LazyTimeTable::new(&soc, 24);
        for (id, _) in soc.iter() {
            narrow.time(id, 11);
        }
        let before = narrow.cells_built();
        assert!(before > 0);
        let wide = narrow.grown(96);
        assert_eq!(wide.max_width(), 96);
        assert_eq!(wide.cells_inherited(), before);
        assert_eq!(
            wide.cells_built(),
            before,
            "regrow must not reset cells_built"
        );
        // Inherited cells serve without recomputation...
        for (id, _) in soc.iter() {
            assert!(wide.is_built(id, 11));
        }
        assert_eq!(wide.cells_computed(), 0);
        // ...and fresh probes agree with an eager table at the new width.
        let eager = TimeTable::build_sequential(&soc, 96);
        for (id, _) in soc.iter() {
            for width in [1usize, 11, 24, 25, 96] {
                assert_eq!(wide.time(id, width), eager.time(id, width));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn grown_refuses_to_shrink() {
        let _ = LazyTimeTable::new(&d695(), 24).grown(8);
    }

    #[test]
    fn min_width_and_group_fill_match_the_eager_table() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 24);
        let eager = TimeTable::build_sequential(&soc, 24);
        for (id, _) in soc.iter() {
            for probe in [1usize, 4, 9, 24] {
                let budget = eager.time(id, probe);
                assert_eq!(
                    TimeLookup::min_width_for_time(&lazy, id, budget),
                    eager.min_width_for_time(id, budget)
                );
            }
            assert_eq!(TimeLookup::min_width_for_time(&lazy, id, 0), None);
        }
        let ids = [ModuleId(0), ModuleId(4), ModuleId(9)];
        assert_eq!(
            TimeLookup::group_fill(&lazy, &ids, 6),
            eager.group_fill(&ids, 6)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_out_of_range_panics() {
        let soc = d695();
        let lazy = LazyTimeTable::new(&soc, 8);
        let _ = lazy.time(ModuleId(0), 9);
    }

    #[test]
    #[should_panic(expected = "max_width")]
    fn zero_max_width_panics() {
        let _ = LazyTimeTable::new(&d695(), 0);
    }
}
