//! The fast test-time row kernel.
//!
//! Every architecture-design algorithm in the workspace ultimately asks
//! "what is module `m`'s test time at TAM width `w`?" for *all* widths
//! `1..=W`. Answering through [`crate::combine::design_wrapper`] per width
//! materialises a full [`crate::design::WrapperDesign`] each time: a
//! `Vec<WrapperChain>` (each chain holding its own `Vec` of scan-chain
//! indices), a cloned module-name `String`, a fresh sort of the scan-chain
//! lengths, and two iterative water-fill passes. None of that is needed for
//! the test *time*, which only depends on
//!
//! * the multiset of per-wrapper-chain scan loads the LPT partition
//!   produces, and
//! * the makespan after the wrapper input/output cells are water-levelled
//!   onto those loads.
//!
//! [`RowKernel`] computes the whole row `t(m, 1..=W)` in one call:
//!
//! * scan-chain lengths are sorted **once** per module, not once per width;
//! * LPT runs into a reusable load buffer — no `WrapperChain`, no
//!   assignment vector, no `String`;
//! * for widths `w >= s(m)` (at least as many wrapper chains as internal
//!   scan chains) the LPT loads are exactly the sorted chain lengths, so
//!   the per-width work degenerates to two closed-form water-fill levels;
//! * the water-fill makespan is computed in closed form —
//!   `max(level, max_load)` with `level = ceil((prefix + cells) / k)` for
//!   the first `k` bins with enough capacity — instead of the iterative
//!   bulk-levelling loop in [`crate::lpt::water_fill`].
//!
//! # Incremental evaluation across widths
//!
//! On top of the per-width fast paths, [`RowKernel::compute_into`] exploits
//! two exact relations *between* consecutive widths instead of treating
//! every width as an independent problem:
//!
//! * **Prefix seeding.** LPT breaks ties towards the lowest bin index, so
//!   on `w` empty bins the first `w` (longest) chains always land in bins
//!   `0..w`, one each. The width-`w` partition therefore starts from the
//!   sorted chain prefix directly, and LPT only has to place the remaining
//!   `s - w` chains.
//! * **Floor skip.** Every wrapper-chain load is at least the longest
//!   internal scan chain `L`, so `t(w) >= t_floor = (1 + L)·p + L` at
//!   *every* width. Once some width reaches the floor (both the scan-in and
//!   scan-out makespans equal `L`), every larger width does too, and the
//!   rest of the row is filled with `t_floor` without running LPT or the
//!   water fill again. Exactness of the skip rests on two facts: the
//!   leveled makespan is non-increasing in the number of empty bins while
//!   bounded below by the largest load, and LPT keeps its makespan at `L`
//!   when bins are added once it has achieved `L` (ties in LPT are
//!   load-multiset-neutral, so this holds for the load multiset the kernel
//!   consumes). A literal reuse of the width-`w+1` *partition* at width `w`
//!   would **not** be exact — LPT exhibits Graham-style anomalies under
//!   that transformation — which is why the incremental scheme is
//!   seeding + bounds-skip rather than partition carry-over.
//!
//! The kernel is the fast path; [`crate::combine::design_wrapper`] remains
//! the full-fidelity path that materialises real wrapper designs. The two
//! are proven equal (`row[w-1] == design_wrapper(m, w).test_time_cycles()`)
//! by the property tests in `tests/proptest_row_kernel.rs`, and the
//! incremental path is additionally proven bit-identical to the
//! non-incremental [`test_time_row_reference`] loop over random module
//! shapes by `tests/proptest_incremental_row.rs`.
//!
//! # Width monotonicity
//!
//! Several lookups bet on the row being **non-increasing in width** —
//! `partition_point` in `soctest_tam::TimeTable::min_width_for_time` and
//! [`crate::combine::min_width_for_time`], and the probing binary search of
//! `soctest_tam::LazyTimeTable`. LPT is a greedy list schedule, and list
//! schedules are notorious for Graham-style anomalies, so this is not
//! obvious — but for *independent* items (no precedence constraints, which
//! is the case here: scan chains impose no ordering) it is a theorem:
//!
//! **Lemma (count dominance).** Place the same sequence of items, each into
//! its currently least-loaded bin, once on `m` bins (loads `B`) and once on
//! `m + 1` bins (loads `A`). Then after every prefix of items and for every
//! level `x`: `|{a ∈ A : a ≤ x}| ≥ |{b ∈ B : b ≤ x}|`.
//! *Proof.* Induction over placements. Initially all loads are zero and
//! `m + 1 ≥ m`. For the step, let `a₁ = min A ≤ b₁ = min B` (the `x = a₁`
//! instance of the hypothesis) and let the next item be `p`; the schedules
//! move `a₁ → a₁ + p` and `b₁ → b₁ + p`. For `x < a₁` no counted element
//! changes on either side. For `a₁ ≤ x < b₁` the whole of `B` exceeds `x`
//! (its minimum does), so the right-hand count is zero and the claim is
//! trivial. For `x ≥ b₁` both sides lose exactly one element (`a₁`, `b₁`
//! are both ≤ x) and the additions satisfy `[a₁ + p ≤ x] ≥ [b₁ + p ≤ x]`
//! because `a₁ + p ≤ b₁ + p`. ∎
//!
//! **Corollary 1 — the LPT makespan never grows with the width.** Bin loads
//! only grow, so every bin's final load is the completion `μ(j) + pⱼ` of the
//! last item placed in it, where `μ(j)` is the minimum load right before
//! item `j` was placed; hence `makespan = maxⱼ (μ(j) + pⱼ)`. The `k = 1`
//! instance of the lemma gives `μ_{m+1}(j) ≤ μ_m(j)` for every `j`, and the
//! max over `j` preserves the inequality.
//!
//! **Corollary 2 — the leveled (water-filled) makespan never grows with the
//! width.** The exact water fill of `c` unit cells yields the smallest
//! level `L` with `L ≥ max load` and `capacity(L) = Σᵢ max(0, L − loadᵢ) ≥
//! c`. For integer loads `capacity(L) = Σ_{x=0}^{L−1} |{i : loadᵢ ≤ x}|`,
//! which by the lemma is no smaller on `m + 1` bins at every `L`, while
//! `max load` is no larger (Corollary 1). Every level feasible on `m` bins
//! is therefore feasible on `m + 1`, and the minimum can only shrink.
//!
//! Both scan-in and scan-out lengths are leveled makespans, and
//! `t = (1 + max(si, so)) · p + min(si, so)` is monotone in `(si, so)` (the
//! degenerate `si = so = 0 → t = p` case is width-independent: it requires a
//! module with no scan bits and no wrapper cells at all). Hence `t(w + 1) ≤
//! t(w)` for every module — the rows really are non-increasing staircases,
//! and first-feasible lookups may binary-search them. The property test
//! `monotonicity` in `crates/tam/tests/proptest_min_width.rs` cross-checks
//! the theorem (and the `partition_point` lookups against a linear
//! first-feasible scan) on random module shapes.

use crate::lpt::LoadHeap;
use soctest_soc_model::Module;

/// Reusable scratch state for computing test-time rows.
///
/// Construct once and feed it any number of modules: between calls the
/// internal buffers are retained, so a row computation performs no heap
/// allocation beyond (optionally) the output row itself.
///
/// # Example
///
/// ```
/// use soctest_soc_model::Module;
/// use soctest_wrapper::combine::design_wrapper;
/// use soctest_wrapper::row::RowKernel;
///
/// let module = Module::builder("core")
///     .patterns(100)
///     .inputs(20)
///     .outputs(30)
///     .scan_chains([120, 110, 100, 90])
///     .build();
/// let mut kernel = RowKernel::new();
/// let row = kernel.compute(&module, 8);
/// for width in 1..=8 {
///     assert_eq!(row[width - 1], design_wrapper(&module, width).test_time_cycles());
/// }
/// ```
#[derive(Debug, Default)]
pub struct RowKernel {
    /// Scan-chain lengths sorted descending (LPT insertion order).
    desc: Vec<u64>,
    /// Scan-chain lengths sorted ascending (water-fill order).
    asc: Vec<u64>,
    /// `(load, bin)` min-heap for the LPT widths (`w < s(m)`).
    heap: LoadHeap,
    /// Ascending copy of the LPT loads for the closed-form water fill.
    sorted: Vec<u64>,
}

impl RowKernel {
    /// Creates a kernel with empty scratch buffers.
    pub fn new() -> Self {
        RowKernel::default()
    }

    /// Computes the test-time row of `module` for widths `1..=max_width`
    /// into `out` (cleared first): `out[w - 1]` is the module's test
    /// application time in cycles at TAM width `w`.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn compute_into(&mut self, module: &Module, max_width: usize, out: &mut Vec<u64>) {
        assert!(max_width > 0, "wrapper width must be at least 1");
        out.clear();
        out.reserve(max_width);

        self.desc.clear();
        self.desc
            .extend(module.scan_chains().iter().map(|c| c.length));
        self.desc.sort_unstable_by(|a, b| b.cmp(a));
        self.asc.clear();
        self.asc.extend(self.desc.iter().rev());

        let chains = self.desc.len();
        let cells_in = module.wrapper_input_cells();
        let cells_out = module.wrapper_output_cells();
        let patterns = module.patterns();
        // The longest internal scan chain: the width-independent floor on
        // every wrapper-chain load (and 0 for purely combinational modules).
        let longest = self.desc.first().copied().unwrap_or(0);

        // Narrow widths (w < s(m)): run LPT on the reusable (load, bin)
        // min-heap — O(log w) per placed chain instead of a linear scan,
        // with the identical first-on-ties bin choice — then level the I/O
        // cells in closed form on a sorted copy. The partition is seeded
        // with the first `w` chains — on empty bins LPT provably places
        // chain `i < w` in bin `i` — so only the remaining `s - w` chains
        // are placed by search.
        let lpt_widths = max_width.min(chains.saturating_sub(1));
        for width in 1..=lpt_widths {
            self.heap.seed(&self.desc[..width]);
            for &length in &self.desc[width..] {
                self.heap.add_to_min(length);
            }
            self.sorted.clear();
            self.heap.extend_loads_into(&mut self.sorted);
            self.sorted.sort_unstable();
            let scan_in = leveled_makespan(0, &self.sorted, cells_in);
            let scan_out = leveled_makespan(0, &self.sorted, cells_out);
            out.push(test_time(patterns, scan_in, scan_out));
            if scan_in == longest && scan_out == longest {
                // Floor reached: every remaining width yields the same time.
                out.resize(max_width, test_time(patterns, longest, longest));
                return;
            }
        }

        // Wide widths (w >= s(m)): LPT gives every scan chain its own
        // wrapper chain, so the load multiset is the sorted chain lengths
        // plus `w - s(m)` empty chains — no partitioning work at all.
        for width in (lpt_widths + 1)..=max_width {
            let empty_bins = width - chains;
            let scan_in = leveled_makespan(empty_bins, &self.asc, cells_in);
            let scan_out = leveled_makespan(empty_bins, &self.asc, cells_out);
            out.push(test_time(patterns, scan_in, scan_out));
            if scan_in == longest && scan_out == longest {
                out.resize(max_width, test_time(patterns, longest, longest));
                return;
            }
        }
    }

    /// Convenience wrapper around [`RowKernel::compute_into`] returning a
    /// fresh row vector.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn compute(&mut self, module: &Module, max_width: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(max_width);
        self.compute_into(module, max_width, &mut out);
        out
    }
}

/// One-shot row computation (allocates scratch; prefer [`RowKernel`] when
/// evaluating many modules).
///
/// # Panics
///
/// Panics if `max_width == 0`.
pub fn test_time_row(module: &Module, max_width: usize) -> Vec<u64> {
    RowKernel::new().compute(module, max_width)
}

/// Non-incremental reference row: every width is evaluated from scratch —
/// LPT over all chains on empty bins, no prefix seeding, no floor skip.
///
/// This is the kernel as it existed before the incremental evaluation
/// landed, kept as the validation baseline: the property tests in
/// `tests/proptest_incremental_row.rs` prove `test_time_row` bit-identical
/// to this loop over random module shapes and the full width range, and
/// `crates/bench/tests/baseline_gates.rs` checks the two equal on every
/// module of the PNX8550 stand-in.
///
/// # Panics
///
/// Panics if `max_width == 0`.
pub fn test_time_row_reference(module: &Module, max_width: usize) -> Vec<u64> {
    assert!(max_width > 0, "wrapper width must be at least 1");
    let mut desc: Vec<u64> = module.scan_chains().iter().map(|c| c.length).collect();
    desc.sort_unstable_by(|a, b| b.cmp(a));
    let asc: Vec<u64> = desc.iter().rev().copied().collect();

    let chains = desc.len();
    let cells_in = module.wrapper_input_cells();
    let cells_out = module.wrapper_output_cells();
    let patterns = module.patterns();

    let mut out = Vec::with_capacity(max_width);
    let lpt_widths = max_width.min(chains.saturating_sub(1));
    for width in 1..=lpt_widths {
        let mut loads = vec![0u64; width];
        for &length in &desc {
            let bin = least_loaded(&loads);
            loads[bin] = loads[bin]
                .checked_add(length)
                .expect("wrapper-chain load overflows u64");
        }
        loads.sort_unstable();
        let scan_in = leveled_makespan(0, &loads, cells_in);
        let scan_out = leveled_makespan(0, &loads, cells_out);
        out.push(test_time(patterns, scan_in, scan_out));
    }
    for width in (lpt_widths + 1)..=max_width {
        let empty_bins = width - chains;
        let scan_in = leveled_makespan(empty_bins, &asc, cells_in);
        let scan_out = leveled_makespan(empty_bins, &asc, cells_out);
        out.push(test_time(patterns, scan_in, scan_out));
    }
    out
}

/// The width-independent state of one module's test-time function: sorted
/// scan-chain lengths plus the wrapper cell and pattern counts.
///
/// Where [`RowKernel`] evaluates a whole row `t(m, 1..=W)` in one sweep, a
/// `ModuleShape` answers *single-width* queries `t(m, w)` — the evaluation
/// mode of `soctest_tam::LazyTimeTable`, which only materialises the
/// `(module, width)` cells an optimizer actually probes. The chain sort is
/// paid once at construction; a query then costs O(s) for `w ≥ s(m)`
/// (closed-form water fill over the pre-sorted chains) or O(s log w) for
/// the narrow LPT region via the [`LoadHeap`].
///
/// Values are bit-identical to the corresponding [`RowKernel`] row entries
/// (same seeded LPT with the same first-on-ties rule, same closed-form
/// water fill), which `tests/proptest_heap_lpt.rs` proves over random
/// module shapes.
#[derive(Debug, Clone)]
pub struct ModuleShape {
    /// Scan-chain lengths sorted descending (LPT insertion order).
    desc: Vec<u64>,
    /// Scan-chain lengths sorted ascending (water-fill order).
    asc: Vec<u64>,
    /// Wrapper input cells.
    cells_in: u64,
    /// Wrapper output cells.
    cells_out: u64,
    /// Test pattern count.
    patterns: u64,
    /// Longest internal scan chain (0 for combinational modules).
    longest: u64,
}

impl ModuleShape {
    /// Extracts the shape of `module` (sorts the scan chains once).
    pub fn of(module: &Module) -> Self {
        let mut desc: Vec<u64> = module.scan_chains().iter().map(|c| c.length).collect();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        let asc: Vec<u64> = desc.iter().rev().copied().collect();
        let longest = desc.first().copied().unwrap_or(0);
        ModuleShape {
            desc,
            asc,
            cells_in: module.wrapper_input_cells(),
            cells_out: module.wrapper_output_cells(),
            patterns: module.patterns(),
            longest,
        }
    }

    /// Number of internal scan chains.
    pub fn chains(&self) -> usize {
        self.desc.len()
    }

    /// The width-independent floor on the module's test time: every
    /// wrapper-chain load is at least the longest internal scan chain `L`,
    /// so no width beats `(1 + L) · p + L`.
    pub fn floor_time(&self) -> u64 {
        test_time(self.patterns, self.longest, self.longest)
    }

    /// The canonical byte encoding of the shape's identity: pattern count,
    /// wrapper cell counts, then every scan-chain length in descending
    /// order, each as a little-endian `u64` (with the chain count in
    /// between so `[1, 2]` and `[1]`+trailing garbage cannot collide by
    /// concatenation). Two modules encode identically **iff** their
    /// test-time rows are identical at every width — `time_at` reads
    /// nothing else — which is what makes the encoding a sound
    /// content-address for cross-SOC row sharing.
    pub fn content_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(8 * (4 + self.desc.len()));
        for word in [
            self.patterns,
            self.cells_in,
            self.cells_out,
            self.desc.len() as u64,
        ] {
            key.extend_from_slice(&word.to_le_bytes());
        }
        for &length in &self.desc {
            key.extend_from_slice(&length.to_le_bytes());
        }
        key
    }

    /// Test time at `width` wrapper chains — bit-identical to
    /// `RowKernel::compute(module, w)[width - 1]` for every `w >= width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn time_at(&self, width: usize, scratch: &mut ShapeScratch) -> u64 {
        assert!(width > 0, "wrapper width must be at least 1");
        let chains = self.desc.len();
        if width >= chains {
            // Wide region: every chain gets its own wrapper chain; the load
            // multiset is the sorted chain lengths plus empty chains.
            let empty_bins = width - chains;
            let scan_in = leveled_makespan(empty_bins, &self.asc, self.cells_in);
            let scan_out = leveled_makespan(empty_bins, &self.asc, self.cells_out);
            return test_time(self.patterns, scan_in, scan_out);
        }
        // Narrow region: seeded heap LPT (chain i < width lands in bin i on
        // empty bins, so only the remaining chains are placed by search).
        scratch.heap.seed(&self.desc[..width]);
        for &length in &self.desc[width..] {
            scratch.heap.add_to_min(length);
        }
        scratch.sorted.clear();
        scratch.heap.extend_loads_into(&mut scratch.sorted);
        scratch.sorted.sort_unstable();
        let scan_in = leveled_makespan(0, &scratch.sorted, self.cells_in);
        let scan_out = leveled_makespan(0, &scratch.sorted, self.cells_out);
        test_time(self.patterns, scan_in, scan_out)
    }
}

/// Reusable scratch buffers for [`ModuleShape::time_at`] — construct once
/// per thread and reuse, so single-width queries allocate nothing in steady
/// state.
#[derive(Debug, Default)]
pub struct ShapeScratch {
    heap: LoadHeap,
    sorted: Vec<u64>,
}

impl ShapeScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        ShapeScratch::default()
    }
}

/// Index of the least-loaded bin (first one on ties — the same rule as
/// [`crate::lpt::lpt_partition`], so load multisets match exactly).
fn least_loaded(loads: &[u64]) -> usize {
    let mut best = 0;
    for (index, &load) in loads.iter().enumerate() {
        if load < loads[best] {
            best = index;
        }
    }
    best
}

/// Closed-form water fill: the maximum bin load after distributing `cells`
/// unit items over `zero_bins` empty bins plus the bins in `ascending`
/// (sorted ascending), always adding to the currently lowest bin.
///
/// Equivalent to `loads + water_fill(loads, cells)` followed by `max()`,
/// but O(bins) arithmetic without allocating: greedy unit filling raises
/// the `k` lowest bins to a common level `ceil((prefix_k + cells) / k)`,
/// where `k` is the smallest bin count whose capacity up to the next load
/// covers `cells`.
///
/// Prefix sums and `prefix + cells` are evaluated in `u128`: near
/// `u64::MAX` chain lengths make the running load sum wrap in `u64`, which
/// in a release build would silently return a bogus (far too small) level.
/// The final level is checked back into the `u64` test-time domain by
/// [`fit_u64`].
fn leveled_makespan(zero_bins: usize, ascending: &[u64], cells: u64) -> u64 {
    let max_load = ascending.last().copied().unwrap_or(0);
    if cells == 0 {
        return max_load;
    }
    let total_bins = zero_bins + ascending.len();
    debug_assert!(total_bins > 0, "a wrapper has at least one chain");
    let cells = u128::from(cells);
    let mut prefix = 0u128;
    for (index, &next) in ascending.iter().enumerate() {
        let bins = zero_bins + index;
        // Capacity of the `bins` lowest bins before they reach `next`;
        // `prefix <= next · bins` because the prefix sums `bins` loads that
        // are each at most `next`, so the subtraction cannot underflow.
        if bins > 0 && u128::from(next) * bins as u128 - prefix >= cells {
            let level = (prefix + cells).div_ceil(bins as u128);
            return fit_u64(level).max(max_load);
        }
        prefix += u128::from(next);
    }
    // The fill spills past the tallest bin: all bins level out.
    fit_u64((prefix + cells).div_ceil(total_bins as u128))
}

/// The wrapper test-time model `t = (1 + max(si, so)) · p + min(si, so)`
/// with the degenerate no-bits case of one cycle per pattern.
///
/// The product is formed with `u128` `checked_mul`/`checked_add`: at the
/// magnitudes of the 10k-module tier (and adversarial near-`u64::MAX` chain
/// lengths or pattern counts) the naive `u64` expression wraps silently in
/// release builds, producing a tiny bogus test time that would corrupt
/// every downstream architecture decision. Out-of-domain inputs panic
/// instead (see [`fit_u64`] for the domain invariant).
fn test_time(patterns: u64, scan_in: u64, scan_out: u64) -> u64 {
    if scan_in == 0 && scan_out == 0 {
        // Even the degenerate one-cycle-per-pattern case must stay inside
        // the test-time domain (u64::MAX is the lazy-table sentinel).
        return fit_u64(u128::from(patterns));
    }
    let cycles = (1 + u128::from(scan_in.max(scan_out)))
        .checked_mul(u128::from(patterns))
        .and_then(|c| c.checked_add(u128::from(scan_in.min(scan_out))))
        .expect("wrapper test time overflows u128");
    fit_u64(cycles)
}

/// Checks a cycle count back into the `u64` test-time domain.
///
/// Invariant: every test time (and every scan length feeding one) fits in
/// `u64` *strictly below* `u64::MAX` — the all-ones value is reserved as
/// `soctest_tam::LazyTimeTable`'s not-yet-computed cell sentinel. Inputs
/// violating the invariant describe physically impossible modules (more
/// than 1.8 · 10¹⁹ cycles); failing loudly beats wrapping silently.
fn fit_u64(cycles: u128) -> u64 {
    assert!(
        cycles < u128::from(u64::MAX),
        "test time of {cycles} cycles overflows the u64 test-time domain"
    );
    cycles as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::design_wrapper;
    use crate::lpt::water_fill;

    fn module() -> Module {
        Module::builder("core")
            .patterns(50)
            .inputs(12)
            .outputs(20)
            .bidirs(4)
            .scan_chains([100u64, 90, 80, 60, 40, 30])
            .build()
    }

    #[test]
    fn row_matches_design_wrapper_at_every_width() {
        let m = module();
        let row = test_time_row(&m, 32);
        assert_eq!(row.len(), 32);
        for width in 1..=32 {
            assert_eq!(
                row[width - 1],
                design_wrapper(&m, width).test_time_cycles(),
                "width {width}"
            );
        }
    }

    #[test]
    fn kernel_is_reusable_across_modules() {
        let mut kernel = RowKernel::new();
        let small = Module::builder("s").patterns(3).inputs(2).build();
        let first = kernel.compute(&module(), 16);
        let second = kernel.compute(&small, 4);
        let third = kernel.compute(&module(), 16);
        assert_eq!(first, third);
        assert_eq!(second, test_time_row(&small, 4));
    }

    #[test]
    fn compute_into_reuses_the_output_buffer() {
        let mut kernel = RowKernel::new();
        let mut row = Vec::new();
        kernel.compute_into(&module(), 8, &mut row);
        assert_eq!(row.len(), 8);
        kernel.compute_into(&module(), 4, &mut row);
        assert_eq!(row, test_time_row(&module(), 4));
    }

    #[test]
    fn combinational_module_rows() {
        let m = Module::builder("comb")
            .patterns(12)
            .inputs(32)
            .outputs(32)
            .build();
        let row = test_time_row(&m, 8);
        assert_eq!(row[7], (1 + 4) * 12 + 4);
        assert_eq!(row[0], (1 + 32) * 12 + 32);
    }

    #[test]
    fn empty_module_rows_are_pattern_counts() {
        let m = Module::builder("void").patterns(3).build();
        assert_eq!(test_time_row(&m, 4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn zero_length_scan_chains_are_handled() {
        let m = Module::builder("zeros")
            .patterns(5)
            .inputs(3)
            .outputs(1)
            .scan_chains([7u64, 0, 0])
            .build();
        let row = test_time_row(&m, 6);
        for width in 1..=6 {
            assert_eq!(row[width - 1], design_wrapper(&m, width).test_time_cycles());
        }
    }

    #[test]
    fn leveled_makespan_matches_iterative_water_fill() {
        let cases: [(&[u64], u64); 6] = [
            (&[10, 4, 4], 8),
            (&[3, 3, 3], 7),
            (&[0, 0, 10], 6),
            (&[5], 100),
            (&[0, 0, 0], 1),
            (&[100, 50, 10], 1_000_000),
        ];
        for (loads, cells) in cases {
            let mut sorted = loads.to_vec();
            sorted.sort_unstable();
            let added = water_fill(loads, cells);
            let expected = loads.iter().zip(&added).map(|(l, a)| l + a).max().unwrap();
            assert_eq!(
                leveled_makespan(0, &sorted, cells),
                expected,
                "loads {loads:?} cells {cells}"
            );
        }
    }

    #[test]
    fn leveled_makespan_with_zero_bins_prefix() {
        // 3 empty bins + [5, 9]; 4 cells fill the empty bins to level 2.
        assert_eq!(leveled_makespan(3, &[5, 9], 4), 9);
        // Enough cells to flood everything: level = ceil((14+100)/5).
        assert_eq!(leveled_makespan(3, &[5, 9], 100), 23);
        // No chains at all.
        assert_eq!(leveled_makespan(4, &[], 10), 3);
        assert_eq!(leveled_makespan(4, &[], 0), 0);
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn zero_width_panics() {
        let _ = test_time_row(&module(), 0);
    }

    #[test]
    fn module_shape_matches_row_kernel_at_every_width() {
        let m = module();
        let shape = ModuleShape::of(&m);
        let mut scratch = ShapeScratch::new();
        let row = test_time_row(&m, 32);
        for width in 1..=32 {
            assert_eq!(
                shape.time_at(width, &mut scratch),
                row[width - 1],
                "width {width}"
            );
        }
        assert_eq!(shape.chains(), 6);
        assert_eq!(shape.floor_time(), *row.last().unwrap());
    }

    #[test]
    fn module_shape_handles_degenerate_modules() {
        let mut scratch = ShapeScratch::new();
        let void = Module::builder("void").patterns(3).build();
        let shape = ModuleShape::of(&void);
        assert_eq!(shape.time_at(1, &mut scratch), 3);
        assert_eq!(shape.time_at(7, &mut scratch), 3);
        assert_eq!(shape.floor_time(), 3);

        let comb = Module::builder("comb")
            .patterns(12)
            .inputs(32)
            .outputs(32)
            .build();
        let shape = ModuleShape::of(&comb);
        assert_eq!(shape.time_at(8, &mut scratch), (1 + 4) * 12 + 4);
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn module_shape_zero_width_panics() {
        let shape = ModuleShape::of(&module());
        let _ = shape.time_at(0, &mut ShapeScratch::new());
    }

    #[test]
    fn content_key_is_chain_order_insensitive_and_content_sensitive() {
        let a = Module::builder("a")
            .patterns(10)
            .inputs(4)
            .outputs(3)
            .scan_chain(7)
            .scan_chain(19)
            .build();
        // Same chains in the other declaration order, different name.
        let b = Module::builder("b")
            .patterns(10)
            .inputs(4)
            .outputs(3)
            .scan_chain(19)
            .scan_chain(7)
            .build();
        let (sa, sb) = (ModuleShape::of(&a), ModuleShape::of(&b));
        assert_eq!(sa.content_key(), sb.content_key());

        // Any row-relevant difference must change the key.
        let variants = [
            Module::builder("c")
                .patterns(11)
                .inputs(4)
                .outputs(3)
                .scan_chain(7)
                .scan_chain(19)
                .build(),
            Module::builder("d")
                .patterns(10)
                .inputs(5)
                .outputs(3)
                .scan_chain(7)
                .scan_chain(19)
                .build(),
            Module::builder("e")
                .patterns(10)
                .inputs(4)
                .outputs(2)
                .scan_chain(7)
                .scan_chain(19)
                .build(),
            Module::builder("f")
                .patterns(10)
                .inputs(4)
                .outputs(3)
                .scan_chain(7)
                .scan_chain(20)
                .build(),
            Module::builder("g")
                .patterns(10)
                .inputs(4)
                .outputs(3)
                .scan_chain(26)
                .build(),
        ];
        for variant in &variants {
            let shape = ModuleShape::of(variant);
            assert_ne!(shape.content_key(), sa.content_key(), "{}", variant.name());
        }
    }

    #[test]
    fn content_key_length_framing_blocks_concatenation_collisions() {
        // [1] with cells that "look like" a chain vs. [1, 2] as chains:
        // the chain-count word keeps the encodings distinct.
        let one = Module::builder("one")
            .patterns(5)
            .scan_chain(2)
            .scan_chain(1)
            .build();
        let two = Module::builder("two").patterns(5).scan_chain(2).build();
        assert_ne!(
            ModuleShape::of(&one).content_key(),
            ModuleShape::of(&two).content_key()
        );
    }

    #[test]
    fn near_max_inputs_compute_exactly_when_in_domain() {
        // (1 + max(si, so)) · p + min(si, so) right below the u64 boundary:
        // a single ~2^32-cycle chain with ~2^31 patterns stays in domain and
        // must match the u128 ground truth exactly (no silent wrap).
        let chain = (1u64 << 32) - 17;
        let patterns = (1u64 << 31) - 5;
        let m = Module::builder("big")
            .patterns(patterns)
            .scan_chain(chain)
            .build();
        let row = test_time_row(&m, 2);
        let expected = (1 + u128::from(chain)) * u128::from(patterns) + u128::from(chain);
        assert_eq!(u128::from(row[0]), expected);
        assert_eq!(row[1], row[0], "one chain saturates at width 1");
    }

    #[test]
    #[should_panic(expected = "overflows the u64 test-time domain")]
    fn near_max_chain_and_patterns_panic_instead_of_wrapping() {
        // u64::MAX/4 cycles per pattern times 8 patterns wraps in u64; the
        // hardened kernel must panic, not return the wrapped value.
        let m = Module::builder("absurd")
            .patterns(8)
            .scan_chain(u64::MAX / 4)
            .build();
        let _ = test_time_row(&m, 1);
    }

    #[test]
    #[should_panic(expected = "wrapper-chain load overflows u64")]
    fn near_max_bin_load_panics_instead_of_wrapping() {
        // Three near-max chains forced into one bin: the load accumulation
        // itself overflows u64 before any makespan arithmetic runs, and
        // must fail loudly rather than wrap to a tiny bogus load.
        let m = Module::builder("absurd3")
            .patterns(1)
            .scan_chains([u64::MAX / 2, u64::MAX / 2, u64::MAX / 2])
            .build();
        let _ = test_time_row(&m, 1);
    }

    #[test]
    #[should_panic(expected = "overflows the u64 test-time domain")]
    fn sentinel_pattern_count_is_rejected_even_without_scan_bits() {
        // The degenerate no-scan-bits case returns the raw pattern count;
        // u64::MAX is reserved as LazyTimeTable's cell sentinel and must be
        // rejected, not returned.
        let m = Module::builder("void_max").patterns(u64::MAX).build();
        let _ = test_time_row(&m, 1);
    }

    #[test]
    fn largest_in_domain_pattern_count_is_served() {
        let m = Module::builder("void_almost")
            .patterns(u64::MAX - 1)
            .build();
        assert_eq!(test_time_row(&m, 2), vec![u64::MAX - 1, u64::MAX - 1]);
    }

    #[test]
    #[should_panic(expected = "overflows the u64 test-time domain")]
    fn near_max_water_fill_level_panics_instead_of_wrapping() {
        // Two near-max chains: the width-1 wrapper load sum (prefix + cells)
        // exceeds u64 already inside the leveled water fill.
        let m = Module::builder("absurd2")
            .patterns(1)
            .inputs(3)
            .scan_chains([u64::MAX / 2, u64::MAX / 2])
            .build();
        let _ = test_time_row(&m, 1);
    }
}
