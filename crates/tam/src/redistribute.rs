//! Channel redistribution (the inner move of Step 2).
//!
//! When Step 2 of the paper gives up one multi-site, the ATE channels of the
//! abandoned site become available to the remaining sites. Per site, the
//! freed channels are handed out one wrapper chain (two channels) at a time,
//! always to the channel group that is currently the fullest — the group
//! that determines the SOC test time — and that group's modules are
//! re-wrapped at the new width.

use crate::architecture::TestArchitecture;
use crate::timetable::TimeLookup;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a redistribution: the widened architecture plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redistribution {
    /// The widened architecture.
    pub architecture: TestArchitecture,
    /// Wrapper chains actually handed out (may be less than requested when
    /// no group benefits from further widening).
    pub width_added: usize,
}

/// Widens `architecture` by up to `extra_width` wrapper chains, one at a
/// time, always growing the currently fullest group, and returns the
/// widened architecture.
///
/// Handing a chain to a group only makes sense when the group's fill
/// actually drops (its modules may already be at their Pareto floor); when
/// no group can improve any further, the remaining chains are left unused
/// and reported through [`Redistribution::width_added`].
///
/// The table's maximum width caps how far a single group can grow.
///
/// This is [`Widening`] run for `extra_width` chains: the state after `e`
/// chains is a prefix of the state after `e + 1`, which is what lets the
/// optimizer run the loop once per Step 1 architecture and read every
/// site count's architecture off the trajectory.
pub fn redistribute_extra_width<T: TimeLookup + ?Sized>(
    architecture: &TestArchitecture,
    table: &T,
    extra_width: usize,
) -> Redistribution {
    let mut arch = architecture.clone();
    let mut widening = Widening::new(architecture);
    let mut added = 0usize;
    while added < extra_width {
        let Some(chain) = widening.next_chain(architecture, table) else {
            break; // every group is at its Pareto floor or width cap
        };
        chain.apply(&mut arch);
        added += 1;
    }
    Redistribution {
        architecture: arch,
        width_added: added,
    }
}

/// One wrapper chain handed out by the greedy redistribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// Index of the widened group.
    pub group: usize,
    /// The group's fill at its new width.
    pub fill: u64,
}

impl Chain {
    /// Applies the chain to `architecture`: one more wrapper chain for
    /// the group, and its new fill.
    pub fn apply(&self, architecture: &mut TestArchitecture) {
        let group = &mut architecture.groups[self.group];
        group.width += 1;
        group.fill_cycles = self.fill;
    }
}

/// The greedy loop of [`redistribute_extra_width`], paused between two
/// chains so that it can be resumed later.
///
/// The state holds only each group's current width and the heap of
/// groups that may still improve; the module lists stay in the base
/// architecture the loop was started from, which every
/// [`Widening::next_chain`] call must pass again.
///
/// The fullest group is tracked with a max-heap (ties broken towards the
/// lower group index, matching a stable descending sort), so handing out a
/// chain costs O(log groups) instead of re-sorting all groups per chain. A
/// group that fails to improve is dropped from the heap permanently: its
/// width — the only state its improvability depends on — can never change
/// again, so re-examining it (as the sort-per-chain formulation did) can
/// never change the outcome.
#[derive(Debug, Clone)]
pub struct Widening {
    /// Current width of every group of the base architecture.
    widths: Vec<usize>,
    /// Groups that may still improve, keyed by (fill, lowest index first
    /// on equal fills).
    heap: BinaryHeap<(u64, Reverse<usize>)>,
    /// The largest fill among the groups dropped from the heap.
    dropped_fill: u64,
}

impl Widening {
    /// The loop before its first chain, over `base`'s groups.
    pub fn new(base: &TestArchitecture) -> Self {
        Widening {
            widths: base.groups.iter().map(|group| group.width).collect(),
            heap: base
                .groups
                .iter()
                .enumerate()
                .map(|(g_idx, group)| (group.fill_cycles, Reverse(g_idx)))
                .collect(),
            dropped_fill: 0,
        }
    }

    /// Hands the next wrapper chain to the fullest group that improves,
    /// or returns `None` when no group can improve any further (each is
    /// at its Pareto floor or at the table's width cap); the loop stays
    /// finished after that.
    ///
    /// `base` must be the architecture the loop was started from.
    pub fn next_chain<T: TimeLookup + ?Sized>(
        &mut self,
        base: &TestArchitecture,
        table: &T,
    ) -> Option<Chain> {
        while let Some((fill, Reverse(g_idx))) = self.heap.pop() {
            let width = self.widths[g_idx] + 1;
            if width <= table.max_width() {
                let new_fill = table.group_fill(&base.groups[g_idx].modules, width);
                if new_fill < fill {
                    self.widths[g_idx] = width;
                    self.heap.push((new_fill, Reverse(g_idx)));
                    return Some(Chain {
                        group: g_idx,
                        fill: new_fill,
                    });
                }
            }
            self.dropped_fill = self.dropped_fill.max(fill);
        }
        None
    }

    /// The SOC test time the chains handed out so far have reached: the
    /// fill of the fullest group.
    pub fn test_time_cycles(&self) -> u64 {
        self.heap
            .peek()
            .map_or(0, |&(fill, _)| fill)
            .max(self.dropped_fill)
    }

    /// Estimated resident bytes of the paused state.
    pub fn memory_bytes(&self) -> u64 {
        let widths = self.widths.capacity() * std::mem::size_of::<usize>();
        let heap = self.heap.capacity() * std::mem::size_of::<(u64, Reverse<usize>)>();
        (std::mem::size_of::<Self>() + widths + heap) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::design_minimal_architecture;
    use crate::timetable::TimeTable;
    use soctest_ate::AteSpec;
    use soctest_soc_model::benchmarks::{d695, p93791};

    fn base() -> (TimeTable, TestArchitecture, u64) {
        let soc = d695();
        let depth = 64 * 1024;
        let ate = AteSpec::new(256, depth, 5.0e6);
        let arch = design_minimal_architecture(&soc, &ate).unwrap();
        let table = TimeTable::build(&soc, 128);
        (table, arch, depth)
    }

    #[test]
    fn redistribution_never_increases_test_time() {
        let (table, arch, _) = base();
        let mut prev = arch.test_time_cycles();
        for extra in [1usize, 2, 4, 8, 16] {
            let result = redistribute_extra_width(&arch, &table, extra);
            let t = result.architecture.test_time_cycles();
            assert!(t <= prev, "extra {extra}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn redistribution_adds_at_most_the_requested_width() {
        let (table, arch, _) = base();
        let before = arch.total_width();
        let result = redistribute_extra_width(&arch, &table, 6);
        assert!(result.width_added <= 6);
        assert_eq!(
            result.architecture.total_width(),
            before + result.width_added
        );
    }

    #[test]
    fn redistribution_keeps_module_assignment() {
        let (table, arch, _) = base();
        let result = redistribute_extra_width(&arch, &table, 10);
        assert_eq!(
            result.architecture.assigned_modules(),
            arch.assigned_modules()
        );
        assert_eq!(result.architecture.groups.len(), arch.groups.len());
    }

    #[test]
    fn redistribution_still_fits_the_depth() {
        let (table, arch, depth) = base();
        let result = redistribute_extra_width(&arch, &table, 20);
        assert!(result.architecture.fits(depth));
    }

    #[test]
    fn zero_extra_width_is_identity() {
        let (table, arch, _) = base();
        let result = redistribute_extra_width(&arch, &table, 0);
        assert_eq!(result.architecture, arch);
        assert_eq!(result.width_added, 0);
    }

    #[test]
    fn resumed_widening_reaches_every_prefix_of_the_redistribution() {
        let (table, arch, _) = base();
        let mut widening = Widening::new(&arch);
        assert_eq!(widening.test_time_cycles(), arch.test_time_cycles());
        let mut widened = arch.clone();
        let mut saturated = false;
        for extra in 1..=200 {
            match widening.next_chain(&arch, &table) {
                Some(chain) => chain.apply(&mut widened),
                None => saturated = true,
            }
            let reference = redistribute_extra_width(&arch, &table, extra).architecture;
            assert_eq!(widened, reference, "extra {extra}");
            assert_eq!(widening.test_time_cycles(), reference.test_time_cycles());
        }
        // 200 chains exceed what d695's groups can absorb at width 128.
        assert!(saturated);
        assert_eq!(widening.next_chain(&arch, &table), None);
    }

    #[test]
    fn redistribution_saturates_when_nothing_improves() {
        let (table, arch, _) = base();
        // Request an absurd amount of width; the algorithm must stop once
        // every group hits its Pareto floor (or the table's width cap).
        let result = redistribute_extra_width(&arch, &table, 10_000);
        assert!(result.width_added < 10_000);
        // A second pass adds nothing more.
        let again = redistribute_extra_width(&result.architecture, &table, 10);
        assert_eq!(again.width_added, 0);
    }

    #[test]
    fn large_soc_redistribution_reduces_test_time() {
        let soc = p93791();
        let depth = 1_000_000;
        let ate = AteSpec::new(512, depth, 5.0e6);
        let arch = design_minimal_architecture(&soc, &ate).unwrap();
        let table = TimeTable::build(&soc, 256);
        let result = redistribute_extra_width(&arch, &table, 16);
        assert!(result.architecture.test_time_cycles() < arch.test_time_cycles());
    }
}
