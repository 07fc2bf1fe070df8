//! The engine's memo of the two-step optimizer: one Step 1 per depth and
//! one Step 2 trajectory per Step 1 architecture, per table snapshot.
//!
//! The [optimizer module docs](crate::optimizer) show why this is exact:
//! Step 1 does not depend on the channel count `C` once it succeeds
//! (`W1 ≤ C/2`), and Step 2 at every site count is a prefix of one greedy
//! trajectory ([`soctest_tam::redistribute::Widening`]). A [`PlanMemo`]
//! keeps, for each vector-memory depth, Step 1's architecture and the
//! chains handed out so far, each with the test time it reached. A request
//! then costs O(`n_max`) arithmetic plus the replay of `n_opt`'s prefix.
//!
//! The memo probes exactly the table cells [`optimize_with_table`] would
//! probe for the same request, so per-request table counters are unchanged:
//!
//! * Step 1's binary searches depend on the table's width, so the plans are
//!   keyed by the table snapshot. A session's table only ever regrows wider,
//!   so its width names the snapshot, and a wider one starts a fresh memo.
//! * A trajectory is extended only to the requesting point's own
//!   `extra(1) = C/2 − W1`, the longest prefix the reference would walk.
//!
//! The lock is never held while the table is probed: under cancellation a
//! probe unwinds, and only finished plans are published, so a stopped
//! request leaves the memo as it was.
//!
//! The plans of a snapshot live in one bounded recency list (`crate::lru`)
//! under an item cap of [`MAX_PLANS`], each charged its estimated memory
//! when it is published.

use crate::error::OptimizeError;
use crate::lru::Lru;
use crate::optimizer::{
    channels_per_site, contacted_pads, max_sites_for, optimal_index, optimize_with_table,
    site_point,
};
use crate::problem::OptimizerConfig;
use crate::solution::{MultiSiteSolution, SitePoint};
use soctest_soc_model::ModuleId;
use soctest_tam::redistribute::{Chain, Widening};
use soctest_tam::step1::design_with_table;
use soctest_tam::{ChannelGroup, TestArchitecture, TimeLookup};
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Depth plans kept per table snapshot; the least recently used one is
/// dropped beyond this.
const MAX_PLANS: usize = 16;

/// One chain of the trajectory and the SOC test time it reached.
#[derive(Debug, Clone, Copy)]
struct Step {
    chain: Chain,
    test_time_cycles: u64,
}

/// Step 1's architecture for one depth and the Step 2 trajectory grown
/// from it so far.
#[derive(Debug, Clone)]
struct DepthPlan {
    depth: u64,
    step1: Arc<TestArchitecture>,
    /// The chains handed out so far, in order.
    steps: Vec<Step>,
    /// The greedy loop paused after `steps`; `None` once no group can
    /// improve any further.
    widening: Option<Widening>,
}

impl DepthPlan {
    fn new(depth: u64, step1: TestArchitecture) -> Self {
        DepthPlan {
            depth,
            widening: Some(Widening::new(&step1)),
            step1: Arc::new(step1),
            steps: Vec::new(),
        }
    }

    /// Whether the trajectory is known up to `extra` chains (or ends
    /// before them).
    fn covers(&self, extra: usize) -> bool {
        self.steps.len() >= extra || self.widening.is_none()
    }

    /// How far the plan has grown; of two plans for one depth, the larger
    /// one holds the other as a prefix.
    fn progress(&self) -> (usize, bool) {
        (self.steps.len(), self.widening.is_none())
    }

    /// A copy of the plan with its trajectory extended to `extra` chains.
    fn extended<T: TimeLookup + ?Sized>(&self, table: &T, extra: usize) -> DepthPlan {
        let mut plan = self.clone();
        while plan.steps.len() < extra {
            let Some(widening) = plan.widening.as_mut() else {
                break;
            };
            match widening.next_chain(&plan.step1, table) {
                Some(chain) => plan.steps.push(Step {
                    chain,
                    test_time_cycles: widening.test_time_cycles(),
                }),
                None => plan.widening = None,
            }
        }
        plan.steps.shrink_to_fit();
        plan
    }

    /// The two-step solution for `config`, whose depth is this plan's and
    /// whose `extra(1)` the trajectory covers.
    fn solution(&self, soc_name: &str, config: &OptimizerConfig) -> MultiSiteSolution {
        let channels = config.test_cell.ate.channels;
        let broadcast = config.options.stimulus_broadcast;
        let step1 = self.step1.as_ref();
        let width = step1.total_width();
        let chains_at = |sites: usize| {
            (channels_per_site(channels, sites, broadcast) / 2)
                .saturating_sub(width)
                .min(self.steps.len())
        };
        let max_sites = max_sites_for(step1, channels, broadcast).max(1);
        let curve: Vec<SitePoint> = (1..=max_sites)
            .map(|sites| {
                let chains = chains_at(sites);
                let cycles = match chains {
                    0 => step1.test_time_cycles(),
                    n => self.steps[n - 1].test_time_cycles,
                };
                site_point(cycles, width + chains, sites, config)
            })
            .collect();
        let best_index = optimal_index(&curve);
        let optimal = curve[best_index].clone();
        let mut optimal_architecture = step1.clone();
        for step in &self.steps[..chains_at(best_index + 1)] {
            step.chain.apply(&mut optimal_architecture);
        }
        MultiSiteSolution {
            soc_name: soc_name.to_string(),
            step1_architecture: step1.clone(),
            max_sites,
            curve,
            contacted_pads_per_site: contacted_pads(optimal.channels_per_site, config),
            optimal,
            optimal_architecture,
        }
    }

    /// Estimated resident bytes: the plan, Step 1's architecture, the
    /// steps and the paused loop.
    fn memory_bytes(&self) -> u64 {
        let groups = &self.step1.groups;
        let architecture = size_of::<TestArchitecture>()
            + groups.capacity() * size_of::<ChannelGroup>()
            + groups
                .iter()
                .map(|group| group.modules.capacity() * size_of::<ModuleId>())
                .sum::<usize>();
        let steps = self.steps.capacity() * size_of::<Step>();
        let widening = self.widening.as_ref().map_or(0, Widening::memory_bytes);
        (size_of::<DepthPlan>() + architecture + steps) as u64 + widening
    }
}

/// The plans of one table snapshot.
#[derive(Debug)]
struct Plans {
    /// Width of the table snapshot the plans were computed on.
    table_width: usize,
    /// At most [`MAX_PLANS`] plans, each charged its
    /// [`DepthPlan::memory_bytes`].
    plans: Lru<Arc<DepthPlan>>,
}

impl Default for Plans {
    fn default() -> Self {
        Plans {
            table_width: 0,
            plans: Lru::new(MAX_PLANS, u64::MAX),
        }
    }
}

/// A session's memo of Step 1 architectures and Step 2 trajectories,
/// keyed by table snapshot and depth. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct PlanMemo {
    inner: Mutex<Plans>,
}

impl PlanMemo {
    // Poisoning is recovered the way `Engine::snapshot` recovers it: no
    // code panics while holding the lock, and every write replaces whole
    // values.
    fn lock(&self) -> MutexGuard<'_, Plans> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The two-step optimization of `config` on `table` — the session's
    /// table snapshot or a guarded view of it — bit-identical to
    /// [`optimize_with_table`], which answers every request the memo
    /// cannot answer exactly.
    pub(crate) fn optimize<T: TimeLookup + ?Sized>(
        &self,
        soc_name: &str,
        table: &T,
        config: &OptimizerConfig,
    ) -> Result<MultiSiteSolution, OptimizeError> {
        let ate = &config.test_cell.ate;
        let half = ate.channels / 2;
        let table_width = table.max_width();
        if table_width < half || config.validate().is_err() {
            return optimize_with_table(soc_name, table, config);
        }
        let plan = match self.get(table_width, ate.vector_memory_depth) {
            Some(plan) if plan.step1.total_width() <= half => plan,
            // Step 1 fails at this channel count: the reference words the
            // error.
            Some(_) => return optimize_with_table(soc_name, table, config),
            None => {
                // The reference's own Step 1 call. It succeeds only with
                // W1 ≤ C/2 ≤ the table width, so its architecture holds for
                // every channel count at this depth.
                let step1 = design_with_table(table, ate.channels, ate.vector_memory_depth)?;
                self.publish(table_width, DepthPlan::new(ate.vector_memory_depth, step1))
            }
        };
        let extra = half - plan.step1.total_width();
        let plan = if plan.covers(extra) {
            plan
        } else {
            self.publish(table_width, plan.extended(table, extra))
        };
        Ok(plan.solution(soc_name, config))
    }

    /// The plan for `depth` on the snapshot of `table_width`, marked most
    /// recently used.
    fn get(&self, table_width: usize, depth: u64) -> Option<Arc<DepthPlan>> {
        let mut inner = self.lock();
        if inner.table_width != table_width {
            return None;
        }
        inner.plans.touch(|plan| plan.depth == depth).cloned()
    }

    /// Publishes `plan`, computed on the snapshot of `table_width`, and
    /// returns the plan now resident for its depth. A plan of a narrower
    /// (older) snapshot is returned without being kept; a wider snapshot
    /// replaces every resident plan. Of two plans for one depth, the one
    /// that has grown further stays.
    fn publish(&self, table_width: usize, plan: DepthPlan) -> Arc<DepthPlan> {
        let plan = Arc::new(plan);
        let mut inner = self.lock();
        if table_width < inner.table_width {
            return plan;
        }
        if table_width > inner.table_width {
            *inner = Plans {
                table_width,
                ..Plans::default()
            };
        }
        let plan = match inner.plans.remove(|p| p.depth == plan.depth) {
            Some(resident) if resident.progress() >= plan.progress() => resident,
            _ => plan,
        };
        inner.plans.push(Arc::clone(&plan), plan.memory_bytes());
        plan
    }

    /// Estimated resident bytes of the resident plans.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.lock().plans.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::d695;
    use soctest_tam::LazyTimeTable;

    fn config(channels: usize, depth: u64) -> OptimizerConfig {
        OptimizerConfig::new(TestCell::new(
            AteSpec::new(channels, depth, 5.0e6),
            ProbeStation::paper_probe_station(),
        ))
    }

    #[test]
    fn memo_answers_match_the_reference_across_channel_counts() {
        let soc = d695();
        let table = LazyTimeTable::new(&soc, 160);
        let memo = PlanMemo::default();
        // Narrow first, then wider: the trajectory grows; then narrower
        // again: a prefix answers. 8 channels are infeasible at this depth.
        for channels in [128, 320, 96, 8, 256, 64] {
            let cfg = config(channels, 96 * 1024);
            let reference = optimize_with_table(soc.name(), &table, &cfg);
            assert_eq!(memo.optimize(soc.name(), &table, &cfg), reference);
        }
        let plans = memo.lock();
        assert_eq!(plans.table_width, 160);
        assert_eq!(plans.plans.len(), 1);
    }

    #[test]
    fn table_narrower_than_half_the_channels_takes_the_reference_path() {
        let soc = d695();
        let table = LazyTimeTable::new(&soc, 8);
        let memo = PlanMemo::default();
        let cfg = config(256, 512 * 1024);
        let reference = optimize_with_table(soc.name(), &table, &cfg);
        assert!(reference.is_ok());
        assert_eq!(memo.optimize(soc.name(), &table, &cfg), reference);
        assert_eq!(memo.lock().plans.len(), 0);
    }

    #[test]
    fn wider_snapshot_restarts_and_narrower_one_is_not_kept() {
        let soc = d695();
        let narrow = LazyTimeTable::new(&soc, 64);
        let wide = narrow.grown(128);
        let memo = PlanMemo::default();
        let cfg = config(128, 96 * 1024);
        memo.optimize(soc.name(), &narrow, &cfg).unwrap();
        memo.optimize(soc.name(), &wide, &config(256, 64 * 1024))
            .unwrap();
        assert_eq!(memo.lock().table_width, 128);
        assert_eq!(memo.lock().plans.len(), 1);
        // A request still holding the old snapshot is answered, not kept.
        assert_eq!(
            memo.optimize(soc.name(), &narrow, &cfg),
            optimize_with_table(soc.name(), &narrow, &cfg)
        );
        assert_eq!(memo.lock().plans.iter().next().unwrap().0.depth, 64 * 1024);
    }

    #[test]
    fn resident_depths_are_capped_and_counted() {
        let soc = d695();
        let table = LazyTimeTable::new(&soc, 128);
        let memo = PlanMemo::default();
        assert_eq!(memo.memory_bytes(), 0);
        for k in 0..(MAX_PLANS as u64 + 4) {
            let cfg = config(256, 64 * 1024 + 4096 * k);
            memo.optimize(soc.name(), &table, &cfg).unwrap();
        }
        assert_eq!(memo.lock().plans.len(), MAX_PLANS);
        // The oldest depths went first.
        assert_eq!(
            memo.lock().plans.iter().next().unwrap().0.depth,
            64 * 1024 + 4096 * 4
        );
        assert!(memo.memory_bytes() > 0);
    }
}
