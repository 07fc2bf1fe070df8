//! Problem 2: flattened (non-modular) SOCs.
//!
//! For an SOC with a flattened top-level test there is exactly one
//! "module": the whole chip. The module wrapper and the E-RPCT wrapper
//! coincide and there are no TAMs (Figure 2(b) of the paper). The paper
//! treats this as a degenerate case of Problem 1 — and so does this module:
//! [`flatten_soc`] merges all modules into one, after which the regular
//! [`crate::optimizer::optimize`] applies unchanged.

use soctest_soc_model::{Module, ModuleKind, Soc};

/// Flattens a modular SOC into a single-module SOC:
///
/// * all internal scan chains are kept as-is (they remain individually
///   accessible to the chip-level wrapper),
/// * the functional terminals of all modules are summed,
/// * the pattern count becomes the sum of the per-module pattern counts
///   (each module's patterns are applied through the shared top-level
///   wrapper, one module after the other).
///
/// The flattened SOC is named `<name>_flat`.
pub fn flatten_soc(soc: &Soc) -> Soc {
    let mut builder = Module::builder(format!("{}_top", soc.name()))
        .kind(ModuleKind::Logic)
        .patterns(soc.total_patterns());
    let mut inputs: u64 = 0;
    let mut outputs: u64 = 0;
    let mut bidirs: u64 = 0;
    let mut chains: Vec<u64> = Vec::new();
    for (_, module) in soc.iter() {
        inputs += u64::from(module.inputs());
        outputs += u64::from(module.outputs());
        bidirs += u64::from(module.bidirs());
        chains.extend(module.scan_chains().iter().map(|c| c.length));
    }
    builder = builder
        .inputs(inputs.min(u64::from(u32::MAX)) as u32)
        .outputs(outputs.min(u64::from(u32::MAX)) as u32)
        .bidirs(bidirs.min(u64::from(u32::MAX)) as u32)
        .scan_chains(chains);
    Soc::from_modules(format!("{}_flat", soc.name()), vec![builder.build()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::problem::OptimizerConfig;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use soctest_soc_model::benchmarks::d695;

    fn cell() -> TestCell {
        TestCell::new(
            AteSpec::new(256, 512 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        )
    }

    #[test]
    fn flattening_preserves_totals() {
        let soc = d695();
        let flat = flatten_soc(&soc);
        assert_eq!(flat.num_modules(), 1);
        assert_eq!(flat.total_patterns(), soc.total_patterns());
        assert_eq!(flat.total_scan_flip_flops(), soc.total_scan_flip_flops());
        assert_eq!(
            flat.total_functional_terminals(),
            soc.total_functional_terminals()
        );
        assert_eq!(flat.name(), "d695_flat");
    }

    #[test]
    fn flat_soc_has_a_single_wrapper_no_tams() {
        let soc = d695();
        let config = OptimizerConfig::new(cell());
        let solution = optimize(&flatten_soc(&soc), &config).unwrap();
        // One module means one channel group: module wrapper == E-RPCT wrapper.
        assert_eq!(solution.step1_architecture.groups.len(), 1);
        assert_eq!(solution.optimal_architecture.groups.len(), 1);
    }

    #[test]
    fn flat_test_is_never_faster_than_modular_test() {
        // The flat SOC applies the sum of all pattern counts through one
        // wrapper, which can never beat the modular architecture where
        // modules share the memory depth but keep their own pattern counts.
        let soc = d695();
        let config = OptimizerConfig::new(cell());
        let modular = optimize(&soc, &config).unwrap();
        let flat = optimize(&flatten_soc(&soc), &config).unwrap();
        assert!(
            flat.optimal.devices_per_hour <= modular.optimal.devices_per_hour + 1e-9,
            "flat {} > modular {}",
            flat.optimal.devices_per_hour,
            modular.optimal.devices_per_hour
        );
    }

    #[test]
    fn flat_optimization_is_consistent() {
        let soc = d695();
        let config = OptimizerConfig::new(cell());
        let solution = optimize(&flatten_soc(&soc), &config).unwrap();
        assert!(solution.optimal.sites >= 1);
        assert_eq!(solution.curve.len(), solution.max_sites);
        assert!(solution.curve.iter().all(|p| p.devices_per_hour > 0.0));
    }
}
