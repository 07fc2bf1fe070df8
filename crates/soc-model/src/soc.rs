//! The System-on-Chip container type.

use crate::module::{Module, ModuleId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A System-on-Chip: a named collection of embedded [`Module`]s.
///
/// The module order is preserved; [`ModuleId`]s are dense indices into that
/// order and remain valid for the lifetime of the `Soc` value (modules can
/// only be appended, never removed).
///
/// The module list is shared: cloning a `Soc` copies its name and bumps
/// a reference count, and the clones share one list until one of them
/// appends a module, which copies the list first (copy on write). Two
/// SOCs that share a list compare equal by pointer; otherwise `==`
/// compares module by module.
///
/// # Example
///
/// ```
/// use soctest_soc_model::{Module, Soc};
///
/// let mut soc = Soc::new("demo");
/// let id = soc.push_module(Module::builder("c1").patterns(10).scan_chain(100).build());
/// assert_eq!(soc.module(id).name(), "c1");
/// assert_eq!(soc.num_modules(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Soc {
    name: String,
    modules: Arc<Vec<Module>>,
}

impl Soc {
    /// Creates an empty SOC with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Soc {
            name: name.into(),
            modules: Arc::new(Vec::new()),
        }
    }

    /// Creates an SOC from a name and an iterator of modules.
    pub fn from_modules<I>(name: impl Into<String>, modules: I) -> Self
    where
        I: IntoIterator<Item = Module>,
    {
        Soc {
            name: name.into(),
            modules: Arc::new(modules.into_iter().collect()),
        }
    }

    /// The SOC name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a module and returns its id. Copies the module list
    /// first if another clone shares it.
    pub fn push_module(&mut self, module: Module) -> ModuleId {
        let modules = Arc::make_mut(&mut self.modules);
        modules.push(module);
        ModuleId(modules.len() - 1)
    }

    /// Number of modules in the SOC.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Whether the SOC contains no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Returns the module with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a module of this SOC.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.0]
    }

    /// Returns the module with the given id, or `None` if out of range.
    pub fn get_module(&self, id: ModuleId) -> Option<&Module> {
        self.modules.get(id.0)
    }

    /// Finds a module by name.
    pub fn module_by_name(&self, name: &str) -> Option<(ModuleId, &Module)> {
        self.modules
            .iter()
            .enumerate()
            .find(|(_, m)| m.name() == name)
            .map(|(i, m)| (ModuleId(i), m))
    }

    /// Iterates over `(ModuleId, &Module)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ModuleId, &Module)> + '_ {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId(i), m))
    }

    /// The modules as a slice, in insertion order.
    pub fn modules(&self) -> &[Module] {
        self.modules.as_slice()
    }

    /// All module ids in insertion order.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> + '_ {
        (0..self.modules.len()).map(ModuleId)
    }

    /// Total number of test patterns over all modules.
    pub fn total_patterns(&self) -> u64 {
        self.modules.iter().map(Module::patterns).sum()
    }

    /// Total number of scan flip-flops over all modules.
    pub fn total_scan_flip_flops(&self) -> u64 {
        self.modules.iter().map(Module::total_scan_flip_flops).sum()
    }

    /// Total functional terminal count over all modules.
    pub fn total_functional_terminals(&self) -> u64 {
        self.modules.iter().map(Module::functional_terminals).sum()
    }

    /// Total test data volume in bits over all modules
    /// (see [`Module::test_data_volume_bits`]).
    pub fn total_test_data_volume_bits(&self) -> u64 {
        self.modules.iter().map(Module::test_data_volume_bits).sum()
    }

    /// Aggregated descriptive statistics.
    pub fn stats(&self) -> SocStats {
        SocStats {
            modules: self.num_modules(),
            total_patterns: self.total_patterns(),
            total_scan_flip_flops: self.total_scan_flip_flops(),
            total_functional_terminals: self.total_functional_terminals(),
            total_test_data_volume_bits: self.total_test_data_volume_bits(),
            max_module_scan_chains: self
                .modules
                .iter()
                .map(Module::num_scan_chains)
                .max()
                .unwrap_or(0),
            longest_scan_chain: self
                .modules
                .iter()
                .map(Module::longest_scan_chain)
                .max()
                .unwrap_or(0),
        }
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "soc {} ({} modules)", self.name, self.modules.len())
    }
}

impl Extend<Module> for Soc {
    fn extend<T: IntoIterator<Item = Module>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.modules).extend(iter);
    }
}

impl<'a> IntoIterator for &'a Soc {
    type Item = (ModuleId, &'a Module);
    type IntoIter = std::vec::IntoIter<(ModuleId, &'a Module)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Aggregated descriptive statistics of an [`Soc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SocStats {
    /// Number of modules.
    pub modules: usize,
    /// Total number of test patterns.
    pub total_patterns: u64,
    /// Total number of scan flip-flops.
    pub total_scan_flip_flops: u64,
    /// Total number of functional terminals.
    pub total_functional_terminals: u64,
    /// Total test data volume in bits.
    pub total_test_data_volume_bits: u64,
    /// Largest per-module scan chain count.
    pub max_module_scan_chains: usize,
    /// Longest single scan chain in the design.
    pub longest_scan_chain: u64,
}

impl fmt::Display for SocStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} modules, {} patterns, {} scan FFs, {} terminals, {:.1} Mbit test data",
            self.modules,
            self.total_patterns,
            self.total_scan_flip_flops,
            self.total_functional_terminals,
            self.total_test_data_volume_bits as f64 / 1.0e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleKind;

    fn sample_soc() -> Soc {
        let mut soc = Soc::new("sample");
        soc.push_module(
            Module::builder("a")
                .patterns(10)
                .inputs(4)
                .outputs(4)
                .scan_chains([100u64, 90])
                .build(),
        );
        soc.push_module(
            Module::builder("b")
                .kind(ModuleKind::Memory)
                .patterns(200)
                .inputs(20)
                .outputs(16)
                .scan_chain(30)
                .build(),
        );
        soc
    }

    #[test]
    fn push_and_lookup() {
        let soc = sample_soc();
        assert_eq!(soc.num_modules(), 2);
        assert_eq!(soc.module(ModuleId(0)).name(), "a");
        assert_eq!(soc.module(ModuleId(1)).name(), "b");
        assert!(soc.get_module(ModuleId(2)).is_none());
    }

    #[test]
    fn module_by_name() {
        let soc = sample_soc();
        let (id, m) = soc.module_by_name("b").unwrap();
        assert_eq!(id, ModuleId(1));
        assert_eq!(m.patterns(), 200);
        assert!(soc.module_by_name("missing").is_none());
    }

    #[test]
    fn aggregate_statistics() {
        let soc = sample_soc();
        assert_eq!(soc.total_patterns(), 210);
        assert_eq!(soc.total_scan_flip_flops(), 220);
        assert_eq!(soc.total_functional_terminals(), 8 + 36);
        let stats = soc.stats();
        assert_eq!(stats.modules, 2);
        assert_eq!(stats.max_module_scan_chains, 2);
        assert_eq!(stats.longest_scan_chain, 100);
        assert!(stats.to_string().contains("2 modules"));
    }

    #[test]
    fn iteration_preserves_order() {
        let soc = sample_soc();
        let names: Vec<&str> = soc.iter().map(|(_, m)| m.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let ids: Vec<ModuleId> = soc.module_ids().collect();
        assert_eq!(ids, vec![ModuleId(0), ModuleId(1)]);
    }

    #[test]
    fn from_modules_and_extend() {
        let mut soc = Soc::from_modules(
            "x",
            vec![Module::builder("m0").build(), Module::builder("m1").build()],
        );
        assert_eq!(soc.num_modules(), 2);
        soc.extend(vec![Module::builder("m2").build()]);
        assert_eq!(soc.num_modules(), 3);
    }

    #[test]
    fn empty_soc() {
        let soc = Soc::new("empty");
        assert!(soc.is_empty());
        assert_eq!(soc.stats().longest_scan_chain, 0);
        assert_eq!(soc.to_string(), "soc empty (0 modules)");
    }

    #[test]
    fn clones_share_the_module_list_until_one_appends() {
        let original = sample_soc();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.modules, &copy.modules));
        assert_eq!(copy, original);
        copy.push_module(Module::builder("c").patterns(1).build());
        assert!(!Arc::ptr_eq(&original.modules, &copy.modules));
        assert_eq!(original.num_modules(), 2, "the original is untouched");
        assert_eq!(copy.num_modules(), 3);
        assert_ne!(copy, original);
        let mut extended = original.clone();
        extended.extend(vec![Module::builder("d").build()]);
        assert_eq!(original.num_modules(), 2);
        assert_eq!(extended.num_modules(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let soc = sample_soc();
        let json = serde_json::to_string(&soc).unwrap();
        let back: Soc = serde_json::from_str(&json).unwrap();
        assert_eq!(soc, back);
    }
}
