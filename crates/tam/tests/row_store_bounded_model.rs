//! A bounded `RowStore` against a model: random get, insert, hold,
//! release and save operations over six module shapes under a small
//! byte bound, on one thread.
//!
//! A get or an insert resolves its shape's row, uses it and drops the
//! handle; a hold resolves and keeps the handle until a release. Values
//! come from the wrapper kernel, as a table's would. The test follows
//! every row through a weak handle, so it sees which rows the store
//! evicted without resolving (and so touching or admitting) anything.
//! After every step it checks five invariants:
//!
//! 1. the charge, with the row and cell gauges, equals a re-walk of the
//!    resident rows (`24 + key + 16 × cells` bytes each);
//! 2. at every resolve the charge is within the bound, unless every
//!    resident row is held. One resolve may pass the clock over 16
//!    entries, more than twice the six rows that can be resident here,
//!    so a single pass restores the bound;
//! 3. no held row is evicted: the store still counts its two handles on
//!    it, and resolving its shape returns it;
//! 4. an evicted shape re-resolves to an empty row, and every cell read
//!    back equals the first computation of that cell;
//! 5. a save writes only the resident rows, each with its cells.

use proptest::prelude::*;
use soctest_soc_model::Module;
use soctest_tam::{RowStore, StoreRow};
use soctest_wrapper::row::{ModuleShape, ShapeScratch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

const SHAPES: usize = 6;
const MAX_WIDTH: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(usize, usize),
    Insert(usize, usize),
    Hold(usize),
    /// Drops the held handle at this index (modulo the number held).
    Release(usize),
    Save,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..10, 0..SHAPES, 1..=MAX_WIDTH).prop_map(|(kind, shape, width)| match kind {
            0..=2 => Op::Get(shape, width),
            3..=6 => Op::Insert(shape, width),
            7 => Op::Hold(shape),
            8 => Op::Release(shape),
            _ => Op::Save,
        }),
        0..150,
    )
}

fn shapes() -> Vec<ModuleShape> {
    (0..SHAPES as u64)
        .map(|p| {
            let module = Module::builder("m")
                .patterns(10 + p)
                .inputs(3)
                .outputs(2)
                .scan_chain(7 + p)
                .scan_chain(4)
                .build();
            ModuleShape::of(&module)
        })
        .collect()
}

/// What the test knows of the store.
struct Model {
    shapes: Vec<ModuleShape>,
    bound: u64,
    /// The row each shape last resolved to; dead once the store evicted
    /// it and no handle is left.
    latest: Vec<Weak<StoreRow>>,
    /// The handles the test holds, by shape.
    held: Vec<(usize, Arc<StoreRow>)>,
    /// The cells each shape's latest row holds.
    cells: Vec<BTreeMap<usize, u64>>,
    /// The first computation of every cell.
    first: BTreeMap<(usize, usize), u64>,
    scratch: ShapeScratch,
}

impl Model {
    fn is_resident(&self, shape: usize) -> bool {
        self.latest[shape].strong_count() > 0
    }

    fn holds(&self, shape: usize) -> usize {
        self.held.iter().filter(|(s, _)| *s == shape).count()
    }

    fn charge(&self, shape: usize, cells: usize) -> u64 {
        24 + self.shapes[shape].content_key().len() as u64 + 16 * cells as u64
    }

    /// Resolves `shape`, checking invariants 2, 3 and 4 at the resolve.
    fn resolve(&mut self, store: &RowStore, shape: usize) -> Result<Arc<StoreRow>, TestCaseError> {
        let was_resident = self.is_resident(shape);
        let row = store.row_for_shape(&self.shapes[shape]);
        if was_resident {
            prop_assert!(
                std::ptr::eq(self.latest[shape].as_ptr(), Arc::as_ptr(&row)),
                "shape {} resolved to a new row while its old one was resident or held",
                shape
            );
        } else {
            prop_assert!(row.is_empty(), "an evicted shape resolved to a filled row");
            self.cells[shape].clear();
        }
        self.latest[shape] = Arc::downgrade(&row);
        let bytes = store.stats().bytes;
        let all_held = (0..SHAPES).all(|s| !self.is_resident(s) || s == shape || self.holds(s) > 0);
        prop_assert!(
            bytes <= self.bound || all_held,
            "{} bytes resident over a bound of {} with unheld rows left",
            bytes,
            self.bound
        );
        Ok(row)
    }

    fn step(&mut self, store: &RowStore, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Get(shape, width) => {
                let row = self.resolve(store, shape)?;
                let got = row.get(width);
                prop_assert_eq!(got, self.cells[shape].get(&width).copied());
                if let Some(time) = got {
                    prop_assert_eq!(time, self.first[&(shape, width)]);
                }
            }
            Op::Insert(shape, width) => {
                let row = self.resolve(store, shape)?;
                let time = self.shapes[shape].time_at(width, &mut self.scratch);
                let first = *self.first.entry((shape, width)).or_insert(time);
                prop_assert_eq!(time, first, "a recomputed cell differs");
                let absent = !self.cells[shape].contains_key(&width);
                prop_assert_eq!(row.insert(width, time), absent);
                self.cells[shape].insert(width, time);
            }
            Op::Hold(shape) => {
                let row = self.resolve(store, shape)?;
                self.held.push((shape, row));
            }
            Op::Release(at) => {
                if !self.held.is_empty() {
                    let at = at % self.held.len();
                    self.held.remove(at);
                }
            }
            Op::Save => self.check_save(store)?,
        }
        Ok(())
    }

    /// Invariants 1 and 3, with no handle but the held ones alive.
    fn check_resident(&self, store: &RowStore) -> Result<(), TestCaseError> {
        let (mut rows, mut cells, mut bytes) = (0, 0, 0);
        for shape in (0..SHAPES).filter(|&s| self.is_resident(s)) {
            let row = self.latest[shape].upgrade().expect("resident");
            prop_assert_eq!(row.len(), self.cells[shape].len());
            rows += 1;
            cells += row.len() as u64;
            bytes += self.charge(shape, row.len());
        }
        let stats = store.stats();
        prop_assert_eq!((stats.rows, stats.cells, stats.bytes), (rows, cells, bytes));
        for (shape, row) in &self.held {
            prop_assert_eq!(
                Arc::strong_count(row),
                2 + self.holds(*shape),
                "held row of shape {} left the store",
                shape
            );
        }
        Ok(())
    }

    /// Invariant 5: the saved file loads into exactly the resident rows.
    fn check_save(&self, store: &RowStore) -> Result<(), TestCaseError> {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "soctest-rowstore-bounded-model-{}-{}.rows.v1",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let resident = (0..SHAPES).filter(|&s| self.is_resident(s)).count() as u64;
        prop_assert_eq!(store.save(&path).expect("save"), resident);
        let fresh = RowStore::new();
        fresh.load(&path).expect("load");
        std::fs::remove_file(&path).expect("remove");
        prop_assert_eq!(fresh.stats().rows, resident);
        for shape in 0..SHAPES {
            let row = fresh.row_for_shape(&self.shapes[shape]);
            let expected = if self.is_resident(shape) {
                self.cells[shape].clone()
            } else {
                BTreeMap::new()
            };
            prop_assert_eq!(row.len(), expected.len());
            for (width, time) in expected {
                prop_assert_eq!(row.get(width), Some(time));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_row_store_evicts_only_unheld_rows_and_keeps_its_charge(
        ops in ops(),
        bound in 0u64..1300,
    ) {
        let store = RowStore::bounded(bound);
        let mut model = Model {
            shapes: shapes(),
            bound,
            latest: (0..SHAPES).map(|_| Weak::new()).collect(),
            held: Vec::new(),
            cells: vec![BTreeMap::new(); SHAPES],
            first: BTreeMap::new(),
            scratch: ShapeScratch::new(),
        };
        for op in ops {
            model.step(&store, op)?;
            model.check_resident(&store)?;
        }
        model.check_save(&store)?;
    }
}
