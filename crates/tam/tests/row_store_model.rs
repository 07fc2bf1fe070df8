//! `RowStore` against a `BTreeMap` model: random insert/get sequences
//! over a handful of module shapes, run from one to four threads.
//!
//! Each thread replays its share of the operations in order and records
//! what the store answered. After the threads join, the winning insert
//! of every `(shape, width)` defines the model, and every answer must
//! agree with it: `insert` returned `true` exactly once per cell across
//! all threads, every `get` answered `None` or the winner's time (and
//! never `None` after its own thread's insert), and `stats()` counts the
//! model's rows and cells. Saving, loading into a fresh store and saving
//! again must reproduce the model and the same bytes.

use proptest::prelude::*;
use soctest_soc_model::Module;
use soctest_tam::RowStore;
use soctest_wrapper::row::ModuleShape;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const SHAPES: usize = 4;
const MAX_WIDTH: usize = 10;

/// `(thread, shape, width, is_insert, time)`.
type Op = (usize, usize, usize, bool, u64);

/// What one operation answered, with the thread's own prior inserts of
/// the same cell, for the `get` rule.
enum Answer {
    Inserted(usize, usize, u64, bool),
    Got(usize, usize, Option<u64>, bool),
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

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..4, 0..SHAPES, 1..=MAX_WIDTH, 0u8..2, 0u64..1000)
            .prop_map(|(thread, shape, width, kind, time)| (thread, shape, width, kind == 1, time)),
        0..80,
    )
}

fn run_thread(
    store: &RowStore,
    shapes: &[ModuleShape],
    ops: &[Op],
    start: &Barrier,
) -> Vec<Answer> {
    let mut own = BTreeSet::new();
    start.wait();
    ops.iter()
        .map(|&(_, shape, width, is_insert, time)| {
            let row = store.row_for_shape(&shapes[shape]);
            if is_insert {
                own.insert((shape, width));
                Answer::Inserted(shape, width, time, row.insert(width, time))
            } else {
                Answer::Got(shape, width, row.get(width), own.contains(&(shape, width)))
            }
        })
        .collect()
}

/// A file name unique to this process and call; each case removes its
/// files, so a passing run leaves nothing behind.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "soctest-rowstore-model-{}-{}-{tag}.rows.v1",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every `(shape, width)` of the grid answers what the model holds.
fn assert_store_matches(
    store: &RowStore,
    shapes: &[ModuleShape],
    model: &BTreeMap<(usize, usize), u64>,
    touched: &BTreeSet<usize>,
) -> Result<(), TestCaseError> {
    for &shape in touched {
        let row = store.row_for_shape(&shapes[shape]);
        for width in 1..=MAX_WIDTH {
            prop_assert_eq!(row.get(width), model.get(&(shape, width)).copied());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn row_store_answers_like_a_btreemap(ops in ops(), threads in 1usize..=4) {
        let shapes = shapes();
        let store = RowStore::new();
        let shares: Vec<Vec<Op>> = (0..threads)
            .map(|t| ops.iter().copied().filter(|op| op.0 % threads == t).collect())
            .collect();
        // The threads start together, so their operations interleave.
        let start = Barrier::new(threads);
        let answers: Vec<Answer> = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter()
                .map(|share| scope.spawn(|| run_thread(&store, &shapes, share, &start)))
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("thread")).collect()
        });

        // The model: each cell's winning insert.
        let mut model = BTreeMap::new();
        for answer in &answers {
            if let Answer::Inserted(shape, width, time, true) = *answer {
                prop_assert!(
                    model.insert((shape, width), time).is_none(),
                    "insert returned true twice for shape {} width {}", shape, width
                );
            }
        }
        for answer in &answers {
            match *answer {
                Answer::Inserted(shape, width, _, _) => {
                    prop_assert!(
                        model.contains_key(&(shape, width)),
                        "no insert won shape {} width {}", shape, width
                    );
                }
                Answer::Got(shape, width, got, after_own_insert) => {
                    let held = model.get(&(shape, width)).copied();
                    prop_assert!(
                        got.is_none() || got == held,
                        "get answered {:?}, the winner holds {:?}", got, held
                    );
                    prop_assert!(
                        got.is_some() || !after_own_insert,
                        "a thread lost its own insert"
                    );
                }
            }
        }
        let touched: BTreeSet<usize> = ops.iter().map(|op| op.1).collect();
        let stats = store.stats();
        prop_assert_eq!(
            (stats.rows, stats.cells),
            (touched.len() as u64, model.len() as u64)
        );
        prop_assert_eq!((stats.cells_computed, stats.cells_loaded), (0, 0));

        // Save, load into a fresh store and save again: same bytes.
        let (saved, resaved) = (scratch_path("saved"), scratch_path("resaved"));
        prop_assert_eq!(store.save(&saved).expect("save"), touched.len() as u64);
        let fresh = RowStore::new();
        prop_assert_eq!(fresh.load(&saved).expect("load"), model.len() as u64);
        fresh.save(&resaved).expect("save again");
        let first = fs::read(&saved).expect("read");
        let second = fs::read(&resaved).expect("read");
        prop_assert!(first == second, "a loaded store saves different bytes");
        let stats = fresh.stats();
        prop_assert_eq!(
            (stats.rows, stats.cells, stats.cells_loaded),
            (touched.len() as u64, model.len() as u64, model.len() as u64)
        );
        assert_store_matches(&store, &shapes, &model, &touched)?;
        assert_store_matches(&fresh, &shapes, &model, &touched)?;
        fs::remove_file(&saved).expect("remove");
        fs::remove_file(&resaved).expect("remove");
    }
}
