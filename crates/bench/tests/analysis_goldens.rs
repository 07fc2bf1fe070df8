//! Golden check of the two analysis binaries: `cost_analysis` (the
//! Section 7 channels-versus-memory comparison) and `mc_validation` (the
//! Monte-Carlo check of the throughput model) must print exactly the
//! committed `data/*.stdout` files. Both outputs are deterministic at any
//! pool size, so any difference is a change in the numbers.

use std::path::PathBuf;
use std::process::Command;

/// Runs `binary` and compares its stdout byte for byte with
/// `data/<name>.stdout`, naming the first line that differs.
fn check_stdout(binary: &str, name: &str) {
    let output = Command::new(binary)
        .output()
        .unwrap_or_else(|err| panic!("cannot run {binary}: {err}"));
    assert!(
        output.status.success(),
        "{name} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(format!("{name}.stdout"));
    let golden = std::fs::read(&path)
        .unwrap_or_else(|err| panic!("missing committed golden {}: {err}", path.display()));
    if output.stdout == golden {
        return;
    }
    let printed = String::from_utf8_lossy(&output.stdout);
    let expected = String::from_utf8_lossy(&golden);
    let mut printed_lines = printed.split_inclusive('\n');
    let mut expected_lines = expected.split_inclusive('\n');
    for line in 1.. {
        match (printed_lines.next(), expected_lines.next()) {
            (Some(got), Some(want)) if got == want => continue,
            (got, want) => panic!(
                "{name} stdout differs from {} at line {line}:\n  printed:  {got:?}\n  \
                 expected: {want:?}\nregenerate it with `cargo run --release --bin {name} > {}` \
                 only if the change is intentional",
                path.display(),
                path.display()
            ),
        }
    }
}

#[test]
fn cost_analysis_prints_the_committed_comparison() {
    check_stdout(env!("CARGO_BIN_EXE_cost_analysis"), "cost_analysis");
}

#[test]
fn mc_validation_prints_the_committed_table() {
    check_stdout(env!("CARGO_BIN_EXE_mc_validation"), "mc_validation");
}
