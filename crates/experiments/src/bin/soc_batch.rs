//! `soc-batch` — drive the optimizer engine as a file-based service.
//!
//! ```text
//! soc-batch REQUEST.json                serve the batch, response to stdout
//! soc-batch REQUEST.json --out FILE     ... response to FILE instead
//! soc-batch REQUEST.json --check GOLDEN byte-compare the response against
//!                                       GOLDEN; exit 1 on any difference
//! soc-batch REQUEST.json --cache-dir D  reuse/persist module time rows in
//!                                       D/rows.v1 (responses are identical
//!                                       with or without the cache)
//! soc-batch ... --max-store-bytes N     bound the row store, resident and in
//!                                       D/rows.v1: the load keeps the hottest
//!                                       rows, the save drops the coldest-touched
//!                                       rows until it fits (default 16 MiB)
//! soc-batch --emit-sample-request       print the canonical sample request
//! soc-batch --list-socs                 print the named-SOC catalogue and exit
//! ```
//!
//! A request file names one SOC (`d695`, `p22810`, `p34392`, `p93791` or
//! `pnx8550_like`) and lists typed optimizer requests — plain
//! optimizations and parameter sweeps; the whole batch is served by one
//! `Engine` over one shared time table, and the response answers in
//! request order with per-request outcomes (an infeasible request reports
//! its error without failing the batch). Responses are deterministic, so
//! `--check` against a committed golden is a CI-grade drift detector —
//! the committed sample pair lives in `crates/experiments/data/`.

use soctest_experiments::batch::{render_json, run_request_text_with_store, sample_request};
use soctest_experiments::serve::render_soc_catalogue;
use soctest_multisite::service::{DEFAULT_MAX_STORE_BYTES, ROWS_FILE};
use soctest_tam::RowStore;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    request: Option<PathBuf>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    max_store_bytes: u64,
    emit_sample: bool,
    list_socs: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: soc-batch REQUEST.json [--out FILE | --check GOLDEN] [--cache-dir DIR] \
         [--max-store-bytes N]\n\
         \x20      soc-batch --emit-sample-request | --list-socs\n\
         serves a JSON optimizer-request batch through one engine session; \
         --check byte-compares the response against GOLDEN and exits 1 on drift; \
         --cache-dir reuses and persists module time rows in DIR/rows.v1, and \
         --max-store-bytes bounds those rows in memory and in the file, dropping \
         the coldest first (default 16 MiB)"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut options = Options {
        request: None,
        out: None,
        check: None,
        cache_dir: None,
        max_store_bytes: DEFAULT_MAX_STORE_BYTES,
        emit_sample: false,
        list_socs: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-sample-request" => options.emit_sample = true,
            "--list-socs" => options.list_socs = true,
            "--out" => match args.next() {
                Some(file) => options.out = Some(PathBuf::from(file)),
                None => usage(),
            },
            "--check" => match args.next() {
                Some(file) => options.check = Some(PathBuf::from(file)),
                None => usage(),
            },
            "--cache-dir" => match args.next() {
                Some(dir) => options.cache_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--max-store-bytes" => match args.next().and_then(|raw| raw.parse().ok()) {
                Some(bytes) => options.max_store_bytes = bytes,
                None => usage(),
            },
            other if !other.starts_with('-') && options.request.is_none() => {
                options.request = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    // Reject conflicting combinations instead of silently preferring one:
    // --check and --out are different modes, and --emit-sample-request
    // ignores everything else.
    if options.check.is_some() && options.out.is_some() {
        usage();
    }
    if (options.emit_sample || options.list_socs)
        && (options.request.is_some() || options.out.is_some() || options.check.is_some())
    {
        usage();
    }
    options
}

fn main() -> ExitCode {
    let options = parse_args();

    if options.emit_sample {
        print!("{}", render_json(&sample_request()));
        return ExitCode::SUCCESS;
    }

    if options.list_socs {
        print!("{}", render_soc_catalogue());
        return ExitCode::SUCCESS;
    }

    let Some(request_path) = options.request else {
        usage();
    };
    let request_text = match std::fs::read_to_string(&request_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("failed to read {}: {err}", request_path.display());
            return ExitCode::FAILURE;
        }
    };
    // With --cache-dir, warm the row store from DIR/rows.v1 before the
    // batch and persist it after: responses are bit-identical either
    // way, only the compute is skipped. A bad cache file is a stderr
    // warning and a cold store, never a failure.
    let store = options.cache_dir.as_ref().map(|dir| {
        let store = Arc::new(RowStore::bounded(options.max_store_bytes));
        let path = dir.join(ROWS_FILE);
        if let Err(err) = store.load_if_present(&path) {
            eprintln!("warning: ignoring row cache {}: {err}", path.display());
        }
        store
    });
    let response = match run_request_text_with_store(&request_text, store.clone()) {
        Ok(response) => response,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(dir), Some(store)) = (&options.cache_dir, &store) {
        let path = dir.join(ROWS_FILE);
        let saved = std::fs::create_dir_all(dir)
            .map_err(soctest_tam::StoreError::from)
            .and_then(|()| {
                store
                    .save_capped(&path, options.max_store_bytes)
                    .map_err(soctest_tam::StoreError::from)
            });
        if let Err(err) = saved {
            eprintln!(
                "warning: failed to save row cache {}: {err}",
                path.display()
            );
        }
    }

    if let Some(golden_path) = options.check {
        let golden = match std::fs::read_to_string(&golden_path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to read golden {}: {err}", golden_path.display());
                return ExitCode::FAILURE;
            }
        };
        if golden != response {
            eprintln!(
                "FAIL: response drifted from golden {} — regenerate with \
                 `soc-batch {} --out {}` and commit the diff if intentional",
                golden_path.display(),
                request_path.display(),
                golden_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "OK: response matches golden {} byte-for-byte",
            golden_path.display()
        );
        return ExitCode::SUCCESS;
    }

    match options.out {
        Some(out_path) => match std::fs::write(&out_path, &response) {
            Ok(()) => {
                println!("wrote {}", out_path.display());
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("failed to write {}: {err}", out_path.display());
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{response}");
            ExitCode::SUCCESS
        }
    }
}
