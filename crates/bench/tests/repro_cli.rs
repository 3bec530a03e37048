//! `repro` writes measurements only where it is told to.

use std::path::PathBuf;
use std::process::Command;

use vsensor_bench::perf_gate::parse_history;

/// A fresh, empty working directory for one `repro` invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &PathBuf, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn entries(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_measurement_without_out_writes_nothing_into_the_cwd() {
    let dir = scratch_dir("cwd");
    repro(&dir, &["--smoke", "simmpi", "--ranks", "64"]);
    let left = entries(&dir);
    assert!(
        left.iter().all(|n| !n.starts_with("BENCH_")),
        "repro wrote {left:?} into its working directory"
    );
    assert!(left.is_empty(), "{left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_receives_the_measured_cells() {
    let dir = scratch_dir("out");
    repro(
        &dir,
        &["--smoke", "simmpi", "--ranks", "64", "--out", "cells"],
    );
    assert_eq!(entries(&dir), ["cells"]);
    let text = std::fs::read_to_string(dir.join("cells/simmpi.cells.jsonl")).expect("cells file");
    let keys: Vec<String> = parse_history(&text).into_iter().map(|c| c.cell).collect();
    assert_eq!(
        keys,
        ["simmpi/64/virt-throughput", "simmpi/64/wall-throughput"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
