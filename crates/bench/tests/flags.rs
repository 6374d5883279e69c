//! Every bench binary rejects bad arguments with exit code 2 before
//! doing any work: a gated binary writes no report, and `paper` prints no
//! experiment.

use std::path::Path;
use std::process::Command;

const GATED: [(&str, &str); 7] = [
    ("fleet", env!("CARGO_BIN_EXE_fleet")),
    ("kernels", env!("CARGO_BIN_EXE_kernels")),
    ("sweeps", env!("CARGO_BIN_EXE_sweeps")),
    ("models", env!("CARGO_BIN_EXE_models")),
    ("thermal", env!("CARGO_BIN_EXE_thermal")),
    ("manager", env!("CARGO_BIN_EXE_manager")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
];

/// Runs `exe` with `args` inside `dir` (where a default-path report
/// would land) and asserts exit code 2 and an untouched `dir`.
fn assert_rejected(name: &str, exe: &str, dir: &Path, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench binary runs");
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
    let written: Vec<_> = std::fs::read_dir(dir).expect("scratch dir").collect();
    assert!(written.is_empty(), "{name} {args:?} wrote {written:?}");
}

#[test]
fn bad_arguments_exit_2_without_writing_a_report() {
    for (name, exe) in GATED {
        let dir = std::env::temp_dir().join(format!("statobd_bench_flags_{name}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let report = dir.join("report.json");
        let report = report.to_str().expect("utf-8 temp path");
        assert_rejected(name, exe, &dir, &["--out", report, "--bogus"]);
        assert_rejected(name, exe, &dir, &["--quick", "--out"]);
        assert_rejected(name, exe, &dir, &["--out", report, "--threads", "x"]);
        if name == "models" {
            // A retired spectral solver is an unknown name, not an alias.
            assert_rejected(name, exe, &dir, &["--out", report, "--solvers", "jacobi"]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn paper_rejects_bad_arguments_before_any_experiment() {
    for args in [
        &["--bogus"][..],
        &["--only", "nope"],
        &["--only"],
        &["table3"],
        &["--quick", "--only", "table3,nope"],
        &["--quick", "fig1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("paper runs");
        assert_eq!(out.status.code(), Some(2), "paper {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "paper {args:?} printed {out:?}");
        assert!(!out.stderr.is_empty(), "paper {args:?} gave no reason");
    }
}
