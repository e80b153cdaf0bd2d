//! `renuca figure` end to end, through the real binary.
//!
//! Determinism regression: a figure run must produce a byte-identical
//! `renuca-manifest-v1` regardless of the worker-pool width. The check
//! runs `renuca figure fig3` in subprocesses (one per thread count) so
//! the in-process pool tests that mutate `RENUCA_THREADS` cannot interfere
//! and the comparison covers the whole pipeline: workload models, every
//! scheme, stats registry and manifest serialization.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn renuca_figure(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_renuca"));
    cmd.arg("figure").args(args).env_remove("RENUCA_STATS");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn renuca")
}

fn run_fig3(threads: &str, out: &Path) {
    let output = renuca_figure(
        &["fig3", "--stats", out.to_str().unwrap()],
        &[
            ("RENUCA_THREADS", threads),
            // A small budget keeps the full study under a few seconds
            // while still exercising every simulator component.
            ("RENUCA_WARMUP", "20000"),
            ("RENUCA_MEASURE", "10000"),
        ],
    );
    assert!(
        output.status.success(),
        "fig3 with RENUCA_THREADS={threads} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn fig3_manifest_is_identical_across_pool_widths() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = dir.join("fig3-threads1.json");
    let pooled = dir.join("fig3-threads4.json");

    run_fig3("1", &serial);
    run_fig3("4", &pooled);

    let a = std::fs::read(&serial).unwrap();
    let b = std::fs::read(&pooled).unwrap();
    assert!(!a.is_empty(), "manifest must not be empty");
    if a != b {
        // Byte-level divergence: report the first differing line so the
        // failure names the counter, not just an offset.
        let (sa, sb) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
        for (la, lb) in sa.lines().zip(sb.lines()) {
            assert_eq!(la, lb, "first differing manifest line");
        }
        panic!(
            "manifests differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
}

/// A malformed budget variable is an error, not a silent fall-back to the
/// full default budget.
#[test]
fn malformed_budget_variable_exits_2() {
    let output = renuca_figure(&["fig5"], &[("RENUCA_WARMUP", "20k")]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains("RENUCA_WARMUP") && l.contains("20k")),
        "{stderr}"
    );
    assert!(output.stdout.is_empty(), "no figure text on error");
}

/// An unknown figure name or flag prints the usage and exits 2 without
/// running a study.
#[test]
fn unknown_figure_or_flag_exits_2() {
    for args in [
        &["fig6"][..],
        &["fig3", "--stat", "m.json"],
        &["headtohead", "--stat", "h.json"],
        &["wburst", "--trickle"],
    ] {
        let output = renuca_figure(args, &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("renuca figure"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
