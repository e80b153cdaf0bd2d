//! `renuca diffcheck --quick` end to end, through the real binary: the
//! bounded differential corpus against the golden model (all nine schemes,
//! pow2 and non-pow2 meshes), the metamorphic invariants and the
//! per-scheme mutation self-checks, then a replay of one shrunk
//! reproducer with and without its injected bug.

use std::path::PathBuf;
use std::process::{Command, Output};

fn diffcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_renuca"))
        .arg("diffcheck")
        .args(args)
        .output()
        .expect("spawn renuca")
}

#[test]
fn quick_smoke_passes_and_its_reproducers_replay() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("diffcheck-quick");
    let _ = std::fs::remove_dir_all(&out);
    let output = diffcheck(&["--quick", "--out", out.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("corpus: 54 replays") && l.ends_with(", 0 mismatch(es)")),
        "{stdout}"
    );
    let metamorphic = stdout
        .lines()
        .filter(|l| l.starts_with("metamorphic: ") && l.ends_with(": ok"))
        .count();
    assert_eq!(metamorphic, 4, "{stdout}");
    for scheme in ["S-NUCA", "WEC", "Coloring", "MAC", "Re-NUCA-C2"] {
        let caught = format!("mutation check [{scheme}]: caught");
        assert!(stdout.lines().any(|l| l.starts_with(&caught)), "{stdout}");
    }

    // The S-NUCA reproducer diverges only under the injected bug.
    let trace = out.join("mutant_s_nuca_seed42.trace");
    let trace = trace.to_str().unwrap();
    assert_eq!(diffcheck(&["--replay", trace]).status.code(), Some(0));
    assert_eq!(
        diffcheck(&["--replay", trace, "--mutant"]).status.code(),
        Some(1)
    );
}

/// A misspelt flag prints the usage and exits 2 without running a check.
#[test]
fn bad_flag_exits_2() {
    let output = diffcheck(&["--seed", "3"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("renuca diffcheck"), "{stderr}");
    assert!(output.stdout.is_empty());
}
