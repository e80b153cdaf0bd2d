//! Differential verification driver: replay seeded traces through the
//! real simulator and the golden model, cross-check every step, shrink
//! and serialize any divergence (see `TESTING.md`).
//!
//! ```text
//! diffcheck [--seeds N] [--ops N] [--out DIR] [--quick]
//! diffcheck --replay FILE [--mutant]
//! ```
//!
//! The default sweep is the acceptance corpus: 100 seeds × 8 schemes ×
//! 2 mesh configs (pow2 and non-pow2) = 1600 differential replays, plus
//! the metamorphic invariants and the per-scheme mutation self-checks
//! (S-NUCA's wrapped mutant and the bugged twins of WEC, Coloring and
//! MAC). `--quick` is the bounded CI smoke variant and runs the same
//! mutation schemes. `--replay` re-runs a previously shrunk
//! `renuca-trace-v1` file; add `--mutant` for traces produced by the
//! mutation self-check (they only diverge under the injected bug).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::diff;
use golden::parse_trace;
use renuca_core::Scheme;

struct Args {
    seeds: u64,
    ops: usize,
    out: PathBuf,
    replay_file: Option<PathBuf>,
    mutant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        ops: 4000,
        out: PathBuf::from("out"),
        replay_file: None,
        mutant: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--quick" => {
                args.seeds = 3;
                args.ops = 2000;
            }
            "--replay" => args.replay_file = Some(PathBuf::from(value("--replay")?)),
            "--mutant" => args.mutant = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn replay_file(path: &Path, mutant: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (scheme_name, cols, rows, seed, ops) = parse_trace(&text)
        .ok_or_else(|| format!("{} is not a renuca-trace-v1 file", path.display()))?;
    let scheme = Scheme::from_name(&scheme_name)
        .ok_or_else(|| format!("unknown scheme {scheme_name:?} in trace header"))?;
    let cfg = diff::tiny_cfg(cols, rows);
    println!(
        "replaying {} ops: scheme {} on {cols}x{rows}, seed {seed}{}",
        ops.len(),
        scheme.name(),
        if mutant { " (mutant injected)" } else { "" }
    );
    let result = if mutant {
        diff::replay_mutated(scheme, &cfg, &ops)
    } else {
        diff::replay(scheme, &cfg, &ops)
    };
    match result {
        Ok(report) => {
            println!(
                "no divergence: {} fills, {} L3 writes, histogram {:?}",
                report.l3_fills, report.l3_writes, report.bank_totals
            );
            Ok(())
        }
        Err(m) => Err(format!("divergence reproduced — {m}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diffcheck: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.replay_file {
        return match replay_file(path, args.mutant) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("diffcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = false;

    // 1. The differential corpus: seeds × schemes × configs.
    let report = diff::run_corpus(0..args.seeds, args.ops, &args.out);
    println!(
        "corpus: {} replays ({} ops cross-checked), {} mismatch(es)",
        report.replays,
        report.ops_checked,
        report.failures.len()
    );
    for f in &report.failures {
        failed = true;
        println!(
            "  MISMATCH {} / {} / seed {}: {} (shrunk to {} ops{})",
            f.scheme.name(),
            f.config,
            f.seed,
            f.mismatch,
            f.minimal_len,
            f.trace_path
                .as_deref()
                .map(|p| format!(", written to {}", p.display()))
                .unwrap_or_default()
        );
    }

    // 2. Metamorphic invariants.
    let checks: [(&str, Result<(), String>); 4] = [
        (
            "write conservation (2x2)",
            diff::write_conservation(2, 2, 1, args.ops.min(2000)),
        ),
        (
            "write conservation (3x2)",
            diff::write_conservation(3, 2, 2, args.ops.min(2000)),
        ),
        (
            "S-NUCA shift symmetry",
            diff::snuca_shift_symmetry(2, 2, 3, args.ops.min(2000)),
        ),
        (
            "serial == parallel",
            diff::parallel_matches_serial(&[5, 6, 7, 8], 4, args.ops.min(1500)),
        ),
    ];
    for (name, result) in checks {
        match result {
            Ok(()) => println!("metamorphic: {name}: ok"),
            Err(e) => {
                failed = true;
                println!("metamorphic: {name}: FAILED — {e}");
            }
        }
    }

    // 3. Mutation self-checks: the harness must catch an injected bug in
    // every scheme that ships one (wrapped mutant + bugged twins).
    for scheme in diff::MUTATION_SCHEMES {
        match diff::mutation_check(scheme, 42, args.ops.min(3000), &args.out) {
            Ok(m) => println!(
                "mutation check [{}]: caught ({}), shrunk {} -> {} ops, reproducer {}",
                scheme.name(),
                m.detail,
                m.original_len,
                m.minimal_len,
                m.trace_path.display()
            ),
            Err(e) => {
                failed = true;
                println!("mutation check [{}]: FAILED — {e}", scheme.name());
            }
        }
    }

    if failed {
        eprintln!("diffcheck: FAILED");
        ExitCode::FAILURE
    } else {
        println!("diffcheck: all checks passed");
        ExitCode::SUCCESS
    }
}
