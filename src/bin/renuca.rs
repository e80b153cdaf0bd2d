//! `renuca` — command-line front end to the simulator.
//!
//! ```text
//! renuca run     [--scheme S] [--workload N] [--warmup I] [--measure I]
//!                [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]
//! renuca schemes [--workload N] ...   # compare all nine schemes on one mix
//! renuca figure  <name> [--stats P]   # regenerate one table, figure or study
//! renuca diffcheck [--seeds N] [--ops N] [--out DIR] [--quick]
//! renuca diffcheck --replay FILE [--mutant]
//! ```
//!
//! `figure` takes any name of `experiments::figures::FIGURES` (`fig3`,
//! `table3`, `all`, `headtohead`, `wburst`, `forecast`, …), reads its
//! budget from `RENUCA_WARMUP` / `RENUCA_MEASURE` and writes a run
//! manifest to `--stats <path>` (or `RENUCA_STATS`) whose `binary` key is
//! the figure name. `figure forecast` exits 1 when the forecast is outside
//! its tolerance.
//!
//! `diffcheck` replays seeded traces through the real simulator and the
//! golden model (`experiments::diff`, TESTING.md): by default the
//! 1800-trace acceptance corpus, the metamorphic invariants and the
//! per-scheme mutation self-checks, writing shrunk reproducers under
//! `--out` (default `out`); `--quick` is the bounded smoke. `--replay`
//! re-runs one reproducer, `--mutant` with its injected bug. Any failed
//! check exits 1.
//!
//! A thin, dependency-free argument parser: this binary exists so users can
//! poke at configurations without writing Rust.

use std::path::PathBuf;

use renuca::experiments::diff;
use renuca::experiments::figures::{self, Figure, FIGURES};
use renuca::experiments::StatsSink;
use renuca::prelude::*;
use renuca::wear::lifetime_variation;
use renuca::workloads::is_workload_id;

fn usage_text() -> String {
    let schemes: Vec<String> = Scheme::ALL
        .iter()
        .map(|s| s.name().to_lowercase())
        .collect();
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    format!(
        "usage:\n  renuca run     [--scheme {}]\n                 [--workload 1..10|101..105] [--warmup N] [--measure N]\n                 [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]\n  renuca schemes [--workload 1..10|101..105] [--warmup N] [--measure N]\n  renuca figure  {} [--stats PATH]\n  renuca diffcheck [--seeds N] [--ops N] [--out DIR] [--quick]\n  renuca diffcheck --replay FILE [--mutant]\n\nschemes ignore case and hyphens; workloads 101..104 are WB1..WB4, 105 is trickle;\nfigure budgets come from RENUCA_WARMUP / RENUCA_MEASURE",
        schemes.join("|"),
        names.join("|")
    )
}

/// Print `error` and the usage text, then exit 2.
fn usage_error(error: String) -> ! {
    eprintln!("error: {error}\n{}", usage_text());
    std::process::exit(2)
}

struct Args {
    scheme: Scheme,
    workload: usize,
    budget: Budget,
    cfg: SystemConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        scheme: Scheme::ReNuca,
        workload: 1,
        budget: Budget::from_env()?,
        cfg: SystemConfig::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let number = |name: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad {name} {v:?}"))
        };
        match a.as_str() {
            "--scheme" => {
                let v = value("--scheme")?;
                out.scheme = Scheme::from_name(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
            }
            "--workload" => {
                let v = value("--workload")?;
                out.workload = v
                    .parse()
                    .ok()
                    .filter(|&id| is_workload_id(id))
                    .ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--warmup" => out.budget.warmup = number("--warmup", value("--warmup")?)?,
            "--measure" => out.budget.measure = number("--measure", value("--measure")?)?,
            "--l2-128k" => out.cfg = out.cfg.with_l2_128k(),
            "--l3-1m" => out.cfg = out.cfg.with_l3_1m(),
            "--rob-168" => out.cfg = out.cfg.with_rob_168(),
            "--no-prefetch" => out.cfg.prefetch.enabled = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

struct FigureArgs {
    name: String,
    figure: Figure,
    stats: Option<PathBuf>,
    budget: Budget,
}

fn parse_figure(args: &[String]) -> Result<FigureArgs, String> {
    let mut name = None;
    let mut stats = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let path = match a.strip_prefix("--stats=") {
            Some(p) => Some(p.to_string()),
            None if a == "--stats" => Some(it.next().cloned().unwrap_or_default()),
            None => None,
        };
        match path {
            Some(p) if p.is_empty() => return Err("--stats requires a path".into()),
            Some(p) => stats = Some(PathBuf::from(p)),
            None if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            None if name.is_some() => return Err(format!("unexpected argument {a}")),
            None => name = Some(a.clone()),
        }
    }
    let name = name.ok_or("figure needs a name")?;
    let figure = figures::find(&name).ok_or_else(|| format!("unknown figure {name}"))?;
    Ok(FigureArgs {
        name,
        figure,
        stats,
        budget: Budget::from_env()?,
    })
}

struct DiffArgs {
    seeds: u64,
    ops: usize,
    out: PathBuf,
    replay: Option<PathBuf>,
    mutant: bool,
}

fn parse_diffcheck(args: &[String]) -> Result<DiffArgs, String> {
    let mut out = DiffArgs {
        seeds: 100,
        ops: 4000,
        out: PathBuf::from("out"),
        replay: None,
        mutant: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--seeds" => {
                let v = value("--seeds")?;
                out.seeds = v.parse().map_err(|_| format!("bad --seeds {v:?}"))?;
            }
            "--ops" => {
                let v = value("--ops")?;
                out.ops = v.parse().map_err(|_| format!("bad --ops {v:?}"))?;
            }
            "--out" => out.out = PathBuf::from(value("--out")?),
            "--quick" => {
                out.seeds = 3;
                out.ops = 2000;
            }
            "--replay" => out.replay = Some(PathBuf::from(value("--replay")?)),
            "--mutant" => out.mutant = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn diffcheck(a: &DiffArgs) -> std::process::ExitCode {
    let result = match &a.replay {
        Some(path) => diff::replay_file(path, a.mutant),
        None if diff::check(a.seeds, a.ops, &a.out) => {
            println!("diffcheck: all checks passed");
            Ok(())
        }
        None => Err("FAILED".into()),
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("diffcheck: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run_one(scheme: Scheme, workload: usize, cfg: SystemConfig, budget: Budget) -> SimResult {
    let wl = workload_mix(workload, cfg.n_cores);
    let mut sys = System::new(
        cfg,
        scheme.build_policy(&cfg),
        wl.build_sources(),
        scheme.build_predictors(&cfg, CptConfig::default()),
    );
    sys.prewarm();
    sys.warmup(budget.warmup);
    sys.run(budget.measure);
    sys.result()
}

fn print_result(r: &SimResult) {
    let model = LifetimeModel::default();
    let lifetimes = model.all_bank_lifetimes(&r.wear, r.cycles);
    let min = lifetimes.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "{:10}  IPC {:6.2}   min-lifetime {:6.2}y   wear-CV {:5.3}   L3 writes {}",
        r.scheme,
        r.total_ipc(),
        min,
        lifetime_variation(&lifetimes),
        r.wear.total_writes()
    );
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage_error("missing command".into())
    };
    match cmd.as_str() {
        "run" => {
            let a = parse(rest).unwrap_or_else(|e| usage_error(e));
            println!(
                "scheme={} workload={} warmup={} measure={}",
                a.scheme,
                workload_mix(a.workload, 1).name(),
                a.budget.warmup,
                a.budget.measure
            );
            let r = run_one(a.scheme, a.workload, a.cfg, a.budget);
            print_result(&r);
            for c in &r.per_core {
                println!(
                    "  core {:>2} {:12} ipc {:5.2}  mpki {:7.2}  wpki {:7.2}  l3hit {:4.2}",
                    c.label, "", c.ipc, c.mpki, c.wpki, c.l3_hit_rate
                );
            }
        }
        "schemes" => {
            let a = parse(rest).unwrap_or_else(|e| usage_error(e));
            println!("workload {}:", workload_mix(a.workload, 1).name());
            for scheme in Scheme::ALL {
                let r = run_one(scheme, a.workload, a.cfg, a.budget);
                print_result(&r);
            }
        }
        "figure" => {
            let a = parse_figure(rest).unwrap_or_else(|e| usage_error(e));
            let sink = a.stats.map_or_else(StatsSink::from_env, StatsSink::to);
            if let Err(e) = a.figure.regenerate(&a.name, &sink, a.budget) {
                eprintln!("error: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
        "diffcheck" => {
            let a = parse_diffcheck(rest).unwrap_or_else(|e| usage_error(e));
            return diffcheck(&a);
        }
        other => usage_error(format!("unknown command {other}")),
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_scheme_parses_by_name() {
        for s in Scheme::ALL {
            for spelling in [
                s.name().to_string(),
                s.name().to_lowercase(),
                s.name().replace('-', ""),
            ] {
                let a = parse(&args(&["--scheme", &spelling])).unwrap();
                assert_eq!(a.scheme, s, "{spelling}");
            }
        }
        assert!(parse(&args(&["--scheme", "bogus"])).is_err());
    }

    #[test]
    fn workload_ids_are_validated() {
        for id in ["1", "10", "101", "104", "105"] {
            assert!(parse(&args(&["--workload", id])).is_ok(), "{id}");
        }
        for id in ["0", "11", "100", "106", "x"] {
            assert!(parse(&args(&["--workload", id])).is_err(), "{id}");
        }
        assert!(parse(&args(&["--workload"])).is_err());
    }

    #[test]
    fn every_figure_name_parses() {
        for (name, _) in FIGURES {
            let a = parse_figure(&args(&[name])).unwrap();
            assert_eq!(a.name, name);
            assert!(a.stats.is_none());
            for stats in [&["--stats", "m.json"][..], &["--stats=m.json"]] {
                let mut words = vec![name];
                words.extend_from_slice(stats);
                let a = parse_figure(&args(&words)).unwrap();
                assert_eq!(a.stats, Some(PathBuf::from("m.json")), "{words:?}");
            }
        }
    }

    #[test]
    fn bad_figure_arguments_are_errors() {
        for words in [
            &[][..],
            &["fig6"],
            &["calibrate"],
            &["FIG3"],
            &["fig3", "fig4b"],
            &["fig3", "--stat", "m.json"],
            &["fig3", "--warmup", "5"],
            &["fig3", "--stats"],
            &["fig3", "--stats="],
            &["--stats", "m.json"],
            &["headtohead", "--stat", "h.json"],
            &["wburst", "--trickle"],
            &["forecast", "--stats"],
        ] {
            assert!(parse_figure(&args(words)).is_err(), "{words:?}");
        }
    }

    #[test]
    fn diffcheck_flags_parse() {
        let a = parse_diffcheck(&[]).unwrap();
        assert_eq!((a.seeds, a.ops, a.out.clone()), (100, 4000, "out".into()));
        assert!(a.replay.is_none() && !a.mutant);
        let a = parse_diffcheck(&args(&["--quick", "--out", "o"])).unwrap();
        assert_eq!((a.seeds, a.ops, a.out), (3, 2000, "o".into()));
        let a = parse_diffcheck(&args(&["--seeds", "7", "--ops", "9"])).unwrap();
        assert_eq!((a.seeds, a.ops), (7, 9));
        let a = parse_diffcheck(&args(&["--replay", "t.trace", "--mutant"])).unwrap();
        assert_eq!(a.replay, Some(PathBuf::from("t.trace")));
        assert!(a.mutant);
    }

    #[test]
    fn bad_diffcheck_arguments_are_errors() {
        let err = parse_diffcheck(&args(&["--seeds", "x"])).err().unwrap();
        assert!(err.contains("--seeds"), "{err}");
        for words in [
            &["--seed", "3"][..],
            &["--replay"],
            &["--ops"],
            &["--ops", "-1"],
            &["quick"],
        ] {
            assert!(parse_diffcheck(&args(words)).is_err(), "{words:?}");
        }
    }

    #[test]
    fn usage_lists_every_figure() {
        let usage = usage_text();
        for (name, _) in FIGURES {
            assert!(usage.contains(name), "{name}");
        }
    }
}
