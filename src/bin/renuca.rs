//! `renuca` — command-line front end to the simulator.
//!
//! ```text
//! renuca run   [--scheme S] [--workload N] [--warmup I] [--measure I]
//!              [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]
//! renuca apps                       # Table II style characterization
//! renuca schemes [--workload N] ... # compare all nine schemes on one mix
//! ```
//!
//! A thin, dependency-free argument parser: this binary exists so users can
//! poke at configurations without writing Rust.

use renuca::prelude::*;
use renuca::wear::lifetime_variation;
use renuca::workloads::is_workload_id;

fn usage() -> ! {
    let schemes: Vec<String> = Scheme::ALL
        .iter()
        .map(|s| s.name().to_lowercase())
        .collect();
    eprintln!(
        "usage:\n  renuca run     [--scheme {}]\n                 [--workload 1..10|101..105] [--warmup N] [--measure N]\n                 [--l2-128k] [--l3-1m] [--rob-168] [--no-prefetch]\n  renuca apps    [--measure N]\n  renuca schemes [--workload 1..10|101..105] [--warmup N] [--measure N]\n\nschemes ignore case and hyphens; workloads 101..104 are WB1..WB4, 105 is trickle",
        schemes.join("|")
    );
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
        budget: Budget::from_env(),
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

/// [`parse`], printing the error and the usage text on failure.
fn parse_or_exit(args: &[String]) -> Args {
    parse(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "run" => {
            let a = parse_or_exit(rest);
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
        "apps" => {
            let a = parse_or_exit(rest);
            let rows = renuca::experiments::figures::table2::run(a.budget);
            println!(
                "{}",
                renuca::experiments::figures::table2::format_table2(&rows)
            );
        }
        "schemes" => {
            let a = parse_or_exit(rest);
            println!("workload {}:", workload_mix(a.workload, 1).name());
            for scheme in Scheme::ALL {
                let r = run_one(scheme, a.workload, a.cfg, a.budget);
                print_result(&r);
            }
        }
        _ => usage(),
    }
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
}
