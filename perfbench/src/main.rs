//! The repository benchmark: back-to-back simulation jobs of one workload
//! for a fixed host time, printing every end-to-end metric (untraced) or
//! every per-layer metric (traced) by name with its unit, after checking
//! the simulated outputs. See `README.md` next to this package.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```

mod job;
mod probe;
mod report;
#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use job::{Job, Workload, DEFAULT_SEED};
use report::{Checks, END_TO_END, PER_LAYER, REPLAY_TOLERANCE};

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(job::find(value).ok_or_else(|| {
                    let names: Vec<&str> = job::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {value}: want 0 to 3600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set in MB (`VmHWM`, Linux).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn print_metrics(spec: &[(&str, &str)], values: &[(&str, f64)]) {
    for &(name, unit) in spec {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == name) {
            println!("  {name:<38} {v:>16.4} {unit}");
        }
    }
}

/// Untraced mode: jobs back to back until the time is up; each metric is
/// the median over jobs.
fn untraced(a: &Args) -> Result<String, String> {
    let deadline = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut per_job = Vec::new();
    let mut first_digest = None;
    while per_job.is_empty() || start.elapsed() < deadline {
        let j = job::run_job(a.workload, a.seed, false);
        let first = *first_digest.get_or_insert(j.digest());
        checks.job(a.workload, a.seed, &j, first);
        per_job.push(report::end_to_end(&j));
    }
    let mut values = report::medians(&per_job);
    values.push(("peak_rss_mb", peak_rss_mb()?));
    println!(
        "{} seed={} untraced: {} jobs, medians",
        a.workload.name,
        a.seed,
        per_job.len()
    );
    print_metrics(&END_TO_END, &values);
    Ok(report::result_line(&checks, &END_TO_END, &values))
}

/// Traced mode: pairs of one untraced and one traced job, alternating
/// which runs first, until the time is up. Layer numbers are medians over
/// the traced jobs; spans are printed when the run ends.
fn traced(a: &Args) -> Result<String, String> {
    let deadline = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let cal = probe::calibrate();
    let mut checks = Checks::default();
    let mut per_job = Vec::new();
    let mut diagnostics = Vec::new();
    let mut trees = Vec::new();
    let mut first_digest = None;
    while per_job.is_empty() || start.elapsed() < deadline {
        let traced_first = per_job.len() % 2 == 1;
        let (mut t, u) = if traced_first {
            let t = job::run_job(a.workload, a.seed, true);
            (t, job::run_job(a.workload, a.seed, false))
        } else {
            let u = job::run_job(a.workload, a.seed, false);
            (job::run_job(a.workload, a.seed, true), u)
        };
        let first = *first_digest.get_or_insert(u.digest());
        checks.job(a.workload, a.seed, &u, first);
        checks.job(a.workload, a.seed, &t, first);
        checks.traced(&t, &u);
        let replay_ns = replay(a, &mut t);
        per_job.push(report::per_layer(&t, &u, replay_ns, &cal));
        diagnostics.push(report::diagnostics(&t, &u, replay_ns, &cal));
        trees.push(report::span_tree(&t, &u, &cal));
    }
    let values = report::medians(&per_job);
    println!(
        "{} seed={} traced: {} traced/untraced job pairs, medians",
        a.workload.name,
        a.seed,
        per_job.len()
    );
    println!(
        "  calibration: timer {:.1} ns/call ({:.1} recorded), source {:.1} ns/call ({:.1} recorded)",
        cal.timer.total_ns(),
        cal.timer.inside_ns,
        cal.source.total_ns(),
        cal.source.inside_ns
    );
    for (i, tree) in trees.iter().enumerate() {
        println!("  spans of traced job {i}:");
        print!("{tree}");
    }
    print_metrics(&PER_LAYER, &values);
    let notes = report::medians(&diagnostics);
    for (name, v) in &notes {
        println!("  {name:<38} {v:>16.4} ratio");
    }
    let replay_ratio = notes[0].1;
    println!(
        "  replay vs corrected workloads self time: {}, tolerance ±{:.0}%",
        if (replay_ratio - 1.0).abs() <= REPLAY_TOLERANCE {
            "agree"
        } else {
            "DISAGREE"
        },
        REPLAY_TOLERANCE * 100.0
    );
    Ok(report::result_line(&checks, &PER_LAYER, &values))
}

/// Replay the traced job's recorded generator calls (then drop the log).
fn replay(a: &Args, j: &mut Job) -> u64 {
    let mix = workloads::workload_mix(a.workload.mix, cmp_sim::SystemConfig::default().n_cores);
    j.cells
        .iter_mut()
        .map(|c| {
            let log = std::mem::take(&mut c.log);
            probe::replay(&log, |core| job::source(&mix, a.seed, core))
        })
        .sum()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if a.trace { traced(&a) } else { untraced(&a) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
