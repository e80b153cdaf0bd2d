//! Self-tests of the benchmark: the probes change no simulated result,
//! metric names are well formed and match `BENCHMARK.json`, and the
//! printed result line parses.

use cmp_sim::placement::LlcPlacement;
use cmp_sim::SystemConfig;
use renuca_core::{ReNucaTwoProbe, Scheme};
use sim_stats::json::{parse, JsonValue};

use crate::job::{self, run_cell_with, Cell, Job, Workload};
use crate::probe::{self, Probe, TimedPlacement};
use crate::report::{self, Checks, END_TO_END, PER_LAYER};

/// Paper mix WL1, whose reads and writes mix, so L3 sets hold clean and
/// dirty lines and write-aware replacement picks other victims than LRU.
const TINY: Workload = Workload {
    name: "tiny",
    mix: 1,
    schemes: &[],
    warmup: 50_000,
    measure: 100_000,
    pinned: 0,
};

/// A 4-core machine with small L3 banks, so the short runs below evict
/// from the L3 and exercise the replacement and eviction hooks.
fn tiny_config() -> SystemConfig {
    let mut cfg = SystemConfig::small(4);
    cfg.l3_bank.size_bytes = 64 * 1024;
    cfg
}

fn tiny_cell(
    policy: impl FnOnce(&SystemConfig) -> Box<dyn LlcPlacement>,
    scheme: Scheme,
    traced: bool,
) -> Cell {
    run_cell_with(
        tiny_config(),
        &TINY,
        scheme,
        policy,
        job::DEFAULT_SEED,
        traced,
    )
}

fn assert_probes_transparent(
    name: &str,
    policy: impl Fn(&SystemConfig) -> Box<dyn LlcPlacement>,
    s: Scheme,
) {
    let plain = tiny_cell(&policy, s, false);
    let traced = tiny_cell(&policy, s, true);
    assert_eq!(plain.dump, traced.dump, "{name}: probes changed the run");
    let calls: u64 = traced
        .spans
        .iter()
        .map(|s| s.children.calls.iter().sum::<u64>())
        .sum();
    assert!(calls > 0, "{name}: traced run recorded no calls");
    assert!(
        traced.log.iter().all(|l| !l.is_empty()),
        "{name}: empty call log"
    );
}

/// Every scheme, plus the MBV-less Re-NUCA (the only placement with a
/// secondary bank), runs to the same registry with and without probes:
/// each hook that changes behaviour is forwarded.
#[test]
fn wrapped_runs_match_unwrapped_for_every_placement() {
    for s in Scheme::ALL {
        assert_probes_transparent(s.name(), |cfg| s.build_policy(cfg), s);
    }
    assert_probes_transparent(
        "Re-NUCA-2probe",
        |cfg| Box::new(ReNucaTwoProbe::new(cfg.noc.cols, cfg.noc.rows)),
        Scheme::ReNuca,
    );
}

/// `as_any` is forwarded too (the differential harness downcasts through
/// it; the simulation itself never calls it).
#[test]
fn wrapped_placement_forwards_as_any() {
    let cfg = tiny_config();
    for s in Scheme::ALL {
        let wrapped = TimedPlacement::new(s.build_policy(&cfg), Probe::new(4));
        assert_eq!(
            wrapped.as_any().is_some(),
            s.build_policy(&cfg).as_any().is_some(),
            "{s}"
        );
        assert_eq!(wrapped.name(), s.name());
    }
}

/// Replaying a traced cell's call log through fresh sources draws exactly
/// the recorded calls (the log has one entry per `InstrSource` call of the
/// run phases, plus none for set-up or result).
#[test]
fn call_log_covers_every_generator_call() {
    let cell = tiny_cell(|cfg| Scheme::ReNuca.build_policy(cfg), Scheme::ReNuca, true);
    let logged: usize = cell.log.iter().map(Vec::len).sum();
    let run_calls = cell.spans[job::WARMUP].children.calls[probe::Kind::Workloads as usize]
        + cell.spans[job::MEASURE].children.calls[probe::Kind::Workloads as usize];
    assert_eq!(logged as u64, run_calls);
    let mix = workloads::workload_mix(TINY.mix, 4);
    assert!(probe::replay(&cell.log, |core| job::source(&mix, job::DEFAULT_SEED, core)) > 0);
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
    let JsonValue::Array(items) = v.get(key).expect(key) else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| match m.get(k) {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Metric and workload names match `[A-Za-z0-9_.-]+` (starting with a
/// letter or digit, at most 64 long), are unique, and are exactly the ones
/// `BENCHMARK.json` declares, with the same units.
#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for n in &all {
        assert!(well_formed(n), "bad metric name {n}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "duplicate metric names");

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let declared = |key| names(&bench, key);
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = job::WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(workloads, ours);
    for w in &ours {
        assert!(well_formed(w), "bad workload name {w}");
    }
}

fn assert_result_line(line: &str, spec: &[(&str, &str)], attempted: u64) {
    let v = parse(line).expect("result line parses");
    let JsonValue::Object(top) = &v else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        v.get("attempted").and_then(JsonValue::as_u64),
        Some(attempted)
    );
    assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
    let JsonValue::Object(metrics) = v.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), spec.len());
    for ((name, m), (want, unit)) in metrics.iter().zip(spec) {
        assert_eq!(name, want);
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name}"
        );
        assert_eq!(m.get("unit"), Some(&JsonValue::Str(unit.to_string())));
    }
}

/// The result lines of both modes, computed from real (tiny) jobs, parse
/// and carry every metric with its unit.
#[test]
fn printed_output_parses() {
    let job_of = |traced| Job {
        cells: vec![tiny_cell(
            |cfg| Scheme::ReNuca.build_policy(cfg),
            Scheme::ReNuca,
            traced,
        )],
    };
    let (untraced, traced) = (job_of(false), job_of(true));
    let mut checks = Checks::default();
    checks.traced(&traced, &untraced);

    let mut e2e = report::end_to_end(&untraced);
    e2e.push(("peak_rss_mb", 1.0 / 3.0));
    assert_result_line(
        &report::result_line(&checks, &END_TO_END, &e2e),
        &END_TO_END,
        1,
    );

    let layers = report::per_layer(&traced, &untraced, 12_345, &probe::calibrate());
    assert_result_line(
        &report::result_line(&checks, &PER_LAYER, &layers),
        &PER_LAYER,
        1,
    );
}

#[test]
fn bad_arguments_are_refused() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
    assert!(crate::parse_args(&args("--workload wl1-renuca --seed 7 --trace 1")).is_ok());
    for bad in [
        "",
        "--workload nope",
        "--workload wl1-renuca --trace 2",
        "--workload wl1-renuca --seconds -1",
        "--workload wl1-renuca --seed",
        "--workload wl1-renuca --frobnicate 1",
    ] {
        assert!(crate::parse_args(&args(bad)).is_err(), "accepted {bad:?}");
    }
}
