//! Metrics, output checks and the printed result.

use crate::job::{
    Job, Workload, ALL_PHASES, DEFAULT_SEED, MEASURE, NEW, PHASES, PREWARM, RESULT, WARMUP,
};
use crate::probe::{Calibration, Counts, Kind, ALL, LAYERS, MAPPING};

/// End-to-end metrics (untraced run), name and unit, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_mips", "Minstr/s"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ipc", "instr/cycle"),
    ("lifetime_min_years", "years"),
];

/// Per-layer metrics (traced run), name and unit, in print order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.calls", "count"),
    ("workloads.self_ms", "ms"),
    ("workloads.ns_per_instr", "ns"),
    ("workloads.alu_run_share", "ratio"),
    ("workloads.replay_ms", "ms"),
    ("criticality.calls", "count"),
    ("criticality.self_ms", "ms"),
    ("criticality.ns_per_call", "ns"),
    ("criticality.predicted_critical_share", "ratio"),
    ("mapping.lookup_calls", "count"),
    ("mapping.fill_calls", "count"),
    ("mapping.evict_calls", "count"),
    ("mapping.write_calls", "count"),
    ("mapping.run_self_ms", "ms"),
    ("mapping.setup_self_ms", "ms"),
    ("mapping.ns_per_call", "ns"),
    ("cmp-sim.self_ms", "ms"),
    ("cmp-sim.ns_per_instr", "ns"),
    ("cmp-sim.ns_per_l3_access", "ns"),
    ("sim.cycles", "cycles"),
    ("sim.l3_accesses", "count"),
    ("sim.l3_hit_rate", "ratio"),
    ("sim.noc_flit_hops", "count"),
    ("sim.noc_contention_cycles", "cycles"),
    ("sim.bank_ops", "count"),
    ("sim.bank_queue_cycles", "cycles"),
    ("sim.bank_expand_ops", "count"),
    ("sim.dram_accesses", "count"),
    ("sim.dram_row_hit_rate", "ratio"),
    ("sim.wear_writes", "count"),
    ("setup.new_ms", "ms"),
    ("setup.prewarm_ms", "ms"),
    ("setup.prewarm_lines", "count"),
    ("result.ms", "ms"),
    ("result.registry_keys", "count"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// How far `workloads.replay_ms` may stray from the corrected
/// `workloads.self_ms`, as a share of the latter, before the report flags
/// the attribution as unconfirmed.
pub const REPLAY_TOLERANCE: f64 = 0.35;

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Tally of output checks: each evaluated check is one attempted
/// operation, each failing one a failed operation.
#[derive(Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed; each is also reported on stderr.
    pub failed: u64,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// The checks every job gets: each cell committed exactly its budget
    /// and its bank write ops balance the wear tracker; the job repeats the
    /// run's first job bit for bit; a default-seed job matches the pin.
    pub fn job(&mut self, wl: &Workload, seed: u64, job: &Job, first_digest: u64) {
        for c in &job.cells {
            self.check(c.sim.committed == c.expected_committed, || {
                format!(
                    "{}: committed {} instructions, budget {}",
                    c.scheme, c.sim.committed, c.expected_committed
                )
            });
            self.check(c.sim.bank_fill_write_ops == c.sim.wear_writes, || {
                format!(
                    "{}: bank fill+write ops {} != wear-tracked writes {}",
                    c.scheme, c.sim.bank_fill_write_ops, c.sim.wear_writes
                )
            });
        }
        let digest = job.digest();
        self.check(digest == first_digest, || {
            format!("registry digest {digest:016x} differs from the run's first job {first_digest:016x}")
        });
        if seed == DEFAULT_SEED {
            self.check(digest == wl.pinned, || {
                format!(
                    "default-seed registry digest {digest:016x}, pinned {:016x}",
                    wl.pinned
                )
            });
        }
    }

    /// A traced job's registries must equal its untraced twin's, byte for
    /// byte: the probes may cost time but never change the simulation.
    pub fn traced(&mut self, traced: &Job, untraced: &Job) {
        for (t, u) in traced.cells.iter().zip(&untraced.cells) {
            self.check(t.dump == u.dump, || {
                format!("{}: traced registry dump differs from untraced", t.scheme)
            });
        }
    }
}

/// End-to-end metrics of one untraced job, by name (no `peak_rss_mb`:
/// that one belongs to the process).
pub fn end_to_end(job: &Job) -> Vec<(&'static str, f64)> {
    let sim = job.sim();
    let run_ns = job.ns(&[WARMUP, MEASURE]) as f64;
    let ipcs: Vec<f64> = job.cells.iter().map(|c| c.ipc).collect();
    vec![
        ("sim_mips", sim.instrs as f64 / run_ns * 1e3),
        ("setup_s", job.ns(&[NEW, PREWARM]) as f64 / 1e9),
        ("wall_s", job.ns(&ALL_PHASES) as f64 / 1e9),
        ("sim_ipc", ipcs.iter().sum::<f64>() / ipcs.len() as f64),
        (
            "lifetime_min_years",
            job.cells
                .iter()
                .map(|c| c.lifetime_min_years)
                .fold(f64::INFINITY, f64::min),
        ),
    ]
}

/// Nanoseconds the probes recorded for `kinds` in `c`, less the
/// calibrated in-record timer cost of each call.
fn self_ns(c: &Counts, kinds: &[Kind], cal: &Calibration) -> f64 {
    kinds
        .iter()
        .map(|&k| {
            let i = k as usize;
            (c.ns[i] as f64 - c.calls[i] as f64 * cal.of(k).inside_ns).max(0.0)
        })
        .sum()
}

/// Corrected self time of every wrapped layer in `c`.
fn layers_ns(c: &Counts, cal: &Calibration) -> f64 {
    LAYERS.iter().map(|(_, ks)| self_ns(c, ks, cal)).sum()
}

/// `cmp-sim` self time of `phases`: the untraced twin's span less the
/// wrapped layers' corrected self times in the traced job. Taking the span
/// from the untraced twin keeps probe cost the calibration misses out of
/// this layer; [`unexplained_ns`] reports that cost instead.
fn cmp_sim_ns(traced: &Job, untraced: &Job, phases: &[usize], cal: &Calibration) -> f64 {
    phases
        .iter()
        .map(|&p| untraced.span(p).ns as f64 - layers_ns(&traced.span(p).children, cal))
        .sum()
}

/// Traced time of `phases` that neither the untraced twin's span nor the
/// calibrated per-call probe cost accounts for: the probes' extra cost
/// inside a real run (cache and branch-predictor pollution).
fn unexplained_ns(traced: &Job, untraced: &Job, phases: &[usize], cal: &Calibration) -> f64 {
    phases
        .iter()
        .map(|&p| {
            let s = traced.span(p);
            let probes: f64 = ALL
                .iter()
                .map(|&k| s.children.calls[k as usize] as f64 * cal.of(k).total_ns())
                .sum();
            s.ns as f64 - probes - untraced.span(p).ns as f64
        })
        .sum()
}

/// Layer attribution of one traced job. `untraced` is its twin, which
/// gives the phase spans free of probe cost; `replay_ns` is the
/// generator-only replay of the traced job's call log.
pub fn per_layer(
    traced: &Job,
    untraced: &Job,
    replay_ns: u64,
    cal: &Calibration,
) -> Vec<(&'static str, f64)> {
    let run = traced
        .span(WARMUP)
        .children
        .plus(&traced.span(MEASURE).children);
    let setup = traced
        .span(NEW)
        .children
        .plus(&traced.span(PREWARM).children);
    let sim = traced.sim();
    let instrs = sim.instrs as f64;
    let wl_ns = self_ns(&run, &[Kind::Workloads], cal);
    let crit_ns = self_ns(&run, &[Kind::Criticality], cal);
    let crit_calls = run.calls[Kind::Criticality as usize] as f64;
    let map_ns = self_ns(&run, &MAPPING, cal);
    let cmp_ns = cmp_sim_ns(traced, untraced, &[WARMUP, MEASURE], cal);
    let cmp_measure_ns = cmp_sim_ns(traced, untraced, &[MEASURE], cal);
    let delivered = (run.alu_run_instrs + run.single_instrs) as f64;
    vec![
        (
            "workloads.calls",
            run.calls[Kind::Workloads as usize] as f64,
        ),
        ("workloads.self_ms", wl_ns / 1e6),
        ("workloads.ns_per_instr", ratio(wl_ns, instrs)),
        (
            "workloads.alu_run_share",
            ratio(run.alu_run_instrs as f64, delivered),
        ),
        ("workloads.replay_ms", replay_ns as f64 / 1e6),
        ("criticality.calls", crit_calls),
        ("criticality.self_ms", crit_ns / 1e6),
        ("criticality.ns_per_call", ratio(crit_ns, crit_calls)),
        (
            "criticality.predicted_critical_share",
            ratio(run.predicted_critical as f64, run.predicts as f64),
        ),
        ("mapping.lookup_calls", run.calls_of(&[Kind::Lookup]) as f64),
        ("mapping.fill_calls", run.calls_of(&[Kind::Fill]) as f64),
        ("mapping.evict_calls", run.calls_of(&[Kind::Evict]) as f64),
        ("mapping.write_calls", run.calls_of(&[Kind::Write]) as f64),
        ("mapping.run_self_ms", map_ns / 1e6),
        (
            "mapping.setup_self_ms",
            self_ns(&setup, &MAPPING, cal) / 1e6,
        ),
        (
            "mapping.ns_per_call",
            ratio(map_ns, run.calls_of(&MAPPING) as f64),
        ),
        ("cmp-sim.self_ms", cmp_ns / 1e6),
        ("cmp-sim.ns_per_instr", ratio(cmp_ns, instrs)),
        (
            "cmp-sim.ns_per_l3_access",
            ratio(cmp_measure_ns, sim.l3_accesses as f64),
        ),
        ("sim.cycles", sim.cycles as f64),
        ("sim.l3_accesses", sim.l3_accesses as f64),
        (
            "sim.l3_hit_rate",
            ratio(sim.l3_hits as f64, sim.l3_accesses as f64),
        ),
        ("sim.noc_flit_hops", sim.noc_flit_hops as f64),
        (
            "sim.noc_contention_cycles",
            sim.noc_contention_cycles as f64,
        ),
        ("sim.bank_ops", sim.bank_ops as f64),
        ("sim.bank_queue_cycles", sim.bank_queue_cycles as f64),
        ("sim.bank_expand_ops", sim.bank_expand_ops as f64),
        ("sim.dram_accesses", sim.dram_accesses as f64),
        (
            "sim.dram_row_hit_rate",
            ratio(sim.dram_row_hits as f64, sim.dram_accesses as f64),
        ),
        ("sim.wear_writes", sim.wear_writes as f64),
        ("setup.new_ms", untraced.span(NEW).ns as f64 / 1e6),
        ("setup.prewarm_ms", untraced.span(PREWARM).ns as f64 / 1e6),
        (
            "setup.prewarm_lines",
            traced.cells.iter().map(|c| c.prewarm_lines).sum::<u64>() as f64,
        ),
        ("result.ms", untraced.span(RESULT).ns as f64 / 1e6),
        (
            "result.registry_keys",
            traced.cells.iter().map(|c| c.registry_keys).sum::<usize>() as f64,
        ),
        ("trace.timer_ns", cal.timer.total_ns()),
        (
            "trace.overhead_ratio",
            ratio(
                traced.ns(&ALL_PHASES) as f64,
                untraced.ns(&ALL_PHASES) as f64,
            ),
        ),
    ]
}

/// Figures of one job pair that check the attribution rather than
/// measure a layer: printed, not part of the result line. The replay ratio
/// comes first.
pub fn diagnostics(
    traced: &Job,
    untraced: &Job,
    replay_ns: u64,
    cal: &Calibration,
) -> Vec<(&'static str, f64)> {
    let run = [WARMUP, MEASURE];
    let run_ns = untraced.ns(&run) as f64;
    let children = traced
        .span(WARMUP)
        .children
        .plus(&traced.span(MEASURE).children);
    let wl_ns = self_ns(&children, &[Kind::Workloads], cal);
    vec![
        ("workloads.replay_ratio", ratio(replay_ns as f64, wl_ns)),
        ("workloads.run_share", ratio(wl_ns, run_ns)),
        (
            "setup.prewarm_wall_share",
            ratio(
                untraced.span(PREWARM).ns as f64,
                untraced.ns(&ALL_PHASES) as f64,
            ),
        ),
        (
            "trace.uncalibrated_share",
            ratio(unexplained_ns(traced, untraced, &run, cal), run_ns),
        ),
    ]
}

/// Per-metric medians over jobs' metric lists (all lists share names and
/// order).
pub fn medians(per_job: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = per_job.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let xs: Vec<f64> = per_job.iter().map(|m| m[i].1).collect();
            (name, median(&xs))
        })
        .collect()
}

/// The span tree of one traced job: each phase (the untraced twin's
/// span), then each layer's calls and corrected self time inside it.
pub fn span_tree(traced: &Job, untraced: &Job, cal: &Calibration) -> String {
    let mut out = String::new();
    for (p, name) in PHASES.iter().enumerate() {
        let s = traced.span(p);
        out.push_str(&format!(
            "  {name:<14} {:>12.3} ms ({:.3} ms traced)\n",
            untraced.span(p).ns as f64 / 1e6,
            s.ns as f64 / 1e6
        ));
        for (layer, kinds) in LAYERS {
            out.push_str(&format!(
                "    {layer:<12} {:>12} calls {:>12.3} ms self\n",
                s.children.calls_of(kinds),
                self_ns(&s.children, kinds, cal) / 1e6
            ));
        }
        out.push_str(&format!(
            "    {:<12} {:>18} {:>12.3} ms self\n",
            "cmp-sim",
            "",
            cmp_sim_ns(traced, untraced, &[p], cal) / 1e6
        ));
    }
    out
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric of `spec` with its unit, values from `values`.
///
/// # Panics
/// Panics if `values` lacks a metric of `spec` or holds a non-finite value
/// (a bug in the metric computation, not an input error).
pub fn result_line(checks: &Checks, spec: &[(&str, &str)], values: &[(&str, f64)]) -> String {
    let mut metrics = sim_stats::json::JsonObject::new();
    for &(name, unit) in spec {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} was not computed"))
            .1;
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let mut m = sim_stats::json::JsonObject::new();
        m.field_raw("value", &format!("{v}"))
            .field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    let mut o = sim_stats::json::JsonObject::new();
    o.field_raw("correct", if checks.failed == 0 { "true" } else { "false" })
        .field_u64("attempted", checks.attempted)
        .field_u64("failed", checks.failed)
        .field_raw("metrics", &metrics.finish());
    o.finish()
}
