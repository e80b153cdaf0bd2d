//! The benchmark's workloads, and one job of each: build, prewarm, warm
//! up, measure and extract results, through the simulator's public API.

use std::time::Instant;

use cmp_sim::placement::{CriticalityPredictor, LlcPlacement};
use cmp_sim::types::line_of;
use cmp_sim::{InstrSource, SimResult, System, SystemConfig};
use renuca_core::{CptConfig, Scheme};
use wear_model::LifetimeModel;
use workloads::{workload_mix, AppModel, WorkloadMix};

use crate::probe::{Counts, Probe, TimedPlacement, TimedPredictor, TimedSource};

/// One benchmark workload: a paper or write-burst mix, the schemes a job
/// runs it under (one after another), and the per-core budgets.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Workload id passed to `workloads::workload_mix`.
    pub mix: usize,
    /// The schemes one job runs, serially.
    pub schemes: &'static [Scheme],
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
    /// FNV-1a digest of a default-seed job's registry dumps.
    pub pinned: u64,
}

/// The workloads, each chosen to load different layers (README.md).
pub const WORKLOADS: [Workload; 3] = [
    // The figure-job shape on a compute-leaning paper mix: generators, the
    // CPT and the Re-NUCA route cache carry the host time.
    Workload {
        name: "wl1-renuca",
        mix: 1,
        schemes: &[Scheme::ReNuca],
        warmup: 500_000,
        measure: 300_000,
        pinned: 0x5693_bdc2_eb54_dc95,
    },
    // Write bursts beside reads on the compressed LLC: bank calendars, the
    // NoC, DRAM, sub-block wear and expansion re-fills carry it.
    Workload {
        name: "wb4-renucac2",
        mix: 104,
        schemes: &[Scheme::ReNucaC2],
        warmup: 50_000,
        measure: 100_000,
        pinned: 0x6ad8_3d4a_97be_e682,
    },
    // Every scheme once on another paper mix with short windows: set-up
    // (prewarm through each placement) and result extraction carry it,
    // and it is the only workload running the other seven placements.
    Workload {
        name: "grid-9scheme",
        mix: 3,
        schemes: &Scheme::ALL,
        warmup: 10_000,
        measure: 50_000,
        pinned: 0x7ebf_abaa_8e84_3ef3,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed the benchmark's default `--seed` uses: with it every core
/// runs exactly the stream `WorkloadMix::build_sources` gives it.
pub const DEFAULT_SEED: u64 = 0;

/// The `AppModel` seed of `core` in mix `mix` under benchmark seed `seed`.
/// `WorkloadMix::build_sources` uses `mix << 32 | core`; seed 0 keeps it.
pub fn core_seed(seed: u64, mix: usize, core: usize) -> u64 {
    ((mix as u64) << 32 | core as u64) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fresh, seeded instruction sources for every core of `mix`.
pub fn sources(mix: &WorkloadMix, seed: u64) -> Vec<Box<dyn InstrSource>> {
    (0..mix.apps.len())
        .map(|core| source(mix, seed, core))
        .collect()
}

/// A fresh, seeded instruction source for one core of `mix`.
pub fn source(mix: &WorkloadMix, seed: u64, core: usize) -> Box<dyn InstrSource> {
    Box::new(AppModel::new(
        *mix.apps[core],
        core_seed(seed, mix.id, core),
    ))
}

/// The phases of one simulated system, in order; each is one span.
pub const PHASES: [&str; 5] = [
    "setup.new",
    "setup.prewarm",
    "run.warmup",
    "run.measure",
    "result",
];

/// Indices into [`PHASES`].
pub const NEW: usize = 0;
/// `System::prewarm`.
pub const PREWARM: usize = 1;
/// `System::warmup`.
pub const WARMUP: usize = 2;
/// `System::run` over the measured window.
pub const MEASURE: usize = 3;
/// `System::result`, `SimResult::registry` and its dump.
pub const RESULT: usize = 4;
/// Every phase: a job's whole wall time.
pub const ALL_PHASES: [usize; 5] = [NEW, PREWARM, WARMUP, MEASURE, RESULT];

/// One phase span: host nanoseconds, and the probe counters its wrapped
/// calls added (all zero in an untraced job).
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Host nanoseconds of the phase.
    pub ns: u64,
    /// Wrapped-call aggregates inside the phase.
    pub children: Counts,
}

/// Exact simulated-work counts of one measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Simulated instructions, all cores, warm-up plus measurement.
    pub instrs: u64,
    /// Measured-window cycles.
    pub cycles: u64,
    /// Demand L3 accesses.
    pub l3_accesses: u64,
    /// Demand L3 hits.
    pub l3_hits: u64,
    /// NoC flit-hops.
    pub noc_flit_hops: u64,
    /// NoC link-contention cycles.
    pub noc_contention_cycles: u64,
    /// L3 bank data-array operations.
    pub bank_ops: u64,
    /// L3 bank read-side queueing cycles.
    pub bank_queue_cycles: u64,
    /// Compressed-line expansion re-fills.
    pub bank_expand_ops: u64,
    /// DRAM reads plus writes.
    pub dram_accesses: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// Line writes the wear tracker counted.
    pub wear_writes: u64,
    /// Committed instructions in the measured window, all cores.
    pub committed: u64,
    /// Σ per-bank `fill_ops + write_ops`.
    pub bank_fill_write_ops: u64,
}

impl SimCounts {
    fn of(r: &SimResult, instrs: u64) -> SimCounts {
        SimCounts {
            instrs,
            cycles: r.cycles,
            l3_accesses: r.per_core.iter().map(|c| c.mem_stats.l3_accesses).sum(),
            l3_hits: r.per_core.iter().map(|c| c.mem_stats.l3_hits).sum(),
            noc_flit_hops: r.noc.flit_hops.get(),
            noc_contention_cycles: r.noc.contention_cycles.get(),
            bank_ops: r.bank_service.iter().map(|b| b.ops()).sum(),
            bank_queue_cycles: r.bank_service.iter().map(|b| b.queue_cycles.get()).sum(),
            bank_expand_ops: r.bank_service.iter().map(|b| b.expand_ops.get()).sum(),
            dram_accesses: r.dram.reads.get() + r.dram.writes.get(),
            dram_row_hits: r.dram.row_hits.get(),
            wear_writes: r.wear.total_writes(),
            committed: r.per_core.iter().map(|c| c.committed).sum(),
            bank_fill_write_ops: r
                .bank_service
                .iter()
                .map(|b| b.fill_ops.get() + b.write_ops.get())
                .sum(),
        }
    }

    /// Field-by-field sum.
    pub fn plus(&self, o: &SimCounts) -> SimCounts {
        SimCounts {
            instrs: self.instrs + o.instrs,
            cycles: self.cycles + o.cycles,
            l3_accesses: self.l3_accesses + o.l3_accesses,
            l3_hits: self.l3_hits + o.l3_hits,
            noc_flit_hops: self.noc_flit_hops + o.noc_flit_hops,
            noc_contention_cycles: self.noc_contention_cycles + o.noc_contention_cycles,
            bank_ops: self.bank_ops + o.bank_ops,
            bank_queue_cycles: self.bank_queue_cycles + o.bank_queue_cycles,
            bank_expand_ops: self.bank_expand_ops + o.bank_expand_ops,
            dram_accesses: self.dram_accesses + o.dram_accesses,
            dram_row_hits: self.dram_row_hits + o.dram_row_hits,
            wear_writes: self.wear_writes + o.wear_writes,
            committed: self.committed + o.committed,
            bank_fill_write_ops: self.bank_fill_write_ops + o.bank_fill_write_ops,
        }
    }
}

/// Everything the benchmark keeps of one simulated system.
pub struct Cell {
    /// The scheme it ran.
    pub scheme: Scheme,
    /// One span per [`PHASES`] entry.
    pub spans: [Span; PHASES.len()],
    /// `SimResult::registry().dump()`.
    pub dump: String,
    /// Number of registry entries.
    pub registry_keys: usize,
    /// Exact simulated-work counts.
    pub sim: SimCounts,
    /// Simulated total IPC of the measured window.
    pub ipc: f64,
    /// Raw-minimum bank lifetime in years over the measured window.
    pub lifetime_min_years: f64,
    /// Lines `System::prewarm` installs (from the sources' warm ranges).
    pub prewarm_lines: u64,
    /// Committed instructions the measured window must show: cores ×
    /// measured budget.
    pub expected_committed: u64,
    /// Traced cells: the per-core `InstrSource` call sequence.
    pub log: Vec<Vec<u32>>,
}

/// One job: every scheme of the workload, run serially.
pub struct Job {
    /// One cell per scheme.
    pub cells: Vec<Cell>,
}

impl Job {
    /// Span `phase` summed over the cells.
    pub fn span(&self, phase: usize) -> Span {
        self.cells.iter().fold(Span::default(), |acc, c| Span {
            ns: acc.ns + c.spans[phase].ns,
            children: acc.children.plus(&c.spans[phase].children),
        })
    }

    /// Host nanoseconds summed over `phases` and the cells.
    pub fn ns(&self, phases: &[usize]) -> u64 {
        phases.iter().map(|&p| self.span(p).ns).sum()
    }

    /// Simulated-work counts summed over the cells.
    pub fn sim(&self) -> SimCounts {
        self.cells
            .iter()
            .fold(SimCounts::default(), |acc, c| acc.plus(&c.sim))
    }

    /// FNV-1a 64 over every cell's registry dump, in scheme order.
    pub fn digest(&self) -> u64 {
        self.cells
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a(h, c.dump.as_bytes()))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Run one job of `wl` with benchmark seed `seed`; `traced` wraps the
/// three trait objects in probes and records per-phase aggregates.
pub fn run_job(wl: &Workload, seed: u64, traced: bool) -> Job {
    Job {
        cells: wl
            .schemes
            .iter()
            .map(|&s| run_cell(wl, s, seed, traced))
            .collect(),
    }
}

fn run_cell(wl: &Workload, scheme: Scheme, seed: u64, traced: bool) -> Cell {
    let build = |cfg: &SystemConfig| scheme.build_policy(cfg);
    run_cell_with(SystemConfig::default(), wl, scheme, build, seed, traced)
}

/// One simulated system of `wl`'s mix and budgets on machine `cfg`, phase
/// by phase. `policy` builds the placement inside `setup.new`; tests pass
/// placements outside `Scheme` through it (see `tests.rs`). `scheme`
/// chooses the predictors.
pub fn run_cell_with(
    cfg: SystemConfig,
    wl: &Workload,
    scheme: Scheme,
    policy: impl FnOnce(&SystemConfig) -> Box<dyn LlcPlacement>,
    seed: u64,
    traced: bool,
) -> Cell {
    let probe = traced.then(|| Probe::new(cfg.n_cores));
    let mark = || {
        let counts = probe.as_ref().map(|p| p.snapshot()).unwrap_or_default();
        (Instant::now(), counts)
    };
    let mut marks = Vec::with_capacity(PHASES.len() + 1);
    marks.push(mark());

    let mix = workload_mix(wl.mix, cfg.n_cores);
    let mut srcs = sources(&mix, seed);
    let mut preds = scheme.build_predictors(&cfg, CptConfig::default());
    let mut policy = policy(&cfg);
    if let Some(p) = &probe {
        srcs = srcs
            .into_iter()
            .enumerate()
            .map(|(core, s)| Box::new(TimedSource::new(s, core, p.clone())) as Box<dyn InstrSource>)
            .collect();
        preds = preds
            .into_iter()
            .map(|c| Box::new(TimedPredictor::new(c, p.clone())) as Box<dyn CriticalityPredictor>)
            .collect();
        policy = Box::new(TimedPlacement::new(policy, p.clone()));
    }
    let mut sys = System::new(cfg, policy, srcs, preds);
    marks.push(mark());
    sys.prewarm();
    marks.push(mark());
    sys.warmup(wl.warmup);
    marks.push(mark());
    sys.run(wl.measure);
    marks.push(mark());
    let result = sys.result();
    let registry = result.registry();
    let dump = registry.dump();
    marks.push(mark());

    let spans = std::array::from_fn(|i| Span {
        ns: (marks[i + 1].0 - marks[i].0).as_nanos() as u64,
        children: marks[i + 1].1.since(&marks[i].1),
    });
    let lifetime = LifetimeModel {
        freq_hz: cfg.freq_hz,
        ..LifetimeModel::default()
    };
    Cell {
        scheme,
        spans,
        registry_keys: registry.len(),
        sim: SimCounts::of(&result, cfg.n_cores as u64 * (wl.warmup + wl.measure)),
        ipc: result.total_ipc(),
        lifetime_min_years: lifetime.min_bank_lifetime(&result.wear, result.cycles),
        prewarm_lines: prewarm_lines(&mix, seed),
        expected_committed: cfg.n_cores as u64 * wl.measure,
        log: probe.map(|p| p.take_log()).unwrap_or_default(),
        dump,
    }
}

/// Lines `System::prewarm` installs for `mix`: the cache lines its sources'
/// warm ranges cover (the same line arithmetic as `prewarm`).
fn prewarm_lines(mix: &WorkloadMix, seed: u64) -> u64 {
    (0..mix.apps.len())
        .flat_map(|core| source(mix, seed, core).warm_ranges())
        .map(|(start, bytes)| line_of(start + bytes.saturating_sub(1)) - line_of(start) + 1)
        .sum()
}
