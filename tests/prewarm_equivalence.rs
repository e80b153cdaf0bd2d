//! The two-phase `System::prewarm` against its per-line reference
//! (`MemoryHierarchy::prewarm_fill` line by line, via
//! `System::prewarm_reference`).
//!
//! After prewarm, both systems must hold the same L1/L2/L3 ways (tags,
//! flags and LRU stamps), the same directory entries and the same
//! compression state. After a short run, their registry dumps must be
//! byte-identical. The grid covers every scheme on WL1, WL3, WB4 and the
//! trickle mix, over the paper machine, the §V.C cache variants, a
//! non-power-of-two mesh, intra-bank rotation and an L3 small enough
//! that cores evict their own lines.

use std::collections::BTreeMap;

use renuca::prelude::*;
use renuca::sim::cache::SetAssocCache;
use renuca::sim::hierarchy::{MemoryHierarchy, PrewarmPath};
use renuca::workloads::{TRICKLE_ID, WBURST_ID_BASE};

/// Instructions per core of the warm-up and of the measured run that
/// follow prewarm.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 3_000;

/// Core 0's warm ranges in a test cell.
#[derive(Clone, Copy, PartialEq)]
enum Core0 {
    /// The workload's own ranges.
    Natural,
    /// The workload's ranges with the first listed twice: overlapping,
    /// so the core must take the per-line path.
    Overlapping,
    /// 64 single lines in one L2 set, so L2 victims can still be resident
    /// in L1: the first at offset 0, the rest at odd multiples of the
    /// L2-set stride. An L1 with twice the L2's sets sees the first line
    /// alone in its set.
    OneL2Set,
}

/// A source whose warm ranges are replaced.
struct Rewarmed(Box<dyn InstrSource>, Vec<(u64, u64)>);

impl InstrSource for Rewarmed {
    fn next_instr(&mut self) -> Instr {
        self.0.next_instr()
    }
    fn next_alu_run(&mut self, max: u32) -> u32 {
        self.0.next_alu_run(max)
    }
    fn label(&self) -> &str {
        self.0.label()
    }
    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        self.1.clone()
    }
}

/// The machines of the grid besides the paper one: the §V.C cache
/// variants, a non-power-of-two mesh, intra-bank rotation, and an L3 small
/// enough that every core evicts its own lines. A 2×2 mesh keeps them fast.
fn small_configs() -> [(&'static str, SystemConfig); 5] {
    let quad = SystemConfig::mesh(2, 2);
    let mut rotation = quad;
    rotation.intra_bank_rotation_writes = Some(3_000);
    let mut tiny_l3 = quad;
    tiny_l3.l3_bank.size_bytes = 128 * 1024;
    [
        ("l2-128k", quad.with_l2_128k()),
        ("l3-1m", quad.with_l3_1m()),
        ("mesh-3x2", SystemConfig::mesh(3, 2)),
        ("rotation", rotation),
        ("tiny-l3", tiny_l3),
    ]
}

fn build(scheme: Scheme, wl: usize, cfg: SystemConfig, core0: Core0) -> System {
    let mut sources = workload_mix(wl, cfg.n_cores).build_sources();
    let ranges = match core0 {
        Core0::Natural => None,
        Core0::Overlapping => {
            let mut r = sources[0].warm_ranges();
            r.push(r[0]);
            Some(r)
        }
        Core0::OneL2Set => {
            let stride = cfg.l2.sets() as u64 * 64;
            Some(
                (0..64)
                    .map(|i| (i * 2 * stride - (i > 0) as u64 * stride, 64))
                    .collect(),
            )
        }
    };
    if let Some(ranges) = ranges {
        let s = sources.remove(0);
        sources.insert(0, Box::new(Rewarmed(s, ranges)));
    }
    System::new(
        cfg,
        scheme.build_policy(&cfg),
        sources,
        scheme.build_predictors(&cfg, CptConfig::default()),
    )
}

fn assert_same_array(a: &SetAssocCache, b: &SetAssocCache, what: &str) {
    for set in 0..a.sets() {
        for way in 0..a.assoc() {
            assert_eq!(
                a.way_state(set, way),
                b.way_state(set, way),
                "{what}: set {set} way {way} (tag, valid, dirty, stamp)"
            );
        }
    }
}

/// Every piece of hierarchy state prewarm writes, compared way by way.
fn assert_same_state(a: &MemoryHierarchy, b: &MemoryHierarchy, cfg: &SystemConfig, what: &str) {
    for core in 0..cfg.n_cores {
        assert_same_array(a.l1(core), b.l1(core), &format!("{what}: core {core} L1"));
        assert_same_array(a.l2(core), b.l2(core), &format!("{what}: core {core} L2"));
    }
    for bank in 0..cfg.n_banks {
        assert_same_array(a.l3(bank), b.l3(bank), &format!("{what}: bank {bank} L3"));
        for slot in 0..cfg.l3_bank.lines() {
            assert_eq!(
                a.compress_slot(bank, slot),
                b.compress_slot(bank, slot),
                "{what}: bank {bank} slot {slot} (class, version)"
            );
        }
    }
    let dir = |m: &MemoryHierarchy| -> BTreeMap<u64, (u32, bool)> {
        m.dir
            .entries()
            .map(|(line, e)| (line, (e.sharers, e.exclusive)))
            .collect()
    };
    assert_eq!(dir(a), dir(b), "{what}: directory entries");
}

/// Prewarm one system two-phase and a twin through the reference, compare
/// them, run both briefly and compare the registry dumps. Returns the path
/// each core took.
fn check(
    scheme: Scheme,
    wl: usize,
    (name, cfg): (&str, SystemConfig),
    core0: Core0,
) -> Vec<PrewarmPath> {
    let what = format!(
        "{} / {} / {name}",
        scheme.name(),
        workload_mix(wl, 1).name()
    );
    let mut fast = build(scheme, wl, cfg, core0);
    let paths = fast.prewarm();
    let mut reference = build(scheme, wl, cfg, core0);
    reference.prewarm_reference();
    assert_same_state(&fast.mem, &reference.mem, &cfg, &what);
    let dump = |sys: &mut System| {
        sys.warmup(WARMUP);
        sys.run(MEASURE);
        sys.result().registry().dump()
    };
    assert!(
        dump(&mut fast) == dump(&mut reference),
        "{what}: registry dumps differ"
    );
    paths
}

#[test]
fn two_phase_prewarm_matches_per_line_reference() {
    let configs = small_configs();
    let workloads = [1, 3, WBURST_ID_BASE + 4, TRICKLE_ID];
    let mut taken: BTreeMap<String, usize> = BTreeMap::new();
    let mut tally = |paths: Vec<PrewarmPath>| {
        for path in paths {
            *taken.entry(format!("{path:?}")).or_default() += 1;
        }
    };
    // Every scheme on every workload. The machine rotates with the cell
    // so each config meets every workload and several schemes; every
    // seventh cell gives core 0 overlapping warm ranges.
    for (s, scheme) in Scheme::ALL.into_iter().enumerate() {
        for (w, wl) in workloads.into_iter().enumerate() {
            let cfg = configs[(s + w) % configs.len()];
            let core0 = if (s * 4 + w) % 7 == 6 {
                Core0::Overlapping
            } else {
                Core0::Natural
            };
            tally(check(scheme, wl, cfg, core0));
        }
    }
    // The paper machine (its other cells are pinned by the benchmark's
    // registry digests).
    tally(check(
        Scheme::ReNuca,
        3,
        ("default", SystemConfig::default()),
        Core0::Natural,
    ));
    for path in ["Survivors", "Replay", "PerLine"] {
        assert!(
            taken.get(path).copied().unwrap_or(0) > 0,
            "{path} path never taken: {taken:?}"
        );
    }
}

/// Prewarm a system twice, or after a run, both ways; every core of the
/// late call must take the per-line path and leave the reference's state.
fn late_prewarm_is_per_line(before: impl Fn(&mut System, bool)) {
    let cfg = SystemConfig::mesh(2, 2);
    for scheme in [Scheme::ReNuca, Scheme::SNuca] {
        let mut fast = build(scheme, 1, cfg, Core0::Natural);
        let mut reference = build(scheme, 1, cfg, Core0::Natural);
        before(&mut fast, true);
        before(&mut reference, false);
        assert!(fast.prewarm().iter().all(|&p| p == PrewarmPath::PerLine));
        reference.prewarm_reference();
        assert_same_state(&fast.mem, &reference.mem, &cfg, scheme.name());
    }
}

#[test]
fn second_prewarm_takes_per_line_path() {
    late_prewarm_is_per_line(|sys, fast| {
        if fast {
            sys.prewarm();
        } else {
            sys.prewarm_reference();
        }
    });
}

#[test]
fn prewarm_after_run_takes_per_line_path() {
    late_prewarm_is_per_line(|sys, _| sys.warmup(1_000));
}

#[test]
fn overlapping_ranges_take_per_line_path() {
    let cfg = ("quad", SystemConfig::mesh(2, 2));
    let paths = check(Scheme::ReNuca, 3, cfg, Core0::Overlapping);
    assert_eq!(paths[0], PrewarmPath::PerLine);
    assert!(paths[1..].iter().all(|&p| p != PrewarmPath::PerLine));
}

#[test]
fn l2_victims_still_in_l1_match_the_reference() {
    // When every L2 set maps into one L1 set with at most as many ways, an
    // L2 victim's L1 copy is gone or is its L1 set's oldest line, and the
    // survivor rule holds. An L1 with more ways, or with more sets than
    // the L2, keeps copies the rule cannot place: the private side is
    // replayed.
    let quad = SystemConfig::mesh(2, 2);
    let mut equal_l1 = quad;
    equal_l1.l1.assoc = quad.l2.assoc;
    let mut wide_l1 = quad;
    wide_l1.l1.assoc = 2 * quad.l2.assoc;
    let mut tall_l1 = quad.with_l2_128k();
    tall_l1.l1.assoc = 1;
    assert!(tall_l1.l1.sets() > tall_l1.l2.sets());
    for (name, cfg, want) in [
        ("quad", quad, PrewarmPath::Survivors),
        ("equal-l1", equal_l1, PrewarmPath::Survivors),
        ("wide-l1", wide_l1, PrewarmPath::Replay),
        ("tall-l1", tall_l1, PrewarmPath::Replay),
    ] {
        let paths = check(Scheme::SNuca, 1, (name, cfg), Core0::OneL2Set);
        assert_eq!(paths[0], want, "{name}");
    }
}
