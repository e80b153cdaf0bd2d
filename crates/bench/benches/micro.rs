//! Micro-benchmarks of the hot substrate structures, on the in-tree
//! harness.
//!
//! These track the simulator's own performance (a regression here slows
//! every experiment); they are not paper results. Each case prints one
//! JSON line with per-iteration min/mean/median/p95 nanoseconds.

use std::hint::black_box;

use bench::{bench, bench_with_setup};
use cmp_sim::cache::SetAssocCache;
use cmp_sim::config::{CacheGeometry, NocConfig, SystemConfig};
use cmp_sim::dram::Dram;
use cmp_sim::instr::InstrSource;
use cmp_sim::noc::Mesh;
use cmp_sim::placement::{AccessMeta, CriticalityPredictor, LlcAccessKind, LlcPlacement};
use cmp_sim::system::System;
use cmp_sim::tlb::Tlb;
use cmp_sim::types::{page_of_line, phys_addr};
use renuca_core::{Cpt, CptConfig, NaiveOracle, RNuca, ReNuca, SNuca, Scheme};
use wear_model::WearTracker;
use workloads::{workload_mix, AppModel};

fn access_meta(line: u64, critical: bool) -> AccessMeta {
    AccessMeta {
        core: 0,
        line,
        page: page_of_line(line),
        pc: 1,
        kind: LlcAccessKind::Demand,
        predicted_critical: critical,
    }
}

fn bench_cache() {
    let geo = CacheGeometry::symmetric(2 * 1024 * 1024, 16, 100);
    {
        let mut cache = SetAssocCache::new(geo, true);
        for line in 0..1024u64 {
            cache.fill(line, false);
        }
        let mut line = 0u64;
        bench("cache/l3_bank_access_hit", move || {
            line = (line + 1) & 1023;
            black_box(cache.access(line, false))
        })
        .report();
    }
    {
        let mut cache = SetAssocCache::new(geo, true);
        let mut line = 0u64;
        bench("cache/l3_bank_fill_evict", move || {
            line += 1;
            black_box(cache.fill(line, false))
        })
        .report();
    }
}

fn bench_cpt() {
    let mut cpt = Cpt::new(CptConfig::default());
    for pc in 0..512u32 {
        cpt.on_load_commit(pc * 4, pc % 3 == 0);
    }
    let mut pc = 0u32;
    bench("cpt/predict_trained", move || {
        pc = (pc + 4) & 2047;
        black_box(cpt.predict(pc))
    })
    .report();
}

fn bench_mesh() {
    let mut mesh = Mesh::new(NocConfig::default());
    let mut now = 0u64;
    bench("noc/traverse_6_hops", move || {
        now += 7;
        black_box(mesh.traverse(0, 15, 5, now))
    })
    .report();
}

fn bench_dram() {
    let mut dram = Dram::new(Default::default());
    let mut line = 0u64;
    let mut now = 0u64;
    bench("dram/stream_access", move || {
        line += 1;
        now += 5;
        black_box(dram.access(line, false, now))
    })
    .report();
}

fn bench_tlb() {
    let mut tlb: Tlb<u64> = Tlb::new(64, 8, 60);
    for p in 0..8u64 {
        tlb.access(p, |_| 0);
    }
    let mut p = 0u64;
    bench("tlb/hit", move || {
        p = (p + 1) & 7;
        black_box(tlb.access(p, |_| 0).hit)
    })
    .report();
}

fn bench_placement() {
    // The per-access hot loop of every experiment: one lookup_bank (and on
    // a miss one fill_bank) per L2 miss. Address streams are strided so
    // the structures behind each policy (MBV TLB + backing store, Naive
    // directory) are actually exercised, not just the arithmetic.
    {
        let mut s = SNuca::new(16);
        let mut line = 0u64;
        bench("placement/snuca_lookup_bank", move || {
            line = line.wrapping_add(0x9E37_79B9);
            black_box(s.lookup_bank(&access_meta(line, false)))
        })
        .report();
    }
    {
        let mut r = RNuca::new(4, 4);
        let mut i = 0u64;
        bench("placement/rnuca_lookup_bank", move || {
            i = i.wrapping_add(1);
            let line = phys_addr((i & 15) as usize, i.wrapping_mul(977) & 0xfff_ffff) >> 6;
            black_box(r.lookup_bank(&access_meta(line, false)))
        })
        .report();
    }
    {
        // Working set of 4096 pages against a 64-entry TLB: essentially
        // every lookup faults the page's MBV in from the backing store,
        // which is the structure this bench regression-tracks. Half the
        // pages hold a critical line so the store is populated.
        let mut re = ReNuca::new(4, 4);
        for p in (0..4096u64).step_by(2) {
            let line = phys_addr(0, p * 4096) >> 6;
            let m = access_meta(line, true);
            let b = re.fill_bank(&m);
            re.on_fill(&m, b);
        }
        let mut i = 0u64;
        bench("placement/renuca_lookup_bank", move || {
            i = i.wrapping_add(1);
            let page = i.wrapping_mul(2654435761) & 4095;
            let line = phys_addr(0, page * 4096 + (i & 63) * 64) >> 6;
            black_box(re.lookup_bank(&access_meta(line, false)))
        })
        .report();
    }
    {
        let mut re = ReNuca::new(4, 4);
        let mut i = 0u64;
        bench("placement/renuca_fill_bank", move || {
            i = i.wrapping_add(1);
            let line = phys_addr((i & 15) as usize, i.wrapping_mul(977) & 0xfff_ffff) >> 6;
            black_box(re.fill_bank(&access_meta(line, i & 1 == 0)))
        })
        .report();
    }
    {
        // Directory-resident lookups: the Naive oracle's per-access map
        // probe over an L3-sized population.
        let mut n = NaiveOracle::new(16, 150);
        for i in 0..65_536u64 {
            let m = access_meta(i * 7, false);
            let b = n.fill_bank(&m);
            n.on_fill(&m, b);
        }
        let mut i = 0u64;
        bench("placement/naive_lookup_bank", move || {
            i = i.wrapping_add(1);
            let line = (i.wrapping_mul(2654435761) & 65_535) * 7;
            black_box(n.lookup_bank(&access_meta(line, false)))
        })
        .report();
    }
}

fn bench_llc_banks() {
    // The bank service model's hot path under sustained contention: 16
    // banks hit round-robin with alternating reads and fills at a rate
    // the 400-cycle write drain cannot keep up with, so every call takes
    // the calendar-reservation path with a live backlog (touching
    // intervals merge, so the calendar itself stays tiny).
    use cmp_sim::bank::LlcBanks;
    let geo = CacheGeometry {
        size_bytes: 2 * 1024 * 1024,
        assoc: 16,
        tag_latency: 20,
        read_latency: 100,
        write_latency: 400,
    };
    let mut banks = LlcBanks::new(16, &geo, true);
    let mut i = 0u64;
    bench("bank/llc_bank_contention", move || {
        i = i.wrapping_add(1);
        let bank = (i & 15) as usize;
        let now = i * 12;
        if i & 1 == 0 {
            black_box(banks.read(bank, now))
        } else {
            black_box(banks.fill(bank, now))
        }
    })
    .report();
}

fn bench_workload_gen() {
    let spec = *workloads::app_by_name("mcf").unwrap();
    let mut model = AppModel::new(spec, 1);
    bench("workloads/mcf_next_instr", move || {
        black_box(model.next_instr())
    })
    .report();
}

fn bench_compress() {
    // The compressed scheme's per-write hot path: one size-class draw plus
    // its sub-block mask per L3 write. Strided line/version streams keep
    // the hash mixing real instead of constant-folding.
    let spec = compress::CompressSpec::new(4, 0xC0DEC);
    let mut i = 0u64;
    bench("compress/size_class", move || {
        i = i.wrapping_add(1);
        let line = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let v = (i & 255) as u32;
        black_box((spec.class_of(line, v), spec.mask_of(line, v)))
    })
    .report();
}

fn bench_wear() {
    let mut tracker = WearTracker::new(16, 32768);
    let mut i = 0usize;
    bench("wear/record_write", move || {
        i = (i + 97) % (16 * 32768);
        tracker.record_write(i & 15, i >> 4);
    })
    .report();
}

fn bench_full_system() {
    // Throughput of the whole 16-core simulator: simulated instructions
    // per wall-second over a short Re-NUCA run. Each sample gets a fresh
    // system (the run consumes it), built outside the timed region.
    bench_with_setup(
        "system/16core_renuca_10k_instr",
        || {
            let cfg = SystemConfig::default();
            let wl = workload_mix(1, cfg.n_cores);
            let scheme = Scheme::ReNuca;
            let preds: Vec<Box<dyn CriticalityPredictor>> =
                scheme.build_predictors(&cfg, CptConfig::default());
            System::new(cfg, scheme.build_policy(&cfg), wl.build_sources(), preds)
        },
        |mut sys| {
            sys.run(10_000);
            black_box(sys.now())
        },
    )
    .report();
    // The compressed variant of the same run: adds the per-write
    // size-class draw, sub-block wear charging and expansion re-fills, so
    // this line tracks the overhead of the compression subsystem on
    // whole-simulator throughput.
    bench_with_setup(
        "system/16core_renucac2_10k_instr",
        || {
            let cfg = SystemConfig::default();
            let wl = workload_mix(1, cfg.n_cores);
            let scheme = Scheme::ReNucaC2;
            let preds: Vec<Box<dyn CriticalityPredictor>> =
                scheme.build_predictors(&cfg, CptConfig::default());
            System::new(cfg, scheme.build_policy(&cfg), wl.build_sources(), preds)
        },
        |mut sys| {
            sys.run(10_000);
            black_box(sys.now())
        },
    )
    .report();
    // Paper-scale macro point: 10× the instruction budget, tracking how
    // throughput holds up once warm structures dominate (TLBs, route
    // cache, CPT are all past their cold phase for most of the run).
    bench_with_setup(
        "system/16core_renuca_100k_instr",
        || {
            let cfg = SystemConfig::default();
            let wl = workload_mix(1, cfg.n_cores);
            let scheme = Scheme::ReNuca;
            let preds: Vec<Box<dyn CriticalityPredictor>> =
                scheme.build_predictors(&cfg, CptConfig::default());
            System::new(cfg, scheme.build_policy(&cfg), wl.build_sources(), preds)
        },
        |mut sys| {
            sys.run(100_000);
            black_box(sys.now())
        },
    )
    .report();
    // Checkpoint-style prewarm of the paper machine on WL3 under all nine
    // schemes (the benchmark grid's set-up): the nine systems are built
    // outside the timed region, which covers only their `prewarm` calls.
    bench_with_setup(
        "system/16core_prewarm_wl3",
        || {
            let cfg = SystemConfig::default();
            let wl = workload_mix(3, cfg.n_cores);
            Scheme::ALL.map(|scheme| {
                let preds = scheme.build_predictors(&cfg, CptConfig::default());
                System::new(cfg, scheme.build_policy(&cfg), wl.build_sources(), preds)
            })
        },
        |mut systems| {
            for sys in &mut systems {
                black_box(sys.prewarm());
            }
            systems
        },
    )
    .report();
}

fn main() {
    println!("=== micro benchmarks (in-tree harness; one JSON line per case) ===");
    bench_cache();
    bench_cpt();
    bench_mesh();
    bench_dram();
    bench_tlb();
    bench_placement();
    bench_llc_banks();
    bench_workload_gen();
    bench_compress();
    bench_wear();
    bench_full_system();
}
