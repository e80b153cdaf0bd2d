//! Write-burst saturation study: scheme head-to-head under L3 bank
//! pressure (DESIGN.md §12, EXPERIMENTS.md "Write-burst saturation").
//!
//! Runs every scheme over the homogeneous WB1–WB4 workloads
//! (`workloads::wburst`), whose escalating fill/writeback pressure makes
//! reads queue behind slow ReRAM writes in the per-bank service model.
//! Reports per-level IPC, per-level total bank queueing and the raw
//! minimum lifetime, plus a per-bank queue-cycle heatmap per scheme.
//!
//! `--trickle` instead runs the single-core trickle probe (isolated
//! read-only misses spaced far wider than the write latency): even under
//! the asymmetric default every bank must report **zero** queue cycles —
//! the CI smoke asserts both directions.

use cmp_sim::SystemConfig;
use experiments::obs;
use experiments::runner::{lifetime_model, run_workload};
use renuca_core::{CptConfig, Scheme};
use sim_stats::Table;
use workloads::{workload_mix, N_WBURST, TRICKLE_ID, WBURST_ID_BASE};

fn main() {
    let (sink, budget) = obs::standard_args();
    if std::env::args().any(|a| a == "--trickle") {
        run_trickle(&sink, budget);
        return;
    }

    let cfg = SystemConfig::default();
    let model = lifetime_model(&cfg);
    let levels: Vec<usize> = (1..=N_WBURST).collect();

    struct Cell {
        ipc: f64,
        queue_total: u64,
        per_bank_queue: Vec<u64>,
        raw_min_years: f64,
    }
    let run_cell = |scheme: Scheme, level: usize| -> Cell {
        let wl = workload_mix(WBURST_ID_BASE + level, cfg.n_cores);
        let r = run_workload(&wl, scheme, cfg, CptConfig::default(), budget);
        let per_bank_queue: Vec<u64> = r
            .bank_service
            .iter()
            .map(|b| b.queue_cycles.get())
            .collect();
        let lifetimes = model.all_bank_lifetimes(&r.wear, r.cycles);
        Cell {
            ipc: r.total_ipc(),
            queue_total: per_bank_queue.iter().sum(),
            per_bank_queue,
            raw_min_years: lifetimes.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    };

    let cells: Vec<(Scheme, Vec<Cell>)> = Scheme::ALL
        .iter()
        .map(|&s| {
            let row: Vec<Cell> = experiments::pool::parallel_map(&levels, |&l| run_cell(s, l));
            (s, row)
        })
        .collect();

    let level_names: Vec<String> = levels.iter().map(|l| format!("WB{l}")).collect();
    let mut headers: Vec<&str> = vec![""];
    headers.extend(level_names.iter().map(String::as_str));

    let mut ipc_t = Table::new(&headers);
    let mut queue_t = Table::new(&headers);
    let mut life_t = Table::new(&headers);
    for (s, row) in &cells {
        let ipcs: Vec<f64> = row.iter().map(|c| c.ipc).collect();
        let queues: Vec<f64> = row.iter().map(|c| c.queue_total as f64).collect();
        let lives: Vec<f64> = row.iter().map(|c| c.raw_min_years).collect();
        ipc_t.row_f64(s.name(), &ipcs, 2);
        queue_t.row_f64(s.name(), &queues, 0);
        life_t.row_f64(s.name(), &lives, 2);
    }
    println!(
        "Write-burst saturation — total IPC under escalating bank pressure\n{}",
        ipc_t.render()
    );
    println!(
        "Write-burst saturation — bank queue cycles (sum over banks)\n{}",
        queue_t.render()
    );
    println!(
        "Write-burst saturation — raw minimum lifetime [years]\n{}",
        life_t.render()
    );

    // The head-to-head spread at the saturating level: how much scheme
    // choice is worth once banks are the bottleneck.
    let last = N_WBURST - 1;
    let (best, worst) = cells.iter().fold(
        (("", f64::MIN), ("", f64::MAX)),
        |(mut hi, mut lo), (s, row)| {
            let ipc = row[last].ipc;
            if ipc > hi.1 {
                hi = (s.name(), ipc);
            }
            if ipc < lo.1 {
                lo = (s.name(), ipc);
            }
            (hi, lo)
        },
    );
    println!(
        "WB{N_WBURST} IPC spread: {} {:.2} vs {} {:.2} ({:+.1}%)",
        best.0,
        best.1,
        worst.0,
        worst.1,
        (best.1 / worst.1 - 1.0) * 100.0
    );

    sink.emit_with(
        "wburst",
        "Write-burst saturation",
        Some(&cfg),
        budget,
        |m| {
            m.set_wear_unit("queue_cycles");
            let mut grand_total = 0u64;
            for (s, row) in &cells {
                let p = format!("scheme.{}", s.name());
                let mut per_bank = vec![0u64; cfg.n_banks];
                let mut scheme_total = 0u64;
                for (level, c) in levels.iter().zip(row.iter()) {
                    let reg = m.stats_mut();
                    reg.set(format!("{p}.wb[{level}].ipc"), c.ipc);
                    reg.set(format!("{p}.wb[{level}].queue_cycles_total"), c.queue_total);
                    reg.set(format!("{p}.wb[{level}].raw_min_years"), c.raw_min_years);
                    for (b, q) in c.per_bank_queue.iter().enumerate() {
                        per_bank[b] += q;
                    }
                    scheme_total += c.queue_total;
                }
                let reg = m.stats_mut();
                for (b, q) in per_bank.iter().enumerate() {
                    reg.set(format!("{p}.llc.bank[{b}].queue_cycles"), *q);
                }
                reg.set(format!("{p}.llc.queue_cycles_total"), scheme_total);
                grand_total += scheme_total;
                let row_f64: Vec<f64> = per_bank.iter().map(|&q| q as f64).collect();
                m.push_wear_row(s.name(), &row_f64);
            }
            m.stats_mut().set("llc.queue_cycles_total", grand_total);
        },
    );
}

/// The zero-contention control: one core, isolated read-only misses.
fn run_trickle(sink: &obs::StatsSink, budget: experiments::Budget) {
    let cfg = SystemConfig::small(1);
    let wl = workload_mix(TRICKLE_ID, cfg.n_cores);
    let r = run_workload(&wl, Scheme::SNuca, cfg, CptConfig::default(), budget);
    let per_bank: Vec<u64> = r
        .bank_service
        .iter()
        .map(|b| b.queue_cycles.get())
        .collect();
    let total: u64 = per_bank.iter().sum();
    println!(
        "trickle probe (1 core, S-NUCA): ipc={:.3} fills={} llc.queue_cycles_total={}",
        r.total_ipc(),
        r.hierarchy.l3_fills.get(),
        total
    );
    sink.emit_with("wburst", "trickle", Some(&cfg), budget, |m| {
        let reg = m.stats_mut();
        reg.set("ipc", r.total_ipc());
        reg.set("l3_fills", r.hierarchy.l3_fills.get());
        for (b, q) in per_bank.iter().enumerate() {
            reg.set(format!("llc.bank[{b}].queue_cycles"), *q);
        }
        reg.set("llc.queue_cycles_total", total);
    });
}
