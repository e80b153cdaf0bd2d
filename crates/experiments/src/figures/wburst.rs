//! Write-burst saturation study: scheme head-to-head under L3 bank
//! pressure (DESIGN.md §12, EXPERIMENTS.md "Write-burst saturation").
//!
//! Runs every scheme over the homogeneous WB1–WB4 workloads
//! (`workloads::wburst`), whose escalating fill/writeback pressure makes
//! reads queue behind slow ReRAM writes in the per-bank service model.
//! Reports per-level IPC, per-level total bank queueing and the raw
//! minimum lifetime, plus a per-bank queue-cycle heatmap per scheme.

use cmp_sim::SystemConfig;
use renuca_core::{CptConfig, Scheme};
use sim_stats::Table;
use workloads::{workload_mix, N_WBURST, WBURST_ID_BASE};

use crate::budget::Budget;
use crate::obs::Manifest;
use crate::pool::parallel_map;
use crate::runner::{lifetime_model, run_workload};

/// One (scheme, WB level) run.
pub struct Cell {
    /// Total IPC.
    pub ipc: f64,
    /// Bank queue cycles summed over banks.
    pub queue_total: u64,
    /// Queue cycles per bank.
    pub per_bank_queue: Vec<u64>,
    /// Raw minimum bank lifetime in years.
    pub raw_min_years: f64,
}

/// One row of cells (WB1..WB4) per scheme, in [`Scheme::ALL`] order.
pub type WriteBurst = Vec<(Scheme, Vec<Cell>)>;

/// Run every scheme over WB1–WB4 on `cfg`.
pub fn run(cfg: SystemConfig, budget: Budget) -> WriteBurst {
    let model = lifetime_model(&cfg);
    let levels: Vec<usize> = (1..=N_WBURST).collect();

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

    Scheme::ALL
        .iter()
        .map(|&s| {
            let row: Vec<Cell> = parallel_map(&levels, |&l| run_cell(s, l));
            (s, row)
        })
        .collect()
}

/// Render the IPC, queue-cycle and lifetime tables plus the IPC spread at
/// the saturating level.
pub fn format_wburst(cells: &WriteBurst) -> String {
    let level_names: Vec<String> = (1..=N_WBURST).map(|l| format!("WB{l}")).collect();
    let mut headers: Vec<&str> = vec![""];
    headers.extend(level_names.iter().map(String::as_str));

    let mut ipc_t = Table::new(&headers);
    let mut queue_t = Table::new(&headers);
    let mut life_t = Table::new(&headers);
    for (s, row) in cells {
        let ipcs: Vec<f64> = row.iter().map(|c| c.ipc).collect();
        let queues: Vec<f64> = row.iter().map(|c| c.queue_total as f64).collect();
        let lives: Vec<f64> = row.iter().map(|c| c.raw_min_years).collect();
        ipc_t.row_f64(s.name(), &ipcs, 2);
        queue_t.row_f64(s.name(), &queues, 0);
        life_t.row_f64(s.name(), &lives, 2);
    }
    let mut out = vec![
        format!(
            "Write-burst saturation — total IPC under escalating bank pressure\n{}",
            ipc_t.render()
        ),
        format!(
            "Write-burst saturation — bank queue cycles (sum over banks)\n{}",
            queue_t.render()
        ),
        format!(
            "Write-burst saturation — raw minimum lifetime [years]\n{}",
            life_t.render()
        ),
    ];

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
    out.push(format!(
        "WB{N_WBURST} IPC spread: {} {:.2} vs {} {:.2} ({:+.1}%)",
        best.0,
        best.1,
        worst.0,
        worst.1,
        (best.1 / worst.1 - 1.0) * 100.0
    ));
    out.join("\n")
}

/// Record per-level IPC, queueing and lifetime, the per-bank queue cycles
/// of every scheme (also its heatmap row) and the grand queue total.
pub fn register(m: &mut Manifest, cells: &WriteBurst, n_banks: usize) {
    m.set_wear_unit("queue_cycles");
    let mut grand_total = 0u64;
    for (s, row) in cells {
        let p = format!("scheme.{}", s.name());
        let mut per_bank = vec![0u64; n_banks];
        let mut scheme_total = 0u64;
        for (level, c) in (1..=N_WBURST).zip(row.iter()) {
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
}
