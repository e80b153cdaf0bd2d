//! Head-to-head wear-management study: Re-NUCA and its compressed
//! Re-NUCA-C2 variant vs the related-work competitors — WEC hot-bank
//! redirection, epoch-rotated Coloring and MAC's write-aware replacement —
//! with S-NUCA as the neutral reference (DESIGN.md §14–§15, EXPERIMENTS.md
//! "Head-to-head").
//!
//! Two grids on the 16-core default machine:
//!
//! * the WL1–WL10 mix set, reported as mean IPC, harmonic-mean and
//!   raw-minimum lifetime, per-bank lifetime CV (the paper's "variation")
//!   and the inter-set / intra-set write-variation CVs that the
//!   competitors specifically target;
//! * the WB1–WB4 write-burst family, reported as IPC and raw-minimum
//!   lifetime per pressure level.
//!
//! The durable/resumable equivalent of `renuca figure headtohead` is
//! `campaigns/headtohead.campaign`.

use cmp_sim::SystemConfig;
use renuca_core::{CptConfig, Scheme};
use sim_stats::Table;
use workloads::{workload_mix, N_WBURST, N_WORKLOADS, WBURST_ID_BASE};

use crate::budget::Budget;
use crate::obs::Manifest;
use crate::pool::parallel_map;
use crate::runner::{aggregate_study, lifetime_model, run_workload, SchemeStudy};

/// One contender's aggregates over both grids.
pub struct Contender {
    /// The WL1–WL10 study.
    pub study: SchemeStudy,
    /// Mean over WL1–WL10 of the inter-set write-variation CV.
    pub interset_cv: f64,
    /// Mean over WL1–WL10 of the intra-set write-variation CV.
    pub intraset_cv: f64,
    /// IPC per WB level (index 0 = WB1).
    pub wb_ipc: Vec<f64>,
    /// Raw minimum lifetime per WB level.
    pub wb_raw_min: Vec<f64>,
}

/// Every contender, Re-NUCA first (the verdict lines compare against it).
pub type HeadToHead = Vec<(Scheme, Contender)>;

/// Run both grids for Re-NUCA, Re-NUCA-C2, S-NUCA and the competitors on
/// `cfg`.
pub fn run(cfg: SystemConfig, budget: Budget) -> HeadToHead {
    let model = lifetime_model(&cfg);
    let cpt = CptConfig::default();
    let assoc = cfg.l3_bank.assoc;

    let mut contenders = vec![Scheme::ReNuca, Scheme::ReNucaC2, Scheme::SNuca];
    contenders.extend(Scheme::COMPETITORS);

    contenders
        .iter()
        .map(|&s| {
            let wl_ids: Vec<usize> = (1..=N_WORKLOADS).collect();
            let results = parallel_map(&wl_ids, |&id| {
                run_workload(&workload_mix(id, cfg.n_cores), s, cfg, cpt, budget)
            });
            let interset: Vec<f64> = results.iter().map(|r| r.wear.interset_cv(assoc)).collect();
            let intraset: Vec<f64> = results.iter().map(|r| r.wear.intraset_cv(assoc)).collect();
            let study = aggregate_study(s, &results, &model);

            let wb_ids: Vec<usize> = (1..=N_WBURST).map(|l| WBURST_ID_BASE + l).collect();
            let wb = parallel_map(&wb_ids, |&id| {
                run_workload(&workload_mix(id, cfg.n_cores), s, cfg, cpt, budget)
            });
            let wb_raw_min: Vec<f64> = wb
                .iter()
                .map(|r| {
                    model
                        .all_bank_lifetimes(&r.wear, r.cycles)
                        .iter()
                        .cloned()
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let row = Contender {
                study,
                interset_cv: sim_stats::amean(&interset),
                intraset_cv: sim_stats::amean(&intraset),
                wb_ipc: wb.iter().map(|r| r.total_ipc()).collect(),
                wb_raw_min,
            };
            (s, row)
        })
        .collect()
}

/// Render the WL table, the two WB tables and one verdict line per
/// contender against Re-NUCA.
pub fn format_headtohead(rows: &HeadToHead) -> String {
    let mut t = Table::new(&[
        "Scheme",
        "IPC (mean WLs)",
        "hmean life [y]",
        "raw-min [y]",
        "bank CV",
        "inter-set CV",
        "intra-set CV",
    ]);
    for (s, row) in rows {
        t.row(&[
            s.name().to_owned(),
            format!("{:.3}", row.study.mean_ipc()),
            format!("{:.2}", row.study.hmean_lifetime()),
            format!("{:.2}", row.study.raw_min),
            format!("{:.3}", row.study.variation),
            format!("{:.3}", row.interset_cv),
            format!("{:.3}", row.intraset_cv),
        ]);
    }
    let mut out = vec![format!(
        "Head-to-head — Re-NUCA vs wear-management competitors (WL1-WL10)\n{}",
        t.render()
    )];

    let level_names: Vec<String> = (1..=N_WBURST).map(|l| format!("WB{l}")).collect();
    let mut headers: Vec<&str> = vec![""];
    headers.extend(level_names.iter().map(String::as_str));
    let mut ipc_t = Table::new(&headers);
    let mut life_t = Table::new(&headers);
    for (s, row) in rows {
        ipc_t.row_f64(s.name(), &row.wb_ipc, 2);
        life_t.row_f64(s.name(), &row.wb_raw_min, 2);
    }
    out.push(format!(
        "Head-to-head — total IPC under the WB write-burst family\n{}",
        ipc_t.render()
    ));
    out.push(format!(
        "Head-to-head — raw minimum lifetime [years] under the WB family\n{}",
        life_t.render()
    ));

    // The verdict line the study exists for: does any competitor beat
    // Re-NUCA's lifetime without giving up its IPC?
    let re = &rows[0].1;
    for (s, row) in rows.iter().skip(1) {
        out.push(format!(
            "vs {}: lifetime {:+.1}% (hmean), IPC {:+.1}%",
            s.name(),
            (re.study.hmean_lifetime() / row.study.hmean_lifetime() - 1.0) * 100.0,
            (re.study.mean_ipc() / row.study.mean_ipc() - 1.0) * 100.0
        ));
    }
    out.join("\n")
}

/// Record every contender's aggregates and its per-bank hmean lifetimes.
pub fn register(m: &mut Manifest, rows: &HeadToHead) {
    m.set_wear_unit("years");
    for (s, row) in rows {
        let p = format!("scheme.{}", s.name());
        let reg = m.stats_mut();
        reg.set(format!("{p}.mean_ipc"), row.study.mean_ipc());
        reg.set(
            format!("{p}.hmean_lifetime_years"),
            row.study.hmean_lifetime(),
        );
        reg.set(format!("{p}.raw_min_years"), row.study.raw_min);
        reg.set(format!("{p}.variation"), row.study.variation);
        reg.set(format!("{p}.interset_cv"), row.interset_cv);
        reg.set(format!("{p}.intraset_cv"), row.intraset_cv);
        for (i, (ipc, life)) in row.wb_ipc.iter().zip(row.wb_raw_min.iter()).enumerate() {
            reg.set(format!("{p}.wb[{}].ipc", i + 1), *ipc);
            reg.set(format!("{p}.wb[{}].raw_min_years", i + 1), *life);
        }
        m.push_wear_row(s.name(), &row.study.hmean_per_bank);
    }
}
