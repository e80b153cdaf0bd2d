//! L2C2 analytical lifetime forecast vs full simulation (DESIGN.md §15,
//! EXPERIMENTS.md "Compression & forecast").
//!
//! For every WL1–WL10 mix and every WB1–WB4 write-burst level on the
//! 16-core default machine, runs the uncompressed Re-NUCA baseline (the
//! forecast's only input), applies the closed form
//! `lifetime × S / E[c]`, runs the fully simulated Re-NUCA-C2 compressed
//! cache, and reports the relative error on the lifetime aggregates
//! (raw minimum and harmonic mean over banks). The comparison is
//! iso-timing — compressed wear is evaluated over the baseline's cycle
//! window, the closed form's own assumption — and the expansion-induced
//! slowdown is printed as its own column (see `experiments::forecast`).
//!
//! **This binary is a gate**: it exits non-zero when any workload's error
//! exceeds `compress::FORECAST_TOLERANCE`. The CI forecast smoke runs it
//! at a reduced budget; the committed campaign report pins the full-budget
//! numbers.

use cmp_sim::SystemConfig;
use experiments::forecast::forecast_study;
use experiments::obs;
use experiments::runner::lifetime_model;
use renuca_core::CptConfig;
use sim_stats::Table;
use workloads::{N_WBURST, N_WORKLOADS, WBURST_ID_BASE};

fn main() {
    let (sink, budget) = obs::standard_args();
    let cfg = SystemConfig::default();
    let model = lifetime_model(&cfg);

    let mut ids: Vec<usize> = (1..=N_WORKLOADS).collect();
    ids.extend((1..=N_WBURST).map(|l| WBURST_ID_BASE + l));
    let study = forecast_study(&ids, cfg, CptConfig::default(), budget, &model);

    let mut t = Table::new(&[
        "Workload",
        "Re-NUCA raw-min [y]",
        "C2 sim raw-min [y]",
        "forecast [y]",
        "rel err (min/hmean)",
        "C2 slowdown",
    ]);
    for r in &study.rows {
        t.row(&[
            r.label.clone(),
            format!("{:.2}", r.base_min_years),
            format!("{:.2}", r.sim_min_years),
            format!("{:.2}", r.forecast_min_years),
            format!("{:.1}%", r.rel_err * 100.0),
            format!("{:.2}x", r.slowdown),
        ]);
    }
    println!(
        "L2C2 lifetime forecast vs simulation — gain {:.2}x ({} sub-blocks)\n{}",
        study.gain,
        study.sub_blocks,
        t.render()
    );
    println!(
        "max relative error {:.1}% over {} workloads (tolerance {:.0}%)",
        study.max_rel_err() * 100.0,
        study.rows.len(),
        study.tolerance * 100.0
    );

    sink.emit_with(
        "forecast",
        "Forecast vs simulation",
        Some(&cfg),
        budget,
        |m| {
            m.set_wear_unit("years");
            let reg = m.stats_mut();
            reg.set("forecast.sub_blocks", study.sub_blocks as u64);
            reg.set("forecast.gain", study.gain);
            reg.set("forecast.tolerance", study.tolerance);
            reg.set("forecast.max_rel_err", study.max_rel_err());
            for r in &study.rows {
                let p = format!("forecast.{}", r.label);
                reg.set(format!("{p}.base_min_years"), r.base_min_years);
                reg.set(format!("{p}.sim_min_years"), r.sim_min_years);
                reg.set(format!("{p}.forecast_min_years"), r.forecast_min_years);
                reg.set(format!("{p}.rel_err"), r.rel_err);
                reg.set(format!("{p}.slowdown"), r.slowdown);
            }
            for r in &study.rows {
                m.push_wear_row(&r.label, &r.sim_per_bank);
            }
        },
    );

    if !study.all_within_tolerance() {
        eprintln!(
            "error: forecast outside the {:.0}% tolerance — the closed form no longer \
             describes the simulated compressed cache",
            study.tolerance * 100.0
        );
        std::process::exit(1);
    }
}
