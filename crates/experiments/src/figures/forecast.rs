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
//! slowdown is printed as its own column (see [`crate::forecast`]).
//!
//! **`renuca figure forecast` is a gate**: it exits 1 when any workload's
//! error exceeds `compress::FORECAST_TOLERANCE`. The CI forecast smoke
//! runs it at a reduced budget; the committed campaign report pins the
//! full-budget numbers.

use cmp_sim::SystemConfig;
use renuca_core::CptConfig;
use sim_stats::Table;
use workloads::{N_WBURST, N_WORKLOADS, WBURST_ID_BASE};

use crate::budget::Budget;
use crate::forecast::{forecast_study, ForecastStudy};
use crate::obs::Manifest;
use crate::runner::lifetime_model;

/// Run the forecast and the simulation over WL1–WL10 and WB1–WB4 on
/// `cfg`.
pub fn run(cfg: SystemConfig, budget: Budget) -> ForecastStudy {
    let model = lifetime_model(&cfg);
    let mut ids: Vec<usize> = (1..=N_WORKLOADS).collect();
    ids.extend((1..=N_WBURST).map(|l| WBURST_ID_BASE + l));
    forecast_study(&ids, cfg, CptConfig::default(), budget, &model)
}

/// Render the per-workload table and the max-error line.
pub fn format_forecast(study: &ForecastStudy) -> String {
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
    format!(
        "L2C2 lifetime forecast vs simulation — gain {:.2}x ({} sub-blocks)\n{}\n\
         max relative error {:.1}% over {} workloads (tolerance {:.0}%)",
        study.gain,
        study.sub_blocks,
        t.render(),
        study.max_rel_err() * 100.0,
        study.rows.len(),
        study.tolerance * 100.0
    )
}

/// Record the gain, the tolerance, the errors and one simulated per-bank
/// lifetime row per workload.
pub fn register(m: &mut Manifest, study: &ForecastStudy) {
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
}

/// The gate: an error naming the tolerance when any workload is outside
/// it.
pub fn check(study: &ForecastStudy) -> Result<(), String> {
    if study.all_within_tolerance() {
        return Ok(());
    }
    Err(format!(
        "forecast outside the {:.0}% tolerance — the closed form no longer \
         describes the simulated compressed cache",
        study.tolerance * 100.0
    ))
}
