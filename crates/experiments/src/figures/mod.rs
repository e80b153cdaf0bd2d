//! One module per paper table/figure. See the crate docs for the index.
//!
//! [`FIGURES`] is the name → study table behind `renuca figure <name>`:
//! every paper artifact and extension study the harness regenerates, with
//! the study that feeds it. Names rendered from one study share one
//! [`Figure`] variant, so the study runs once per invocation however it is
//! rendered.

pub mod ablations;
pub mod capacity;
pub mod criticality;
pub mod forecast;
pub mod headtohead;
pub mod lifetime;
pub mod predictor_study;
pub mod sensitivity;
pub mod table2;
pub mod table3;
pub mod wburst;

use std::time::Instant;

use cmp_sim::config::SystemConfig;
use renuca_core::CptConfig;

use crate::budget::Budget;
use crate::obs::{self, StatsSink};
use lifetime::MainStudy;
use predictor_study::PredictorStudy;
use sensitivity::Sensitivity::{self, L2Small, L3Small, RobLarge};
use sensitivity::{format_ipc, format_wear};
use table2::Table2Row;

/// How one [`FIGURES`] entry is regenerated: the study it runs and, where
/// several entries share that study, the renderer that prints this one.
#[derive(Clone, Copy)]
pub enum Figure {
    /// The single-core application characterization (Table II, Figure 2).
    Apps(fn(&[Table2Row]) -> String),
    /// ROB-stall criticality per application (Figure 5).
    Criticality,
    /// The predictor threshold sweep (Figures 7–9).
    Predictor(fn(&PredictorStudy) -> String),
    /// The all-scheme study on the default machine (Figures 3, 4b, 11, 12
    /// and the capacity-retention curves).
    Main(fn(&MainStudy) -> String),
    /// One sensitivity study at the sweep budget (Figures 13–18).
    Sensitivity(Sensitivity, fn(Sensitivity, &MainStudy) -> String),
    /// The main study plus the three sensitivity studies (Table III).
    Table3,
    /// The six ablations of DESIGN.md §7, at the sweep budget.
    Ablations,
    /// Every table and figure in one run, sharing studies; also writes the
    /// raw study data to `results.json` in the working directory.
    All,
    /// Re-NUCA vs the wear-management competitors (DESIGN.md §14).
    HeadToHead,
    /// Every scheme under the WB1–WB4 write bursts (DESIGN.md §12).
    WriteBurst,
    /// The L2C2 lifetime forecast vs simulation, gated on
    /// `compress::FORECAST_TOLERANCE` (DESIGN.md §15).
    Forecast,
}

/// Every artifact `renuca figure <name>` regenerates, in usage order. The
/// name is also the manifest's `binary` key.
pub const FIGURES: [(&str, Figure); 23] = [
    ("fig2", Figure::Apps(table2::format_fig2)),
    ("fig3", Figure::Main(lifetime::format_fig3)),
    ("fig4b", Figure::Main(lifetime::format_fig4b)),
    ("fig5", Figure::Criticality),
    ("fig7", Figure::Predictor(predictor_study::format_fig7)),
    ("fig8", Figure::Predictor(predictor_study::format_fig8)),
    ("fig9", Figure::Predictor(predictor_study::format_fig9)),
    ("fig11", Figure::Main(fig11_with_headline)),
    ("fig12", Figure::Main(fig12_with_headline)),
    ("fig13", Figure::Sensitivity(L2Small, format_wear)),
    ("fig14", Figure::Sensitivity(L2Small, format_ipc)),
    ("fig15", Figure::Sensitivity(L3Small, format_wear)),
    ("fig16", Figure::Sensitivity(L3Small, format_ipc)),
    ("fig17", Figure::Sensitivity(RobLarge, format_wear)),
    ("fig18", Figure::Sensitivity(RobLarge, format_ipc)),
    ("table2", Figure::Apps(table2::format_table2)),
    ("table3", Figure::Table3),
    ("capacity", Figure::Main(capacity_retention)),
    ("ablations", Figure::Ablations),
    ("all", Figure::All),
    ("headtohead", Figure::HeadToHead),
    ("wburst", Figure::WriteBurst),
    ("forecast", Figure::Forecast),
];

/// The [`FIGURES`] entry named `name`.
pub fn find(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

fn fig11_with_headline(study: &MainStudy) -> String {
    format!(
        "{}\n{}",
        lifetime::format_fig11(study),
        lifetime::headline(study)
    )
}

fn fig12_with_headline(study: &MainStudy) -> String {
    format!(
        "{}\n{}",
        lifetime::format_fig12(study),
        lifetime::headline(study)
    )
}

fn capacity_retention(study: &MainStudy) -> String {
    capacity::format_retention(study, 16.0, 9)
}

impl Figure {
    /// Run the study at `budget`, print the figure text to stdout and write
    /// the run manifest (`"binary": name`) through `sink`. Only the
    /// forecast gate fails, after its text and manifest are out.
    pub fn regenerate(self, name: &str, sink: &StatsSink, budget: Budget) -> Result<(), String> {
        let cfg = SystemConfig::default();
        match self {
            Figure::Apps(render) => {
                let rows = table2::run(budget);
                println!("{}", render(&rows));
                sink.emit_with(name, "app characteristics", None, budget, |m| {
                    obs::register_table2(m.stats_mut(), &rows)
                });
            }
            Figure::Criticality => {
                let rows = criticality::run(budget);
                let average = criticality::average(&rows);
                println!("{}", criticality::format_fig5(&rows));
                println!("Average: {average:.1}% (paper: >80%)");
                sink.emit_with(name, "ROB-stall criticality", None, budget, |m| {
                    obs::register_fig5(m.stats_mut(), &rows, average)
                });
            }
            Figure::Predictor(render) => {
                let study = predictor_study::run(budget, &CptConfig::THRESHOLD_SWEEP);
                println!("{}", render(&study));
                sink.emit_with(name, "predictor threshold sweep", None, budget, |m| {
                    obs::register_predictor(m.stats_mut(), &study)
                });
            }
            Figure::Main(render) => {
                let study = lifetime::run("Actual Results", cfg, budget);
                println!("{}", render(&study));
                obs::emit_study_manifest(sink, name, Some(&cfg), budget, &study);
            }
            Figure::Sensitivity(which, render) => {
                let study = sensitivity::run(which, budget);
                println!("{}", render(which, &study));
                obs::emit_study_manifest(sink, name, Some(&which.config()), budget, &study);
            }
            Figure::Table3 => {
                let t3 = table3::run(budget);
                println!("{}", table3::format_table3(&t3));
                sink.emit_with(name, "raw minimum lifetimes", None, budget, |m| {
                    obs::register_multi_study(m, &t3.studies)
                });
            }
            Figure::Ablations => {
                let budget = budget.sweep();
                let text = ablations::run_all(budget);
                println!("{text}");
                sink.emit_with(name, "DESIGN.md §7 ablations", None, budget, |m| {
                    m.stats_mut().set("output.bytes", text.len() as u64);
                });
            }
            Figure::All => regenerate_all(name, sink, budget),
            Figure::HeadToHead => {
                let rows = headtohead::run(cfg, budget);
                println!("{}", headtohead::format_headtohead(&rows));
                sink.emit_with(name, "Head-to-head", Some(&cfg), budget, |m| {
                    headtohead::register(m, &rows)
                });
            }
            Figure::WriteBurst => {
                let cells = wburst::run(cfg, budget);
                println!("{}", wburst::format_wburst(&cells));
                sink.emit_with(name, "Write-burst saturation", Some(&cfg), budget, |m| {
                    wburst::register(m, &cells, cfg.n_banks)
                });
            }
            Figure::Forecast => {
                let study = forecast::run(cfg, budget);
                println!("{}", forecast::format_forecast(&study));
                sink.emit_with(name, "Forecast vs simulation", Some(&cfg), budget, |m| {
                    forecast::register(m, &study)
                });
                return forecast::check(&study);
            }
        }
        Ok(())
    }
}

/// The `all` run: the main study feeds Figures 3, 4b, 11, 12 and Table
/// III's first row; each sensitivity study feeds two figures and one
/// Table III row.
fn regenerate_all(name: &str, sink: &StatsSink, budget: Budget) {
    let t0 = Instant::now();

    let rows = table2::run(budget);
    println!("{}", table2::format_table2(&rows));
    println!("{}", table2::format_fig2(&rows));

    let f5 = criticality::run(budget);
    println!("{}", criticality::format_fig5(&f5));

    let ps = predictor_study::run(budget, &CptConfig::THRESHOLD_SWEEP);
    println!("{}", predictor_study::format_fig7(&ps));
    println!("{}", predictor_study::format_fig8(&ps));
    println!("{}", predictor_study::format_fig9(&ps));

    let main_study = lifetime::run("Actual Results", SystemConfig::default(), budget);
    println!("{}", lifetime::format_fig3(&main_study));
    println!("{}", lifetime::format_fig4b(&main_study));
    println!("{}", lifetime::format_fig11(&main_study));
    println!("{}", lifetime::format_fig12(&main_study));
    println!("{}", lifetime::headline(&main_study));

    let mut studies = vec![main_study];
    for s in [L2Small, L3Small, RobLarge] {
        let st = sensitivity::run(s, budget);
        println!("{}", format_wear(s, &st));
        println!("{}", format_ipc(s, &st));
        studies.push(st);
    }
    let t3 = table3::Table3 { studies };
    println!("{}", table3::format_table3(&t3));

    // Persist the raw study data for external plotting/analysis.
    let groups: Vec<String> = t3
        .studies
        .iter()
        .map(|st| {
            let docs: Vec<String> = st.studies.iter().map(|s| s.to_json()).collect();
            format!("  \"{}\": [{}]", st.label, docs.join(", "))
        })
        .collect();
    let json = format!("{{\n{}\n}}\n", groups.join(",\n"));
    if let Err(e) = std::fs::write("results.json", &json) {
        eprintln!("could not write results.json: {e}");
    } else {
        eprintln!("raw study data written to results.json");
    }

    sink.emit_with(name, "full paper run", None, budget, |m| {
        obs::register_table2(m.stats_mut(), &rows);
        obs::register_fig5(m.stats_mut(), &f5, criticality::average(&f5));
        obs::register_predictor(m.stats_mut(), &ps);
        obs::register_multi_study(m, &t3.studies);
    });
    eprintln!("total wall time: {:?}", t0.elapsed());
}
