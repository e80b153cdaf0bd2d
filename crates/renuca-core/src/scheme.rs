//! One-stop factory for the evaluated NUCA schemes.
//!
//! The experiment harness builds a `System` per (scheme × workload × config)
//! cell; this module centralizes the wiring: which placement policy to
//! instantiate and which criticality predictors the cores need (CPTs for
//! Re-NUCA, inert predictors otherwise).

use cmp_sim::config::SystemConfig;
use cmp_sim::placement::{CriticalityPredictor, LlcPlacement, NeverCritical};

use crate::criticality::{Cpt, CptConfig};
use crate::mapping::{Coloring, Mac, NaiveOracle, PrivateMap, RNuca, ReNuca, ReNucaC2, SNuca, Wec};

/// The evaluated NUCA schemes: the paper's five (§V), the three
/// wear-management competitors from the related work (the head-to-head
/// study of ROADMAP item 3), and the compressed Re-NUCA variant
/// (ROADMAP item 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Address-interleaved static NUCA.
    SNuca,
    /// Reactive NUCA one-hop clusters.
    RNuca,
    /// Per-core private banks.
    Private,
    /// Perfect wear-leveling oracle with a global directory.
    Naive,
    /// The paper's contribution: criticality-gated hybrid.
    ReNuca,
    /// Mittal's write-endurance-aware hot-bank redirection
    /// (arXiv:1311.0041).
    Wec,
    /// Mittal's epoch-rotated coloring remap (arXiv:1310.8494).
    Coloring,
    /// Ruan et al.'s write-aware replacement over S-NUCA placement
    /// (arXiv:1606.03248).
    Mac,
    /// Re-NUCA placement over an L2C2-style compressed ReRAM data array
    /// (Escuin et al., arXiv:2204.09504): sub-block wear + expansions.
    ReNucaC2,
}

impl Scheme {
    /// All schemes: the paper's five in their usual presentation order,
    /// then the three related-work competitors, then the compressed
    /// variant.
    pub const ALL: [Scheme; 9] = [
        Scheme::Naive,
        Scheme::SNuca,
        Scheme::ReNuca,
        Scheme::RNuca,
        Scheme::Private,
        Scheme::Wec,
        Scheme::Coloring,
        Scheme::Mac,
        Scheme::ReNucaC2,
    ];

    /// The related-work wear-management competitors (the head-to-head
    /// study's challengers).
    pub const COMPETITORS: [Scheme; 3] = [Scheme::Wec, Scheme::Coloring, Scheme::Mac];

    /// The paper's five schemes in Table III column order — the figure
    /// renderers with paper reference columns use this, not [`Scheme::ALL`].
    pub const PAPER: [Scheme; 5] = [
        Scheme::Naive,
        Scheme::SNuca,
        Scheme::ReNuca,
        Scheme::RNuca,
        Scheme::Private,
    ];

    /// The four baseline schemes of the motivation study (Figure 3).
    pub const BASELINES: [Scheme; 4] =
        [Scheme::SNuca, Scheme::RNuca, Scheme::Private, Scheme::Naive];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::SNuca => "S-NUCA",
            Scheme::RNuca => "R-NUCA",
            Scheme::Private => "Private",
            Scheme::Naive => "Naive",
            Scheme::ReNuca => "Re-NUCA",
            Scheme::Wec => "WEC",
            Scheme::Coloring => "Coloring",
            Scheme::Mac => "MAC",
            Scheme::ReNucaC2 => "Re-NUCA-C2",
        }
    }

    /// Inverse of [`Scheme::name`], ignoring case and hyphens: "Re-NUCA",
    /// "re-nuca" and "renuca" all name [`Scheme::ReNuca`].
    pub fn from_name(name: &str) -> Option<Scheme> {
        let key = |s: &str| -> String {
            s.chars()
                .filter(|&c| c != '-')
                .flat_map(char::to_lowercase)
                .collect()
        };
        let want = key(name);
        Scheme::ALL.into_iter().find(|s| key(s.name()) == want)
    }

    /// Build the placement policy for this scheme under `cfg`.
    pub fn build_policy(self, cfg: &SystemConfig) -> Box<dyn LlcPlacement> {
        match self {
            Scheme::SNuca => Box::new(SNuca::new(cfg.n_banks)),
            Scheme::RNuca => Box::new(RNuca::new(cfg.noc.cols, cfg.noc.rows)),
            Scheme::Private => Box::new(PrivateMap::new(cfg.n_cores)),
            Scheme::Naive => Box::new(NaiveOracle::with_line_capacity(
                cfg.n_banks,
                cfg.naive_dir_latency,
                cfg.n_banks * cfg.l3_bank.lines(),
            )),
            Scheme::ReNuca => Box::new(ReNuca::with_tlb_geometry(
                cfg.noc.cols,
                cfg.noc.rows,
                cfg.tlb_entries,
                cfg.tlb_assoc,
            )),
            Scheme::Wec => Box::new(Wec::with_line_capacity(
                cfg.n_banks,
                cfg.n_banks * cfg.l3_bank.lines(),
            )),
            Scheme::Coloring => Box::new(Coloring::with_line_capacity(
                cfg.n_banks,
                cfg.n_banks * cfg.l3_bank.lines(),
            )),
            Scheme::Mac => Box::new(Mac::new(cfg.n_banks)),
            Scheme::ReNucaC2 => Box::new(ReNucaC2::new(
                ReNuca::with_tlb_geometry(
                    cfg.noc.cols,
                    cfg.noc.rows,
                    cfg.tlb_entries,
                    cfg.tlb_assoc,
                ),
                compress::CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed),
            )),
        }
    }

    /// Build the per-core criticality predictors for this scheme: CPTs with
    /// `cpt` configuration for Re-NUCA, inert predictors for every baseline
    /// (their placement ignores criticality).
    pub fn build_predictors(
        self,
        cfg: &SystemConfig,
        cpt: CptConfig,
    ) -> Vec<Box<dyn CriticalityPredictor>> {
        match self {
            Scheme::ReNuca | Scheme::ReNucaC2 => (0..cfg.n_cores)
                .map(|_| Box::new(Cpt::new(cpt)) as Box<dyn CriticalityPredictor>)
                .collect(),
            _ => (0..cfg.n_cores)
                .map(|_| Box::new(NeverCritical) as Box<dyn CriticalityPredictor>)
                .collect(),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Scheme::SNuca.name(), "S-NUCA");
        assert_eq!(Scheme::ReNuca.name(), "Re-NUCA");
        assert_eq!(format!("{}", Scheme::Naive), "Naive");
    }

    #[test]
    fn from_name_inverts_name_in_any_case() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
            assert_eq!(Scheme::from_name(&s.name().to_lowercase()), Some(s));
            assert_eq!(Scheme::from_name(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(Scheme::from_name("snuca"), Some(Scheme::SNuca));
        assert_eq!(Scheme::from_name("renucac2"), Some(Scheme::ReNucaC2));
        assert_eq!(Scheme::from_name("nuca"), None);
        assert_eq!(Scheme::from_name(""), None);
    }

    #[test]
    fn build_policy_names_roundtrip() {
        let cfg = SystemConfig::small(16);
        for s in Scheme::ALL {
            let mut p = s.build_policy(&cfg);
            assert_eq!(p.name(), s.name());
            // Smoke: every policy answers a lookup.
            let meta = cmp_sim::placement::AccessMeta {
                core: 0,
                line: 1234,
                page: 1234 >> 6,
                pc: 1,
                kind: cmp_sim::placement::LlcAccessKind::Demand,
                predicted_critical: false,
            };
            let b = p.lookup_bank(&meta);
            assert!(b < cfg.n_banks);
        }
    }

    #[test]
    fn only_the_compressed_scheme_drives_compression() {
        let cfg = SystemConfig::small(16);
        for s in Scheme::ALL {
            let p = s.build_policy(&cfg);
            match s {
                Scheme::ReNucaC2 => {
                    let spec = p.compression().expect("C2 must compress");
                    assert_eq!(spec.sub_blocks, cfg.l3_subblocks);
                    assert_eq!(spec.seed, cfg.compress_seed);
                    assert!(!spec.expand_on_equal, "factory never builds the bug");
                }
                _ => assert!(p.compression().is_none(), "{s} must not compress"),
            }
        }
    }

    #[test]
    fn predictors_match_core_count() {
        let cfg = SystemConfig::small(4);
        for s in Scheme::ALL {
            let preds = s.build_predictors(&cfg, CptConfig::default());
            assert_eq!(preds.len(), 4);
        }
    }

    #[test]
    fn only_renuca_gets_learning_predictors() {
        let cfg = SystemConfig::small(4);
        let mut preds = Scheme::ReNuca.build_predictors(&cfg, CptConfig::default());
        // A CPT learns: after a block+commit cycle the PC becomes critical.
        preds[0].predict(9);
        preds[0].on_rob_block(9);
        preds[0].on_load_commit(9, true);
        assert!(preds[0].predict(9));

        let mut base = Scheme::SNuca.build_predictors(&cfg, CptConfig::default());
        base[0].predict(9);
        base[0].on_rob_block(9);
        base[0].on_load_commit(9, true);
        assert!(!base[0].predict(9), "baselines must never predict critical");
    }
}
