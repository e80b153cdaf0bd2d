//! Every evaluated NUCA scheme as one row of a table of parts: a base
//! placement × the L3 banks' victim selection × whether the L3 data array
//! is compressed. [`Scheme::parts`] is the table; the name, the placement
//! policy ([`SchemeParts::build`]) and the criticality predictors (CPTs iff
//! the placement is Re-NUCA) all read it. A non-default replacement (MAC,
//! Ruan et al., arXiv:1606.03248) or compression (Re-NUCA-C2, Escuin et
//! al., arXiv:2204.09504) rides on the base placement in [`Composed`].

use cmp_sim::cache::ReplacementKind;
use cmp_sim::config::SystemConfig;
use cmp_sim::placement::{CriticalityPredictor, LlcPlacement, NeverCritical};
use compress::CompressSpec;

use crate::criticality::{Cpt, CptConfig};
use crate::mapping::{Coloring, Composed, NaiveOracle, PrivateMap, RNuca, ReNuca, SNuca, Wec};

/// Where a scheme places lines in the banked L3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasePlacement {
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
}

/// One row of the scheme table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeParts {
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Which bank a line lives in.
    pub placement: BasePlacement,
    /// Victim selection of the L3 banks.
    pub replacement: ReplacementKind,
    /// Whether the L3 data array is compressed.
    pub compressed: bool,
}

impl SchemeParts {
    /// The compression spec these parts drive under `cfg`, if compressed.
    pub fn compression(self, cfg: &SystemConfig) -> Option<CompressSpec> {
        self.compressed
            .then(|| CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed))
    }

    /// Build the placement policy under `cfg`, driving `compression`:
    /// [`Scheme::build_policy`] passes [`SchemeParts::compression`], the
    /// differential harness's mutation twin of a compressed scheme passes
    /// the same spec with `expand_on_equal` set.
    pub fn build(
        self,
        cfg: &SystemConfig,
        compression: Option<CompressSpec>,
    ) -> Box<dyn LlcPlacement> {
        let (cols, rows, n) = (cfg.noc.cols, cfg.noc.rows, cfg.n_banks);
        let (lines, c) = (n * cfg.l3_bank.lines(), compression);
        match self.placement {
            BasePlacement::SNuca => self.carry(c, SNuca::new(n)),
            BasePlacement::RNuca => self.carry(c, RNuca::new(cols, rows)),
            BasePlacement::Private => self.carry(c, PrivateMap::new(cfg.n_cores)),
            BasePlacement::Naive => self.carry(
                c,
                NaiveOracle::with_line_capacity(n, cfg.naive_dir_latency, lines),
            ),
            BasePlacement::ReNuca => {
                let tlb = (cfg.tlb_entries, cfg.tlb_assoc);
                self.carry(c, ReNuca::with_tlb_geometry(cols, rows, tlb.0, tlb.1))
            }
            BasePlacement::Wec => self.carry(c, Wec::with_line_capacity(n, lines)),
            BasePlacement::Coloring => self.carry(c, Coloring::with_line_capacity(n, lines)),
        }
    }

    /// Box `inner` as is when it already answers this row's replacement
    /// and `compression`, else in the [`Composed`] carrier.
    fn carry<P: LlcPlacement + 'static>(
        self,
        compression: Option<CompressSpec>,
        inner: P,
    ) -> Box<dyn LlcPlacement> {
        if inner.l3_replacement() == self.replacement && inner.compression() == compression {
            Box::new(inner)
        } else {
            Box::new(Composed {
                inner,
                name: self.name,
                replacement: self.replacement,
                compression,
            })
        }
    }
}

/// The evaluated NUCA schemes: the paper's five (§V), the three
/// wear-management competitors from the related work (the head-to-head
/// study), and the compressed Re-NUCA variant. Each is one row of
/// [`Scheme::parts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// S-NUCA placement.
    SNuca,
    /// R-NUCA placement.
    RNuca,
    /// Private placement.
    Private,
    /// The Naive oracle's placement.
    Naive,
    /// Re-NUCA placement, the paper's contribution.
    ReNuca,
    /// WEC placement.
    Wec,
    /// Coloring placement.
    Coloring,
    /// MAC: S-NUCA placement over write-aware replacement.
    Mac,
    /// Re-NUCA placement over a compressed data array.
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

    /// The scheme table: each scheme's name and parts. Apart from the
    /// named scheme lists, no other code tells the schemes apart.
    pub fn parts(self) -> SchemeParts {
        use BasePlacement as P;
        use ReplacementKind::{Lru, WriteAware};
        let (name, placement, replacement, compressed) = match self {
            Scheme::SNuca => ("S-NUCA", P::SNuca, Lru, false),
            Scheme::RNuca => ("R-NUCA", P::RNuca, Lru, false),
            Scheme::Private => ("Private", P::Private, Lru, false),
            Scheme::Naive => ("Naive", P::Naive, Lru, false),
            Scheme::ReNuca => ("Re-NUCA", P::ReNuca, Lru, false),
            Scheme::Wec => ("WEC", P::Wec, Lru, false),
            Scheme::Coloring => ("Coloring", P::Coloring, Lru, false),
            Scheme::Mac => ("MAC", P::SNuca, WriteAware, false),
            Scheme::ReNucaC2 => ("Re-NUCA-C2", P::ReNuca, Lru, true),
        };
        SchemeParts {
            name,
            placement,
            replacement,
            compressed,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        self.parts().name
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
        let parts = self.parts();
        parts.build(cfg, parts.compression(cfg))
    }

    /// Build the per-core criticality predictors for this scheme: CPTs with
    /// `cpt` configuration when the placement is Re-NUCA, inert predictors
    /// otherwise (their placement ignores criticality).
    pub fn build_predictors(
        self,
        cfg: &SystemConfig,
        cpt: CptConfig,
    ) -> Vec<Box<dyn CriticalityPredictor>> {
        let learns = self.parts().placement == BasePlacement::ReNuca;
        (0..cfg.n_cores)
            .map(|_| -> Box<dyn CriticalityPredictor> {
                if learns {
                    Box::new(Cpt::new(cpt))
                } else {
                    Box::new(NeverCritical)
                }
            })
            .collect()
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
    fn cpts_iff_the_placement_is_renuca() {
        // A CPT learns: after a block+commit cycle the PC becomes critical.
        // Every other placement gets inert predictors that never do.
        let cfg = SystemConfig::small(4);
        for s in Scheme::ALL {
            let mut preds = s.build_predictors(&cfg, CptConfig::default());
            assert_eq!(preds.len(), 4);
            preds[0].predict(9);
            preds[0].on_rob_block(9);
            preds[0].on_load_commit(9, true);
            let learns = s.parts().placement == BasePlacement::ReNuca;
            assert_eq!(preds[0].predict(9), learns, "{s}");
        }
    }
}
