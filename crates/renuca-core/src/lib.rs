//! **Re-NUCA**: criticality-driven hybrid NUCA placement for ReRAM
//! last-level caches — the primary contribution of Kotra et al.,
//! *"Re-NUCA: A Practical NUCA Architecture for ReRAM based last-level
//! caches"*, IPDPS 2016.
//!
//! A ReRAM L3 wears out: every write consumes cell endurance. Dynamic NUCA
//! placement (R-NUCA) concentrates each core's blocks — and writes — into
//! the few banks next to it, so banks owned by write-intensive programs die
//! years early. Static NUCA (S-NUCA) spreads writes evenly but pays mesh
//! latency on every access. Re-NUCA splits the difference *by criticality*:
//!
//! * blocks fetched by loads that **block the head of the ROB** (the
//!   performance-critical ones) are placed with the R-NUCA mapping, one hop
//!   from their core;
//! * everything else is spread over all 16 banks with the S-NUCA mapping,
//!   wear-leveling the cache at (almost) no performance cost.
//!
//! This crate implements the full mechanism and all the baselines it is
//! evaluated against:
//!
//! | module | paper section | what |
//! |---|---|---|
//! | [`mapping::SNuca`] | §II.B | address-interleaved static NUCA |
//! | [`mapping::RNuca`] | §II.B | Reactive-NUCA one-hop clusters with rotational interleaving |
//! | [`mapping::PrivateMap`] | §III | per-core private banks |
//! | [`mapping::NaiveOracle`] | §III.A | perfect wear-leveling oracle + its directory cost |
//! | [`mapping::ReNuca`] | §IV | the hybrid, criticality-gated mapping |
//! | [`criticality::Cpt`] | §IV.B | the Criticality Predictor Table |
//! | [`tlb::EnhancedTlb`] | §IV.C | TLB + per-page Mapping Bit Vector |
//! | [`mapping::Wec`], [`mapping::Coloring`] | related work | wear-management placement competitors |
//! | [`mapping::Composed`] | related work | a placement carrying write-aware replacement (MAC) or compression (Re-NUCA-C2) |
//! | [`scheme`] | §V | every evaluated scheme as placement × replacement × compression |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criticality;
pub mod mapping;
pub mod scheme;
pub mod tlb;

pub use criticality::{Cpt, CptConfig};
pub use mapping::{
    Coloring, Composed, NaiveOracle, PrivateMap, RNuca, ReNuca, ReNucaTwoProbe, SNuca, Wec,
    COLORING_EPOCH, WEC_THRESHOLD,
};
pub use scheme::{BasePlacement, Scheme, SchemeParts};
pub use tlb::EnhancedTlb;
