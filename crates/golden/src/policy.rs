//! Naive re-implementations of the evaluated placement policies.
//!
//! Mirrors the observable behaviour of `renuca_core::mapping` with plain
//! state: the Naive oracle's directory is a `BTreeMap`, Re-NUCA's Mapping
//! Bit Vectors are a total `BTreeMap<(core, page), u64>` (the enhanced TLB
//! plus its backing store behave as a total map — entries evicted from the
//! TLB persist in the page table, and absent pages read as 0), and the
//! R-NUCA cluster is recomputed from the mesh geometry on every call. The
//! wear-management competitors follow the same discipline: WEC's and
//! Coloring's residency directories are `BTreeMap`s, WEC's coldest-bank
//! choice is a full scan per fill (no cached argmin), and Coloring's
//! rotation is re-derived from the write total on every call.

use std::collections::BTreeMap;

use cmp_sim::types::{line_index_in_page, owner_of_line, page_of_line};

/// WEC's hot-bank redirection threshold. Golden re-derives every behaviour
/// from documented semantics, constants included — this must stay equal to
/// `renuca_core::WEC_THRESHOLD` (the differential harness cross-checks).
pub const GOLDEN_WEC_THRESHOLD: u64 = 8;

/// Coloring's writes-per-epoch; twin of `renuca_core::COLORING_EPOCH`.
pub const GOLDEN_COLORING_EPOCH: u64 = 64;

/// The base placements of `renuca_core::BasePlacement`. Replacement and
/// compression are not placement: [`crate::GoldenSystem::new`] takes them
/// as flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoldenScheme {
    /// Static NUCA: bank = low line bits.
    SNuca,
    /// Reactive NUCA: rotational interleaving within a 2×2 cluster.
    RNuca,
    /// Private: each core's lines in its own bank.
    Private,
    /// The least-written-bank oracle with a global directory.
    Naive,
    /// The paper's hybrid: criticality-gated R-NUCA/S-NUCA with MBVs.
    ReNuca,
    /// WEC: hot S-NUCA homes redirect fills to the coldest bank.
    Wec,
    /// Coloring: the bank map rotates one bank per write epoch.
    Coloring,
}

/// The owning core of a line, clamped into the machine: mask for pow2 core
/// counts, modulo otherwise (mirrors `renuca_core::mapping::owner`).
fn owner(line: u64, n_cores: usize) -> usize {
    let raw = owner_of_line(line);
    if n_cores.is_power_of_two() {
        raw & (n_cores - 1)
    } else {
        raw % n_cores
    }
}

/// Re-NUCA placement counters (compared against `ReNucaStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenReNucaStats {
    /// Fills placed with the R-NUCA mapping.
    pub critical_fills: u64,
    /// Fills placed with the S-NUCA mapping.
    pub noncritical_fills: u64,
    /// Lookups routed by an MBV bit of 1.
    pub lookups_rnuca: u64,
    /// Lookups routed by an MBV bit of 0.
    pub lookups_snuca: u64,
}

/// One naive placement policy instance.
#[derive(Clone, Debug)]
pub struct GoldenPolicy {
    scheme: GoldenScheme,
    cols: usize,
    rows: usize,
    n_banks: usize,
    /// Per-bank L3 write counters, kept under every scheme: the Naive
    /// oracle's and WEC's leveling state, and (summed) Coloring's epoch
    /// clock.
    pub writes: Vec<u64>,
    /// Line → bank directory: every resident line under Naive and
    /// Coloring, only the *redirected* lines under WEC.
    pub directory: BTreeMap<u64, usize>,
    /// Re-NUCA: (core, page) → 64-bit Mapping Bit Vector. Zero vectors are
    /// pruned so the map only holds pages with at least one R-NUCA line.
    pub mbv: BTreeMap<(usize, u64), u64>,
    /// Re-NUCA placement counters.
    pub renuca_stats: GoldenReNucaStats,
}

impl GoldenPolicy {
    /// Build the naive model of `scheme` on a `cols × rows` mesh (one core
    /// and one bank per tile, as everywhere in this codebase).
    pub fn new(scheme: GoldenScheme, cols: usize, rows: usize) -> Self {
        let n_banks = cols * rows;
        assert!(n_banks > 0);
        GoldenPolicy {
            scheme,
            cols,
            rows,
            n_banks,
            writes: vec![0; n_banks],
            directory: BTreeMap::new(),
            mbv: BTreeMap::new(),
            renuca_stats: GoldenReNucaStats::default(),
        }
    }

    /// The scheme this policy models.
    pub fn scheme(&self) -> GoldenScheme {
        self.scheme
    }

    /// S-NUCA striping: mask for pow2 bank counts, modulo otherwise.
    pub fn snuca_bank(&self, line: u64) -> usize {
        if self.n_banks.is_power_of_two() {
            (line & (self.n_banks as u64 - 1)) as usize
        } else {
            (line % self.n_banks as u64) as usize
        }
    }

    /// R-NUCA rotational interleaving: the cluster is the 2×2 window
    /// containing the core, clamped at mesh edges; the bank is
    /// `cluster[(line + rid + 1) mod |cluster|]` with the rotational id
    /// being the core's position within its window. Recomputed naively on
    /// every call.
    pub fn rnuca_bank(&self, core: usize, line: u64) -> usize {
        let (cols, rows) = (self.cols, self.rows);
        let x = core % cols;
        let y = core / cols;
        let wx = x.min(cols.saturating_sub(2));
        let wy = y.min(rows.saturating_sub(2));
        let xs: Vec<usize> = if cols >= 2 { vec![wx, wx + 1] } else { vec![0] };
        let ys: Vec<usize> = if rows >= 2 { vec![wy, wy + 1] } else { vec![0] };
        let mut cluster = Vec::new();
        for &cy in &ys {
            for &cx in &xs {
                cluster.push(cy * cols + cx);
            }
        }
        let rid = ((x - wx) + 2 * (y - wy)) as u64;
        let n = cluster.len() as u64; // 1, 2 or 4 — always a power of two
        cluster[((line + rid + 1) & (n - 1)) as usize]
    }

    fn mbv_bit(&self, core: usize, page: u64, bit: u32) -> bool {
        self.mbv.get(&(core, page)).copied().unwrap_or(0) & (1u64 << bit) != 0
    }

    fn set_mbv_bit(&mut self, core: usize, page: u64, bit: u32, value: bool) {
        let entry = self.mbv.entry((core, page)).or_insert(0);
        if value {
            *entry |= 1u64 << bit;
        } else {
            *entry &= !(1u64 << bit);
        }
        if *entry == 0 {
            self.mbv.remove(&(core, page));
        }
    }

    /// The final MBV word of a (core, page), 0 when absent — comparable to
    /// `EnhancedTlb::mbv`.
    pub fn mbv_word(&self, core: usize, page: u64) -> u64 {
        self.mbv.get(&(core, page)).copied().unwrap_or(0)
    }

    /// First lowest-write bank, scanning in order (naive full scan; the
    /// real WEC/Naive policies cache this argmin).
    fn coldest_bank(writes: &[u64]) -> usize {
        let mut best = 0;
        let mut best_w = writes[0];
        for (b, &w) in writes.iter().enumerate().skip(1) {
            if w < best_w {
                best = b;
                best_w = w;
            }
        }
        best
    }

    /// Coloring's current bank map: the S-NUCA home shifted by one bank per
    /// completed write epoch, re-derived from the write total on each call.
    pub fn coloring_bank(&self, line: u64) -> usize {
        let total: u64 = self.writes.iter().sum();
        let shift = (total / GOLDEN_COLORING_EPOCH) % self.n_banks as u64;
        (self.snuca_bank(line) + shift as usize) % self.n_banks
    }

    /// The bank to search for `line` (mirrors `LlcPlacement::lookup_bank`).
    pub fn lookup_bank(&mut self, line: u64) -> usize {
        match self.scheme {
            GoldenScheme::SNuca => self.snuca_bank(line),
            GoldenScheme::RNuca => self.rnuca_bank(owner(line, self.n_banks), line),
            GoldenScheme::Private => owner(line, self.n_banks),
            GoldenScheme::Naive | GoldenScheme::Wec => self
                .directory
                .get(&line)
                .copied()
                .unwrap_or_else(|| self.snuca_bank(line)),
            GoldenScheme::Coloring => self
                .directory
                .get(&line)
                .copied()
                .unwrap_or_else(|| self.coloring_bank(line)),
            GoldenScheme::ReNuca => {
                let core = owner(line, self.n_banks);
                let page = page_of_line(line);
                let bit = line_index_in_page(line) as u32;
                if self.mbv_bit(core, page, bit) {
                    self.renuca_stats.lookups_rnuca += 1;
                    self.rnuca_bank(core, line)
                } else {
                    self.renuca_stats.lookups_snuca += 1;
                    self.snuca_bank(line)
                }
            }
        }
    }

    /// The bank a new fill of `line` goes to (mirrors `fill_bank`).
    pub fn fill_bank(&mut self, line: u64, predicted_critical: bool) -> usize {
        match self.scheme {
            GoldenScheme::SNuca => self.snuca_bank(line),
            GoldenScheme::Wec => {
                let home = self.snuca_bank(line);
                let coldest = Self::coldest_bank(&self.writes);
                if self.writes[home] >= self.writes[coldest] + GOLDEN_WEC_THRESHOLD {
                    coldest
                } else {
                    home
                }
            }
            GoldenScheme::Coloring => self.coloring_bank(line),
            GoldenScheme::RNuca => self.rnuca_bank(owner(line, self.n_banks), line),
            GoldenScheme::Private => owner(line, self.n_banks),
            GoldenScheme::Naive => Self::coldest_bank(&self.writes),
            GoldenScheme::ReNuca => {
                let core = owner(line, self.n_banks);
                if predicted_critical {
                    self.rnuca_bank(core, line)
                } else {
                    self.snuca_bank(line)
                }
            }
        }
    }

    /// A fill of `line` landed in `bank` (mirrors `on_fill`).
    pub fn on_fill(&mut self, line: u64, predicted_critical: bool, bank: usize) {
        match self.scheme {
            GoldenScheme::Naive | GoldenScheme::Coloring => {
                self.directory.insert(line, bank);
            }
            GoldenScheme::Wec => {
                if bank != self.snuca_bank(line) {
                    self.directory.insert(line, bank);
                }
            }
            GoldenScheme::ReNuca => {
                let core = owner(line, self.n_banks);
                let page = page_of_line(line);
                let bit = line_index_in_page(line) as u32;
                if predicted_critical {
                    self.renuca_stats.critical_fills += 1;
                } else {
                    self.renuca_stats.noncritical_fills += 1;
                }
                self.set_mbv_bit(core, page, bit, predicted_critical);
            }
            _ => {}
        }
    }

    /// A write (fill or writeback) landed in `bank` (mirrors `on_l3_write`).
    pub fn on_l3_write(&mut self, bank: usize) {
        self.writes[bank] += 1;
    }

    /// `line` was evicted from `bank` (mirrors `on_evict`).
    pub fn on_evict(&mut self, line: u64, bank: usize) {
        match self.scheme {
            GoldenScheme::Naive | GoldenScheme::Coloring => {
                let removed = self.directory.remove(&line);
                debug_assert_eq!(removed, Some(bank), "golden directory out of sync");
            }
            GoldenScheme::Wec => match self.directory.remove(&line) {
                Some(recorded) => {
                    debug_assert_eq!(recorded, bank, "golden WEC directory out of sync")
                }
                None => debug_assert_eq!(
                    bank,
                    self.snuca_bank(line),
                    "golden WEC: untracked eviction away from the home"
                ),
            },
            GoldenScheme::ReNuca => {
                let core = owner(line, self.n_banks);
                let page = page_of_line(line);
                let bit = line_index_in_page(line) as u32;
                self.set_mbv_bit(core, page, bit, false);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::types::phys_addr;

    #[test]
    fn snuca_masks_pow2_and_mods_other_counts() {
        let p4 = GoldenPolicy::new(GoldenScheme::SNuca, 2, 2);
        assert_eq!(p4.snuca_bank(13), 13 & 3);
        let p6 = GoldenPolicy::new(GoldenScheme::SNuca, 3, 2);
        assert_eq!(p6.snuca_bank(13), 13 % 6);
    }

    #[test]
    fn rnuca_cluster_matches_reference_layout() {
        // 4×4 mesh: core 5 (tile 1,1) rotates over banks {5, 6, 9, 10}.
        let p = GoldenPolicy::new(GoldenScheme::RNuca, 4, 4);
        let mut seen = std::collections::BTreeSet::new();
        for line in 0..16u64 {
            seen.insert(p.rnuca_bank(5, line));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![5, 6, 9, 10]);
    }

    #[test]
    fn renuca_routes_by_mbv_residency() {
        let mut p = GoldenPolicy::new(GoldenScheme::ReNuca, 4, 4);
        let line = phys_addr(5, 0x7000) >> 6;
        let fill = p.fill_bank(line, true);
        p.on_fill(line, true, fill);
        assert_eq!(p.lookup_bank(line), fill);
        p.on_evict(line, fill);
        assert_eq!(p.lookup_bank(line), p.snuca_bank(line));
        assert!(p.mbv.is_empty(), "zero MBV words must be pruned");
    }

    #[test]
    fn wec_redirects_hot_homes_and_tracks_redirects() {
        let mut p = GoldenPolicy::new(GoldenScheme::Wec, 2, 2);
        assert_eq!(p.fill_bank(5, false), 1, "cold: stay at the S-NUCA home");
        for _ in 0..GOLDEN_WEC_THRESHOLD {
            p.on_l3_write(1);
        }
        let b = p.fill_bank(5, false);
        assert_eq!(b, 0, "hot home: redirect to the coldest bank");
        p.on_fill(5, false, b);
        assert_eq!(p.directory.len(), 1);
        assert_eq!(p.lookup_bank(5), 0);
        p.on_evict(5, b);
        assert!(p.directory.is_empty());
        assert_eq!(p.lookup_bank(5), 1);
    }

    #[test]
    fn coloring_rotates_and_pins_residents() {
        let mut p = GoldenPolicy::new(GoldenScheme::Coloring, 2, 2);
        let b = p.fill_bank(6, false);
        assert_eq!(b, 2);
        p.on_fill(6, false, b);
        for _ in 0..GOLDEN_COLORING_EPOCH {
            p.on_l3_write(0);
        }
        assert_eq!(p.fill_bank(6, false), 3, "map rotated one bank");
        assert_eq!(p.lookup_bank(6), 2, "resident line stays findable");
        p.on_evict(6, 2);
        assert_eq!(p.lookup_bank(6), 3);
    }

    #[test]
    fn naive_levels_and_tracks_lines() {
        let mut p = GoldenPolicy::new(GoldenScheme::Naive, 2, 2);
        for line in 0..100u64 {
            let b = p.fill_bank(line, false);
            p.on_fill(line, false, b);
            p.on_l3_write(b);
        }
        let max = *p.writes.iter().max().unwrap();
        let min = *p.writes.iter().min().unwrap();
        assert!(max - min <= 1);
        assert_eq!(p.directory.len(), 100);
    }
}
