//! Per-slot write counters for a banked cache.

/// Tracks every write into every physical line slot of a banked cache.
///
/// A *slot* is a (set, way) position inside one bank — the actual ReRAM
/// cells. The tracker is a dense `nbanks × slots_per_bank` array of `u64`
/// counters: for the paper's configuration (16 banks × 2 MB / 64 B = 32768
/// slots) that is 4 MB of counters, cheap enough to keep exact counts.
#[derive(Clone, Debug)]
pub struct WearTracker {
    nbanks: usize,
    slots_per_bank: usize,
    /// Row-major: `writes[bank * slots_per_bank + slot]`.
    writes: Vec<u64>,
    /// Per-bank totals, maintained incrementally (hot path reads these).
    bank_totals: Vec<u64>,
    /// Sub-blocks per slot when sub-block (compression) accounting is
    /// enabled; 0 disables it and leaves the vectors below empty.
    sb_per_slot: usize,
    /// Row-major cell counters:
    /// `subblock_writes[(bank * slots_per_bank + slot) * sb_per_slot + k]`.
    subblock_writes: Vec<u64>,
    /// Per-bank cell-write totals (sum over the bank's sub-block cells).
    sb_bank_totals: Vec<u64>,
    /// Cache-wide totals per sub-block *position* `k` — the input of
    /// [`WearTracker::subblock_cv`].
    sb_position_totals: Vec<u64>,
}

impl WearTracker {
    /// Create a tracker for `nbanks` banks of `slots_per_bank` line slots.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nbanks: usize, slots_per_bank: usize) -> Self {
        assert!(nbanks > 0, "need at least one bank");
        assert!(slots_per_bank > 0, "need at least one slot per bank");
        WearTracker {
            nbanks,
            slots_per_bank,
            writes: vec![0; nbanks * slots_per_bank],
            bank_totals: vec![0; nbanks],
            sb_per_slot: 0,
            subblock_writes: Vec::new(),
            sb_bank_totals: Vec::new(),
            sb_position_totals: Vec::new(),
        }
    }

    /// Create a tracker that additionally counts writes per sub-block
    /// *cell*: each slot is divided into `sb_per_slot` sub-blocks and a
    /// compressed write ages only the cells its mask covers (see
    /// [`WearTracker::record_subblock_write`]). [`WearTracker::record_write`]
    /// on such a tracker charges every cell of the slot — a full-line
    /// (uncompressed) write.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn with_subblocks(nbanks: usize, slots_per_bank: usize, sb_per_slot: usize) -> Self {
        assert!(sb_per_slot > 0, "need at least one sub-block per slot");
        let mut t = WearTracker::new(nbanks, slots_per_bank);
        t.sb_per_slot = sb_per_slot;
        t.subblock_writes = vec![0; nbanks * slots_per_bank * sb_per_slot];
        t.sb_bank_totals = vec![0; nbanks];
        t.sb_position_totals = vec![0; sb_per_slot];
        t
    }

    /// Number of banks tracked.
    #[inline]
    pub fn nbanks(&self) -> usize {
        self.nbanks
    }

    /// Number of line slots per bank.
    #[inline]
    pub fn slots_per_bank(&self) -> usize {
        self.slots_per_bank
    }

    /// Record one write into `slot` of `bank`.
    ///
    /// # Panics
    /// Debug-asserts the indices; in release an out-of-range index panics via
    /// the slice bound check (a simulator bug, not a recoverable condition).
    #[inline]
    pub fn record_write(&mut self, bank: usize, slot: usize) {
        debug_assert!(bank < self.nbanks, "bank {bank} out of range");
        debug_assert!(slot < self.slots_per_bank, "slot {slot} out of range");
        self.writes[bank * self.slots_per_bank + slot] += 1;
        self.bank_totals[bank] += 1;
        if self.sb_per_slot != 0 {
            // Uncompressed full-line write: every cell of the slot ages.
            let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
            for k in 0..self.sb_per_slot {
                self.subblock_writes[base + k] += 1;
                self.sb_position_totals[k] += 1;
            }
            self.sb_bank_totals[bank] += self.sb_per_slot as u64;
        }
    }

    /// Record one *compressed* line write into `slot` of `bank`: the line
    /// counter advances by one (exactly like [`WearTracker::record_write`])
    /// but only the sub-block cells set in `mask` age — bit `k` of `mask`
    /// is sub-block `k`. This keeps the line-level invariants (bank
    /// totals, per-slot histograms) identical to the uncompressed model
    /// while the cell counters capture the wear reduction.
    ///
    /// # Panics
    /// Panics (debug) if sub-block accounting is disabled, the indices are
    /// out of range, or `mask` addresses cells past `sb_per_slot`.
    #[inline]
    pub fn record_subblock_write(&mut self, bank: usize, slot: usize, mask: u64) {
        debug_assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        debug_assert!(bank < self.nbanks, "bank {bank} out of range");
        debug_assert!(slot < self.slots_per_bank, "slot {slot} out of range");
        debug_assert!(
            self.sb_per_slot == 64 || mask < (1u64 << self.sb_per_slot),
            "mask {mask:#x} exceeds {} sub-blocks",
            self.sb_per_slot
        );
        self.writes[bank * self.slots_per_bank + slot] += 1;
        self.bank_totals[bank] += 1;
        let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            self.subblock_writes[base + k] += 1;
            self.sb_position_totals[k] += 1;
            m &= m - 1;
        }
        self.sb_bank_totals[bank] += mask.count_ones() as u64;
    }

    /// Sub-blocks per slot; 0 when sub-block accounting is disabled.
    #[inline]
    pub fn subblocks_per_slot(&self) -> usize {
        self.sb_per_slot
    }

    /// Cell writes of sub-block `k` of `slot` of `bank`.
    ///
    /// # Panics
    /// Panics if sub-block accounting is disabled or an index is out of
    /// range.
    #[inline]
    pub fn cell_writes(&self, bank: usize, slot: usize, k: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        assert!(k < self.sb_per_slot, "sub-block {k} out of range");
        self.subblock_writes[(bank * self.slots_per_bank + slot) * self.sb_per_slot + k]
    }

    /// Sum of cell writes over one slot's sub-blocks.
    pub fn subblock_slot_sum(&self, bank: usize, slot: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
        self.subblock_writes[base..base + self.sb_per_slot]
            .iter()
            .sum()
    }

    /// Total cell writes absorbed by `bank`.
    #[inline]
    pub fn subblock_bank_writes(&self, bank: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        self.sb_bank_totals[bank]
    }

    /// Total cell writes across all banks.
    pub fn subblock_total_writes(&self) -> u64 {
        self.sb_bank_totals.iter().sum()
    }

    /// The most-written sub-block *cell* of `bank` (its count) — the
    /// pessimistic wear-out input under compression, twin of
    /// [`WearTracker::max_slot_writes`].
    pub fn max_cell_writes(&self, bank: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let stride = self.slots_per_bank * self.sb_per_slot;
        let base = bank * stride;
        self.subblock_writes[base..base + stride]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total writes absorbed by `bank`.
    #[inline]
    pub fn bank_writes(&self, bank: usize) -> u64 {
        self.bank_totals[bank]
    }

    /// Per-bank totals as a slice (index = bank id).
    #[inline]
    pub fn bank_totals(&self) -> &[u64] {
        &self.bank_totals
    }

    /// Total writes across all banks.
    pub fn total_writes(&self) -> u64 {
        self.bank_totals.iter().sum()
    }

    /// The most-written slot of `bank` (its count).
    pub fn max_slot_writes(&self, bank: usize) -> u64 {
        let base = bank * self.slots_per_bank;
        self.writes[base..base + self.slots_per_bank]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Writes of an individual slot.
    #[inline]
    pub fn slot_writes(&self, bank: usize, slot: usize) -> u64 {
        self.writes[bank * self.slots_per_bank + slot]
    }

    /// Index of the bank with the fewest total writes (ties -> lowest id).
    /// This is the Naive oracle's placement rule.
    pub fn min_write_bank(&self) -> usize {
        let mut best = 0;
        let mut best_w = self.bank_totals[0];
        for (b, &w) in self.bank_totals.iter().enumerate().skip(1) {
            if w < best_w {
                best = b;
                best_w = w;
            }
        }
        best
    }

    /// Coefficient of variation (stdev / mean) of the per-set write totals
    /// over every set of every bank, with `assoc` ways per set (slot index
    /// = `set * assoc + way`). This is the *inter-set* write variation the
    /// coloring-style remaps flatten: 0 means every set absorbs the same
    /// number of writes.
    ///
    /// # Panics
    /// Panics unless `assoc` divides the slots-per-bank geometry.
    pub fn interset_cv(&self, assoc: usize) -> f64 {
        assert!(
            assoc > 0 && self.slots_per_bank % assoc == 0,
            "assoc {assoc} must divide {} slots per bank",
            self.slots_per_bank
        );
        let sets_per_bank = self.slots_per_bank / assoc;
        let mut totals = Vec::with_capacity(self.nbanks * sets_per_bank);
        for bank in 0..self.nbanks {
            for set in 0..sets_per_bank {
                let base = bank * self.slots_per_bank + set * assoc;
                totals.push(self.writes[base..base + assoc].iter().sum::<u64>() as f64);
            }
        }
        sim_stats::cv(&totals)
    }

    /// Mean, over every set that absorbed at least one write, of the
    /// coefficient of variation across that set's per-way counters — the
    /// *intra-set* write variation that write-aware replacement (MAC)
    /// flattens. 0 when no set has been written.
    ///
    /// # Panics
    /// Panics unless `assoc` divides the slots-per-bank geometry.
    pub fn intraset_cv(&self, assoc: usize) -> f64 {
        assert!(
            assoc > 0 && self.slots_per_bank % assoc == 0,
            "assoc {assoc} must divide {} slots per bank",
            self.slots_per_bank
        );
        let sets_per_bank = self.slots_per_bank / assoc;
        let mut sum = 0.0;
        let mut touched = 0usize;
        for bank in 0..self.nbanks {
            for set in 0..sets_per_bank {
                let base = bank * self.slots_per_bank + set * assoc;
                let ways: Vec<f64> = self.writes[base..base + assoc]
                    .iter()
                    .map(|&w| w as f64)
                    .collect();
                if ways.iter().any(|&w| w > 0.0) {
                    sum += sim_stats::cv(&ways);
                    touched += 1;
                }
            }
        }
        if touched == 0 {
            0.0
        } else {
            sum / touched as f64
        }
    }

    /// Coefficient of variation of the cache-wide totals per sub-block
    /// *position* (cell `k` summed over every slot of every bank) — the
    /// rotation-balance gauge beside [`WearTracker::interset_cv`] and
    /// [`WearTracker::intraset_cv`]: 0 means the compressed writes land
    /// evenly across the line, which is the forecast's uniform-intra-line
    /// wear assumption.
    ///
    /// # Panics
    /// Panics if sub-block accounting is disabled.
    pub fn subblock_cv(&self) -> f64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let totals: Vec<f64> = self.sb_position_totals.iter().map(|&w| w as f64).collect();
        sim_stats::cv(&totals)
    }

    /// Reset all counters (between warm-up and measurement).
    ///
    /// Every record bumps its bank's total, so all-zero totals mean every
    /// counter is already zero; the sweep is then skipped, which leaves a
    /// fresh tracker's untouched (lazily zeroed) pages unmapped.
    pub fn reset(&mut self) {
        if self.bank_totals.iter().all(|&t| t == 0) {
            return;
        }
        self.writes.iter_mut().for_each(|w| *w = 0);
        self.bank_totals.iter_mut().for_each(|w| *w = 0);
        self.subblock_writes.iter_mut().for_each(|w| *w = 0);
        self.sb_bank_totals.iter_mut().for_each(|w| *w = 0);
        self.sb_position_totals.iter_mut().for_each(|w| *w = 0);
    }

    /// Merge another tracker of identical geometry into this one.
    ///
    /// # Panics
    /// Panics on geometry mismatch.
    pub fn merge(&mut self, other: &WearTracker) {
        assert_eq!(self.nbanks, other.nbanks, "bank count mismatch");
        assert_eq!(
            self.slots_per_bank, other.slots_per_bank,
            "slot count mismatch"
        );
        assert_eq!(self.sb_per_slot, other.sb_per_slot, "sub-block mismatch");
        for (a, b) in self.writes.iter_mut().zip(other.writes.iter()) {
            *a += b;
        }
        for (a, b) in self.bank_totals.iter_mut().zip(other.bank_totals.iter()) {
            *a += b;
        }
        for (a, b) in self
            .subblock_writes
            .iter_mut()
            .zip(other.subblock_writes.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .sb_bank_totals
            .iter_mut()
            .zip(other.sb_bank_totals.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .sb_position_totals
            .iter_mut()
            .zip(other.sb_position_totals.iter())
        {
            *a += b;
        }
    }

    /// Register the wear picture under dotted paths: `<prefix>.total_writes`,
    /// then per bank `<prefix>.bank[i].writes`,
    /// `<prefix>.bank[i].max_slot_writes` and
    /// `<prefix>.bank[i].min_endurance_frac` — the remaining endurance
    /// fraction of the bank's most-written slot under `endurance`
    /// (1.0 = pristine, 0.0 = the hottest slot is worn out), clamped to 0.
    pub fn register(
        &self,
        reg: &mut sim_stats::StatsRegistry,
        prefix: &str,
        endurance: &crate::endurance::EnduranceSpec,
    ) {
        reg.set(format!("{prefix}.total_writes"), self.total_writes());
        if self.sb_per_slot != 0 {
            reg.set(
                format!("{prefix}.subblock_total_writes"),
                self.subblock_total_writes(),
            );
        }
        for b in 0..self.nbanks {
            let max_slot = self.max_slot_writes(b);
            reg.set(format!("{prefix}.bank[{b}].writes"), self.bank_writes(b));
            reg.set(format!("{prefix}.bank[{b}].max_slot_writes"), max_slot);
            let frac = (1.0 - max_slot as f64 / endurance.writes_per_cell).max(0.0);
            reg.set(format!("{prefix}.bank[{b}].min_endurance_frac"), frac);
            if self.sb_per_slot != 0 {
                reg.set(
                    format!("{prefix}.bank[{b}].subblock_writes"),
                    self.subblock_bank_writes(b),
                );
                reg.set(
                    format!("{prefix}.bank[{b}].max_cell_writes"),
                    self.max_cell_writes(b),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tracker_is_zero() {
        let t = WearTracker::new(4, 8);
        assert_eq!(t.nbanks(), 4);
        assert_eq!(t.slots_per_bank(), 8);
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.max_slot_writes(3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        WearTracker::new(0, 8);
    }

    #[test]
    fn record_and_query() {
        let mut t = WearTracker::new(2, 4);
        t.record_write(0, 1);
        t.record_write(0, 1);
        t.record_write(1, 3);
        assert_eq!(t.bank_writes(0), 2);
        assert_eq!(t.bank_writes(1), 1);
        assert_eq!(t.slot_writes(0, 1), 2);
        assert_eq!(t.slot_writes(0, 0), 0);
        assert_eq!(t.max_slot_writes(0), 2);
        assert_eq!(t.total_writes(), 3);
        assert_eq!(t.bank_totals(), &[2, 1]);
    }

    #[test]
    fn min_write_bank_prefers_lowest_id_on_tie() {
        let mut t = WearTracker::new(3, 2);
        assert_eq!(t.min_write_bank(), 0);
        t.record_write(0, 0);
        assert_eq!(t.min_write_bank(), 1);
        t.record_write(1, 0);
        t.record_write(2, 0);
        // all equal again -> bank 0
        assert_eq!(t.min_write_bank(), 0);
    }

    #[test]
    fn bank_totals_consistent_with_slots() {
        let mut t = WearTracker::new(2, 3);
        for s in 0..3 {
            for _ in 0..(s + 1) {
                t.record_write(1, s);
            }
        }
        let slot_sum: u64 = (0..3).map(|s| t.slot_writes(1, s)).sum();
        assert_eq!(slot_sum, t.bank_writes(1));
        assert_eq!(t.bank_writes(1), 6);
    }

    #[test]
    fn cv_counters_pin_exact_values() {
        // 2 banks × 4 slots, assoc 2 → sets (bank, set): (0,0) ways (3,1),
        // (0,1) untouched, (1,0) ways (2,2), (1,1) ways (0,8).
        let mut t = WearTracker::new(2, 4);
        for (slot, n) in [(0, 3u64), (1, 1)] {
            for _ in 0..n {
                t.record_write(0, slot);
            }
        }
        for (slot, n) in [(0, 2u64), (1, 2), (3, 8)] {
            for _ in 0..n {
                t.record_write(1, slot);
            }
        }
        // Set totals [4, 0, 4, 8]: mean 4, population stdev √8.
        assert_eq!(t.interset_cv(2), 8.0f64.sqrt() / 4.0);
        // Touched-set CVs: (3,1) → 0.5, (2,2) → 0, (0,8) → 1; mean 0.5.
        assert_eq!(t.intraset_cv(2), 0.5);
    }

    #[test]
    fn cv_counters_are_zero_on_a_pristine_tracker() {
        let t = WearTracker::new(2, 4);
        assert_eq!(t.interset_cv(2), 0.0);
        assert_eq!(t.intraset_cv(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn cv_counters_reject_bad_assoc() {
        WearTracker::new(2, 4).interset_cv(3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = WearTracker::new(2, 2);
        t.record_write(0, 0);
        t.record_write(1, 1);
        t.reset();
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.slot_writes(1, 1), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = WearTracker::new(2, 2);
        let mut b = WearTracker::new(2, 2);
        a.record_write(0, 0);
        b.record_write(0, 0);
        b.record_write(1, 1);
        a.merge(&b);
        assert_eq!(a.slot_writes(0, 0), 2);
        assert_eq!(a.bank_writes(1), 1);
        assert_eq!(a.total_writes(), 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_rejects_geometry_mismatch() {
        let mut a = WearTracker::new(2, 2);
        let b = WearTracker::new(2, 3);
        a.merge(&b);
    }

    #[test]
    fn subblock_writes_age_only_masked_cells() {
        let mut t = WearTracker::with_subblocks(2, 2, 4);
        t.record_subblock_write(0, 1, 0b0011); // cells 0,1
        t.record_subblock_write(0, 1, 0b1000); // cell 3
        t.record_subblock_write(1, 0, 0b0001); // cell 0
                                               // Line-level accounting is unchanged by compression.
        assert_eq!(t.slot_writes(0, 1), 2);
        assert_eq!(t.bank_totals(), &[2, 1]);
        // Cell-level accounting follows the masks.
        assert_eq!(t.cell_writes(0, 1, 0), 1);
        assert_eq!(t.cell_writes(0, 1, 1), 1);
        assert_eq!(t.cell_writes(0, 1, 2), 0);
        assert_eq!(t.cell_writes(0, 1, 3), 1);
        assert_eq!(t.subblock_slot_sum(0, 1), 3);
        assert_eq!(t.subblock_bank_writes(0), 3);
        assert_eq!(t.subblock_total_writes(), 4);
        assert_eq!(t.max_cell_writes(0), 1);
    }

    #[test]
    fn full_line_write_ages_every_cell_when_subblocks_enabled() {
        let mut t = WearTracker::with_subblocks(1, 2, 4);
        t.record_write(0, 0);
        assert_eq!(t.subblock_slot_sum(0, 0), 4);
        assert_eq!(t.slot_writes(0, 0), 1);
        for k in 0..4 {
            assert_eq!(t.cell_writes(0, 0, k), 1);
        }
    }

    #[test]
    fn subblock_cv_pins_exact_value() {
        // Position totals [3, 1, 0, 0]: mean 1, population stdev
        // √((4+0+1+1)/4) = √1.5.
        let mut t = WearTracker::with_subblocks(1, 4, 4);
        t.record_subblock_write(0, 0, 0b0001);
        t.record_subblock_write(0, 1, 0b0011);
        t.record_subblock_write(0, 2, 0b0001);
        assert_eq!(t.subblock_cv(), 1.5f64.sqrt());
        // Perfectly rotated writes flatten the gauge to 0.
        let mut u = WearTracker::with_subblocks(1, 4, 4);
        for k in 0..4u64 {
            u.record_subblock_write(0, 0, 1 << k);
        }
        assert_eq!(u.subblock_cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sub-block accounting disabled")]
    fn subblock_cv_requires_subblock_mode() {
        WearTracker::new(1, 4).subblock_cv();
    }

    #[test]
    fn subblock_counters_survive_reset_and_merge() {
        let mut a = WearTracker::with_subblocks(1, 2, 2);
        let mut b = WearTracker::with_subblocks(1, 2, 2);
        a.record_subblock_write(0, 0, 0b01);
        b.record_subblock_write(0, 0, 0b11);
        a.merge(&b);
        assert_eq!(a.subblock_slot_sum(0, 0), 3);
        assert_eq!(a.subblock_total_writes(), 3);
        a.reset();
        assert_eq!(a.subblock_total_writes(), 0);
        assert_eq!(a.subblock_cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sub-block mismatch")]
    fn merge_rejects_subblock_mismatch() {
        let mut a = WearTracker::with_subblocks(1, 2, 2);
        let b = WearTracker::new(1, 2);
        a.merge(&b);
    }
}
