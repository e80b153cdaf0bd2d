//! The golden memory-hierarchy state machine.
//!
//! [`GoldenSystem`] replays the *state* semantics of
//! `cmp_sim::hierarchy::MemoryHierarchy` — cache contents, inclusion,
//! coherence directory, per-bank/per-slot wear, placement-policy state and
//! every compared counter — with none of the timing model (mesh, DRAM and
//! latency accounting have no state the harness compares, except the DRAM
//! row buffers, which are not compared either). The exact *order* of state
//! effects is preserved, because LRU stamps and the Naive oracle's write
//! counters are order-sensitive.
//!
//! Preconditions (asserted at construction): prefetching disabled, no
//! intra-bank rotation, no block-criticality tracking — the harness
//! configuration. Under rotation or prefetching the golden model would
//! need the timing model too, defeating its purpose as a simple oracle.

use std::collections::BTreeMap;

use cmp_sim::config::SystemConfig;
use cmp_sim::types::line_of;

use crate::cache::GoldenCache;
use crate::compress::GoldenCompress;
use crate::policy::GoldenPolicy;

/// What kind of L3 write an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoldenEventKind {
    /// A line installed into a bank on an L3 miss.
    Fill,
    /// A dirty L2 victim written back into its bank.
    Writeback,
}

/// One placement-relevant event, comparable against the real hierarchy's
/// `TraceEvent::Fill` / `TraceEvent::Writeback` with the timing-dependent
/// `cycle` field ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GoldenEvent {
    /// Fill or writeback.
    pub kind: GoldenEventKind,
    /// The core the access (or eviction) belongs to.
    pub core: usize,
    /// The bank the write landed in.
    pub bank: usize,
    /// The line address.
    pub line: u64,
}

/// Per-core counters (compared against `PerCoreMemStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenPerCore {
    /// L1 demand misses.
    pub l1_misses: u64,
    /// Accesses that reached the L3.
    pub l3_accesses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Dirty L2 victims written back.
    pub l2_writebacks: u64,
}

/// Hierarchy-level counters (compared against `HierarchyStats`; the
/// prefetch/rotation/secondary counters stay 0 under the harness
/// preconditions and are asserted 0 on the real side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenHierarchyStats {
    /// Fills into L3 banks.
    pub l3_fills: u64,
    /// Fills whose triggering load was predicted non-critical.
    pub l3_fills_noncritical: u64,
    /// All writes into L3 banks.
    pub l3_writes: u64,
    /// Dirty L3 victims written to DRAM.
    pub l3_writebacks_to_dram: u64,
    /// Private-cache lines invalidated by inclusive-L3 evictions.
    pub back_invalidations: u64,
}

/// Coherence-directory counters (compared against `CoherenceStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenDirStats {
    /// Reads granting Exclusive.
    pub grants_exclusive: u64,
    /// Reads downgrading to Shared.
    pub grants_shared: u64,
    /// Writes upgrading to Modified.
    pub upgrades_modified: u64,
    /// Invalidations sent to other sharers on writes.
    pub invalidations_sent: u64,
    /// Back-invalidations from inclusive-L3 evictions.
    pub back_invalidations: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    sharers: u32,
    exclusive: bool,
}

/// The golden reference system.
pub struct GoldenSystem {
    n_cores: usize,
    n_banks: usize,
    l1: Vec<GoldenCache>,
    l2: Vec<GoldenCache>,
    l3: Vec<GoldenCache>,
    dir: BTreeMap<u64, DirEntry>,
    /// Per-bank, per-slot write counts (slot = set × assoc + way).
    pub wear: Vec<Vec<u64>>,
    /// Compressed-array state, present only when built `compressed`.
    pub compress: Option<GoldenCompress>,
    /// Per-core counters.
    pub per_core: Vec<GoldenPerCore>,
    /// Hierarchy counters.
    pub stats: GoldenHierarchyStats,
    /// Directory counters.
    pub dir_stats: GoldenDirStats,
    /// The placement policy model.
    pub policy: GoldenPolicy,
}

impl GoldenSystem {
    /// Build the golden system for `cfg` with the given policy model.
    /// `write_aware` makes the L3 banks evict clean lines first (MAC's
    /// replacement); `compressed` models the L2C2-style compressed data
    /// array of Re-NUCA-C2 (sub-block wear, allocation classes and
    /// expansions, see `crate::compress`).
    ///
    /// # Panics
    /// Panics when `cfg` enables prefetching, intra-bank rotation or
    /// block-criticality tracking (outside the golden model's scope).
    pub fn new(
        cfg: &SystemConfig,
        policy: GoldenPolicy,
        write_aware: bool,
        compressed: bool,
    ) -> Self {
        cfg.validate();
        assert!(
            !cfg.prefetch.enabled || cfg.prefetch.streams == 0,
            "golden model requires prefetching disabled"
        );
        assert!(
            cfg.intra_bank_rotation_writes.is_none(),
            "golden model requires intra-bank rotation disabled"
        );
        assert!(
            !cfg.track_block_criticality,
            "golden model requires block-criticality tracking disabled"
        );
        GoldenSystem {
            n_cores: cfg.n_cores,
            n_banks: cfg.n_banks,
            l1: (0..cfg.n_cores)
                .map(|_| GoldenCache::new(cfg.l1.lines(), cfg.l1.assoc, false))
                .collect(),
            l2: (0..cfg.n_cores)
                .map(|_| GoldenCache::new(cfg.l2.lines(), cfg.l2.assoc, false))
                .collect(),
            l3: (0..cfg.n_banks)
                .map(|_| {
                    GoldenCache::with_write_aware(
                        cfg.l3_bank.lines(),
                        cfg.l3_bank.assoc,
                        true,
                        write_aware,
                    )
                })
                .collect(),
            dir: BTreeMap::new(),
            wear: vec![vec![0; cfg.l3_bank.lines()]; cfg.n_banks],
            compress: compressed.then(|| {
                GoldenCompress::new(
                    cfg.n_banks,
                    cfg.l3_bank.lines(),
                    cfg.l3_subblocks,
                    cfg.compress_seed,
                )
            }),
            per_core: vec![GoldenPerCore::default(); cfg.n_cores],
            stats: GoldenHierarchyStats::default(),
            dir_stats: GoldenDirStats::default(),
            policy,
        }
    }

    /// Number of cores (= mesh tiles).
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of L3 banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// Total writes absorbed by `bank`.
    pub fn bank_writes(&self, bank: usize) -> u64 {
        self.wear[bank].iter().sum()
    }

    /// Per-bank write totals.
    pub fn bank_totals(&self) -> Vec<u64> {
        (0..self.n_banks).map(|b| self.bank_writes(b)).collect()
    }

    /// Whether `line` resides in L3 bank `bank`.
    pub fn l3_bank_contains(&self, bank: usize, line: u64) -> bool {
        self.l3[bank].contains(line)
    }

    /// Replay one memory access; returns the placement events it caused in
    /// emission order.
    pub fn step(
        &mut self,
        core: usize,
        phys: u64,
        predicted_critical: bool,
        is_store: bool,
    ) -> Vec<GoldenEvent> {
        let mut events = Vec::new();
        let line = line_of(phys);

        if self.l1[core].access(line, is_store) {
            return events;
        }
        self.per_core[core].l1_misses += 1;

        if self.l2[core].access(line, false) {
            self.fill_l2_l1(core, line, is_store, &mut events);
            return events;
        }

        self.per_core[core].l3_accesses += 1;
        let predicted = predicted_critical && !is_store;
        let bank = self.policy.lookup_bank(line);
        if self.l3[bank].access(line, false) {
            self.per_core[core].l3_hits += 1;
        } else {
            // No secondary probe: none of the five modelled policies has a
            // second candidate bank.
            self.per_core[core].l3_misses += 1;
            let fill_bank = self.policy.fill_bank(line, predicted);
            self.fill_l3(core, line, predicted, fill_bank, &mut events);
        }

        if is_store {
            // Write-invalidate: every other sharer's private copy is
            // dropped (dirty data superseded by the incoming store),
            // mirroring the real hierarchy's store path.
            for holder in self.dir_write(line, core) {
                self.l1[holder].invalidate(line);
                self.l2[holder].invalidate(line);
            }
        } else {
            self.dir_read(line, core);
        }
        self.fill_l2_l1(core, line, is_store, &mut events);
        events
    }

    fn fill_l3(
        &mut self,
        core: usize,
        line: u64,
        predicted: bool,
        bank: usize,
        events: &mut Vec<GoldenEvent>,
    ) {
        #[cfg(debug_assertions)]
        for (b, l3) in self.l3.iter().enumerate() {
            debug_assert!(
                !l3.contains(line),
                "golden: line {line:#x} already in bank {b}; fill into {bank} would duplicate"
            );
        }
        let out = self.l3[bank].fill(line, false);
        let slot = self.l3[bank].slot_index(out.set, out.way);
        self.charge_write(bank, slot, line, true);
        self.stats.l3_fills += 1;
        self.stats.l3_writes += 1;
        events.push(GoldenEvent {
            kind: GoldenEventKind::Fill,
            core,
            bank,
            line,
        });
        if !predicted {
            self.stats.l3_fills_noncritical += 1;
        }
        self.policy.on_fill(line, predicted, bank);
        self.policy.on_l3_write(bank);
        if let Some(victim) = out.victim {
            self.evict_l3_victim(victim.line, victim.dirty, bank);
        }
    }

    /// Charge one L3 write of `line` to `(bank, slot)`: the per-slot line
    /// wear always, plus the compressed-array accounting when modelled.
    /// Matches `MemoryHierarchy::charge_l3_write` (record_subblock_write
    /// bumps the line counter exactly once per write too).
    fn charge_write(&mut self, bank: usize, slot: usize, line: u64, is_fill: bool) {
        self.wear[bank][slot] += 1;
        if let Some(c2) = self.compress.as_mut() {
            c2.charge(bank, slot, line, is_fill);
        }
    }

    fn evict_l3_victim(&mut self, victim: u64, l3_dirty: bool, bank: usize) {
        let mut dirty = l3_dirty;
        for holder in self.dir_back_invalidate(victim) {
            let d1 = self.l1[holder].invalidate(victim).unwrap_or(false);
            let d2 = self.l2[holder].invalidate(victim).unwrap_or(false);
            dirty |= d1 || d2;
            self.stats.back_invalidations += 1;
        }
        if dirty {
            self.stats.l3_writebacks_to_dram += 1;
        }
        self.policy.on_evict(victim, bank);
    }

    fn fill_l2_l1(
        &mut self,
        core: usize,
        line: u64,
        is_store: bool,
        events: &mut Vec<GoldenEvent>,
    ) {
        if !self.l2[core].contains(line) {
            let out = self.l2[core].fill(line, false);
            if let Some(ev) = out.victim {
                let l1_dirty = self.l1[core].invalidate(ev.line).unwrap_or(false);
                self.dir_evict(ev.line, core);
                if ev.dirty || l1_dirty {
                    self.writeback_to_l3(core, ev.line, events);
                }
            }
        }
        if self.l1[core].probe(line).is_some() {
            self.l1[core].access(line, is_store);
        } else {
            let out = self.l1[core].fill(line, is_store);
            if let Some(ev) = out.victim {
                if ev.dirty {
                    self.l2[core].mark_dirty(ev.line);
                }
            }
        }
    }

    fn writeback_to_l3(&mut self, core: usize, line: u64, events: &mut Vec<GoldenEvent>) {
        let bank = self.policy.lookup_bank(line);
        self.per_core[core].l2_writebacks += 1;
        events.push(GoldenEvent {
            kind: GoldenEventKind::Writeback,
            core,
            bank,
            line,
        });
        match self.l3[bank].probe(line) {
            Some((set, way)) => {
                self.l3[bank].mark_dirty(line);
                let slot = self.l3[bank].slot_index(set, way);
                self.charge_write(bank, slot, line, false);
            }
            None => {
                // Inclusion violation — only reachable when the real
                // hierarchy would hit its own "writeback missed inclusive
                // L3" assertion (rotation is disabled here). Mirror the
                // recovery path so release builds diverge identically.
                debug_assert!(false, "golden: writeback {line:#x} missed inclusive L3");
                let out = self.l3[bank].fill(line, true);
                let slot = self.l3[bank].slot_index(out.set, out.way);
                self.charge_write(bank, slot, line, true);
                if let Some(ev) = out.victim {
                    self.evict_l3_victim(ev.line, ev.dirty, bank);
                }
            }
        }
        self.stats.l3_writes += 1;
        // Block-criticality tracking is disabled: the real hierarchy does
        // not bump l3_writes_noncritical on the writeback path.
        self.policy.on_l3_write(bank);
    }

    // --- coherence directory (mirrors cmp_sim::coherence::Directory) ---

    fn dir_read(&mut self, line: u64, core: usize) {
        let bit = 1u32 << core;
        match self.dir.get_mut(&line) {
            None => {
                self.dir.insert(
                    line,
                    DirEntry {
                        sharers: bit,
                        exclusive: true,
                    },
                );
                self.dir_stats.grants_exclusive += 1;
            }
            Some(e) => {
                if e.sharers == bit {
                    return; // sole owner re-reads, state kept
                }
                e.sharers |= bit;
                e.exclusive = false;
                self.dir_stats.grants_shared += 1;
            }
        }
    }

    fn dir_write(&mut self, line: u64, core: usize) -> Vec<usize> {
        let bit = 1u32 << core;
        let e = self.dir.entry(line).or_default();
        let victims = e.sharers & !bit;
        e.sharers = bit;
        e.exclusive = true;
        self.dir_stats.upgrades_modified += 1;
        self.dir_stats.invalidations_sent += victims.count_ones() as u64;
        (0..32).filter(|c| victims & (1 << c) != 0).collect()
    }

    fn dir_evict(&mut self, line: u64, core: usize) {
        let bit = 1u32 << core;
        if let Some(e) = self.dir.get_mut(&line) {
            e.sharers &= !bit;
            if e.sharers == 0 {
                self.dir.remove(&line);
            } else if e.sharers.count_ones() == 1 {
                e.exclusive = false;
            }
        }
    }

    fn dir_back_invalidate(&mut self, line: u64) -> Vec<usize> {
        match self.dir.remove(&line) {
            None => Vec::new(),
            Some(e) => {
                let holders: Vec<usize> = (0..32).filter(|c| e.sharers & (1 << c) != 0).collect();
                self.dir_stats.back_invalidations += holders.len() as u64;
                holders
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GoldenScheme;
    use cmp_sim::types::phys_addr;

    fn tiny() -> SystemConfig {
        let mut cfg = SystemConfig::mesh(2, 2);
        cfg.prefetch.enabled = false;
        cfg
    }

    #[test]
    fn first_touch_fills_then_hits_silently() {
        let cfg = tiny();
        let mut g = GoldenSystem::new(
            &cfg,
            GoldenPolicy::new(GoldenScheme::SNuca, 2, 2),
            false,
            false,
        );
        let phys = phys_addr(0, 0x1000);
        let ev = g.step(0, phys, false, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, GoldenEventKind::Fill);
        assert_eq!(ev[0].bank, g.policy.snuca_bank(line_of(phys)));
        assert!(g.step(0, phys, false, false).is_empty(), "L1 hit is silent");
        assert_eq!(g.per_core[0].l3_misses, 1);
        assert_eq!(g.stats.l3_fills, 1);
        assert_eq!(g.bank_totals().iter().sum::<u64>(), 1);
    }
}
