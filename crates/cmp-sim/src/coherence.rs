//! MESI coherence states and a home directory.
//!
//! The paper's Table I lists MESI coherence. The workloads are
//! multiprogrammed (one single-threaded application per core, disjoint
//! address spaces), so there is never read-write sharing — but the directory
//! still has real work to do in this design:
//!
//! * it tracks which private cache holds each L3-resident line, enabling the
//!   **inclusive-L3 back-invalidation** that keeps the hierarchy consistent
//!   when a NUCA bank evicts a line (and which forces the Re-NUCA Mapping
//!   Bit Vector to be reset, §IV.C of the paper),
//! * it records the MESI state transitions so coherence traffic can be
//!   counted and asserted on.
//!
//! The full state machine (including the S state and multi-sharer
//! invalidation that multiprogrammed runs never exercise) is implemented and
//! unit-tested so the substrate is reusable for shared-memory workloads.

use crate::table::FixedTable;
use crate::types::CoreId;
use sim_stats::Counter;

/// MESI state of a line in a private cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only, clean copy.
    Exclusive,
    /// Shared: one of several clean copies.
    Shared,
    /// Invalid (not present).
    Invalid,
}

/// Directory record for one line: which cores hold it and in what state.
#[derive(Clone, Debug, Default)]
pub struct DirEntry {
    /// Bitmask of sharer cores (bit i = core i).
    pub sharers: u32,
    /// True when exactly one core holds the line in M or E.
    pub exclusive: bool,
}

impl DirEntry {
    /// Number of sharers.
    pub fn n_sharers(&self) -> u32 {
        self.sharers.count_ones()
    }
}

/// Coherence event counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoherenceStats {
    /// Read requests granting Exclusive (no other sharer).
    pub grants_exclusive: Counter,
    /// Read requests downgrading to Shared.
    pub grants_shared: Counter,
    /// Write requests upgrading to Modified.
    pub upgrades_modified: Counter,
    /// Invalidation messages sent to sharers.
    pub invalidations_sent: Counter,
    /// Back-invalidations caused by inclusive-L3 evictions.
    pub back_invalidations: Counter,
}

impl CoherenceStats {
    /// Register every counter under `<prefix>.grants_exclusive`,
    /// `<prefix>.grants_shared`, `<prefix>.upgrades_modified`,
    /// `<prefix>.invalidations_sent`, `<prefix>.back_invalidations`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(
            format!("{prefix}.grants_exclusive"),
            self.grants_exclusive.get(),
        );
        reg.set(format!("{prefix}.grants_shared"), self.grants_shared.get());
        reg.set(
            format!("{prefix}.upgrades_modified"),
            self.upgrades_modified.get(),
        );
        reg.set(
            format!("{prefix}.invalidations_sent"),
            self.invalidations_sent.get(),
        );
        reg.set(
            format!("{prefix}.back_invalidations"),
            self.back_invalidations.get(),
        );
    }
}

/// The home directory: line → sharer set.
///
/// Capacity is bounded by the total private-cache capacity (Σ L2 lines),
/// since entries are removed when the last private copy disappears; the
/// backing [`FixedTable`] enforces that bound so a bookkeeping leak fails
/// loudly instead of growing memory over a long run.
#[derive(Clone, Debug)]
pub struct Directory {
    entries: FixedTable<DirEntry>,
    /// Event counters.
    pub stats: CoherenceStats,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory with the default generous capacity bound (unit
    /// tests and ad-hoc use; the hierarchy sizes its directory exactly via
    /// [`Directory::with_capacity`]).
    pub fn new() -> Self {
        Directory {
            entries: FixedTable::default(),
            stats: CoherenceStats::default(),
        }
    }

    /// An empty directory bounded to `max_lines` tracked lines (Σ private
    /// L2 lines plus in-flight slack).
    pub fn with_capacity(max_lines: usize) -> Self {
        Directory {
            entries: FixedTable::with_capacity(max_lines.min(4096), max_lines),
            stats: CoherenceStats::default(),
        }
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no lines are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every tracked `(line, entry)`, in table-slot order (state
    /// comparison; slot order is not insertion order).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &DirEntry)> {
        self.entries.iter()
    }

    /// Current sharers of a line.
    pub fn entry(&self, line: u64) -> Option<&DirEntry> {
        self.entries.get(line)
    }

    /// A core fetches a line for reading. Returns the MESI state granted.
    /// Any existing exclusive holder is downgraded to Shared (pure-clean
    /// sharing; dirty data forwarding is charged by the hierarchy).
    pub fn read(&mut self, line: u64, core: CoreId) -> Mesi {
        let bit = 1u32 << core;
        match self.entries.get_mut(line) {
            None => {
                self.entries.insert(
                    line,
                    DirEntry {
                        sharers: bit,
                        exclusive: true,
                    },
                );
                self.stats.grants_exclusive.inc();
                Mesi::Exclusive
            }
            Some(e) => {
                if e.sharers == bit {
                    // Re-read by the sole owner keeps its state.
                    return if e.exclusive {
                        Mesi::Exclusive
                    } else {
                        Mesi::Shared
                    };
                }
                e.sharers |= bit;
                e.exclusive = false;
                self.stats.grants_shared.inc();
                Mesi::Shared
            }
        }
    }

    /// A core fetches (or upgrades) a line for writing. All other sharers
    /// are invalidated; returns them (ascending core id) so the caller can
    /// drop their private copies — a sharer left resident after its
    /// directory bit is cleared would be invisible to a later inclusive-L3
    /// back-invalidation, and its eventual dirty eviction would write back
    /// a line the L3 no longer holds.
    pub fn write(&mut self, line: u64, core: CoreId) -> Vec<CoreId> {
        let bit = 1u32 << core;
        let e = self.entries.get_or_insert_with(line, DirEntry::default);
        let victims = e.sharers & !bit;
        e.sharers = bit;
        e.exclusive = true;
        self.stats.upgrades_modified.inc();
        self.stats
            .invalidations_sent
            .add(victims.count_ones() as u64);
        (0..32).filter(|c| victims & (1 << c) != 0).collect()
    }

    /// A core silently drops its copy (clean eviction) or writes it back
    /// (dirty eviction) — either way it stops being a sharer.
    pub fn evict(&mut self, line: u64, core: CoreId) {
        let bit = 1u32 << core;
        if let Some(e) = self.entries.get_mut(line) {
            e.sharers &= !bit;
            if e.sharers == 0 {
                self.entries.remove(line);
            } else if e.n_sharers() == 1 {
                // Last man standing could be promoted to E; real MESI keeps
                // it S until it re-requests. We keep S (conservative).
                e.exclusive = false;
            }
        }
    }

    /// The L3 evicts a line: every private copy must be invalidated
    /// (inclusive hierarchy). Returns the cores that held it. The caller
    /// performs the actual private-cache invalidation and any dirty
    /// writeback.
    pub fn back_invalidate(&mut self, line: u64) -> Vec<CoreId> {
        match self.entries.remove(line) {
            None => Vec::new(),
            Some(e) => {
                let holders: Vec<CoreId> = (0..32).filter(|c| e.sharers & (1 << c) != 0).collect();
                self.stats.back_invalidations.add(holders.len() as u64);
                holders
            }
        }
    }

    /// Reset statistics (warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CoherenceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = Directory::new();
        assert_eq!(d.read(100, 0), Mesi::Exclusive);
        assert_eq!(d.entry(100).unwrap().n_sharers(), 1);
        assert!(d.entry(100).unwrap().exclusive);
    }

    #[test]
    fn second_reader_downgrades_to_shared() {
        let mut d = Directory::new();
        d.read(100, 0);
        assert_eq!(d.read(100, 1), Mesi::Shared);
        let e = d.entry(100).unwrap();
        assert_eq!(e.n_sharers(), 2);
        assert!(!e.exclusive);
    }

    #[test]
    fn re_read_by_owner_keeps_exclusive() {
        let mut d = Directory::new();
        d.read(7, 3);
        assert_eq!(d.read(7, 3), Mesi::Exclusive);
        assert_eq!(d.stats.grants_exclusive.get(), 1);
        assert_eq!(d.stats.grants_shared.get(), 0);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(9, 0);
        d.read(9, 1);
        d.read(9, 2);
        let invals = d.write(9, 0);
        assert_eq!(invals, vec![1, 2]);
        let e = d.entry(9).unwrap();
        assert_eq!(e.n_sharers(), 1);
        assert!(e.exclusive);
        assert_eq!(d.stats.invalidations_sent.get(), 2);
    }

    #[test]
    fn write_by_sole_owner_sends_no_invalidations() {
        let mut d = Directory::new();
        d.read(9, 4);
        assert!(d.write(9, 4).is_empty());
    }

    #[test]
    fn evict_removes_sharer_and_cleans_up() {
        let mut d = Directory::new();
        d.read(1, 0);
        d.read(1, 1);
        d.evict(1, 0);
        assert_eq!(d.entry(1).unwrap().n_sharers(), 1);
        d.evict(1, 1);
        assert!(d.entry(1).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn evict_of_untracked_line_is_noop() {
        let mut d = Directory::new();
        d.evict(42, 0); // must not panic
        assert!(d.is_empty());
    }

    #[test]
    fn back_invalidate_returns_all_holders() {
        let mut d = Directory::new();
        d.read(5, 2);
        d.read(5, 7);
        let holders = d.back_invalidate(5);
        assert_eq!(holders, vec![2, 7]);
        assert!(d.entry(5).is_none());
        assert_eq!(d.stats.back_invalidations.get(), 2);
        assert!(d.back_invalidate(5).is_empty());
    }

    #[test]
    fn disjoint_address_spaces_never_share() {
        // The multiprogrammed invariant: distinct cores touch distinct
        // lines, so every grant is Exclusive and no invalidations flow.
        let mut d = Directory::new();
        for core in 0..16usize {
            let line = (core as u64) << 22; // per-core address slice
            assert_eq!(d.read(line, core), Mesi::Exclusive);
            d.write(line, core);
        }
        assert_eq!(d.stats.invalidations_sent.get(), 0);
        assert_eq!(d.stats.grants_shared.get(), 0);
    }
}
