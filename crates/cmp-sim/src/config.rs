//! System configuration. The defaults reproduce the paper's Table I.

use crate::types::LINE_BYTES;

/// Geometry and latency of one set-associative cache.
///
/// Latency is split three ways because the L3 banks are ReRAM: the tag
/// array is SRAM (fast), reads are moderate, and writes are the 4–8×
/// outlier the whole paper is about. SRAM levels (L1/L2) use
/// [`CacheGeometry::symmetric`], which sets all three equal and reproduces
/// the old single-`latency` behaviour exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Tag-array check latency in cycles (charged on a miss, where no data
    /// array operation happens; overlapped with the data read on a hit).
    pub tag_latency: u64,
    /// Data-array read latency in cycles (a hit costs this much total —
    /// the tag check overlaps the data access, as in a parallel-access
    /// SRAM tag / ReRAM data organization).
    pub read_latency: u64,
    /// Data-array write latency in cycles: how long a fill or writeback
    /// occupies the data array. ReRAM SET/RESET is the paper's bottleneck.
    pub write_latency: u64,
}

impl CacheGeometry {
    /// A geometry whose tag, read and write paths all take `latency`
    /// cycles — the pre-split single-latency model, used for the SRAM
    /// levels and for legacy-compatible L3 configurations.
    pub const fn symmetric(size_bytes: u64, assoc: usize, latency: u64) -> Self {
        CacheGeometry {
            size_bytes,
            assoc,
            tag_latency: latency,
            read_latency: latency,
            write_latency: latency,
        }
    }

    /// True when all three latencies are equal (the legacy model).
    pub const fn is_symmetric(&self) -> bool {
        self.tag_latency == self.read_latency && self.read_latency == self.write_latency
    }
    /// Number of sets (`size / (line * assoc)`).
    ///
    /// # Panics
    /// Panics if the geometry does not divide into a whole power-of-two
    /// number of sets — indexing uses bit masks.
    pub fn sets(&self) -> usize {
        self.check_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CacheGeometry::sets`] without the panic; also rejects a zero
    /// associativity instead of dividing by it.
    fn check_sets(&self) -> Result<usize, String> {
        let lines = self.size_bytes / LINE_BYTES;
        match (lines as usize).checked_div(self.assoc) {
            Some(sets)
                if sets > 0 && sets.is_power_of_two() && lines as usize % self.assoc == 0 =>
            {
                Ok(sets)
            }
            _ => Err(format!(
                "cache geometry {self:?} must give a power-of-two number of sets"
            )),
        }
    }

    /// Total number of line slots.
    pub fn lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }
}

/// DDR3-style memory system parameters.
///
/// Timings are in *core* cycles at the configured core frequency. The
/// defaults approximate JEDEC DDR3-1600 under a 2.4 GHz core clock:
/// tRCD = tRP = tCAS ≈ 13.75 ns ≈ 33 core cycles, and a 64 B burst occupies
/// the channel's data bus for 5 ns ≈ 12 core cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (Table I: 4).
    pub channels: usize,
    /// Ranks per channel (Table I: 2).
    pub ranks: usize,
    /// Banks per rank (Table I: 8).
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes (8 KB typical for DDR3 x8 devices).
    pub row_bytes: u64,
    /// Activate (row open) latency in core cycles.
    pub t_rcd: u64,
    /// Precharge (row close) latency in core cycles.
    pub t_rp: u64,
    /// Column access latency in core cycles.
    pub t_cas: u64,
    /// Data-bus occupancy of one 64 B transfer in core cycles.
    pub t_burst: u64,
}

impl DramConfig {
    /// Total DRAM banks across all channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks_per_rank
    }

    /// The address decomposition's rule, shared by [`SystemConfig::check`]
    /// and `Dram::new`: channels, banks per channel and lines per row are
    /// selected by bit masks, so each must be a non-zero power of two.
    pub fn check(&self) -> Result<(), String> {
        let banks = self.ranks.checked_mul(self.banks_per_rank).unwrap_or(0);
        let field = if !self.channels.is_power_of_two() {
            "dram.channels"
        } else if !banks.is_power_of_two() {
            "dram.ranks * dram.banks_per_rank"
        } else if !(self.row_bytes / LINE_BYTES).is_power_of_two() {
            "dram.row_bytes / the line size"
        } else {
            return Ok(());
        };
        Err(format!("{field} must be a power of two in {self:?}"))
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            ranks: 2,
            banks_per_rank: 8,
            row_bytes: 8192,
            t_rcd: 33,
            t_rp: 33,
            t_cas: 33,
            t_burst: 12,
        }
    }
}

/// Mesh network-on-chip parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh columns (4 for the paper's 4×4 mesh).
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Per-hop pipeline latency (router traversal + link) in cycles.
    /// A 4–5 stage router plus link at 2.4 GHz; the knob that sets how much
    /// NUCA distance costs (the paper's Table I does not specify it; this
    /// value reproduces the paper's Private-vs-S-NUCA IPC spread).
    pub hop_cycles: u64,
    /// Channel occupancy per flit in cycles (serialization).
    pub cycles_per_flit: u64,
    /// Flits in a control message (request, invalidation).
    pub ctrl_flits: u32,
    /// Flits in a data message (a 64 B line plus header).
    pub data_flits: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cols: 4,
            rows: 4,
            hop_cycles: 8,
            cycles_per_flit: 1,
            ctrl_flits: 1,
            data_flits: 5,
        }
    }
}

/// Stride-prefetcher parameters (an L2 prefetcher per core).
///
/// The paper does not call out prefetching, but its criticality narrative
/// presumes it: Figure 8's ~50% *non-critical fetched blocks* include the
/// streaming/scanning misses whose latency a stride prefetcher hides —
/// without one, every DRAM-bound load in a scan blocks the ROB head and
/// everything classifies critical. A classic per-core stride table with
/// confidence-gated degree-N next-line prefetching into the L2 reproduces
/// the paper's criticality mix. Prefetch fills traverse the full L3/DRAM
/// path (charging wear, traffic and placement exactly like demand fills —
/// predicted non-critical, which is exactly Re-NUCA's intent for them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Master enable.
    pub enabled: bool,
    /// Stream-table entries per core.
    pub streams: usize,
    /// Lines fetched ahead once a stream is confident.
    pub degree: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            streams: 16,
            degree: 4,
        }
    }
}

/// Full system configuration; `SystemConfig::default()` is the paper's
/// Table I machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (Table I: 16 @ 2.4 GHz, out-of-order).
    pub n_cores: usize,
    /// Core clock in Hz.
    pub freq_hz: f64,
    /// Reorder-buffer entries (Table I: 128; 168 in the sensitivity study).
    pub rob_entries: usize,
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Outstanding L1-miss loads per core (MSHR count). gem5's default
    /// O3 configuration is in this range; bounds memory-level parallelism.
    pub mshrs_per_core: usize,
    /// L1 data cache (Table I: 32 KB, 4-way, 2-cycle).
    pub l1: CacheGeometry,
    /// Private L2 (Table I: 256 KB, 8-way, 5-cycle; 128 KB in sensitivity).
    pub l2: CacheGeometry,
    /// One L3 NUCA bank (Table I: 2 MB, 16-way, 100-cycle read; 1 MB
    /// sensitivity). The default is asymmetric ReRAM timing: a 20-cycle
    /// SRAM tag check, 100-cycle reads, 400-cycle writes (§II of the
    /// paper: ReRAM writes are 4–8× slower than reads).
    pub l3_bank: CacheGeometry,
    /// Number of L3 banks (= number of cores, 16).
    pub n_banks: usize,
    /// Mesh NoC parameters (4×4).
    pub noc: NocConfig,
    /// DRAM parameters (Table I: JEDEC DDR3, 4 channels, 2 ranks, 8 banks).
    pub dram: DramConfig,
    /// Data-TLB entries per core (§IV.C: 64 entries).
    pub tlb_entries: usize,
    /// TLB associativity (§IV.C: 8-way).
    pub tlb_assoc: usize,
    /// Page-walk latency on a TLB miss, cycles (not specified by the paper;
    /// a typical 2-level walk with cached PTEs).
    pub page_walk_latency: u64,
    /// Extra lookup latency charged by the Naive oracle's global directory
    /// (the paper argues this directory is what makes Naive impractical:
    /// a line-granular directory over a 32 MB LLC is a multi-megabyte
    /// serialized structure). Calibrated to reproduce the paper's ~21%
    /// Naive performance loss vs S-NUCA.
    pub naive_dir_latency: u64,
    /// Minimum head-of-ROB stall, in cycles, for a load to count as having
    /// *blocked* the head (the criticality event). The paper's predictor is
    /// a binary simplification of Ghose et al.'s stall-time-ranked commit
    /// block predictor; without a minimal-stall floor, the few cycles of
    /// skew between overlapped miss returns (one DRAM burst ≈ 12 cycles)
    /// would mark every load in a high-MLP burst critical, which
    /// contradicts the paper's measured ~50% non-critical fetched blocks.
    /// One burst time is the natural floor.
    pub criticality_stall_threshold: u64,
    /// Record per-block criticality at fill time so writeback criticality
    /// can be attributed (needed by Figure 9's measurement; off by default
    /// because it allocates a map proportional to the footprint).
    pub track_block_criticality: bool,
    /// Per-core L2 stride prefetcher.
    pub prefetch: PrefetchConfig,
    /// Intra-bank wear-leveling: rotate each L3 bank's logical→physical
    /// set mapping after this many writes into the bank (i2wap-style
    /// inter-set leveling, §VI of the paper — orthogonal to Re-NUCA and
    /// composable with it). `None` disables (the paper's baseline).
    pub intra_bank_rotation_writes: Option<u64>,
    /// Model L3 bank data-array occupancy: reads/writes/fills reserve the
    /// bank's busy calendar for their service time and later operations
    /// queue behind them (the same mechanism mesh links and DRAM banks
    /// use). Disabling it reverts to the pre-queue model where banks have
    /// infinite internal bandwidth — combined with a symmetric
    /// [`CacheGeometry`] that reproduces the legacy timings exactly.
    pub l3_bank_occupancy: bool,
    /// Sub-blocks per 64 B L3 line for the compressed-LLC schemes
    /// (L2C2-style compaction, ROADMAP item 4): the granularity size
    /// classes are allocated and sub-block wear is counted at. Must
    /// divide the line size ([`SystemConfig::validate`] enforces it).
    /// Only consulted when the placement policy advertises a compression
    /// model; placement-only schemes ignore it entirely.
    pub l3_subblocks: usize,
    /// Seed of the deterministic compression content model (which size
    /// class each `(line, version)` write compresses to).
    pub compress_seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_cores: 16,
            freq_hz: 2.4e9,
            rob_entries: 128,
            fetch_width: 4,
            commit_width: 4,
            mshrs_per_core: 8,
            l1: CacheGeometry::symmetric(32 * 1024, 4, 2),
            l2: CacheGeometry::symmetric(256 * 1024, 8, 5),
            l3_bank: CacheGeometry {
                size_bytes: 2 * 1024 * 1024,
                assoc: 16,
                tag_latency: 20,
                read_latency: 100,
                write_latency: 400,
            },
            n_banks: 16,
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            tlb_entries: 64,
            tlb_assoc: 8,
            page_walk_latency: 60,
            naive_dir_latency: 150,
            criticality_stall_threshold: 12,
            track_block_criticality: false,
            prefetch: PrefetchConfig::default(),
            intra_bank_rotation_writes: None,
            l3_bank_occupancy: true,
            l3_subblocks: 4,
            compress_seed: 0xC0DEC,
        }
    }
}

impl SystemConfig {
    /// The sensitivity-study variant with 128 KB L2 (§V.C).
    pub fn with_l2_128k(mut self) -> Self {
        self.l2.size_bytes = 128 * 1024;
        self
    }

    /// The sensitivity-study variant with 1 MB L3 banks (§V.C).
    pub fn with_l3_1m(mut self) -> Self {
        self.l3_bank.size_bytes = 1024 * 1024;
        self
    }

    /// The sensitivity-study variant with a 168-entry ROB (§V.C).
    pub fn with_rob_168(mut self) -> Self {
        self.rob_entries = 168;
        self
    }

    /// The legacy symmetric-latency L3: every bank operation takes the
    /// read latency and banks never serialize internally. This is the
    /// pre-asymmetric-split timing model, kept for regression comparison
    /// and for studies that want NoC-only contention.
    pub fn with_symmetric_llc(mut self) -> Self {
        let r = self.l3_bank.read_latency;
        self.l3_bank.tag_latency = r;
        self.l3_bank.write_latency = r;
        self.l3_bank_occupancy = false;
        self
    }

    /// Scale the machine down to `n` cores (n a square number ≤ 16) for
    /// fast unit tests. Banks scale with cores; the mesh becomes √n × √n.
    pub fn small(n: usize) -> Self {
        assert!(
            matches!(n, 1 | 4 | 16),
            "small() supports 1, 4 or 16 cores (square meshes)"
        );
        let side = (n as f64).sqrt() as usize;
        SystemConfig {
            n_cores: n,
            n_banks: n,
            noc: NocConfig {
                cols: side,
                rows: side,
                ..NocConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    /// A machine with an arbitrary `cols × rows` mesh (one core and one
    /// bank per tile), including non-power-of-two tile counts — the
    /// placement policies stripe by modulo when masking is unsound (see
    /// `renuca_core::mapping`). Used by the differential harness to check
    /// that no pow2 assumption leaks into the placement or cache paths.
    pub fn mesh(cols: usize, rows: usize) -> Self {
        let n = cols * rows;
        assert!(n > 0, "mesh needs at least one tile");
        SystemConfig {
            n_cores: n,
            n_banks: n,
            noc: NocConfig {
                cols,
                rows,
                ..NocConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    /// Echo every configuration knob into `reg` under `<prefix>.<field>`
    /// dotted paths (e.g. `config.n_cores`, `config.l3_bank.size_bytes`),
    /// in declaration order. Booleans register as 0/1;
    /// `intra_bank_rotation_writes` registers its threshold, with 0 meaning
    /// disabled.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.n_cores"), self.n_cores as u64);
        reg.set(format!("{prefix}.freq_hz"), self.freq_hz);
        reg.set(format!("{prefix}.rob_entries"), self.rob_entries as u64);
        reg.set(format!("{prefix}.fetch_width"), self.fetch_width as u64);
        reg.set(format!("{prefix}.commit_width"), self.commit_width as u64);
        reg.set(
            format!("{prefix}.mshrs_per_core"),
            self.mshrs_per_core as u64,
        );
        for (name, g) in [("l1", self.l1), ("l2", self.l2), ("l3_bank", self.l3_bank)] {
            reg.set(format!("{prefix}.{name}.size_bytes"), g.size_bytes);
            reg.set(format!("{prefix}.{name}.assoc"), g.assoc as u64);
            // Legacy key: the read latency under the pre-split schema name,
            // always emitted so symmetric configs echo byte-identically to
            // pre-split manifests. Asymmetric geometries additionally emit
            // the full three-way split.
            reg.set(format!("{prefix}.{name}.latency"), g.read_latency);
            if !g.is_symmetric() {
                reg.set(format!("{prefix}.{name}.tag_latency"), g.tag_latency);
                reg.set(format!("{prefix}.{name}.read_latency"), g.read_latency);
                reg.set(format!("{prefix}.{name}.write_latency"), g.write_latency);
            }
        }
        reg.set(format!("{prefix}.n_banks"), self.n_banks as u64);
        reg.set(format!("{prefix}.noc.cols"), self.noc.cols as u64);
        reg.set(format!("{prefix}.noc.rows"), self.noc.rows as u64);
        reg.set(format!("{prefix}.noc.hop_cycles"), self.noc.hop_cycles);
        reg.set(
            format!("{prefix}.noc.cycles_per_flit"),
            self.noc.cycles_per_flit,
        );
        reg.set(
            format!("{prefix}.noc.ctrl_flits"),
            self.noc.ctrl_flits as u64,
        );
        reg.set(
            format!("{prefix}.noc.data_flits"),
            self.noc.data_flits as u64,
        );
        reg.set(format!("{prefix}.dram.channels"), self.dram.channels as u64);
        reg.set(format!("{prefix}.dram.ranks"), self.dram.ranks as u64);
        reg.set(
            format!("{prefix}.dram.banks_per_rank"),
            self.dram.banks_per_rank as u64,
        );
        reg.set(format!("{prefix}.dram.row_bytes"), self.dram.row_bytes);
        reg.set(format!("{prefix}.dram.t_rcd"), self.dram.t_rcd);
        reg.set(format!("{prefix}.dram.t_rp"), self.dram.t_rp);
        reg.set(format!("{prefix}.dram.t_cas"), self.dram.t_cas);
        reg.set(format!("{prefix}.dram.t_burst"), self.dram.t_burst);
        reg.set(format!("{prefix}.tlb_entries"), self.tlb_entries as u64);
        reg.set(format!("{prefix}.tlb_assoc"), self.tlb_assoc as u64);
        reg.set(
            format!("{prefix}.page_walk_latency"),
            self.page_walk_latency,
        );
        reg.set(
            format!("{prefix}.naive_dir_latency"),
            self.naive_dir_latency,
        );
        reg.set(
            format!("{prefix}.criticality_stall_threshold"),
            self.criticality_stall_threshold,
        );
        reg.set(
            format!("{prefix}.track_block_criticality"),
            self.track_block_criticality as u64,
        );
        reg.set(
            format!("{prefix}.prefetch.enabled"),
            self.prefetch.enabled as u64,
        );
        reg.set(
            format!("{prefix}.prefetch.streams"),
            self.prefetch.streams as u64,
        );
        reg.set(
            format!("{prefix}.prefetch.degree"),
            self.prefetch.degree as u64,
        );
        reg.set(
            format!("{prefix}.intra_bank_rotation_writes"),
            self.intra_bank_rotation_writes.unwrap_or(0),
        );
        // Only emitted when the bank service model is active, so that
        // legacy symmetric configurations (which also disable occupancy)
        // keep the exact pre-split manifest schema.
        if self.l3_bank_occupancy {
            reg.set(format!("{prefix}.l3_bank_occupancy"), 1u64);
        }
        reg.set(format!("{prefix}.l3_subblocks"), self.l3_subblocks as u64);
        reg.set(format!("{prefix}.compress_seed"), self.compress_seed);
    }

    /// Validate internal consistency. Called by `System::new`.
    ///
    /// # Panics
    /// Panics with [`SystemConfig::check`]'s message on inconsistent
    /// configuration.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Check internal consistency, returning a descriptive message for the
    /// first violated rule. Never panics, whatever the field values — the
    /// campaign spec parser relies on that to reject configurations built
    /// from untrusted text.
    pub fn check(&self) -> Result<(), String> {
        let rule = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        rule(self.n_cores > 0, "need at least one core")?;
        rule(
            self.n_cores == self.n_banks,
            "the paper's NUCA keeps one bank per core",
        )?;
        rule(
            self.noc.cols.checked_mul(self.noc.rows) == Some(self.n_cores),
            "mesh must have one tile per core",
        )?;
        rule(
            self.freq_hz.is_finite() && self.freq_hz > 0.0,
            &format!("freq_hz = {} must be positive and finite", self.freq_hz),
        )?;
        rule(self.fetch_width > 0, "fetch_width must be at least 1")?;
        rule(self.commit_width > 0, "commit_width must be at least 1")?;
        rule(self.mshrs_per_core > 0, "mshrs_per_core must be at least 1")?;
        rule(
            self.rob_entries >= self.fetch_width,
            "rob_entries must be at least fetch_width",
        )?;
        self.dram.check()?;
        // Bank counts need not be powers of two: every bank-selection path
        // (S-NUCA striping, owner decoding, DRAM channel hashing) either
        // masks behind a pow2 check or falls back to modulo.
        for (name, g) in [("l1", self.l1), ("l2", self.l2), ("l3_bank", self.l3_bank)] {
            g.check_sets().map_err(|e| format!("{name}: {e}"))?;
            rule(
                g.tag_latency <= g.read_latency,
                &format!(
                    "{name}: the tag check overlaps the data read on a hit, \
                     so tag_latency must not exceed read_latency"
                ),
            )?;
            rule(
                g.read_latency <= g.write_latency,
                &format!(
                    "{name}: writes cannot be faster than reads \
                     (symmetric geometries use equal latencies)"
                ),
            )?;
        }
        rule(
            self.tlb_entries.checked_rem(self.tlb_assoc) == Some(0)
                && (self.tlb_entries / self.tlb_assoc).is_power_of_two(),
            "tlb_entries / tlb_assoc must be a whole power-of-two number of sets",
        )?;
        // The compression model splits a line into equal sub-blocks; a
        // count that does not divide the 64 B line would leave a ragged
        // tail sub-block the wear masks cannot address.
        rule(
            self.l3_subblocks >= 1
                && self.l3_subblocks as u64 <= LINE_BYTES
                && LINE_BYTES % self.l3_subblocks as u64 == 0,
            &format!(
                "l3_subblocks = {} must divide the {LINE_BYTES} B line size",
                self.l3_subblocks
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        // Table I of the paper, verbatim.
        let c = SystemConfig::default();
        assert_eq!(c.n_cores, 16);
        assert!((c.freq_hz - 2.4e9).abs() < 1.0);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.noc.cols * c.noc.rows, 16); // 4x4 mesh
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.assoc, 4);
        assert_eq!(c.l1, CacheGeometry::symmetric(32 * 1024, 4, 2));
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l2, CacheGeometry::symmetric(256 * 1024, 8, 5));
        assert_eq!(c.l3_bank.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l3_bank.assoc, 16);
        // Table I lists the 100-cycle bank access; the asymmetric ReRAM
        // split (tag 20 / read 100 / write 400) refines it per §II.
        assert_eq!(c.l3_bank.read_latency, 100);
        assert_eq!(c.l3_bank.tag_latency, 20);
        assert_eq!(c.l3_bank.write_latency, 400);
        assert!(!c.l3_bank.is_symmetric());
        assert!(c.l3_bank_occupancy);
        assert_eq!(c.n_banks, 16); // 32 MB total
        assert_eq!(c.dram.channels, 4);
        assert_eq!(c.dram.ranks, 2);
        assert_eq!(c.dram.banks_per_rank, 8);
        c.validate();
    }

    #[test]
    fn sensitivity_variants() {
        assert_eq!(
            SystemConfig::default().with_l2_128k().l2.size_bytes,
            128 * 1024
        );
        assert_eq!(
            SystemConfig::default().with_l3_1m().l3_bank.size_bytes,
            1024 * 1024
        );
        assert_eq!(SystemConfig::default().with_rob_168().rob_entries, 168);
        SystemConfig::default().with_l2_128k().validate();
        SystemConfig::default().with_l3_1m().validate();
        SystemConfig::default().with_rob_168().validate();
    }

    #[test]
    fn cache_geometry_sets() {
        let g = CacheGeometry::symmetric(32 * 1024, 4, 2);
        assert_eq!(g.sets(), 128); // 512 lines / 4 ways
        assert_eq!(g.lines(), 512);
        let l3 = SystemConfig::default().l3_bank;
        assert_eq!(l3.sets(), 2048); // 32768 lines / 16 ways
        assert_eq!(l3.lines(), 32768);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_rejected() {
        CacheGeometry::symmetric(3000, 4, 1).sets();
    }

    #[test]
    fn symmetric_llc_builder_reverts_to_legacy_model() {
        let c = SystemConfig::default().with_symmetric_llc();
        c.validate();
        assert!(c.l3_bank.is_symmetric());
        assert_eq!(c.l3_bank.read_latency, 100);
        assert_eq!(c.l3_bank.write_latency, 100);
        assert!(!c.l3_bank_occupancy);
    }

    #[test]
    #[should_panic(expected = "faster than reads")]
    fn write_faster_than_read_rejected() {
        let mut c = SystemConfig::default();
        c.l3_bank.write_latency = 50;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tag_latency")]
    fn tag_slower_than_read_rejected() {
        let mut c = SystemConfig::default();
        c.l3_bank.tag_latency = 200;
        c.validate();
    }

    #[test]
    fn small_configs() {
        for n in [1, 4, 16] {
            let c = SystemConfig::small(n);
            c.validate();
            assert_eq!(c.n_cores, n);
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn small_rejects_non_square() {
        SystemConfig::small(3);
    }

    #[test]
    fn mesh_allows_non_pow2_tile_counts() {
        let c = SystemConfig::mesh(3, 2);
        c.validate();
        assert_eq!(c.n_cores, 6);
        assert_eq!(c.n_banks, 6);
        assert_eq!((c.noc.cols, c.noc.rows), (3, 2));
        SystemConfig::mesh(2, 2).validate();
        SystemConfig::mesh(1, 1).validate();
        SystemConfig::mesh(5, 1).validate();
    }

    #[test]
    fn dram_total_banks() {
        assert_eq!(DramConfig::default().total_banks(), 64);
    }

    #[test]
    #[should_panic(expected = "must divide the 64 B line size")]
    fn non_dividing_subblock_count_rejected() {
        let mut c = SystemConfig::default();
        c.l3_subblocks = 3;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "must divide the 64 B line size")]
    fn zero_subblock_count_rejected() {
        let mut c = SystemConfig::default();
        c.l3_subblocks = 0;
        c.validate();
    }

    #[test]
    fn check_reports_bad_fields_without_panicking() {
        // Each case names the field its message must mention. Nothing
        // downstream accepts the DRAM, width, MSHR or clock cases: `Dram::new`
        // panics, a zero width livelocks, zero MSHRs retire nothing and the
        // lifetime model divides by the clock.
        let bad: [(_, fn(&mut SystemConfig)); 21] = [
            ("rob_entries", |c| c.rob_entries = 0),
            ("l2", |c| c.l2.size_bytes = 1000),
            ("l1", |c| c.l1.assoc = 0),
            ("tlb_assoc", |c| c.tlb_assoc = 0),
            ("mesh", |c| {
                (c.noc.cols, c.noc.rows) = (usize::MAX, usize::MAX)
            }),
            ("bank", |c| c.n_banks = 0),
            ("dram.channels", |c| c.dram.channels = 0),
            ("dram.channels", |c| c.dram.channels = 3),
            ("dram.ranks", |c| c.dram.ranks = 0),
            ("dram.banks_per_rank", |c| c.dram.banks_per_rank = 0),
            ("dram.ranks", |c| c.dram.ranks = 3),
            ("dram.ranks", |c| c.dram.ranks = usize::MAX),
            ("dram.row_bytes", |c| c.dram.row_bytes = 0),
            ("fetch_width", |c| c.fetch_width = 0),
            ("commit_width", |c| c.commit_width = 0),
            ("mshrs_per_core", |c| c.mshrs_per_core = 0),
            ("freq_hz", |c| c.freq_hz = 0.0),
            ("freq_hz", |c| c.freq_hz = -2.4e9),
            ("freq_hz", |c| c.freq_hz = f64::NAN),
            ("freq_hz", |c| c.freq_hz = f64::INFINITY),
            ("freq_hz", |c| c.freq_hz = f64::NEG_INFINITY),
        ];
        for (i, (field, f)) in bad.iter().enumerate() {
            for base in [SystemConfig::default(), SystemConfig::small(4)] {
                let mut c = base;
                f(&mut c);
                match c.check() {
                    Ok(()) => panic!("case {i} ({field}) accepted"),
                    Err(e) => assert!(e.contains(field), "case {i}: {e:?} does not name {field}"),
                }
            }
        }
        assert_eq!(SystemConfig::default().check(), Ok(()));
        assert_eq!(SystemConfig::small(4).check(), Ok(()));
    }

    #[test]
    fn dividing_subblock_counts_accepted() {
        for sb in [1usize, 2, 4, 8, 16, 32, 64] {
            let mut c = SystemConfig::default();
            c.l3_subblocks = sb;
            c.validate();
        }
    }
}
