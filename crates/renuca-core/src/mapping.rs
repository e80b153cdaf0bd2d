//! The L3 placement policies: the paper's five schemes, the two
//! placement competitors from the related work (WEC, Coloring), the
//! MBV-less Re-NUCA ablation, and [`Composed`], the one carrier that gives
//! a placement a non-default L3 replacement policy or a compression model
//! (how MAC and Re-NUCA-C2 are built; see [`crate::scheme`]).
//!
//! All policies implement [`cmp_sim::placement::LlcPlacement`]. Bank ids
//! coincide with mesh tile ids (one bank per core tile, paper Table I).

use cmp_sim::cache::ReplacementKind;
use cmp_sim::placement::{AccessMeta, LlcPlacement};
use cmp_sim::table::FixedTable;
use cmp_sim::types::{line_index_in_page, owner_of_line, BankId, CoreId, Cycle};

use crate::tlb::EnhancedTlb;

/// The owning core of a line, clamped into the machine (test traces may use
/// raw low addresses whose owner bits decode past `n_cores`).
///
/// Masking with `n_cores - 1` is only a clamp when `n_cores` is a power of
/// two; for any other machine size it silently decodes wrong owners (e.g.
/// core 5 of 6 would alias onto core 4), so non-pow2 counts take the modulo
/// path.
#[inline]
pub fn owner(line: u64, n_cores: usize) -> CoreId {
    let raw = owner_of_line(line);
    if n_cores.is_power_of_two() {
        raw & (n_cores - 1)
    } else {
        raw % n_cores
    }
}

// ---------------------------------------------------------------------------
// S-NUCA
// ---------------------------------------------------------------------------

/// Static NUCA: the bank is selected by the low bits of the line address
/// (paper §II.B). Every core's lines stripe across all banks, so writes are
/// spread evenly — the wear-leveling baseline.
#[derive(Clone, Copy, Debug)]
pub struct SNuca {
    n_banks: u64,
    /// `n_banks - 1` when `n_banks` is a power of two — the mask fast path
    /// every pow2 configuration takes. `None` falls back to modulo.
    mask: Option<u64>,
}

impl SNuca {
    /// S-NUCA over `n_banks` banks (pow2 counts stripe by mask, others by
    /// modulo).
    pub fn new(n_banks: usize) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        SNuca {
            n_banks: n_banks as u64,
            mask: n_banks.is_power_of_two().then(|| n_banks as u64 - 1),
        }
    }

    /// The bank a line maps to.
    #[inline]
    pub fn bank_of(&self, line: u64) -> BankId {
        match self.mask {
            Some(m) => (line & m) as BankId,
            None => (line % self.n_banks) as BankId,
        }
    }
}

impl LlcPlacement for SNuca {
    fn name(&self) -> &'static str {
        "S-NUCA"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.bank_of(meta.line)
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.bank_of(meta.line)
    }
}

// ---------------------------------------------------------------------------
// R-NUCA
// ---------------------------------------------------------------------------

/// Reactive NUCA (Hardavellas et al., ISCA'09; paper §II.B): each core's
/// blocks live in a fixed-size **cluster** of banks at most one window away
/// from the core's tile, selected by rotational interleaving:
///
/// ```text
/// DestinationBank = cluster[(Addr + RID + 1) & (n − 1)],   n = 4
/// ```
///
/// Clusters are the 2×2 tile windows containing the core (clamped at mesh
/// edges), so interior windows overlap and neighbouring cores share banks —
/// private data stays close, but write pressure concentrates in each
/// window, which is exactly the wear problem Re-NUCA attacks.
#[derive(Clone, Debug)]
pub struct RNuca {
    cols: usize,
    rows: usize,
    n_cores: usize,
    /// Precomputed cluster bank list per core.
    clusters: Vec<Vec<BankId>>,
    /// Rotational ID per core.
    rids: Vec<u64>,
}

impl RNuca {
    /// R-NUCA on a `cols × rows` mesh (one core + one bank per tile).
    pub fn new(cols: usize, rows: usize) -> Self {
        let n_cores = cols * rows;
        let mut clusters = Vec::with_capacity(n_cores);
        let mut rids = Vec::with_capacity(n_cores);
        for core in 0..n_cores {
            let x = core % cols;
            let y = core / cols;
            // 2x2 window clamped inside the mesh (degenerates gracefully on
            // 1-wide meshes).
            let wx = x.min(cols.saturating_sub(2));
            let wy = y.min(rows.saturating_sub(2));
            let xs = if cols >= 2 { vec![wx, wx + 1] } else { vec![0] };
            let ys = if rows >= 2 { vec![wy, wy + 1] } else { vec![0] };
            let mut cluster = Vec::with_capacity(xs.len() * ys.len());
            for &cy in &ys {
                for &cx in &xs {
                    cluster.push(cy * cols + cx);
                }
            }
            // Rotational ID: the core's position within its window.
            let rid = ((x - wx) + 2 * (y - wy)) as u64;
            clusters.push(cluster);
            rids.push(rid);
        }
        RNuca {
            cols,
            rows,
            n_cores,
            clusters,
            rids,
        }
    }

    /// The cluster banks of a core.
    pub fn cluster(&self, core: CoreId) -> &[BankId] {
        &self.clusters[core]
    }

    /// The bank a (core, line) pair maps to.
    #[inline]
    pub fn bank_of(&self, core: CoreId, line: u64) -> BankId {
        let cluster = &self.clusters[core];
        let n = cluster.len() as u64;
        debug_assert!(n.is_power_of_two());
        let idx = (line + self.rids[core] + 1) & (n - 1);
        cluster[idx as usize]
    }

    /// Mesh geometry.
    pub fn geometry(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }
}

impl LlcPlacement for RNuca {
    fn name(&self) -> &'static str {
        "R-NUCA"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.bank_of(owner(meta.line, self.n_cores), meta.line)
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.bank_of(owner(meta.line, self.n_cores), meta.line)
    }
}

// ---------------------------------------------------------------------------
// Private
// ---------------------------------------------------------------------------

/// Private L3: each core uses exactly its local bank (paper §III). Best
/// latency (zero hops), worst wear variation — a write-heavy program grinds
/// down its own bank alone.
#[derive(Clone, Copy, Debug)]
pub struct PrivateMap {
    n_cores: usize,
}

impl PrivateMap {
    /// Private banks for `n_cores` cores (any positive count — `owner`
    /// clamps correctly for non-pow2 machines too).
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        PrivateMap { n_cores }
    }
}

impl LlcPlacement for PrivateMap {
    fn name(&self) -> &'static str {
        "Private"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        owner(meta.line, self.n_cores)
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        owner(meta.line, self.n_cores)
    }
}

// ---------------------------------------------------------------------------
// Naive (perfect wear-leveling oracle)
// ---------------------------------------------------------------------------

/// Per-bank L3 write counters with their lowest-index argmin kept up to
/// date incrementally: counters only grow, so a write to any bank but the
/// current minimum cannot move it, and the O(n_banks) rescan runs only
/// when the minimum bank itself is written. [`NaiveOracle`] and [`Wec`]
/// read the coldest bank on every fill in O(1).
#[derive(Clone, Debug)]
struct WriteCounters {
    writes: Vec<u64>,
    min_bank: BankId,
}

impl WriteCounters {
    fn new(n_banks: usize) -> Self {
        WriteCounters {
            writes: vec![0; n_banks],
            min_bank: 0,
        }
    }

    #[inline]
    fn record(&mut self, bank: BankId) {
        self.writes[bank] += 1;
        if bank == self.min_bank {
            self.min_bank = Self::scan_argmin(&self.writes);
        }
    }

    /// Lowest-index bank with the fewest writes (the cached argmin).
    #[inline]
    fn min_bank(&self) -> BankId {
        debug_assert_eq!(
            self.min_bank,
            Self::scan_argmin(&self.writes),
            "cached argmin out of sync with write counters"
        );
        self.min_bank
    }

    /// Full lowest-index argmin scan over the counters.
    fn scan_argmin(writes: &[u64]) -> BankId {
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
}

/// The paper's §III.A "Naive" scheme: every fill goes to the bank with the
/// fewest writes so far, yielding perfect wear-leveling (0% variation) —
/// and requiring a global directory to find lines again, whose lookup
/// latency (plus the lost locality) costs ~21% performance vs S-NUCA. The
/// paper uses it as an upper bound on leveling, not as a practical design.
#[derive(Clone, Debug)]
pub struct NaiveOracle {
    writes: WriteCounters,
    directory: FixedTable<BankId>,
    dir_latency: Cycle,
    fallback: SNuca,
}

impl NaiveOracle {
    /// A Naive oracle over `n_banks` banks charging `dir_latency` cycles of
    /// directory indirection per LLC lookup, sized for the paper's 2 MB
    /// banks (32 K lines each). Use [`NaiveOracle::with_line_capacity`]
    /// when the bank geometry differs.
    pub fn new(n_banks: usize, dir_latency: Cycle) -> Self {
        Self::with_line_capacity(n_banks, dir_latency, n_banks * 32_768)
    }

    /// A Naive oracle whose directory is bounded to `max_lines` tracked
    /// lines (the LLC capacity in lines — entries are removed on eviction,
    /// with one in-flight fill per bank of slack).
    pub fn with_line_capacity(n_banks: usize, dir_latency: Cycle, max_lines: usize) -> Self {
        let bound = max_lines + n_banks;
        NaiveOracle {
            writes: WriteCounters::new(n_banks),
            directory: FixedTable::with_capacity(bound.min(4096), bound),
            dir_latency,
            fallback: SNuca::new(n_banks),
        }
    }

    /// Number of lines currently tracked by the directory.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// Per-bank write counters (oracle state).
    pub fn write_counters(&self) -> &[u64] {
        &self.writes.writes
    }
}

impl LlcPlacement for NaiveOracle {
    fn name(&self) -> &'static str {
        "Naive"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        // Directory hit: the line's actual bank. Miss: the line is not
        // resident; probe the S-NUCA home (the miss will be detected there
        // and `fill_bank` decides the real placement).
        self.directory
            .get(meta.line)
            .copied()
            .unwrap_or_else(|| self.fallback.bank_of(meta.line))
    }
    fn fill_bank(&mut self, _meta: &AccessMeta) -> BankId {
        self.writes.min_bank()
    }
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.directory.insert(meta.line, bank);
    }
    fn on_l3_write(&mut self, bank: BankId) {
        self.writes.record(bank);
    }
    fn on_evict(&mut self, line: u64, bank: BankId) {
        let removed = self.directory.remove(line);
        debug_assert_eq!(removed, Some(bank), "directory out of sync");
    }
    fn lookup_overhead(&self) -> Cycle {
        self.dir_latency
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Re-NUCA
// ---------------------------------------------------------------------------

/// Re-NUCA placement statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReNucaStats {
    /// Fills placed with the R-NUCA mapping (critical blocks).
    pub critical_fills: u64,
    /// Fills placed with the S-NUCA mapping (non-critical blocks).
    pub noncritical_fills: u64,
    /// Lookups routed by an MBV bit of 1 (R-NUCA side).
    pub lookups_rnuca: u64,
    /// Lookups routed by an MBV bit of 0 (S-NUCA side).
    pub lookups_snuca: u64,
    /// Lookups whose MBV word came from the resolved-route cache (no
    /// enhanced-TLB probe). Simulator-internal; no hardware analogue.
    pub route_hits: u64,
    /// Lookups that missed the route cache and faulted the page's MBV in
    /// through the enhanced TLB.
    pub route_misses: u64,
}

/// **Re-NUCA** (paper §IV): the hybrid mapping.
///
/// * **Fill**: a block fetched by a load the CPT predicted *critical* is
///   placed with the R-NUCA mapping (close to its core); anything else —
///   non-critical loads, store allocations, first-touch PCs — is placed
///   with S-NUCA (spread over all banks). *"When a cache line is brought to
///   the cache for the first time, we assume a cache line is not critical"*.
/// * **Lookup**: the per-page Mapping Bit Vector in the enhanced TLB
///   remembers which mapping each resident line used, so an L2 miss goes
///   straight to the right bank with no directory.
/// * **Evict**: the line's MBV bit is reset to 0.
///
/// A line's mapping never changes while it is resident (no migration).
///
/// # Resolved-route cache
///
/// `lookup_bank` is the hottest call in the simulator: every L2 miss takes
/// it, and the straightforward path re-walks the enhanced TLB's set/LRU
/// machinery on each call. The route cache short-circuits that walk with a
/// per-core page → MBV-word table mirroring exactly the pages currently
/// TLB-resident. Because routes are a pure function of the MBV word, the
/// cache stays coherent with a *precise* invalidation set:
///
/// * **MBV bit flip** (`on_fill` / `on_evict` → `set_mbv_bit`): the cached
///   word is updated in place. These are the only MBV mutation points.
/// * **TLB eviction**: [`EnhancedTlb::fault_in_reported`] names the evicted
///   page and its route entry is dropped, preserving the invariant
///   "route entry present ⇒ page TLB-resident".
/// * **CPT threshold crossings** need *no* invalidation: criticality only
///   influences where *future fills* go (`fill_bank`); a resolved route
///   depends on the MBV alone, and residency — not prediction — routes.
///
/// The cache is simulator-internal (hardware reads the MBV for free with
/// the translation, §IV.C); it must never change a routing decision, only
/// how fast the simulator computes it. Cache hits skip the TLB's LRU
/// touch, so enhanced-TLB hit/miss *statistics* differ from the uncached
/// path — MBV contents, placement decisions and placement statistics do
/// not, which is what the differential harness checks.
pub struct ReNuca {
    snuca: SNuca,
    rnuca: RNuca,
    n_cores: usize,
    /// Per-core enhanced TLBs holding the Mapping Bit Vectors.
    tlbs: Vec<EnhancedTlb>,
    /// Per-core resolved-route cache: page → MBV word, mirroring the
    /// TLB-resident pages (bounded by the TLB entry count).
    route: Vec<FixedTable<u64>>,
    /// Placement statistics.
    pub renuca_stats: ReNucaStats,
}

impl ReNuca {
    /// Build Re-NUCA for a `cols × rows` mesh with the paper's enhanced-TLB
    /// geometry (64 entries, 8-way).
    pub fn new(cols: usize, rows: usize) -> Self {
        Self::with_tlb_geometry(cols, rows, 64, 8)
    }

    /// Build with a custom enhanced-TLB geometry (ablations).
    pub fn with_tlb_geometry(
        cols: usize,
        rows: usize,
        tlb_entries: usize,
        tlb_assoc: usize,
    ) -> Self {
        let n_cores = cols * rows;
        ReNuca {
            snuca: SNuca::new(n_cores),
            rnuca: RNuca::new(cols, rows),
            n_cores,
            tlbs: (0..n_cores)
                .map(|_| EnhancedTlb::new(tlb_entries, tlb_assoc))
                .collect(),
            // One route entry per TLB-resident page, so the TLB entry
            // count bounds the table (+1 slack for the insert-then-remove
            // window inside a single lookup).
            route: (0..n_cores)
                .map(|_| FixedTable::with_capacity(tlb_entries, tlb_entries + 1))
                .collect(),
            renuca_stats: ReNucaStats::default(),
        }
    }

    /// Mirror an MBV bit update into the resolved-route cache, if the page
    /// has a cached route. Keeps cached words bit-exact with the TLB.
    #[inline]
    fn route_update(&mut self, core: CoreId, page: u64, bit: u32, value: bool) {
        if let Some(word) = self.route[core].get_mut(page) {
            if value {
                *word |= 1u64 << bit;
            } else {
                *word &= !(1u64 << bit);
            }
        }
    }

    /// The enhanced TLB of one core (inspection).
    pub fn tlb(&self, core: CoreId) -> &EnhancedTlb {
        &self.tlbs[core]
    }

    /// Decode the core and MBV bit position of a line.
    #[inline]
    fn locate(&self, line: u64) -> (CoreId, u64, u32) {
        let core = owner(line, self.n_cores);
        let page = cmp_sim::types::page_of_line(line);
        let bit = line_index_in_page(line) as u32;
        (core, page, bit)
    }
}

impl LlcPlacement for ReNuca {
    fn name(&self) -> &'static str {
        "Re-NUCA"
    }

    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        let (core, page, bit) = self.locate(meta.line);
        let mbv = if let Some(&word) = self.route[core].get(page) {
            self.renuca_stats.route_hits += 1;
            word
        } else {
            self.renuca_stats.route_misses += 1;
            let (word, evicted) = self.tlbs[core].fault_in_reported(page);
            if let Some(out) = evicted {
                self.route[core].remove(out);
            }
            self.route[core].insert(page, word);
            word
        };
        if (mbv >> bit) & 1 == 1 {
            self.renuca_stats.lookups_rnuca += 1;
            self.rnuca.bank_of(core, meta.line)
        } else {
            self.renuca_stats.lookups_snuca += 1;
            self.snuca.bank_of(meta.line)
        }
    }

    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let (core, _, _) = self.locate(meta.line);
        if meta.predicted_critical {
            self.rnuca.bank_of(core, meta.line)
        } else {
            self.snuca.bank_of(meta.line)
        }
    }

    fn on_fill(&mut self, meta: &AccessMeta, _bank: BankId) {
        let (core, page, bit) = self.locate(meta.line);
        if meta.predicted_critical {
            self.renuca_stats.critical_fills += 1;
        } else {
            self.renuca_stats.noncritical_fills += 1;
        }
        self.tlbs[core].set_mbv_bit(page, bit, meta.predicted_critical);
        self.route_update(core, page, bit, meta.predicted_critical);
    }

    fn on_evict(&mut self, line: u64, _bank: BankId) {
        let (core, page, bit) = self.locate(line);
        self.tlbs[core].set_mbv_bit(page, bit, false);
        self.route_update(core, page, bit, false);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Re-NUCA without the enhanced TLB (two-probe ablation)
// ---------------------------------------------------------------------------

/// The MBV-less Re-NUCA ablation: same criticality-gated *fill* policy, but
/// no Mapping Bit Vector — on lookup the controller probes the S-NUCA home
/// first and, on a miss there, forwards a second serialized probe to the
/// R-NUCA candidate. This is the design the paper's §IV.C enhanced TLB
/// exists to avoid: the two-probe search costs an extra bank access plus a
/// mesh hop on every lookup of an R-NUCA-resident line (and on every true
/// miss), quantifying the MBV's value.
pub struct ReNucaTwoProbe {
    snuca: SNuca,
    rnuca: RNuca,
    n_cores: usize,
}

impl ReNucaTwoProbe {
    /// Build for a `cols × rows` mesh.
    pub fn new(cols: usize, rows: usize) -> Self {
        ReNucaTwoProbe {
            snuca: SNuca::new(cols * rows),
            rnuca: RNuca::new(cols, rows),
            n_cores: cols * rows,
        }
    }
}

impl LlcPlacement for ReNucaTwoProbe {
    fn name(&self) -> &'static str {
        "Re-NUCA-2probe"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        // Probe the S-NUCA home first (the common, non-critical case).
        self.snuca.bank_of(meta.line)
    }
    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        let core = owner(meta.line, self.n_cores);
        Some(self.rnuca.bank_of(core, meta.line))
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let core = owner(meta.line, self.n_cores);
        if meta.predicted_critical {
            self.rnuca.bank_of(core, meta.line)
        } else {
            self.snuca.bank_of(meta.line)
        }
    }
}

// ---------------------------------------------------------------------------
// Composed (a placement plus a non-default replacement or compression)
// ---------------------------------------------------------------------------

/// A base placement carrying the parts of a scheme below placement: the
/// L3 banks' victim selection and the compression model, which the
/// hierarchy reads once at construction. The carrier answers those and the
/// name, and forwards every other call, `as_any` included, to the
/// statically typed inner placement. [`crate::SchemeParts::build`] builds
/// MAC as S-NUCA carrying [`ReplacementKind::WriteAware`] and Re-NUCA-C2 as
/// Re-NUCA carrying a [`compress::CompressSpec`].
pub struct Composed<P> {
    pub(crate) inner: P,
    pub(crate) name: &'static str,
    pub(crate) replacement: ReplacementKind,
    pub(crate) compression: Option<compress::CompressSpec>,
}

impl<P: LlcPlacement + 'static> LlcPlacement for Composed<P> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.inner.lookup_bank(meta)
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.inner.fill_bank(meta)
    }
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.inner.on_fill(meta, bank);
    }
    fn on_l3_write(&mut self, bank: BankId) {
        self.inner.on_l3_write(bank);
    }
    fn on_evict(&mut self, line: u64, bank: BankId) {
        self.inner.on_evict(line, bank);
    }
    fn lookup_overhead(&self) -> Cycle {
        self.inner.lookup_overhead()
    }
    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        self.inner.secondary_bank(meta)
    }
    fn l3_replacement(&self) -> ReplacementKind {
        self.replacement
    }
    fn compression(&self) -> Option<compress::CompressSpec> {
        self.compression
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

// ---------------------------------------------------------------------------
// WEC (write-endurance-aware redirection, Mittal arXiv:1311.0041)
// ---------------------------------------------------------------------------

/// Hot-bank redirection threshold of [`Wec`] in writes. A fill whose S-NUCA
/// home bank carries at least this many more writes than the least-written
/// bank is redirected there. Small enough to trigger on the differential
/// harness's tiny traces; `crates/golden` duplicates it (golden re-derives
/// everything from documented semantics, including constants) and the
/// harness cross-checks the two.
pub const WEC_THRESHOLD: u64 = 8;

/// **WEC**: Mittal's set-level write-endurance-aware cache management
/// (arXiv:1311.0041), adapted to NUCA bank granularity. The original design
/// tracks per-set write counters inside one cache and redirects writes away
/// from hot sets; across a banked LLC the same idea reads as *per-bank*
/// counters with fills redirected from a hot S-NUCA home to the coldest
/// bank. Unlike the Naive oracle, redirection is exceptional — most fills
/// keep their S-NUCA home, so only the redirected minority needs directory
/// state to be found again (bounded [`FixedTable`], entries removed on
/// eviction).
#[derive(Clone, Debug)]
pub struct Wec {
    writes: WriteCounters,
    threshold: u64,
    /// Residency directory for *redirected* lines only: a line absent here
    /// is at its S-NUCA home.
    directory: FixedTable<BankId>,
    snuca: SNuca,
    /// Injected-bug switch for the mutation self-check: redirected fills go
    /// one bank past the coldest one. Internally consistent (the directory
    /// still records the bank actually used) but observably wrong vs the
    /// golden mirror. Never set by [`crate::Scheme::build_policy`].
    bug_skewed_redirect: bool,
}

impl Wec {
    /// WEC over `n_banks` banks, sized for the paper's 2 MB banks. Use
    /// [`Wec::with_line_capacity`] when the bank geometry differs.
    pub fn new(n_banks: usize) -> Self {
        Self::with_line_capacity(n_banks, n_banks * 32_768)
    }

    /// WEC whose redirection directory is bounded to `max_lines` tracked
    /// lines (the LLC capacity — entries leave on eviction, with one
    /// in-flight fill per bank of slack).
    pub fn with_line_capacity(n_banks: usize, max_lines: usize) -> Self {
        let bound = max_lines + n_banks;
        Wec {
            writes: WriteCounters::new(n_banks),
            threshold: WEC_THRESHOLD,
            directory: FixedTable::with_capacity(bound.min(4096), bound),
            snuca: SNuca::new(n_banks),
            bug_skewed_redirect: false,
        }
    }

    /// The deliberately buggy twin (see `bug_skewed_redirect`); built only
    /// by the differential harness's mutation self-check.
    pub fn bugged(n_banks: usize, max_lines: usize) -> Self {
        Wec {
            bug_skewed_redirect: true,
            ..Self::with_line_capacity(n_banks, max_lines)
        }
    }

    /// Per-bank write counters (inspection for the differential harness).
    pub fn write_counters(&self) -> &[u64] {
        &self.writes.writes
    }

    /// Number of redirected lines currently tracked.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }
}

impl LlcPlacement for Wec {
    fn name(&self) -> &'static str {
        "WEC"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.directory
            .get(meta.line)
            .copied()
            .unwrap_or_else(|| self.snuca.bank_of(meta.line))
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let (coldest, writes) = (self.writes.min_bank(), &self.writes.writes);
        let home = self.snuca.bank_of(meta.line);
        if writes[home] >= writes[coldest] + self.threshold {
            if self.bug_skewed_redirect {
                (coldest + 1) % writes.len()
            } else {
                coldest
            }
        } else {
            home
        }
    }
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        // Only redirected lines need residency state; home-resident lines
        // are found by the S-NUCA map alone.
        if bank != self.snuca.bank_of(meta.line) {
            self.directory.insert(meta.line, bank);
        }
    }
    fn on_l3_write(&mut self, bank: BankId) {
        self.writes.record(bank);
    }
    fn on_evict(&mut self, line: u64, bank: BankId) {
        match self.directory.remove(line) {
            Some(recorded) => debug_assert_eq!(recorded, bank, "directory out of sync"),
            None => debug_assert_eq!(
                bank,
                self.snuca.bank_of(line),
                "untracked eviction away from the S-NUCA home"
            ),
        }
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Coloring (inter-set write-variation flattening, Mittal arXiv:1310.8494)
// ---------------------------------------------------------------------------

/// Writes per remap epoch of [`Coloring`]. Every `COLORING_EPOCH` L3 writes
/// the bank-map rotation advances by one, migrating each address's home one
/// bank over. Small enough that differential traces cross several epochs;
/// duplicated in `crates/golden` (see [`WEC_THRESHOLD`]).
pub const COLORING_EPOCH: u64 = 64;

/// **Coloring**: Mittal's cache-coloring remap against inter-set write
/// variation (arXiv:1310.8494), lifted to bank granularity: the mapping
/// from S-NUCA home to physical bank is shifted by a rotation that advances
/// every [`COLORING_EPOCH`] writes, so sustained write pressure on one
/// address region sweeps across all banks over time instead of grinding one
/// bank down. Because the map moves while lines are resident, *every* fill
/// records its bank in a residency directory ([`FixedTable`], removed on
/// eviction) — lookups hit the directory first and only directory misses
/// (non-resident lines) use the current map.
#[derive(Clone, Debug)]
pub struct Coloring {
    n_banks: u64,
    snuca: SNuca,
    epoch_writes: u64,
    total_writes: u64,
    directory: FixedTable<BankId>,
}

impl Coloring {
    /// Coloring over `n_banks` banks, sized for the paper's 2 MB banks. Use
    /// [`Coloring::with_line_capacity`] when the bank geometry differs.
    pub fn new(n_banks: usize) -> Self {
        Self::with_line_capacity(n_banks, n_banks * 32_768)
    }

    /// Coloring with a directory bounded to `max_lines` tracked lines.
    pub fn with_line_capacity(n_banks: usize, max_lines: usize) -> Self {
        Self::with_epoch(n_banks, max_lines, COLORING_EPOCH)
    }

    /// Coloring with an explicit epoch length. The differential harness's
    /// mutation self-check builds the off-by-one twin
    /// (`COLORING_EPOCH - 1`) through this — an injected bug of exactly the
    /// class a real regression would introduce.
    pub fn with_epoch(n_banks: usize, max_lines: usize, epoch_writes: u64) -> Self {
        assert!(epoch_writes > 0, "epoch must be positive");
        let bound = max_lines + n_banks;
        Coloring {
            n_banks: n_banks as u64,
            snuca: SNuca::new(n_banks),
            epoch_writes,
            total_writes: 0,
            directory: FixedTable::with_capacity(bound.min(4096), bound),
        }
    }

    /// The current rotation of the bank map.
    pub fn shift(&self) -> u64 {
        (self.total_writes / self.epoch_writes) % self.n_banks
    }

    /// Total L3 writes observed (drives the epoch clock).
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Number of resident lines currently tracked.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// The bank a *new* fill of `line` maps to under the current rotation.
    #[inline]
    fn current_bank(&self, line: u64) -> BankId {
        ((self.snuca.bank_of(line) as u64 + self.shift()) % self.n_banks) as BankId
    }
}

impl LlcPlacement for Coloring {
    fn name(&self) -> &'static str {
        "Coloring"
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.directory
            .get(meta.line)
            .copied()
            .unwrap_or_else(|| self.current_bank(meta.line))
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.current_bank(meta.line)
    }
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.directory.insert(meta.line, bank);
    }
    fn on_l3_write(&mut self, _bank: BankId) {
        self.total_writes += 1;
    }
    fn on_evict(&mut self, line: u64, bank: BankId) {
        let removed = self.directory.remove(line);
        debug_assert_eq!(removed, Some(bank), "directory out of sync");
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::placement::LlcAccessKind;
    use cmp_sim::types::phys_addr;

    fn meta(line: u64, critical: bool) -> AccessMeta {
        AccessMeta {
            core: owner(line, 16),
            line,
            page: cmp_sim::types::page_of_line(line),
            pc: 1,
            kind: LlcAccessKind::Demand,
            predicted_critical: critical,
        }
    }

    // --- S-NUCA ---

    #[test]
    fn snuca_stripes_by_low_bits() {
        let mut s = SNuca::new(16);
        for line in 0..64u64 {
            assert_eq!(s.lookup_bank(&meta(line, false)), (line & 15) as usize);
        }
    }

    #[test]
    fn snuca_lookup_equals_fill() {
        let mut s = SNuca::new(16);
        for line in [0u64, 17, 12345, 1 << 30] {
            let m = meta(line, true);
            assert_eq!(s.lookup_bank(&m), s.fill_bank(&m));
        }
    }

    // --- R-NUCA ---

    #[test]
    fn rnuca_cluster_is_one_window() {
        let r = RNuca::new(4, 4);
        // Core 5 = tile (1,1): window (1,1)..(2,2) -> banks 5,6,9,10.
        assert_eq!(r.cluster(5), &[5, 6, 9, 10]);
        // Corner core 15 = (3,3): clamped window (2,2) -> banks 10,11,14,15.
        assert_eq!(r.cluster(15), &[10, 11, 14, 15]);
        // Corner core 0: window (0,0) -> banks 0,1,4,5.
        assert_eq!(r.cluster(0), &[0, 1, 4, 5]);
    }

    #[test]
    fn rnuca_cluster_banks_are_near_the_core() {
        let r = RNuca::new(4, 4);
        for core in 0..16 {
            let (cx, cy) = (core % 4, core / 4);
            for &b in r.cluster(core) {
                let (bx, by) = (b % 4, b / 4);
                let dist = cx.abs_diff(bx) + cy.abs_diff(by);
                assert!(dist <= 2, "core {core} bank {b} is {dist} hops away");
            }
        }
    }

    #[test]
    fn rnuca_rotational_interleaving_covers_cluster() {
        let r = RNuca::new(4, 4);
        for core in 0..16usize {
            let mut seen = std::collections::HashSet::new();
            for line in 0..16u64 {
                seen.insert(r.bank_of(core, line));
            }
            assert_eq!(seen.len(), 4, "core {core} must use all 4 cluster banks");
            for b in &seen {
                assert!(r.cluster(core).contains(b));
            }
        }
    }

    #[test]
    fn rnuca_mapping_is_deterministic_per_line() {
        let mut r = RNuca::new(4, 4);
        let line = phys_addr(3, 0x12340) >> 6;
        let m = meta(line, false);
        let b1 = r.lookup_bank(&m);
        let b2 = r.lookup_bank(&m);
        let b3 = r.fill_bank(&m);
        assert_eq!(b1, b2);
        assert_eq!(b1, b3);
    }

    #[test]
    fn rnuca_localizes_each_cores_lines() {
        // All of core 12's lines land inside core 12's cluster.
        let mut r = RNuca::new(4, 4);
        for i in 0..100u64 {
            let line = phys_addr(12, i * 64) >> 6;
            let b = r.lookup_bank(&meta(line, false));
            assert!(r.cluster(12).contains(&b));
        }
    }

    #[test]
    fn rnuca_works_on_small_meshes() {
        let r = RNuca::new(2, 2);
        assert_eq!(r.cluster(0).len(), 4);
        let r1 = RNuca::new(1, 1);
        assert_eq!(r1.cluster(0), &[0]);
        assert_eq!(r1.bank_of(0, 1234), 0);
    }

    // --- Private ---

    #[test]
    fn private_uses_owner_bank() {
        let mut p = PrivateMap::new(16);
        for core in 0..16usize {
            let line = phys_addr(core, 0x5000) >> 6;
            assert_eq!(p.lookup_bank(&meta(line, false)), core);
            assert_eq!(p.fill_bank(&meta(line, true)), core);
        }
    }

    // --- Naive ---

    #[test]
    fn naive_fills_least_written_bank() {
        let mut n = NaiveOracle::new(4, 60);
        // Pre-load writes: bank 2 is the least written.
        n.on_l3_write(0);
        n.on_l3_write(0);
        n.on_l3_write(1);
        n.on_l3_write(3);
        assert_eq!(n.fill_bank(&meta(100, false)), 2);
    }

    #[test]
    fn naive_directory_finds_filled_lines() {
        let mut n = NaiveOracle::new(4, 60);
        let m = meta(0xabc, false);
        let bank = n.fill_bank(&m);
        n.on_fill(&m, bank);
        assert_eq!(n.lookup_bank(&m), bank);
        assert_eq!(n.directory_len(), 1);
        n.on_evict(m.line, bank);
        assert_eq!(n.directory_len(), 0);
        // After eviction lookups fall back to the S-NUCA probe bank.
        assert_eq!(n.lookup_bank(&m), (m.line & 3) as usize);
    }

    #[test]
    fn naive_charges_directory_latency() {
        let n = NaiveOracle::new(16, 60);
        assert_eq!(n.lookup_overhead(), 60);
        let mut s = SNuca::new(16);
        assert_eq!(LlcPlacement::lookup_overhead(&mut s), 0);
    }

    #[test]
    fn naive_perfectly_levels_synthetic_writes() {
        let mut n = NaiveOracle::new(4, 0);
        // 1000 fills, each writing once: counters must stay within 1.
        for i in 0..1000u64 {
            let m = meta(i, false);
            let b = n.fill_bank(&m);
            n.on_fill(&m, b);
            n.on_l3_write(b);
        }
        let w = n.write_counters();
        let max = w.iter().max().unwrap();
        let min = w.iter().min().unwrap();
        assert!(max - min <= 1, "oracle must level perfectly: {w:?}");
    }

    // --- Re-NUCA ---

    #[test]
    fn renuca_noncritical_goes_snuca_critical_goes_rnuca() {
        let mut r = ReNuca::new(4, 4);
        let line = phys_addr(5, 0x7000) >> 6;

        let nc = meta(line, false);
        assert_eq!(r.fill_bank(&nc), (line & 15) as usize);

        let c = meta(line, true);
        let bank = r.fill_bank(&c);
        assert!(r.rnuca.cluster(5).contains(&bank));
    }

    #[test]
    fn renuca_first_lookup_defaults_to_snuca() {
        let mut r = ReNuca::new(4, 4);
        let line = phys_addr(9, 0x9999_40) >> 6;
        // No fill yet: MBV bit 0 -> S-NUCA side.
        assert_eq!(r.lookup_bank(&meta(line, false)), (line & 15) as usize);
        assert_eq!(r.renuca_stats.lookups_snuca, 1);
    }

    #[test]
    fn renuca_mbv_remembers_critical_placement() {
        let mut r = ReNuca::new(4, 4);
        let line = phys_addr(5, 0x7000) >> 6;
        let c = meta(line, true);
        let bank = r.fill_bank(&c);
        r.on_fill(&c, bank);
        // Later lookups (even with a non-critical prediction!) must follow
        // the MBV to the R-NUCA bank: residency, not prediction, routes.
        let probe = meta(line, false);
        assert_eq!(r.lookup_bank(&probe), bank);
        assert_eq!(r.renuca_stats.lookups_rnuca, 1);
    }

    #[test]
    fn renuca_eviction_resets_mbv() {
        let mut r = ReNuca::new(4, 4);
        let line = phys_addr(5, 0x7000) >> 6;
        let c = meta(line, true);
        let bank = r.fill_bank(&c);
        r.on_fill(&c, bank);
        r.on_evict(line, bank);
        // Post-eviction lookup routes to S-NUCA again.
        assert_eq!(r.lookup_bank(&meta(line, false)), (line & 15) as usize);
    }

    #[test]
    fn renuca_neighbouring_lines_have_independent_bits() {
        let mut r = ReNuca::new(4, 4);
        let base = phys_addr(2, 0x10000);
        let l0 = base >> 6;
        let l1 = (base + 64) >> 6; // next line, same page
        let c = meta(l0, true);
        let b = r.fill_bank(&c);
        r.on_fill(&c, b);
        // l1 was never filled critical: still S-NUCA routed.
        assert_eq!(r.lookup_bank(&meta(l1, false)), (l1 & 15) as usize);
        // l0 is R-NUCA routed.
        assert_eq!(r.lookup_bank(&meta(l0, false)), b);
    }

    #[test]
    fn renuca_stats_track_fill_mix() {
        let mut r = ReNuca::new(4, 4);
        for i in 0..10u64 {
            let line = phys_addr(1, i * 64) >> 6;
            let m = meta(line, i % 2 == 0);
            let b = r.fill_bank(&m);
            r.on_fill(&m, b);
        }
        assert_eq!(r.renuca_stats.critical_fills, 5);
        assert_eq!(r.renuca_stats.noncritical_fills, 5);
    }

    #[test]
    fn two_probe_has_no_residency_state() {
        let mut p = ReNucaTwoProbe::new(4, 4);
        let line = phys_addr(5, 0x7000) >> 6;
        let c = meta(line, true);
        // Critical fills go to the R-NUCA side...
        let fill = p.fill_bank(&c);
        assert!(p.rnuca.cluster(5).contains(&fill));
        // ...but the primary lookup is always the S-NUCA home,
        assert_eq!(p.lookup_bank(&c), (line & 15) as usize);
        // ...with the R-NUCA candidate as the second probe.
        assert_eq!(p.secondary_bank(&c), Some(fill));
        // Evictions are no-ops: there is nothing to reset.
        p.on_evict(line, fill);
        assert_eq!(p.lookup_bank(&c), (line & 15) as usize);
    }

    #[test]
    fn write_counter_argmin_matches_full_scan_under_random_writes() {
        // Seeded differential test of the cached argmin (the Naive oracle's
        // fill bank, WEC's redirect target) against a from-scratch
        // lowest-index scan, on non-pow2 bank counts.
        for (n, mut x) in [(7usize, 0xDEAD_BEEF_CAFE_F00Du64), (5, 0x0DDB_A11_5EED)] {
            let mut c = WriteCounters::new(n);
            for _ in 0..10_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                c.record(((x >> 33) % n as u64) as usize);
                let expect = (0..n).min_by_key(|&b| (c.writes[b], b)).unwrap();
                assert_eq!(c.min_bank(), expect);
            }
        }
    }

    #[test]
    fn route_cache_matches_fresh_tlb_routing() {
        use cmp_sim::types::page_of_line;

        // Seeded property test for the resolved-route cache: a tiny
        // 4-entry enhanced TLB under a random lookup/fill/evict storm over
        // 64 pages churns residency constantly; every lookup must match
        // the route computed fresh from the authoritative MBV word
        // (`EnhancedTlb::mbv` is a pure read — it cannot be served by the
        // route cache).
        fn lcg(x: &mut u64) -> u64 {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x >> 11
        }

        let mut r = ReNuca::with_tlb_geometry(4, 4, 4, 2);
        let snuca = SNuca::new(16);
        let rnuca = RNuca::new(4, 4);
        let space = 64u64 * 64; // line numbers spanning 64 pages
        let mut resident: Vec<(u64, BankId)> = Vec::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        let check = |r: &mut ReNuca, line: u64| {
            let core = owner(line, 16);
            let page = page_of_line(line);
            let bit = line_index_in_page(line) as u32;
            let expect = if (r.tlb(core).mbv(page) >> bit) & 1 == 1 {
                rnuca.bank_of(core, line)
            } else {
                snuca.bank_of(line)
            };
            assert_eq!(
                r.lookup_bank(&meta(line, false)),
                expect,
                "route diverged for line {line:#x} (core {core}, page {page:#x}, bit {bit})"
            );
        };

        for _ in 0..20_000 {
            match lcg(&mut x) % 8 {
                0..=4 => check(&mut r, lcg(&mut x) % space),
                5 | 6 => {
                    let m = meta(lcg(&mut x) % space, lcg(&mut x) % 2 == 0);
                    let b = r.fill_bank(&m);
                    r.on_fill(&m, b);
                    resident.push((m.line, b));
                }
                _ => {
                    if !resident.is_empty() {
                        let (line, b) =
                            resident.swap_remove((lcg(&mut x) as usize) % resident.len());
                        r.on_evict(line, b);
                    }
                }
            }
        }
        // Exhaustive final sweep: every line in the space routes correctly.
        for line in 0..space {
            check(&mut r, line);
        }

        let s = r.renuca_stats;
        assert!(s.route_hits > 0, "stress must exercise cache hits");
        assert!(s.route_misses > 0, "stress must exercise cache misses");
        assert_eq!(
            s.route_hits + s.route_misses,
            s.lookups_rnuca + s.lookups_snuca,
            "every lookup is either a route hit or a route miss"
        );
        let churned = (0..16).any(|c| r.tlb(c).stats().evictions.get() > 0);
        assert!(churned, "TLBs must have evicted during the stress");
    }

    #[test]
    fn renuca_mbv_survives_tlb_eviction_via_backing_store() {
        // Touch enough distinct pages to overflow the 64-entry TLB, then
        // verify the first page's MBV bit is still correct (page-table
        // backing store).
        let mut r = ReNuca::new(4, 4);
        let first = phys_addr(3, 0);
        let l0 = first >> 6;
        let c = meta(l0, true);
        let bank = r.fill_bank(&c);
        r.on_fill(&c, bank);
        for p in 1..200u64 {
            let line = phys_addr(3, p * 4096) >> 6;
            let m = meta(line, false);
            // Realistic access sequence: lookup (faults the page's MBV into
            // the TLB), then miss-fill.
            r.lookup_bank(&m);
            let b = r.fill_bank(&m);
            r.on_fill(&m, b);
        }
        assert!(
            r.tlb(3).stats().evictions.get() > 0,
            "TLB must have churned"
        );
        assert_eq!(
            r.lookup_bank(&meta(l0, false)),
            bank,
            "MBV bit must survive TLB eviction"
        );
    }

    // --- WEC ---

    #[test]
    fn wec_stays_home_until_threshold_then_redirects() {
        let mut w = Wec::with_line_capacity(4, 1024);
        let line = 5u64; // S-NUCA home = bank 1
        assert_eq!(w.fill_bank(&meta(line, false)), 1, "cold banks: stay home");
        // Heat bank 1 past the threshold relative to bank 0 (the argmin).
        for _ in 0..WEC_THRESHOLD {
            w.on_l3_write(1);
        }
        assert_eq!(w.fill_bank(&meta(line, false)), 0, "hot home: redirect");
        // Lines whose home is already the coldest bank never redirect.
        assert_eq!(w.fill_bank(&meta(4, false)), 0);
    }

    #[test]
    fn wec_directory_tracks_only_redirected_lines() {
        let mut w = Wec::with_line_capacity(4, 1024);
        let home = meta(4, false); // home = bank 0 = argmin
        let b = w.fill_bank(&home);
        w.on_fill(&home, b);
        assert_eq!(w.directory_len(), 0, "home fills need no directory entry");

        for _ in 0..WEC_THRESHOLD {
            w.on_l3_write(1);
        }
        let hot = meta(5, false); // home = bank 1, now hot
        let b = w.fill_bank(&hot);
        assert_eq!(b, 0);
        w.on_fill(&hot, b);
        assert_eq!(w.directory_len(), 1);
        assert_eq!(
            w.lookup_bank(&hot),
            0,
            "redirected line found via directory"
        );
        w.on_evict(hot.line, b);
        assert_eq!(w.directory_len(), 0);
        assert_eq!(w.lookup_bank(&hot), 1, "post-evict lookup probes the home");
    }

    #[test]
    fn wec_bugged_twin_skews_redirects_but_stays_consistent() {
        let mut w = Wec::bugged(4, 1024);
        for _ in 0..WEC_THRESHOLD {
            w.on_l3_write(1);
        }
        let hot = meta(5, false);
        let b = w.fill_bank(&hot);
        assert_eq!(b, 1, "bug: one past the argmin (bank 0 -> bank 1)");
        // The twisted bank equals the home here, so no directory entry is
        // needed — internal consistency holds even under the bug.
        w.on_fill(&hot, b);
        assert_eq!(w.lookup_bank(&hot), b);
    }

    // --- Coloring ---

    #[test]
    fn coloring_rotates_map_every_epoch() {
        let mut c = Coloring::with_line_capacity(4, 1024);
        let line = 6u64; // S-NUCA home = bank 2
        assert_eq!(c.fill_bank(&meta(line, false)), 2);
        for _ in 0..COLORING_EPOCH {
            c.on_l3_write(0);
        }
        assert_eq!(c.shift(), 1);
        assert_eq!(c.fill_bank(&meta(line, false)), 3, "map shifted one bank");
        // A full lap of epochs wraps back to the home bank.
        for _ in 0..3 * COLORING_EPOCH {
            c.on_l3_write(0);
        }
        assert_eq!(c.shift(), 0);
        assert_eq!(c.fill_bank(&meta(line, false)), 2);
    }

    #[test]
    fn coloring_directory_pins_resident_lines_across_epochs() {
        let mut c = Coloring::with_line_capacity(4, 1024);
        let m = meta(6, false);
        let b = c.fill_bank(&m);
        c.on_fill(&m, b);
        for _ in 0..COLORING_EPOCH {
            c.on_l3_write(0);
        }
        // The map moved, but the resident line must still be found where it
        // was filled.
        assert_eq!(c.lookup_bank(&m), b);
        c.on_evict(m.line, b);
        assert_eq!(c.directory_len(), 0);
        assert_eq!(
            c.lookup_bank(&m),
            c.fill_bank(&m),
            "non-resident: current map"
        );
    }

    #[test]
    fn coloring_off_by_one_epoch_twin_diverges() {
        let mut good = Coloring::with_line_capacity(4, 1024);
        let mut bad = Coloring::with_epoch(4, 1024, COLORING_EPOCH - 1);
        let m = meta(6, false);
        for _ in 0..COLORING_EPOCH - 1 {
            good.on_l3_write(0);
            bad.on_l3_write(0);
        }
        assert_ne!(good.fill_bank(&m), bad.fill_bank(&m));
    }
}
