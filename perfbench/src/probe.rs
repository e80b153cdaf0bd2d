//! Host-time probes around the three trait objects `System::new` takes.
//!
//! The simulator is timed from outside: each wrapper forwards every trait
//! method to the real object and records the call's count and duration in a
//! shared [`Probe`]. Whatever `System::run` spends outside the wrappers is
//! the `cmp-sim` layer. Per-call timing has a cost of its own, which
//! [`calibrate`] measures so the report can subtract it.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cmp_sim::cache::ReplacementKind;
use cmp_sim::placement::{AccessMeta, CriticalityPredictor, LlcPlacement, PredictorStats};
use cmp_sim::{BankId, Cycle, Instr, InstrSource, Pc};

/// The kinds of wrapped call the probe tallies separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Any `InstrSource` method (layer `workloads`).
    Workloads = 0,
    /// Any `CriticalityPredictor` method (layer `criticality`).
    Criticality = 1,
    /// `LlcPlacement::{lookup_bank, secondary_bank, lookup_overhead}`.
    Lookup = 2,
    /// `LlcPlacement::{fill_bank, on_fill}`.
    Fill = 3,
    /// `LlcPlacement::on_evict`.
    Evict = 4,
    /// `LlcPlacement::on_l3_write`.
    Write = 5,
    /// The remaining `LlcPlacement` methods (name and construction-time
    /// policy queries).
    MapOther = 6,
}

const KINDS: usize = 7;

/// Every kind, in index order.
pub const ALL: [Kind; KINDS] = [
    Kind::Workloads,
    Kind::Criticality,
    Kind::Lookup,
    Kind::Fill,
    Kind::Evict,
    Kind::Write,
    Kind::MapOther,
];

/// The `LlcPlacement` kinds: together they are layer `mapping`.
pub const MAPPING: [Kind; 5] = [
    Kind::Lookup,
    Kind::Fill,
    Kind::Evict,
    Kind::Write,
    Kind::MapOther,
];

/// The wrapped layers and the kinds each is made of.
pub const LAYERS: [(&str, &[Kind]); 3] = [
    ("workloads", &[Kind::Workloads]),
    ("criticality", &[Kind::Criticality]),
    ("mapping", &MAPPING),
];

/// A copy of every probe counter at one instant; phase aggregates are
/// differences of two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls per [`Kind`].
    pub calls: [u64; KINDS],
    /// Recorded nanoseconds per [`Kind`] (timer cost not yet removed).
    pub ns: [u64; KINDS],
    /// Instructions handed out by `next_alu_run`.
    pub alu_run_instrs: u64,
    /// Instructions handed out by `next_instr`.
    pub single_instrs: u64,
    /// `predict` calls.
    pub predicts: u64,
    /// `predict` calls that answered "critical".
    pub predicted_critical: u64,
}

impl Counts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut d = Counts::default();
        for k in 0..KINDS {
            d.calls[k] = self.calls[k] - earlier.calls[k];
            d.ns[k] = self.ns[k] - earlier.ns[k];
        }
        d.alu_run_instrs = self.alu_run_instrs - earlier.alu_run_instrs;
        d.single_instrs = self.single_instrs - earlier.single_instrs;
        d.predicts = self.predicts - earlier.predicts;
        d.predicted_critical = self.predicted_critical - earlier.predicted_critical;
        d
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counts) -> Counts {
        let mut s = *self;
        for k in 0..KINDS {
            s.calls[k] += other.calls[k];
            s.ns[k] += other.ns[k];
        }
        s.alu_run_instrs += other.alu_run_instrs;
        s.single_instrs += other.single_instrs;
        s.predicts += other.predicts;
        s.predicted_critical += other.predicted_critical;
        s
    }

    /// Calls summed over `kinds`.
    pub fn calls_of(&self, kinds: &[Kind]) -> u64 {
        kinds.iter().map(|&k| self.calls[k as usize]).sum()
    }
}

/// Sentinel in the call log for a `next_instr` call; any other entry is the
/// `max` argument of a `next_alu_run` call (the core asks for at most 1024).
pub const LOG_NEXT_INSTR: u32 = u32::MAX;

/// Counters shared by every wrapper of one simulated system.
pub struct Probe {
    calls: [Cell<u64>; KINDS],
    ns: [Cell<u64>; KINDS],
    alu_run_instrs: Cell<u64>,
    single_instrs: Cell<u64>,
    predicts: Cell<u64>,
    predicted_critical: Cell<u64>,
    /// Per-core `InstrSource` call sequence (see [`LOG_NEXT_INSTR`]), for
    /// the generator-only replay.
    log: RefCell<Vec<Vec<u32>>>,
}

impl Probe {
    /// A probe for a system of `n_cores` cores.
    pub fn new(n_cores: usize) -> Rc<Probe> {
        Rc::new(Probe {
            calls: Default::default(),
            ns: Default::default(),
            alu_run_instrs: Cell::new(0),
            single_instrs: Cell::new(0),
            predicts: Cell::new(0),
            predicted_critical: Cell::new(0),
            log: RefCell::new(vec![Vec::new(); n_cores]),
        })
    }

    fn record(&self, kind: Kind, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let k = kind as usize;
        self.calls[k].set(self.calls[k].get() + 1);
        self.ns[k].set(self.ns[k].get() + ns);
    }

    /// The current value of every counter.
    pub fn snapshot(&self) -> Counts {
        let mut c = Counts::default();
        for k in 0..KINDS {
            c.calls[k] = self.calls[k].get();
            c.ns[k] = self.ns[k].get();
        }
        c.alu_run_instrs = self.alu_run_instrs.get();
        c.single_instrs = self.single_instrs.get();
        c.predicts = self.predicts.get();
        c.predicted_critical = self.predicted_critical.get();
        c
    }

    /// Take the recorded per-core call sequences.
    pub fn take_log(&self) -> Vec<Vec<u32>> {
        let n = self.log.borrow().len();
        self.log.replace(vec![Vec::new(); n])
    }
}

/// Times an [`InstrSource`] and logs its call sequence.
pub struct TimedSource {
    inner: Box<dyn InstrSource>,
    core: usize,
    probe: Rc<Probe>,
}

impl TimedSource {
    /// Wrap core `core`'s source.
    pub fn new(inner: Box<dyn InstrSource>, core: usize, probe: Rc<Probe>) -> Self {
        TimedSource { inner, core, probe }
    }

    fn log(&self, entry: u32) {
        self.probe.log.borrow_mut()[self.core].push(entry);
    }
}

impl InstrSource for TimedSource {
    fn next_instr(&mut self) -> Instr {
        let t = Instant::now();
        let i = self.inner.next_instr();
        self.probe.record(Kind::Workloads, t);
        let p = &self.probe;
        p.single_instrs.set(p.single_instrs.get() + 1);
        self.log(LOG_NEXT_INSTR);
        i
    }

    fn next_alu_run(&mut self, max: u32) -> u32 {
        let t = Instant::now();
        let n = self.inner.next_alu_run(max);
        self.probe.record(Kind::Workloads, t);
        let p = &self.probe;
        p.alu_run_instrs.set(p.alu_run_instrs.get() + n as u64);
        self.log(max);
        n
    }

    fn label(&self) -> &str {
        let t = Instant::now();
        let l = self.inner.label();
        self.probe.record(Kind::Workloads, t);
        l
    }

    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        let t = Instant::now();
        let r = self.inner.warm_ranges();
        self.probe.record(Kind::Workloads, t);
        r
    }
}

/// Times a [`CriticalityPredictor`].
pub struct TimedPredictor {
    inner: Box<dyn CriticalityPredictor>,
    probe: Rc<Probe>,
}

impl TimedPredictor {
    /// Wrap one core's predictor.
    pub fn new(inner: Box<dyn CriticalityPredictor>, probe: Rc<Probe>) -> Self {
        TimedPredictor { inner, probe }
    }
}

impl CriticalityPredictor for TimedPredictor {
    fn predict(&mut self, pc: Pc) -> bool {
        let t = Instant::now();
        let c = self.inner.predict(pc);
        self.probe.record(Kind::Criticality, t);
        let p = &self.probe;
        p.predicts.set(p.predicts.get() + 1);
        p.predicted_critical
            .set(p.predicted_critical.get() + c as u64);
        c
    }

    fn on_rob_block(&mut self, pc: Pc) {
        let t = Instant::now();
        self.inner.on_rob_block(pc);
        self.probe.record(Kind::Criticality, t);
    }

    fn on_load_commit(&mut self, pc: Pc, blocked: bool) {
        let t = Instant::now();
        self.inner.on_load_commit(pc, blocked);
        self.probe.record(Kind::Criticality, t);
    }

    fn stats(&self) -> PredictorStats {
        let t = Instant::now();
        let s = self.inner.stats();
        self.probe.record(Kind::Criticality, t);
        s
    }
}

/// Times an [`LlcPlacement`].
pub struct TimedPlacement {
    inner: Box<dyn LlcPlacement>,
    probe: Rc<Probe>,
}

impl TimedPlacement {
    /// Wrap the system's placement policy.
    pub fn new(inner: Box<dyn LlcPlacement>, probe: Rc<Probe>) -> Self {
        TimedPlacement { inner, probe }
    }
}

impl LlcPlacement for TimedPlacement {
    fn name(&self) -> &'static str {
        let t = Instant::now();
        let n = self.inner.name();
        self.probe.record(Kind::MapOther, t);
        n
    }

    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        let t = Instant::now();
        let b = self.inner.lookup_bank(meta);
        self.probe.record(Kind::Lookup, t);
        b
    }

    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let t = Instant::now();
        let b = self.inner.fill_bank(meta);
        self.probe.record(Kind::Fill, t);
        b
    }

    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        let t = Instant::now();
        self.inner.on_fill(meta, bank);
        self.probe.record(Kind::Fill, t);
    }

    fn on_l3_write(&mut self, bank: BankId) {
        let t = Instant::now();
        self.inner.on_l3_write(bank);
        self.probe.record(Kind::Write, t);
    }

    fn on_evict(&mut self, line: u64, bank: BankId) {
        let t = Instant::now();
        self.inner.on_evict(line, bank);
        self.probe.record(Kind::Evict, t);
    }

    fn lookup_overhead(&self) -> Cycle {
        let t = Instant::now();
        let c = self.inner.lookup_overhead();
        self.probe.record(Kind::Lookup, t);
        c
    }

    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        let t = Instant::now();
        let b = self.inner.secondary_bank(meta);
        self.probe.record(Kind::Lookup, t);
        b
    }

    fn l3_replacement(&self) -> ReplacementKind {
        let t = Instant::now();
        let r = self.inner.l3_replacement();
        self.probe.record(Kind::MapOther, t);
        r
    }

    fn compression(&self) -> Option<compress::CompressSpec> {
        let t = Instant::now();
        let c = self.inner.compression();
        self.probe.record(Kind::MapOther, t);
        c
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        let t = Instant::now();
        let a = self.inner.as_any();
        self.probe.record(Kind::MapOther, t);
        a
    }
}

/// Per-call cost of the probes, split at the two clock reads: `inside_ns`
/// is what a call to an empty method records, `outside_ns` what it adds
/// beyond that (dispatch into the wrapper, bookkeeping, the clock reads'
/// other halves), which lands in the caller's — `cmp-sim`'s — time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overhead {
    /// Recorded nanoseconds of one call to an empty method.
    pub inside_ns: f64,
    /// Further nanoseconds the wrapper adds per call, outside the record.
    pub outside_ns: f64,
}

impl Overhead {
    /// Whole per-call cost of the wrapper.
    pub fn total_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// Calibrated overheads of the two wrapper shapes: the plain timer (the
/// predictor and placement wrappers) and the logging source wrapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// [`TimedPredictor`] / [`TimedPlacement`] per-call overhead.
    pub timer: Overhead,
    /// [`TimedSource`] per-call overhead (timer plus call log).
    pub source: Overhead,
}

impl Calibration {
    /// The overhead that applies to calls of `kind`.
    pub fn of(&self, kind: Kind) -> Overhead {
        match kind {
            Kind::Workloads => self.source,
            _ => self.timer,
        }
    }
}

/// A source whose every call is empty; calibration input.
struct EmptySource;

impl InstrSource for EmptySource {
    fn next_instr(&mut self) -> Instr {
        Instr::Alu { latency: 1 }
    }
}

/// A predictor whose every call is empty; calibration input.
struct EmptyPredictor;

impl CriticalityPredictor for EmptyPredictor {
    fn predict(&mut self, _pc: Pc) -> bool {
        false
    }
    fn on_rob_block(&mut self, _pc: Pc) {}
    fn on_load_commit(&mut self, _pc: Pc, _blocked: bool) {}
}

/// Per-call nanoseconds `wrapped` takes beyond `plain`, each making
/// `calls` calls through `dyn` dispatch, like the simulator's.
fn measure(calls: u64, wrapped: &mut dyn FnMut(u64), plain: &mut dyn FnMut(u64)) -> f64 {
    let t = Instant::now();
    wrapped(calls);
    let w = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    plain(calls);
    let p = t.elapsed().as_nanos() as f64;
    (w - p) / calls as f64
}

/// Measure both wrappers' per-call overhead in this process: the median
/// over several rounds of wrapped-minus-plain calls to empty methods.
pub fn calibrate() -> Calibration {
    const ROUNDS: usize = 9;
    const CALLS: u64 = 200_000;
    let mut timer = Vec::with_capacity(ROUNDS);
    let mut source = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let probe = Probe::new(1);
        let mut wrapped: Box<dyn CriticalityPredictor> =
            Box::new(TimedPredictor::new(Box::new(EmptyPredictor), probe.clone()));
        let mut plain: Box<dyn CriticalityPredictor> = Box::new(EmptyPredictor);
        let total = measure(
            CALLS,
            &mut |n| {
                for pc in 0..n {
                    black_box(wrapped.predict(black_box(pc as Pc)));
                }
            },
            &mut |n| {
                for pc in 0..n {
                    black_box(plain.predict(black_box(pc as Pc)));
                }
            },
        );
        let c = probe.snapshot();
        let inside = c.ns[Kind::Criticality as usize] as f64 / CALLS as f64;
        timer.push((inside, total));

        let probe = Probe::new(1);
        let mut wrapped: Box<dyn InstrSource> =
            Box::new(TimedSource::new(Box::new(EmptySource), 0, probe.clone()));
        let mut plain: Box<dyn InstrSource> = Box::new(EmptySource);
        let total = measure(
            CALLS,
            &mut |n| {
                for _ in 0..n {
                    black_box(wrapped.next_alu_run(black_box(1024)));
                }
            },
            &mut |n| {
                for _ in 0..n {
                    black_box(plain.next_alu_run(black_box(1024)));
                }
            },
        );
        let c = probe.snapshot();
        let inside = c.ns[Kind::Workloads as usize] as f64 / CALLS as f64;
        source.push((inside, total));
    }
    Calibration {
        timer: overhead(&mut timer),
        source: overhead(&mut source),
    }
}

fn overhead(rounds: &mut [(f64, f64)]) -> Overhead {
    let inside = crate::report::median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>());
    let total = crate::report::median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
    Overhead {
        inside_ns: inside,
        outside_ns: (total - inside).max(0.0),
    }
}

/// Replay recorded per-core call sequences through fresh sources (built
/// by `fresh`, seeded exactly as the simulated ones were) with no
/// simulation attached; returns the host nanoseconds the calls took.
pub fn replay(logs: &[Vec<u32>], mut fresh: impl FnMut(usize) -> Box<dyn InstrSource>) -> u64 {
    let mut sources: Vec<Box<dyn InstrSource>> = (0..logs.len()).map(&mut fresh).collect();
    let t = Instant::now();
    for (src, log) in sources.iter_mut().zip(logs) {
        for &entry in log {
            if entry == LOG_NEXT_INSTR {
                black_box(src.next_instr());
            } else {
                black_box(src.next_alu_run(entry));
            }
        }
    }
    t.elapsed().as_nanos() as u64
}
