//! The trickle probe's zero-contention invariant (DESIGN.md §12): one
//! core issuing isolated read-only misses, spaced far wider than the
//! ReRAM write latency, must never queue at an L3 bank — even under the
//! asymmetric read/write default. The write-burst half of the bank-queue
//! check (contention does show up under WB pressure) is the CI smoke on
//! `renuca figure wburst`.

use renuca::experiments::run_workload;
use renuca::prelude::*;
use renuca::workloads::TRICKLE_ID;

fn trickle(warmup: u64, measure: u64) {
    let cfg = SystemConfig::small(1);
    let wl = workload_mix(TRICKLE_ID, cfg.n_cores);
    let budget = Budget { warmup, measure };
    let r = run_workload(&wl, Scheme::SNuca, cfg, CptConfig::default(), budget);
    let fills = r.hierarchy.l3_fills.get();
    assert!(fills > 0, "{warmup}/{measure}: the probe made no L3 fill");
    for (b, bank) in r.bank_service.iter().enumerate() {
        assert_eq!(
            bank.queue_cycles.get(),
            0,
            "{warmup}/{measure}: bank {b} queued ({fills} fills)"
        );
    }
}

#[test]
fn trickle_probe_never_queues() {
    // A short window (two L3 fills), then one with over a thousand fills.
    trickle(2_000, 8_000);
    trickle(50_000, 2_000_000);
}
