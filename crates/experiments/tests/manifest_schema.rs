//! Run-manifest schema conformance and registry-snapshot stability.
//!
//! The manifest schema (`renuca-manifest-v1`) is documented in
//! EXPERIMENTS.md ("Observability: run manifests") with a committed example
//! at `docs/manifest.example.json`. These tests pin the documented shape:
//! top-level key order, budget echo, per-scheme stats paths, heatmap rows —
//! and that the committed example carries exactly the keys the code emits.

use std::sync::OnceLock;

use cmp_sim::SystemConfig;
use experiments::figures::lifetime;
use experiments::obs::{self, Manifest, MANIFEST_KEYS, MANIFEST_SCHEMA};
use experiments::{run_workload, Budget};
use renuca_core::{CptConfig, Scheme};

/// Assert every documented top-level key appears, in documented order.
fn assert_key_skeleton(json: &str, what: &str) {
    let mut pos = 0;
    for key in MANIFEST_KEYS {
        let needle = format!("\"{key}\":");
        match json[pos..].find(&needle) {
            Some(at) => pos += at + needle.len(),
            None => panic!("{what}: key {key:?} missing or out of order (after byte {pos})"),
        }
    }
}

/// The fixed-seed fig3 manifest at the test budget, built once and shared
/// by the tests below, plus a second rendering of the same study.
fn fig3_manifest() -> &'static (String, String) {
    static MANIFEST: OnceLock<(String, String)> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let cfg = SystemConfig::default();
        let budget = Budget::test();
        let study = lifetime::run("Actual Results", cfg, budget);
        let render = || {
            let mut m = Manifest::new("fig3", study.label, Some(&cfg), budget);
            obs::register_study(&mut m, &study);
            m.to_json()
        };
        (render(), render())
    })
}

/// Every JSON key of `json` in document order, plus the value of every
/// `"label"` key (the run label and the heatmap row labels). Manifests
/// carry no escaped quotes, so a string ends at the next `"`.
fn key_sequence(json: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = json;
    let mut after_label = false;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let close = body.find('"').expect("unterminated JSON string");
        let s = &body[..close];
        rest = &body[close + 1..];
        let is_key = rest.starts_with(':');
        if is_key || after_label {
            out.push(s);
        }
        after_label = is_key && s == "label";
    }
    out
}

#[test]
fn fixed_seed_fig3_manifest_matches_documented_schema() {
    let (json, rebuilt) = fig3_manifest();

    assert!(
        json.starts_with(&format!("{{\"schema\":\"{MANIFEST_SCHEMA}\"")),
        "manifest must lead with the schema id"
    );
    assert_key_skeleton(json, "generated manifest");
    assert!(json.contains("\"budget\":{\"warmup\":2000,\"measure\":10000}"));
    // Config echo present and non-null for a single-config run.
    assert!(json.contains("\"config.n_cores\":16"));
    // Every scheme's headline metrics under its documented dotted path.
    for s in Scheme::ALL {
        for leaf in [
            "raw_min_years",
            "hmean_lifetime_years",
            "variation",
            "mean_ipc",
        ] {
            let key = format!("\"scheme.{}.{leaf}\":", s.name());
            assert!(json.contains(&key), "missing stats key {key}");
        }
    }
    // One heatmap row per scheme, 16 banks each (16 comma-separated values).
    assert!(json.contains("\"unit\":\"years\""));
    assert_eq!(
        json.matches("\"per_bank\":[").count(),
        Scheme::ALL.len(),
        "one wear row per scheme"
    );

    // Determinism: rebuilding the manifest from the same study is
    // byte-identical (key order is part of the schema).
    assert_eq!(json, rebuilt);
}

#[test]
fn committed_example_manifest_matches_skeleton() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/manifest.example.json"
    );
    let example = std::fs::read_to_string(path).expect("committed example manifest exists");
    assert!(example.starts_with(&format!("{{\"schema\":\"{MANIFEST_SCHEMA}\"")));
    assert_key_skeleton(&example, "docs/manifest.example.json");
    assert!(example.contains("\"binary\":\"fig3\""));
    // Recorded at the fixed test budget, as EXPERIMENTS.md states.
    assert!(example.contains("\"budget\":{\"warmup\":2000,\"measure\":10000}"));
    // The full key sequence — config echo, every stats path, heatmap row
    // labels — must match what the current code emits. Regenerate with
    // `RENUCA_WARMUP=2000 RENUCA_MEASURE=10000 fig3 --stats docs/manifest.example.json`.
    assert_eq!(
        key_sequence(&example),
        key_sequence(&fig3_manifest().0),
        "docs/manifest.example.json is stale"
    );
}

#[test]
fn registry_snapshot_key_order_is_stable_across_runs() {
    let cfg = SystemConfig::default();
    let wl = workloads::workload_mix(1, cfg.n_cores);
    let budget = Budget::test();
    let run = || {
        run_workload(&wl, Scheme::ReNuca, cfg, CptConfig::default(), budget)
            .registry()
            .to_json()
    };
    let a = run();
    assert!(a.contains("\"system.cycles\":"));
    assert!(a.contains("\"wear.bank[15].min_endurance_frac\":"));
    assert_eq!(a, run(), "identical runs must serialize byte-identically");
}
