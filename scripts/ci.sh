#!/usr/bin/env bash
# CI gate for the renuca workspace. Everything here must pass offline —
# the workspace is hermetic (in-tree path crates only, see README).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== release binaries (member bins are not default targets of the root package) =="
cargo build --release --workspace

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== differential smoke: bounded seeded corpus vs the golden model =="
# Fixed seeds, all nine placement policies, pow2 and non-pow2 meshes
# (see TESTING.md), plus the per-scheme mutation self-checks. diffcheck
# exits non-zero on any divergence and writes the ddmin-shrunk
# reproducer under out/.
./target/release/renuca diffcheck --quick --out out

echo "== examples =="
cargo build --examples

echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== manifest smoke: --stats emits a schema-conformant run manifest =="
MANIFEST="$(mktemp)"
trap 'rm -f "$MANIFEST"' EXIT
RENUCA_WARMUP=500 RENUCA_MEASURE=2000 \
    ./target/release/renuca figure fig3 --stats "$MANIFEST" >/dev/null 2>&1
# Top-level keys must appear in the documented order (EXPERIMENTS.md,
# "Observability: run manifests").
if ! grep -qE '^\{"schema":"renuca-manifest-v1","binary":"fig3","label":"[^"]+","version":"[^"]+","budget":\{"warmup":500,"measure":2000\},"config":\{.*\},"stats":\{.*\},"wear_heatmap":\{"unit":"years","rows":\[.*\]\}\}$' \
    "$MANIFEST"; then
    echo "manifest smoke FAILED: $MANIFEST does not match renuca-manifest-v1"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "manifest smoke OK ($(wc -c < "$MANIFEST") bytes)"

echo "== bank-queue smoke: write bursts queue =="
# Under the asymmetric ReRAM default, the WB saturation study must observe
# bank contention (nonzero read-side queue cycles somewhere in the grid).
# The other half of the invariant — the single-core trickle probe, which
# never reads the L3 data array, reports exactly zero — is the tier-1
# test tests/bank_queue.rs. Both live in DESIGN.md §12.
RENUCA_WARMUP=2000 RENUCA_MEASURE=8000 \
    ./target/release/renuca figure wburst --stats "$MANIFEST" >/dev/null 2>&1
if ! grep -qE '"llc\.queue_cycles_total":[1-9][0-9]*' "$MANIFEST"; then
    echo "bank-queue smoke FAILED: wburst saw no queueing under asymmetric default"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "bank-queue smoke OK"

echo "== forecast smoke: closed-form lifetime forecast within tolerance =="
# The L2C2 analytical forecast must describe the simulated compressed
# cache on every WL/WB workload: `renuca figure forecast` itself exits
# non-zero when any workload's iso-timing error on the lifetime
# aggregates exceeds compress::FORECAST_TOLERANCE (DESIGN.md §15). The
# committed full-budget numbers live in docs/forecast.report.json; this
# runs the same hard gate at a CI-sized budget.
RENUCA_WARMUP=5000 RENUCA_MEASURE=60000 \
    ./target/release/renuca figure forecast --stats "$MANIFEST" >/dev/null
if ! grep -q '"forecast.max_rel_err"' "$MANIFEST"; then
    echo "forecast smoke FAILED: manifest carries no forecast.max_rel_err"
    head -c 400 "$MANIFEST"; echo
    exit 1
fi
echo "forecast smoke OK"

echo "== campaign smoke: run, crash, resume, verify, byte-compare =="
CAMP_TMP="$(mktemp -d)"
trap 'rm -f "$MANIFEST"; rm -rf "$CAMP_TMP"' EXIT
cat >"$CAMP_TMP/smoke.campaign" <<'EOF'
renuca-campaign-v1
name cismoke
config small 4
budget warmup=50 measure=300
schemes S-NUCA Re-NUCA
workloads 1 2
thresholds 25
EOF
# Interrupt after 2 of 4 jobs: the scheduler must stop without a report
# and exit 3 (the "campaign left resumable" code). Single-threaded so the
# stop lands deterministically between jobs.
CAMP_RC=0
./target/release/campaign run "$CAMP_TMP/smoke.campaign" \
    --out "$CAMP_TMP/a" --threads 1 --max-jobs 2 >/dev/null 2>&1 || CAMP_RC=$?
if [ "$CAMP_RC" -ne 3 ] || [ -e "$CAMP_TMP/a/report.json" ]; then
    echo "campaign smoke FAILED: interrupted run rc=$CAMP_RC (want 3, no report)"
    exit 1
fi
./target/release/campaign resume "$CAMP_TMP/smoke.campaign" \
    --out "$CAMP_TMP/a" --threads 2 >/dev/null 2>&1
./target/release/campaign verify "$CAMP_TMP/smoke.campaign" \
    --out "$CAMP_TMP/a" >/dev/null 2>&1
# An uninterrupted run of the same spec must aggregate byte-identically.
./target/release/campaign run "$CAMP_TMP/smoke.campaign" \
    --out "$CAMP_TMP/b" --threads 2 >/dev/null 2>&1
if ! cmp -s "$CAMP_TMP/a/report.json" "$CAMP_TMP/b/report.json"; then
    echo "campaign smoke FAILED: resumed report differs from uninterrupted run"
    exit 1
fi
echo "campaign smoke OK ($(wc -c < "$CAMP_TMP/a/report.json") byte report)"

echo "== head-to-head smoke: competitor campaign run, crash, resume, verify =="
# Same crash/resume/byte-compare discipline over the committed
# head-to-head spec (Re-NUCA vs WEC / Coloring / MAC with the S-NUCA
# reference, WL grid + WB write-burst family). The spec carries no budget
# line, so the environment shrinks it for CI.
H2H_RC=0
RENUCA_WARMUP=50 RENUCA_MEASURE=300 \
    ./target/release/campaign run campaigns/headtohead.campaign \
    --out "$CAMP_TMP/h2h-a" --threads 1 --max-jobs 3 >/dev/null 2>&1 || H2H_RC=$?
if [ "$H2H_RC" -ne 3 ] || [ -e "$CAMP_TMP/h2h-a/report.json" ]; then
    echo "head-to-head smoke FAILED: interrupted run rc=$H2H_RC (want 3, no report)"
    exit 1
fi
RENUCA_WARMUP=50 RENUCA_MEASURE=300 \
    ./target/release/campaign resume campaigns/headtohead.campaign \
    --out "$CAMP_TMP/h2h-a" --threads 2 >/dev/null 2>&1
RENUCA_WARMUP=50 RENUCA_MEASURE=300 \
    ./target/release/campaign verify campaigns/headtohead.campaign \
    --out "$CAMP_TMP/h2h-a" >/dev/null 2>&1
RENUCA_WARMUP=50 RENUCA_MEASURE=300 \
    ./target/release/campaign run campaigns/headtohead.campaign \
    --out "$CAMP_TMP/h2h-b" --threads 2 >/dev/null 2>&1
if ! cmp -s "$CAMP_TMP/h2h-a/report.json" "$CAMP_TMP/h2h-b/report.json"; then
    echo "head-to-head smoke FAILED: resumed report differs from uninterrupted run"
    exit 1
fi
for s in Re-NUCA Re-NUCA-C2 S-NUCA WEC Coloring MAC; do
    if ! grep -q "\"scheme\":\"$s\"" "$CAMP_TMP/h2h-a/report.json"; then
        echo "head-to-head smoke FAILED: scheme $s missing from report"
        exit 1
    fi
done
echo "head-to-head smoke OK ($(wc -c < "$CAMP_TMP/h2h-a/report.json") byte report)"

echo "== campaign quickstart: the README's documented commands =="
# The exact `cargo run` lines from the README quickstart, into a temp out
# dir. fig3.campaign carries no budget line, so the environment shrinks it.
for cmd in run status verify; do
    RENUCA_WARMUP=50 RENUCA_MEASURE=300 \
        cargo run --release -p campaign -- "$cmd" campaigns/fig3.campaign \
        --out "$CAMP_TMP/readme" >/dev/null 2>&1
done
echo "campaign quickstart OK ($(wc -c < "$CAMP_TMP/readme/report.json") byte report)"

echo "== figure quickstart: the README's documented commands =="
# The exact `cargo run -- figure` lines from the README quickstart, at a
# tiny budget, run in a temp dir (`figure all` writes results.json to the
# working directory). Each must exit 0 and print its figure.
ROOT="$PWD"
FIG_TMP="$CAMP_TMP/figures"
mkdir -p "$FIG_TMP/out"
for args in "fig12" "table3" "all" "fig12 --stats out/fig12.json"; do
    # shellcheck disable=SC2086  # $args is a word list on purpose
    (cd "$FIG_TMP" && RENUCA_WARMUP=500 RENUCA_MEASURE=2000 \
        cargo run --release --manifest-path "$ROOT/Cargo.toml" -- figure $args \
        >stdout.txt 2>/dev/null)
    if [ ! -s "$FIG_TMP/stdout.txt" ]; then
        echo "figure quickstart FAILED: figure $args printed nothing"
        exit 1
    fi
done
if ! grep -q '"binary":"fig12"' "$FIG_TMP/out/fig12.json"; then
    echo "figure quickstart FAILED: figure fig12 --stats wrote no fig12 manifest"
    exit 1
fi
echo "figure quickstart OK"

echo "== docs gate: no command names a removed binary or bench target =="
# Every shell script, campaign spec and nested Markdown file, plus the
# root documents that give commands; the root change log and planning
# notes are history. The bench pattern names every deleted figure bench.
if git grep -nE -- '--bin (fig[0-9]|table[23]|capacity|ablations|all|calibrate|diffcheck|forecast|headtohead|wburst)\b|target/release/(fig[0-9]|table[23]|calibrate|diffcheck|forecast|headtohead|wburst)\b|--bench (fig[0-9]|table[23]|ablations|capacity_retention)' \
    -- README.md DESIGN.md EXPERIMENTS.md TESTING.md '*/*.md' '*.sh' '*.campaign'; then
    echo "docs gate FAILED: the lines above name a removed binary or bench target (use 'renuca figure <name>' / 'renuca diffcheck')"
    exit 1
fi
echo "docs gate OK"

echo "== campaign spec errors: a malformed spec is an error, not a panic =="
cat >"$CAMP_TMP/bad.campaign" <<'EOF'
renuca-campaign-v1
name cibad
schemes S-NUCA
workloads 1
set rob_entries 0
EOF
BAD_RC=0
./target/release/campaign run "$CAMP_TMP/bad.campaign" \
    --out "$CAMP_TMP/bad" >/dev/null 2>"$CAMP_TMP/bad.stderr" || BAD_RC=$?
if [ "$BAD_RC" -ne 2 ] || ! grep -q '^error:' "$CAMP_TMP/bad.stderr"; then
    echo "spec error smoke FAILED: rc=$BAD_RC (want 2 with an error: line)"
    cat "$CAMP_TMP/bad.stderr"
    exit 1
fi
echo "spec error smoke OK"

echo "== bench targets compile =="
cargo build --benches --release --workspace

echo "== bench smoke: short run emits well-formed JSON lines =="
BENCH_OUT="$(RENUCA_BENCH_SAMPLES=2 cargo bench -p bench --bench micro 2>/dev/null \
    | grep '^{"bench"')"
BENCH_N="$(printf '%s\n' "$BENCH_OUT" | wc -l)"
BENCH_BAD="$(printf '%s\n' "$BENCH_OUT" | grep -cvE \
    '^\{"bench":"[^"]+","kind":"micro","samples":[0-9]+,"iters_per_sample":[0-9]+,"min_ns":[0-9.eE+-]+,"mean_ns":[0-9.eE+-]+,"median_ns":[0-9.eE+-]+,"p95_ns":[0-9.eE+-]+\}$' \
    || true)"
if [ "$BENCH_N" -lt 10 ] || [ "$BENCH_BAD" -ne 0 ]; then
    echo "bench smoke FAILED: $BENCH_N lines, $BENCH_BAD malformed"
    printf '%s\n' "$BENCH_OUT"
    exit 1
fi
echo "bench smoke OK ($BENCH_N benches)"

echo "== perf guard: end-to-end benches vs committed baseline =="
# The end-to-end system benches — plain Re-NUCA and the compressed
# Re-NUCA-C2 variant — must stay within 25% of the committed baseline
# (BENCH_5.json, regenerated via scripts/bench_baseline.sh).
# min_ns is the stablest statistic under scheduler noise, but host-to-host
# wall-time still varies; set RENUCA_SKIP_PERF_GUARD=1 when running CI on
# a machine the baseline was not recorded on.
if [ "${RENUCA_SKIP_PERF_GUARD:-0}" = "1" ]; then
    echo "perf guard SKIPPED (RENUCA_SKIP_PERF_GUARD=1)"
elif [ ! -f BENCH_5.json ]; then
    echo "perf guard SKIPPED (no BENCH_5.json baseline)"
else
    for GUARD_BENCH in system/16core_renuca_10k_instr \
                       system/16core_renucac2_10k_instr; do
        BASE_MIN="$(grep -o "{\"bench\":\"$GUARD_BENCH\"[^}]*}" BENCH_5.json \
            | grep -o '"min_ns":[0-9.eE+-]*' | head -1 | cut -d: -f2)"
        LIVE_MIN="$(printf '%s\n' "$BENCH_OUT" \
            | grep -o "{\"bench\":\"$GUARD_BENCH\"[^}]*}" \
            | grep -o '"min_ns":[0-9.eE+-]*' | head -1 | cut -d: -f2)"
        if [ -z "$BASE_MIN" ] || [ -z "$LIVE_MIN" ]; then
            echo "perf guard FAILED: could not extract $GUARD_BENCH min_ns"
            exit 1
        fi
        if ! awk -v live="$LIVE_MIN" -v base="$BASE_MIN" \
            'BEGIN { exit !(live <= base * 1.25) }'; then
            echo "perf guard FAILED: $GUARD_BENCH min ${LIVE_MIN}ns > 1.25x baseline ${BASE_MIN}ns"
            exit 1
        fi
        echo "perf guard OK ($GUARD_BENCH min ${LIVE_MIN}ns vs baseline ${BASE_MIN}ns)"
    done
fi

echo "== bench smoke: campaign scheduler overhead =="
CAMPB_OUT="$(RENUCA_BENCH_SAMPLES=2 cargo bench -p bench --bench campaign_overhead 2>/dev/null \
    | grep '^{"bench"')"
CAMPB_N="$(printf '%s\n' "$CAMPB_OUT" | wc -l)"
CAMPB_BAD="$(printf '%s\n' "$CAMPB_OUT" | grep -cvE \
    '^\{"bench":"campaign/[^"]+","kind":"micro","samples":[0-9]+,"iters_per_sample":[0-9]+,"min_ns":[0-9.eE+-]+,"mean_ns":[0-9.eE+-]+,"median_ns":[0-9.eE+-]+,"p95_ns":[0-9.eE+-]+\}$' \
    || true)"
if [ "$CAMPB_N" -lt 4 ] || [ "$CAMPB_BAD" -ne 0 ]; then
    echo "campaign bench smoke FAILED: $CAMPB_N lines, $CAMPB_BAD malformed"
    printf '%s\n' "$CAMPB_OUT"
    exit 1
fi
echo "campaign bench smoke OK ($CAMPB_N benches)"

echo "== formatting =="
cargo fmt --check

echo "CI OK"
