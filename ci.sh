#!/usr/bin/env sh
# CI gate for the plane-rendezvous workspace.
#
#   ./ci.sh
#
# Runs the full verification stack. Everything works offline: the
# workspace has no external dependencies (see ARCHITECTURE.md,
# "Offline-build constraints").

set -eu

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo test --release -p rvz-trajectory (release-only contracts: t >= 0 asserts)"
cargo test --release --quiet -p rvz-trajectory

echo "==> allocation + SoA-not-slower gate (zero heap allocations per query; lane kernel within 10% of the scalar loop)"
cargo test --release --quiet -p rvz-sim --test alloc_gate

echo "==> allocation + SoA-not-slower gate, -C target-cpu=native arm"
# The lane kernel leans on autovectorization: hold the bound on a
# native build too rather than assuming it carries over.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/ci-native \
    cargo test --release --quiet -p rvz-sim --test alloc_gate

echo "==> step gate + canonical compiled arms + telemetry byte-identity (release)"
# The cursor engine never takes more steps than the seed loop on the
# canonical cases, the compiled ladder and lane kernel classify them
# as the seed loop does, and flipping the metrics kill switch changes
# no outcome, work counter or piece count. Tier-1 runs all in debug.
cargo test --release --quiet --test engine_equivalence -- \
    cursor_engine_never_takes_more_steps_than_generic_on_canonical_cases \
    compiled_and_lane_engines_classify_canonical_cases_like_generic
cargo test --release --quiet --test telemetry_identity

echo "==> differential fuzz (fixed seed budget: four engine paths agree)"
# The seeded harness in tests/differential_fuzz.rs runs the generic,
# cursor, compiled-eager, and SoA lane-kernel paths on random scenario
# x trajectory-stack draws and requires agreement within the certified
# tolerance; the streamed serve miss path must equal the batch kernel
# exactly on every stack. The budget and seed are pinned so CI is
# deterministic.
RVZ_FUZZ_CASES=24 RVZ_FUZZ_SEED=3134984190 \
    cargo test --release --quiet --test differential_fuzz

echo "==> perfbench serve_cold --trace 1 (every served body equals the eager replay)"
# The traced run replays each request through the eager public calls
# (partner compile + from_program + batch kernel) and counts every
# served body that differs; the streamed miss path must match them all.
PERF_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve_cold --seed 1 --seconds 2 --trace 1)"
echo "$PERF_OUT" | grep -q '"correct": true' \
    || { echo "perfbench serve_cold is not correct: $PERF_OUT"; exit 1; }
echo "$PERF_OUT" | grep -q '"failed": 0,' \
    || { echo "perfbench serve_cold failed operations: $PERF_OUT"; exit 1; }

echo "==> perfbench sweep_mixed --trace 1 (single-worker records and the replay equal the executor's)"
# The traced run sweeps each chunk again on one worker and replays it
# through the public engine calls, counting every record that differs
# from the multi-worker sweep's.
PERF_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload sweep_mixed --seed 1 --seconds 1 --trace 1)"
echo "$PERF_OUT" | grep -q '"correct": true' \
    || { echo "perfbench sweep_mixed is not correct: $PERF_OUT"; exit 1; }
echo "$PERF_OUT" | grep -q '"failed": 0,' \
    || { echo "perfbench sweep_mixed failed operations: $PERF_OUT"; exit 1; }

echo "==> serve fault-injection suite (pinned seed: poison recovery, panic isolation, shedding, drain)"
# Every plan in the suite pins seed=42 (or 7) with rate-1.0 + limit
# sites, so the injected faults are exactly the first `limit` visits —
# deterministic across runs.
cargo test --release --quiet -p rvz-server --test fault_injection

echo "==> rvz serve smoke (ephemeral port, symmetric-twin cache hit, graceful shutdown)"
RVZ="./target/release/rvz"
SERVE_LOG="$(mktemp -t rvz_serve_smoke.XXXXXX.log)"
"$RVZ" serve --port 0 --workers 2 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
# Scrape the bound address from the startup banner.
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^rvz serve listening on //p' "$SERVE_LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve did not start"; cat "$SERVE_LOG"; exit 1; }
# A feasibility query answers with the Theorem 4 verdict.
"$RVZ" client --addr "$ADDR" --path '/feasibility?tau=0.5' | grep -q '"breaker":"clocks"'
# A first-contact query misses; its role-swap twin (v -> 1/v, d and r
# scaled by v·tau, bearing + pi) must hit the same canonical entry.
FC_METRICS_ON="$("$RVZ" client --addr "$ADDR" --path /first-contact \
    --body '{"speed":0.5,"distance":0.9,"visibility":0.25}')"
echo "$FC_METRICS_ON" | grep -q 'X-Rvz-Cache: miss'
"$RVZ" client --addr "$ADDR" --path /first-contact \
    --body '{"speed":2,"distance":1.8,"visibility":0.5,"bearing":4.188790204786391}' \
    | grep -q 'X-Rvz-Cache: hit'
# A batch sweep reuses the cached orbit and stays Theorem 4 consistent.
"$RVZ" client --addr "$ADDR" --path /sweep \
    --body '{"scenarios":[{"speed":0.5,"distance":0.9,"visibility":0.25},{"time_unit":0.6,"distance":0.9,"visibility":0.25}]}' \
    | grep -q '"consistent":2'
# Every response carries a 16-hex-digit trace ID.
"$RVZ" client --addr "$ADDR" --path /healthz \
    | grep -Eq '^X-Rvz-Trace: [0-9a-f]{16}$'
# /metrics serves the Prometheus exposition with every family present
# from the first scrape (preregistration), faults and sheds included.
METRICS_SCRAPE="$("$RVZ" client --addr "$ADDR" --path /metrics)"
for family in rvz_requests_total rvz_responses_total rvz_request_duration_us \
    rvz_cache_requests_total rvz_engine_queries_total rvz_engine_outcomes_total \
    rvz_engine_kernel_dispatch_total rvz_engine_kernel_lanes_active \
    rvz_faults_injected_total rvz_shed_total rvz_uptime_seconds rvz_inflight; do
    echo "$METRICS_SCRAPE" | grep -q "$family" \
        || { echo "metrics scrape missing $family"; exit 1; }
done
# The engine counters moved: the twin queries above ran exactly one
# engine query through the cache-miss path.
echo "$METRICS_SCRAPE" | grep -q 'rvz_cache_requests_total{outcome="hit"} [1-9]' \
    || { echo "cache-hit counter did not move"; exit 1; }
# The flight recorder serves recent spans as JSON.
"$RVZ" client --addr "$ADDR" --path '/trace/recent?n=4' | grep -q '"events":'
# /stats carries uptime, the build fingerprint, and the shed-cause split.
STATS="$("$RVZ" client --addr "$ADDR" --path /stats)"
echo "$STATS" | grep -q '"uptime_s":' || { echo "stats missing uptime_s"; exit 1; }
echo "$STATS" | grep -q '"engine_fingerprint":' || { echo "stats missing build"; exit 1; }
echo "$STATS" | grep -q '"shed_by_cause"' || { echo "stats missing shed_by_cause"; exit 1; }
# Graceful shutdown: the serve process exits cleanly on its own.
"$RVZ" client --addr "$ADDR" --path /shutdown --method POST | grep -q '"shutting_down":true'
wait "$SERVE_PID"
grep -q "shut down cleanly" "$SERVE_LOG"
rm -f "$SERVE_LOG"

echo "==> serve --no-metrics arm (observability hidden, wire bytes identical)"
SERVE_LOG="$(mktemp -t rvz_serve_nometrics.XXXXXX.log)"
"$RVZ" serve --port 0 --workers 2 --no-metrics > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^rvz serve listening on //p' "$SERVE_LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "no-metrics serve did not start"; cat "$SERVE_LOG"; exit 1; }
grep -q 'metrics = off' "$SERVE_LOG"
# The observability endpoints answer 404 exactly like unknown paths
# (the client exits nonzero on any 4xx/5xx).
if "$RVZ" client --addr "$ADDR" --path /metrics >/dev/null 2>&1; then
    echo "--no-metrics must hide /metrics"; exit 1
fi
if "$RVZ" client --addr "$ADDR" --path /trace/recent >/dev/null 2>&1; then
    echo "--no-metrics must hide /trace/recent"; exit 1
fi
# The same first-contact query produces byte-identical result JSON.
FC_METRICS_OFF="$("$RVZ" client --addr "$ADDR" --path /first-contact \
    --body '{"speed":0.5,"distance":0.9,"visibility":0.25}')"
echo "$FC_METRICS_OFF" | grep -q 'X-Rvz-Cache: miss'
[ "$(echo "$FC_METRICS_ON" | tail -n 1)" = "$(echo "$FC_METRICS_OFF" | tail -n 1)" ] \
    || { echo "--no-metrics changed the result bytes"; exit 1; }
"$RVZ" client --addr "$ADDR" --path /shutdown --method POST >/dev/null
wait "$SERVE_PID"
rm -f "$SERVE_LOG"

echo "==> durability smoke (SIGKILL serve -> warm start; SIGKILL sweep -> bit-identical resume)"
DUR_DIR="$(mktemp -d -t rvz_durability_smoke.XXXXXX)"
# --- serve: kill the process outright and warm-start from its snapshot.
SNAP="$DUR_DIR/cache.snap"
SERVE_LOG="$DUR_DIR/serve1.log"
"$RVZ" serve --port 0 --workers 2 --snapshot "$SNAP" --snapshot-interval-s 1 \
    > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^rvz serve listening on //p' "$SERVE_LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "durable serve did not start"; cat "$SERVE_LOG"; exit 1; }
FIRST="$("$RVZ" client --addr "$ADDR" --path /first-contact \
    --body '{"speed":0.5,"distance":0.9,"visibility":0.25}')"
echo "$FIRST" | grep -q 'X-Rvz-Cache: miss'
# Wait for a periodic snapshot that already carries the cached entry,
# then SIGKILL mid-flight (no drain, no final snapshot — the periodic
# write must carry the state).
SNAP_OK=""
for _ in $(seq 1 100); do
    if "$RVZ" client --addr "$ADDR" --path /stats \
        | grep -q '"persisted_entries":[1-9]'; then SNAP_OK=1; break; fi
    sleep 0.1
done
[ -n "$SNAP_OK" ] || { echo "no periodic snapshot captured the entry"; exit 1; }
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_LOG2="$DUR_DIR/serve2.log"
"$RVZ" serve --port 0 --workers 2 --snapshot "$SNAP" --snapshot-interval-s 1 \
    > "$SERVE_LOG2" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^rvz serve listening on //p' "$SERVE_LOG2" | head -n 1)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "restarted serve did not start"; cat "$SERVE_LOG2"; exit 1; }
# The restore must be warm (or salvaged if the kill raced the writer —
# never a refusal to boot), and the previously-cached orbit must answer
# byte-identically as a hit, without an engine run.
grep -Eq 'restore: (warm|salvaged)' "$SERVE_LOG2"
AGAIN="$("$RVZ" client --addr "$ADDR" --path /first-contact \
    --body '{"speed":0.5,"distance":0.9,"visibility":0.25}')"
echo "$AGAIN" | grep -q 'X-Rvz-Cache: hit'
[ "$(echo "$FIRST" | tail -n 1)" = "$(echo "$AGAIN" | tail -n 1)" ] \
    || { echo "warm-start answer diverged from the computed one"; exit 1; }
"$RVZ" client --addr "$ADDR" --path /stats | grep -q '"durability"'
"$RVZ" client --addr "$ADDR" --path /shutdown --method POST >/dev/null
wait "$SERVE_PID"
# --- sweep: kill mid-checkpoint, resume, demand bit-identical artifacts.
SWEEP_FLAGS="--speeds 0.5,0.6,0.7,0.8,0.9,1.0 --clocks 0.6,1.0 --phis 0,1.5
    --chis +1 --distances 0.9 --r 0.25 --max-steps 20000 --horizon-rounds 6"
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 1 --out "$DUR_DIR/reference" >/dev/null
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 2 --out "$DUR_DIR/resumed" \
    --checkpoint "$DUR_DIR/sweep.ckpt" >/dev/null 2>&1 &
SWEEP_PID=$!
for _ in $(seq 1 200); do
    [ -s "$DUR_DIR/sweep.ckpt" ] && break
    kill -0 "$SWEEP_PID" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$SWEEP_PID" 2>/dev/null || true
wait "$SWEEP_PID" 2>/dev/null || true
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 4 --out "$DUR_DIR/resumed" \
    --checkpoint "$DUR_DIR/sweep.ckpt" --resume > "$DUR_DIR/resume.log"
grep -q 'checkpoint:' "$DUR_DIR/resume.log" \
    || { echo "resumed sweep did not report checkpoint stats"; exit 1; }
cmp "$DUR_DIR/reference.jsonl" "$DUR_DIR/resumed.jsonl" \
    || { echo "resumed sweep JSONL diverged from the uninterrupted run"; exit 1; }
cmp "$DUR_DIR/reference.csv" "$DUR_DIR/resumed.csv" \
    || { echo "resumed sweep CSV diverged from the uninterrupted run"; exit 1; }
rm -rf "$DUR_DIR"

echo "CI OK"
