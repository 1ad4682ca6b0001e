#!/usr/bin/env sh
# CI gate for the plane-rendezvous workspace.
#
#   ./ci.sh
#
# Runs the full verification stack. Everything works offline: the
# workspace has no external dependencies (see ARCHITECTURE.md,
# "Offline-build constraints").

set -eu

# Runs `cargo test --release` on one target with test-name filters and
# fails when a filter selects no test: libtest treats a filter that
# matches nothing as a passing no-op, so a renamed test would drop out
# of the gate silently. Usage: named_tests "<target args>" name...
named_tests() {
    target="$1"
    shift
    # shellcheck disable=SC2086
    listed="$(cargo test --release --quiet $target -- --list | sed -n 's/: test$//p')"
    for name in "$@"; do
        echo "$listed" | grep -qF -- "$name" \
            || { echo "no test of '$target' matches the filter '$name'"; exit 1; }
    done
    # shellcheck disable=SC2086
    cargo test --release --quiet $target -- "$@"
}

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

echo "==> oracle boundary (cargo tree: production never sees rvz-oracles, rvz-oracles never sees the engine)"
# The oracles are independent references only while the two graphs stay
# apart. Over normal edges no production crate and not the facade may
# reach rvz-oracles (tests and examples take it as a dev-dependency),
# and rvz-oracles may reach neither the engine nor anything built on
# it, over its normal or its own dev edges.
PROD_GRAPH="$(cargo tree --offline --workspace --exclude rvz-oracles -e normal --prefix none)"
if echo "$PROD_GRAPH" | grep -q '^rvz-oracles '; then
    echo "a production crate depends on rvz-oracles:"
    cargo tree --offline --workspace --exclude rvz-oracles -e normal -i rvz-oracles
    exit 1
fi
ORACLE_GRAPH="$(cargo tree --offline -p rvz-oracles -e normal,dev --prefix none)"
if echo "$ORACLE_GRAPH" | grep -Eq '^rvz-(sim|experiments|server) '; then
    echo "rvz-oracles depends on the engine:"
    echo "$ORACLE_GRAPH" | grep -E '^rvz-(sim|experiments|server) ' | sort -u
    exit 1
fi

echo "==> cargo test --release -p rvz-trajectory (release-only contracts: t >= 0 asserts)"
cargo test --release --quiet -p rvz-trajectory

echo "==> allocation + SoA-not-slower gate (zero heap allocations per query; lane kernel within 10% of the scalar loop)"
# Zero allocations per warm query on the compiled ladder, the lane
# kernel, and simulate_rendezvous_by_ref — the cursor call every sweep
# worker and every serve miss off the lane kernel make — on a feasible
# tau = 1 pair, an exact twin, a mirror twin and a tau != 1 pair.
cargo test --release --quiet -p rvz-sim --test alloc_gate

echo "==> allocation + SoA-not-slower gate, -C target-cpu=native arm"
# The lane kernel leans on autovectorization: hold the bound on a
# native build too rather than assuming it carries over.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/ci-native \
    cargo test --release --quiet -p rvz-sim --test alloc_gate

echo "==> step gate + canonical compiled arms + Lemma 4 oracle + curvature, law-walk and wait-window certificates + telemetry byte-identity (release)"
# The cursor engine never takes more steps than the seed loop on the
# canonical cases, the compiled ladder and lane kernel classify them
# as the seed loop does, τ = 1 queries on the relative trajectory agree
# with the two-cursor oracle on the full sets (tier-1 runs a debug
# sample) and disprove every twin in a few steps, and flipping the
# metrics kill switch changes no outcome, work counter or piece count.
named_tests "--test engine_equivalence" \
    cursor_engine_never_takes_more_steps_than_generic_on_canonical_cases \
    compiled_and_lane_engines_classify_canonical_cases_like_generic \
    relative_trajectory_disproves_twins_in_a_few_steps \
    relative_trajectory_matches_the_two_cursor_oracle \
    curvature_certificate_stops_the_arc_crawl_and_declares_inside_the_band \
    wait_window_certificate_crosses_waits_and_declares_inside_the_band \
    circle_pairs_walk_their_laws_and_declare_inside_the_band \
    compiled_ladder_and_lane_kernel_walk_circle_pairs_like_the_cursor_engine
cargo test --release --quiet --test telemetry_identity
# The curvature certificate never passes its target on 10,000 seeded
# piece pairs (unequal-rate arcs, arc vs line, arc vs wait, line vs arc),
# nor does the law walk that chains it along unequal-rate circle pairs
# (10,000 seeded pairs, 513 samples per walked span); the exact rungs
# (affine quadratic, cosine law) hold to 513 distance samples on 10,000
# seeded affine, phase-locked circle and circle-vs-wait pairs; and the
# wait-window certificate's cursor query never clears past a densely
# sampled visit on 10,000 seeded queries (both schedules, directly,
# through similarity, reflected and generic frame warps and through
# drifting clocks).
named_tests "-p rvz-sim --lib" curvature_step law_walk exact_rungs first_visit

echo "==> engine vs analytic discovery and brute force (release: 10,000 seeded draws per property)"
# tests/cross_validation.rs checks the engine against the closed-form
# discovery time (never late, early only by the declaration slack) and
# against dense sampling (never later); tier-1 runs a 48-draw debug
# sample of the same fixed-seed stream.
cargo test --release --quiet --test cross_validation

echo "==> numeric substrate properties (release: 10,000 seeded draws per property)"
# tests/numeric_properties.rs holds the geometry and numerics oracles
# every engine step rests on: Vec2::norm within one ulp of hypot and
# obeying the norm axioms, Cauchy-Schwarz and the Lagrange identity;
# the in-house sin_cos within 2^-52 of libm, exactly odd/even, and
# libm's own bits past its reduction bound and on NaN and infinities;
# matrix algebra, inverse, QR and the operator norm; angles;
# floor_log2 through pow2i. Tier-1 runs a 256-draw debug
# sample of the same streams.
cargo test --release --quiet --test numeric_properties

echo "==> model properties (release: 10,000 seeded draws per property)"
# tests/model_properties.rs holds the Theorem 4 predicate to its
# formula and its symmetry breaker to the attributes, the frame map to
# speed v and duration scaled by tau, and instances to their reduction
# and validation rules. Tier-1 runs a 256-draw debug sample.
cargo test --release --quiet --test model_properties

echo "==> core, search and trajectory properties (release: 10,000 seeded draws per property)"
# tests/core_properties.rs holds the equivalent-search algebra (Lemma 5
# closed form vs QR, det T∘, the Lemma 4 relative-motion identity), the
# tau decomposition and the Lemma 9, 10 and 13 overlap rules;
# tests/search_properties.rs the dyadic schedule's indexing, the search
# robot's speed and reach, and the discovery oracle;
# tests/trajectory_properties.rs the Trajectory contract on random paths
# and the FrameWarp algebra. Tier-1 runs a 256-draw debug sample.
cargo test --release --quiet --test core_properties --test search_properties \
    --test trajectory_properties

echo "==> engine output bytes (release: the pinned digest holds in both builds)"
# tests/engine_bytes.rs hashes a fixed sweep's JSONL and one served
# /first-contact body against ENGINE_BYTES_DIGEST, declared beside
# JOURNAL_VERSION; tier-1 runs it in debug, so a digest that differs
# between the two builds fails one of the two runs.
cargo test --release --quiet --test engine_bytes

echo "==> differential fuzz (release seed and budget of its own: the engine paths agree)"
# The seeded harness in tests/differential_fuzz.rs holds the cursor path
# to the seed conservative loop (rvz-oracles) on every random scenario x
# trajectory-stack draw, the compiled-eager and SoA lane-kernel paths on
# the exact stacks, and the production call simulate_rendezvous_by_ref
# on the plain-warp stack, half of whose draws have tau = 1 (general
# frames, exact twins, on- and off-axis mirror twins: the Lemma 4
# relative trajectory). On the exact stacks the streamed serve miss path
# must equal the batch kernel exactly, and the curved (spiral) stacks
# must refuse to lower by name. Tier-1 runs the default seed's 256 cases
# in debug; this run pins another seed and 4,096 cases (about 2 s), so
# CI stays deterministic and replays nothing tier-1 already drew.
RVZ_FUZZ_CASES=4096 RVZ_FUZZ_SEED=20261020 \
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
# A batch sweep reuses the cached orbit, runs the engine once for the
# new one, and stays Theorem 4 consistent.
SWEEP_OUT="$("$RVZ" client --addr "$ADDR" --path /sweep \
    --body '{"scenarios":[{"speed":0.5,"distance":0.9,"visibility":0.25},{"time_unit":0.6,"distance":0.9,"visibility":0.25}]}')"
echo "$SWEEP_OUT" | grep -q '"consistent":2'
echo "$SWEEP_OUT" | grep -q 'X-Rvz-Cache: hits=1;misses=1' \
    || { echo "sweep did not resolve through the cache: $SWEEP_OUT"; exit 1; }
# Every response carries a 16-hex-digit trace ID.
"$RVZ" client --addr "$ADDR" --path /healthz \
    | grep -Eq '^X-Rvz-Trace: [0-9a-f]{16}$'
# /metrics serves the Prometheus exposition with every family present
# from the first scrape (preregistration), faults and sheds included.
METRICS_SCRAPE="$("$RVZ" client --addr "$ADDR" --path /metrics)"
for family in rvz_requests_total rvz_responses_total rvz_request_duration_us \
    rvz_cache_requests_total rvz_engine_queries_total rvz_engine_outcomes_total \
    rvz_engine_kernel_dispatch_total rvz_engine_kernel_lanes_active \
    rvz_engine_steps_curvature_total rvz_engine_steps_window_total \
    rvz_engine_steps_by_pair_total \
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
# 1,024 mirror twins with pruning off each run out a 20,000-step budget
# (about 2 ms apiece), so the run outlasts several 250 ms journal syncs
# while its artifacts stay small.
SWEEP_FLAGS="--speeds 1 --clocks 1 --chis -1 --r 0.25 --max-steps 20000
    --horizon-rounds 6 --no-prune
    --phis 0.3,0.5,0.7,0.9,1.1,1.3,1.5,1.7,1.9,2.1,2.3,2.5,2.7,2.9,3.1,3.3
    --distances 0.6,0.8,1.0,1.2,1.4,1.6,1.8,2.0
    --bearings 0.1,0.5,0.9,1.3,1.7,2.1,2.5,2.9"
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 1 --out "$DUR_DIR/reference" >/dev/null
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 2 --out "$DUR_DIR/resumed" \
    --checkpoint "$DUR_DIR/sweep.ckpt" >/dev/null 2>&1 &
SWEEP_PID=$!
# Kill only once the journal holds its header and at least one record
# line while the sweep is still running: a mid-run kill.
KILLED_MID_RUN=""
for _ in $(seq 1 400); do
    kill -0 "$SWEEP_PID" 2>/dev/null || break
    JOURNAL_LINES=0
    [ -f "$DUR_DIR/sweep.ckpt" ] && JOURNAL_LINES="$(wc -l < "$DUR_DIR/sweep.ckpt")"
    if [ "$JOURNAL_LINES" -ge 2 ]; then
        kill -9 "$SWEEP_PID" 2>/dev/null && KILLED_MID_RUN=1
        break
    fi
    sleep 0.02
done
wait "$SWEEP_PID" 2>/dev/null || true
[ -n "$KILLED_MID_RUN" ] \
    || { echo "checkpointed sweep ended before a mid-run kill"; exit 1; }
# shellcheck disable=SC2086
"$RVZ" sweep $SWEEP_FLAGS --threads 4 --out "$DUR_DIR/resumed" \
    --checkpoint "$DUR_DIR/sweep.ckpt" --resume > "$DUR_DIR/resume.log"
grep -q 'checkpoint:' "$DUR_DIR/resume.log" \
    || { echo "resumed sweep did not report checkpoint stats"; exit 1; }
# The killed run journaled at least one record and left work undone: a
# resume that dropped the journal, or a kill that came after the last
# record, would still `cmp` equal.
RESUMED="$(sed -n 's/^checkpoint: \([0-9]*\) resumed.*/\1/p' "$DUR_DIR/resume.log")"
COMPUTED="$(sed -n 's/^checkpoint: [0-9]* resumed, \([0-9]*\) computed.*/\1/p' "$DUR_DIR/resume.log")"
[ "${RESUMED:-0}" -ge 1 ] && [ "${COMPUTED:-0}" -ge 1 ] \
    || { echo "resume was not mid-run: $(cat "$DUR_DIR/resume.log")"; exit 1; }
cmp "$DUR_DIR/reference.jsonl" "$DUR_DIR/resumed.jsonl" \
    || { echo "resumed sweep JSONL diverged from the uninterrupted run"; exit 1; }
cmp "$DUR_DIR/reference.csv" "$DUR_DIR/resumed.csv" \
    || { echo "resumed sweep CSV diverged from the uninterrupted run"; exit 1; }
rm -rf "$DUR_DIR"

echo "==> checkpoint cost gate (checkpointed 20k sweep within 1.15x of the plain one, median of 5 alternating pairs)"
# The checkpoint holds framed records in memory and syncs them (one
# write, one fsync, one flight-recorder dump) on the first record at least
# 250 ms after the last sync and at the end, so its cost follows the
# sweep's wall time, not its record count. Both runs must also write
# the same JSONL.
CKPT_DIR="$(mktemp -d -t rvz_checkpoint_gate.XXXXXX)"
CKPT_FLAGS="--lhs 20000 --seed 11 --algos alg7,alg4 --threads 2"
wall_ms() {
    started="$(date +%s%N)"
    "$@" > /dev/null || return 1
    echo $(( ($(date +%s%N) - started) / 1000000 ))
}
RATIOS=""
for _ in 1 2 3 4 5; do
    rm -f "$CKPT_DIR"/sweep.ckpt*
    # shellcheck disable=SC2086
    PLAIN_MS="$(wall_ms "$RVZ" sweep $CKPT_FLAGS --out "$CKPT_DIR/plain")"
    # shellcheck disable=SC2086
    CKPT_MS="$(wall_ms "$RVZ" sweep $CKPT_FLAGS --out "$CKPT_DIR/ckpt" \
        --checkpoint "$CKPT_DIR/sweep.ckpt")"
    RATIOS="$RATIOS $(awk "BEGIN { printf \"%.3f\", $CKPT_MS / $PLAIN_MS }")"
done
cmp "$CKPT_DIR/plain.jsonl" "$CKPT_DIR/ckpt.jsonl" \
    || { echo "checkpointed sweep JSONL differs from the plain run"; exit 1; }
MEDIAN="$(echo $RATIOS | tr ' ' '\n' | sort -n | sed -n 3p)"
echo "checkpointed / plain wall time:$RATIOS (median $MEDIAN)"
awk "BEGIN { exit !($MEDIAN <= 1.15) }" \
    || { echo "checkpointed sweep costs more than 1.15x the plain one"; exit 1; }
rm -rf "$CKPT_DIR"

echo "CI OK"
