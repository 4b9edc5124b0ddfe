#!/usr/bin/env bash
# Local verification gate: everything CI runs, runnable offline.
#
#   ./scripts/verify.sh
#
# The workspace has no external dependencies, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--offline)

echo "==> cargo build --release"
cargo build "${CARGO_FLAGS[@]}" --workspace --release

echo "==> cargo test"
cargo test "${CARGO_FLAGS[@]}" --workspace -q

# The serving-layer concurrency suite must hold under the default test
# parallelism AND serially (different interleavings on both schedules).
echo "==> concurrency tests (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test concurrency -q

# Telemetry invariants (exactly-once query log under parallel sessions,
# live SHOW answers) must also hold on both schedules.
echo "==> telemetry tests (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test telemetry -q

# The chaos suite (failpoint-injected faults at every named site) and the
# governor integration tests run on both schedules too: fault isolation
# must hold under concurrent tests and under a serial schedule.
echo "==> chaos suite"
cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test chaos -q
echo "==> chaos suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test chaos -q
echo "==> governor integration tests"
cargo test "${CARGO_FLAGS[@]}" -p pqp --test governor --test governor_env -q

# The network edge: end-to-end TCP integration, protocol robustness
# (malformed/truncated/oversized frames, version mismatches, mid-query
# disconnects) and server-boundary chaos, on both test schedules —
# session-thread interleavings differ under a serial schedule too.
echo "==> server suites (integration, robustness, chaos)"
cargo test "${CARGO_FLAGS[@]}" -p pqp-server -q
echo "==> server suites (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-server -q

# Replication: crash recovery (torn tails, bit flips, WAL failpoints,
# and the kill -9 differential — SIGKILL a mutating child, replay must
# reconstruct a byte-identical store with no acked mutation lost) and
# failover chaos (leader death, promote-by-term, fencing, router
# auto-promotion), on both test schedules.
echo "==> replication recovery + failover chaos suites"
cargo test "${CARGO_FLAGS[@]}" -p pqp-server --test repl_recovery --test repl_failover -q
echo "==> replication recovery + failover chaos suites (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-server \
    --test repl_recovery --test repl_failover -q

# Frame-codec fuzzing: every wire decoder over 12k arbitrary-byte cases
# per test (xoshiro-seeded, reproducible) — Ok or a typed error, never a
# panic.
echo "==> wire codec fuzz (PQP_FUZZ_CASES=12000)"
cargo test "${CARGO_FLAGS[@]}" -p pqp-wire --test fuzz_codec -q

# No new unwrap()/expect() in non-test serving-path code (panics there
# take lock-holding threads down mid-query; use typed errors instead).
echo "==> unwrap/expect gate (service, storage, wire, server)"
./scripts/check_unwrap.sh

# Parallel execution must be row-for-row identical to serial, under the
# default test parallelism AND serially (nested-parallelism interleavings
# differ on both schedules). PQP_THREADS sets the budget under test.
echo "==> parallel equivalence (PQP_THREADS=4)"
PQP_THREADS=4 cargo test "${CARGO_FLAGS[@]}" -p pqp --test parallel_equivalence -q
echo "==> parallel equivalence (PQP_THREADS=4, RUST_TEST_THREADS=1)"
PQP_THREADS=4 RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp --test parallel_equivalence -q

# Statistics may change plans, never answers: the stats-equivalence suite
# (naive vs planned, stats on/off/stale, serial vs PQP_THREADS budget) runs
# under the default test parallelism AND serially, like the parallel suite.
echo "==> stats equivalence (PQP_THREADS=4)"
PQP_THREADS=4 cargo test "${CARGO_FLAGS[@]}" -p pqp --test stats_equivalence -q
echo "==> stats equivalence (PQP_THREADS=4, RUST_TEST_THREADS=1)"
PQP_THREADS=4 RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp --test stats_equivalence -q

# The batched (vectorized) executor must agree with the naive interpreter,
# which shares no operator code with it, and return identical rows under
# any thread budget: the differential suites (random predicates over
# hazard-biased schemas, the generated movie corpus, service-level
# answers) run on both test schedules.
echo "==> vectorized differential suites (executor == naive oracle)"
cargo test "${CARGO_FLAGS[@]}" -p pqp-engine --test vectorized_equivalence -q
cargo test "${CARGO_FLAGS[@]}" -p pqp-datagen --test vectorized_equivalence -q
cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test batched_answers -q
echo "==> vectorized differential suites (executor == naive oracle, RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-engine --test vectorized_equivalence -q
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-datagen --test vectorized_equivalence -q
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test batched_answers -q

# The native rank operator must be indistinguishable from the ranked MQ
# rewrite — same rows, bit-identical degrees, deterministic tie order —
# over randomized profiles and K/M/L knobs. The suite itself re-executes
# every native plan under a parallel thread budget and trips governor
# budgets mid-operator; it runs here on both test schedules.
echo "==> native rank differential suite"
cargo test "${CARGO_FLAGS[@]}" -p pqp --test native_rank_differential -q
echo "==> native rank differential suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp --test native_rank_differential -q

# Native TopK micro-bench smoke (PQP_TOPK_SMOKE shrinks the K/L sweep to
# its two ends): must produce results/micro_topk.json with per-point cost
# model choices and the K=14/L=3 corner speedup. The native-vs-ranked-MQ
# equivalence assertion runs inside the bench binary itself.
echo "==> topk bench smoke"
PQP_TOPK_SMOKE=1 cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench topk
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/micro_topk.json"))
assert doc["meta"]["bench"] == "micro_topk"
assert doc["meta"]["schema_version"] >= 2
assert doc["benchmarks"], "no benchmarks recorded"
for b in doc["benchmarks"]:
    assert b["mean_ms"] > 0 and b["n"] > 0
derived = doc["derived"]
for key in ("native_speedup_k14_l3", "top_n", "sweep", "host_cores",
            "measured_cheapest_low_end", "measured_cheapest_high_end"):
    assert key in derived, f"derived.{key} missing"
assert derived["sweep"], "empty sweep"
for point in derived["sweep"]:
    assert point["cost_model_choice"] in ("SQ", "MQ", "native"), point
    assert point["est_cost_mq"] > 0 and point["est_cost_native"] > 0
EOF
else
    grep -q '"native_speedup_k14_l3"' results/micro_topk.json
fi

# Vectorized micro-bench smoke: must produce results/micro_vectorized.json
# with the full benchmark set and a derived block (join output size and
# host cores).
echo "==> vectorized bench smoke"
cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench vectorized
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/micro_vectorized.json"))
names = {b["name"] for b in doc["benchmarks"]}
for name in ("join4_batched", "scan_broad_batched", "scan_selective_batched"):
    assert name in names, f"benchmark {name} missing"
for b in doc["benchmarks"]:
    assert b["mean_ms"] > 0 and b["n"] > 0
for key in ("join4_rows", "host_cores"):
    assert key in doc["derived"], f"derived.{key} missing"
assert doc["derived"]["join4_rows"] > 0
assert doc["meta"]["bench"] == "micro_vectorized"
EOF
else
    grep -q '"join4_batched"' results/micro_vectorized.json
fi

# Replication bench smoke (PQP_REPL_SMOKE shrinks the sample counts):
# must produce results/micro_repl.json with the in-memory vs WAL'd
# mutation overhead and the ack-quorum latency curve over 1..3 loopback
# followers.
echo "==> replication bench smoke"
PQP_REPL_SMOKE=1 cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench repl
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/micro_repl.json"))
assert doc["meta"]["bench"] == "micro_repl"
assert doc["meta"]["schema_version"] >= 2
assert doc["meta"]["host_cores"] >= 1
names = {b["name"] for b in doc["benchmarks"]}
for name in ("in_memory", "wal_quorum1", "quorum2_followers1",
             "quorum3_followers2", "quorum4_followers3"):
    assert name in names, f"benchmark {name} missing"
for b in doc["benchmarks"]:
    assert b["mean_ms"] > 0 and b["n"] > 0
curve = doc["derived"]["quorum_curve"]
assert [p["followers"] for p in curve] == [1, 2, 3]
for p in curve:
    assert p["ack_p50_ms"] > 0 and p["ack_p95_ms"] >= p["ack_p50_ms"]
assert doc["derived"]["durability_overhead_factor"] > 0
EOF
else
    grep -q '"quorum_curve"' results/micro_repl.json
fi

# Macro load harness smoke: a short zipf closed-loop run must produce
# results/macro_load.json with a non-zero throughput figure.
echo "==> load harness smoke (1s closed loop)"
PQP_LOAD_SECONDS=1 PQP_LOAD_USERS=10 PQP_LOAD_WORKERS=2 \
    cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench load
grep -q '"throughput_qps"' results/macro_load.json
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/macro_load.json"))
assert doc["throughput_qps"] > 0, "throughput must be non-zero"
for key in ("p50", "p95", "p99"):
    assert key in doc["latency_ms"], f"latency_ms.{key} missing"
assert doc["meta"]["schema_version"] >= 2
EOF
else
    grep -q '"p99"' results/macro_load.json
fi

# The same harness over real loopback sockets: PQP_LOAD_MODE=tcp fronts
# the service with an in-process pqp-server and must report non-zero
# throughput with client-measured latency quantiles.
echo "==> TCP load harness smoke (1s closed loop over loopback)"
PQP_LOAD_MODE=tcp PQP_LOAD_SECONDS=1 PQP_LOAD_USERS=10 PQP_LOAD_WORKERS=2 \
    cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench load
grep -q '"throughput_qps"' results/macro_load_tcp.json
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/macro_load_tcp.json"))
assert doc["throughput_qps"] > 0, "TCP throughput must be non-zero"
assert doc["config"]["mode"] == "tcp"
assert doc["latency_ms"]["source"] == "client"
for key in ("p50", "p95", "p99"):
    assert key in doc["latency_ms"], f"latency_ms.{key} missing"
assert doc["meta"]["schema_version"] >= 2
EOF
else
    grep -q '"p99"' results/macro_load_tcp.json
fi

echo "==> cargo test --doc"
cargo test "${CARGO_FLAGS[@]}" --workspace --doc -q

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc "${CARGO_FLAGS[@]}" --workspace --no-deps -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> OK"
