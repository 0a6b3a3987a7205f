#!/bin/sh
# Local CI gate: everything a pull request must pass, in dependency order.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== clippy panic-freedom gate (hardened crates) =="
# The six hardened crates must not index or unwrap in library code: the
# timing wheel and hash loops run on every simulated event, and the
# hw/mem/secure/faults layers model the paper's TCB. get()/expect() with a
# named invariant, or slice patterns, instead (see DESIGN.md §13, §15).
cargo clippy -q -p satin-sim -p satin-hash -p satin-hw -p satin-mem \
    -p satin-secure -p satin-faults \
    -- -D clippy::indexing_slicing -D clippy::unwrap_used

echo "== rustfmt =="
cargo fmt --check

echo "== static analysis (satin-lint, ratcheted) =="
# The token-level analyzer: determinism rules (wall-clock, unordered-iter,
# thread-spawn, unwrap), panic-freedom + cast-truncation over the hardened
# crates, the unsafe audit, and the cross-file doorway table — ratcheted
# against lint_baseline.txt (novel findings AND stale entries both fail;
# see `satin-lint --explain`).
./target/release/satin-lint --root . --baseline lint_baseline.txt

echo "== static analysis self-determinism smoke =="
# Two full runs must emit identical bytes: the analyzer's walk order,
# pass order, and report serialization are all deterministic.
LINT_A="$(mktemp /tmp/satin_lint_a.XXXXXX.txt)"
LINT_B="$(mktemp /tmp/satin_lint_b.XXXXXX.txt)"
./target/release/satin-lint --root . > "$LINT_A"
./target/release/satin-lint --root . > "$LINT_B"
cmp "$LINT_A" "$LINT_B"
rm -f "$LINT_A" "$LINT_B"
echo "satin-lint output byte-identical across two runs"

echo "== telemetry smoke =="
# The exported artifacts must be valid JSON, and the traced race must match
# the blessed span-count snapshot (same seed, same quick-mode horizon).
TRACE_JSON="$(mktemp /tmp/satin_trace.XXXXXX.json)"
METRICS_JSON="$(mktemp /tmp/satin_metrics.XXXXXX.json)"
DEFAULT_OUT="$(mktemp /tmp/satin_default.XXXXXX.txt)"
SCENARIO_OUT="$(mktemp /tmp/satin_scenario.XXXXXX.txt)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT"' EXIT INT TERM
./target/release/repro --seed 42 --trace-out "$TRACE_JSON" \
    --metrics-json "$METRICS_JSON" > /dev/null
TRACE_JSON="$TRACE_JSON" METRICS_JSON="$METRICS_JSON" python3 - <<'EOF'
import json, os
trace = json.load(open(os.environ["TRACE_JSON"]))
metrics = json.load(open(os.environ["METRICS_JSON"]))
sessions = sum(1 for e in trace["traceEvents"] if e.get("name") == "secure.session")
snap = dict(
    line.split(" ", 1)
    for line in open("crates/bench/tests/golden/telemetry_seed_42.snap")
    if not line.startswith("#")
)
want = int(snap["span.secure.session"])
assert sessions == want, f"trace has {sessions} sessions, snapshot says {want}"
assert metrics["campaigns"] == 3 and metrics["publications"] > 0, metrics
print(f"telemetry OK: {sessions} sessions traced, "
      f"{metrics['publications']} publications aggregated")
EOF

echo "== scenario smoke =="
# The registry lists and the descriptors parse.
./target/release/repro --scenario-list
# The juno-r1 descriptor is a pure re-description of the built-in Juno
# constants: selecting it must be byte-identical to the default run.
./target/release/repro --seed 42 > "$DEFAULT_OUT"
./target/release/repro --scenario juno-r1 --seed 42 > "$SCENARIO_OUT"
cmp "$DEFAULT_OUT" "$SCENARIO_OUT"
echo "juno-r1 descriptor == default run (byte-identical)"
# A non-Juno platform runs deterministically, pinned against its snapshot
# (also covered by the workspace test pass; re-run here by name so the
# smoke fails loudly on its own).
./target/release/repro --scenario all-little --seed 42 detection > /dev/null
cargo test -q -p satin-bench --test scenario_golden

echo "== error-hardening lint (panic-freedom + unsafe audit) =="
# The hardened crates must not grow new panic paths (panic!/todo!/
# unreachable!/unwrap()/bare-expect/slice indexing outside #[cfg(test)]),
# and every `unsafe` anywhere needs an adjacent `// SAFETY:` comment. The
# token-level passes replace the old sed/grep check, which was blind to
# block comments and multi-line strings.
./target/release/satin-lint --root . \
    --passes panic-freedom,unsafe-audit --baseline lint_baseline.txt
echo "hardened crates: no panic paths in library code; unsafe audited"

echo "== fault-injection smoke (seed 42) =="
# The acceptance campaign: the smoke plan drops one publication on every
# seed and aborts seed 42 past its retry budget; the run must not panic,
# must salvage seed 42 as a FAILED row naming the injected abort, and must
# be byte-identical for any --jobs value.
FAULTS_1="$(mktemp /tmp/satin_faults1.XXXXXX.txt)"
FAULTS_4="$(mktemp /tmp/satin_faults4.XXXXXX.txt)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4"' EXIT INT TERM
EVENTS_1="$(mktemp /tmp/satin_events1.XXXXXX.jsonl)"
EVENTS_4="$(mktemp /tmp/satin_events4.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4" "$EVENTS_1" "$EVENTS_4"' EXIT INT TERM
./target/release/repro --seed 42 --faults smoke --jobs 1 \
    --events-out "$EVENTS_1" faults > "$FAULTS_1" 2> /dev/null
./target/release/repro --seed 42 --faults smoke --jobs 4 --progress \
    --events-out "$EVENTS_4" faults > "$FAULTS_4" 2> /dev/null
grep -q '^smoke *42 *FAILED' "$FAULTS_1"
grep -q 'worker abort' "$FAULTS_1"
# Drop the header line (it prints the worker count) before comparing.
tail -n +2 "$FAULTS_1" > "$FAULTS_1.body" && mv "$FAULTS_1.body" "$FAULTS_1"
tail -n +2 "$FAULTS_4" > "$FAULTS_4.body" && mv "$FAULTS_4.body" "$FAULTS_4"
cmp "$FAULTS_1" "$FAULTS_4"
echo "fault smoke OK: seed 42 salvaged as FAILED, report jobs-invariant"
cargo test -q -p satin-bench --test fault_golden

echo "== event-stream smoke (seed 42, smoke plan) =="
# The canonical campaign event stream must be byte-identical for any
# --jobs (even with --progress attached: the live channel never feeds the
# canonical stream), every line must be valid versioned JSON, and the
# sequence numbers must be gapless from 0 (DESIGN.md §14).
cmp "$EVENTS_1" "$EVENTS_4"
EVENTS_JSONL="$EVENTS_1" python3 - <<'EOF'
import json, os
lines = open(os.environ["EVENTS_JSONL"]).read().splitlines()
assert lines, "event stream is empty"
for i, line in enumerate(lines):
    e = json.loads(line)
    assert e["v"] == 1, f"line {i}: schema version {e['v']}"
    assert e["seq"] == i, f"line {i}: seq {e['seq']} not gapless"
    assert "event" in e, f"line {i}: missing event kind"
assert json.loads(lines[0])["event"] == "campaign.started", lines[0]
last = json.loads(lines[-1])
assert last["event"] == "campaign.finished", lines[-1]
assert last["failed"] == 1 and last["retries"] >= 1, last
kinds = {json.loads(l)["event"] for l in lines}
need = {"campaign.started", "worker.assigned", "cell.started",
        "cell.attempt", "cell.fault_armed", "cell.retried",
        "cell.salvaged", "cell.finished", "campaign.finished"}
assert need <= kinds, f"missing event kinds: {need - kinds}"
print(f"event stream OK: {len(lines)} events, jobs-invariant, "
      f"gapless seq, all {len(need)} kinds present")
EOF
cargo test -q -p satin-bench --test events_golden

echo "== campaign-service smoke (daemon + content-addressed store) =="
# The service acceptance: a warm `repro submit` must be answered from the
# result store — byte-identical stdout, all cells cache hits, no
# re-simulation — and the daemon must shut down cleanly, removing its
# socket. Client and daemon speak JSONL over a Unix domain socket.
SERVE_DIR="$(mktemp -d /tmp/satin_serve.XXXXXX)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4" "$EVENTS_1" "$EVENTS_4"; rm -rf "$SERVE_DIR"' EXIT INT TERM
SERVE_SOCK="$SERVE_DIR/daemon.sock"
SERVE_STORE="$SERVE_DIR/results.jsonl"
./target/release/repro serve --socket "$SERVE_SOCK" --store "$SERVE_STORE" \
    2> "$SERVE_DIR/daemon.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    if ./target/release/repro ping --socket "$SERVE_SOCK" 2> /dev/null; then
        break
    fi
    sleep 0.1
done
./target/release/repro ping --socket "$SERVE_SOCK"
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    > "$SERVE_DIR/cold.txt" 2> "$SERVE_DIR/cold.err"
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    > "$SERVE_DIR/warm.txt" 2> "$SERVE_DIR/warm.err"
cmp "$SERVE_DIR/cold.txt" "$SERVE_DIR/warm.txt"
grep -q 'FAILED' "$SERVE_DIR/cold.txt"                   # seed 42 salvaged, not lost
grep -q '0 cache hit(s), 2 fresh' "$SERVE_DIR/cold.err"  # cold run simulated
grep -q '2 cache hit(s), 0 fresh' "$SERVE_DIR/warm.err"  # warm run did not
# A third submit with --progress streams job.cache_hit event lines.
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    --progress 2>&1 > /dev/null | grep -q 'job.cache_hit'
./target/release/repro shutdown --socket "$SERVE_SOCK"
wait "$SERVE_PID"
test ! -e "$SERVE_SOCK"    # clean shutdown removes the socket file
test -s "$SERVE_STORE"     # the store segment persisted the cells
echo "campaign service OK: warm submit byte-identical, all cells cache hits, clean shutdown"

echo "== analysis invariants (seeds 7 42 1009) =="
# Happens-before race detection plus the Eq.1/Eq.2 audit; repro exits
# nonzero on any violation or nonzero residual.
for seed in 7 42 1009; do
    ./target/release/repro --seed "$seed" --analyze > /dev/null
    echo "seed $seed: clean (0 violations, residuals 0)"
done

echo "== perfbench output checks (detect, fig7, faults) =="
# The end-to-end benchmark's unit tests, then one unit of each workload
# BENCHMARK.json lists. Every run checks its outputs against the committed
# records (per-seed event counts in perfbench/expected/detect.tsv, the
# Figure 7 table in perfbench/expected/fig7.txt, the smoke-plan event
# stream in crates/bench/tests/golden/events_smoke.jsonl.snap) and exits
# nonzero on any mismatch, so a hot-path refactor that moves one simulated
# byte fails here.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
PERFBENCH_OUT="$(mktemp /tmp/satin_perfbench.XXXXXX.txt)"
for workload in detect fig7 faults; do
    if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$PERFBENCH_OUT"; then
        cat "$PERFBENCH_OUT"
        rm -f "$PERFBENCH_OUT"
        exit 1
    fi
    echo "perfbench $workload: outputs match the records"
done
rm -f "$PERFBENCH_OUT"

echo "== bench smoke + trajectory snapshot =="
# The criterion suites must still run (compile + execute, numbers ignored);
# campaign_seeds is built but not executed here — one quick campaign is
# already timed inside the snapshot below, and 20 criterion samples of a
# full campaign would dominate CI wall-clock.
cargo build -q --release -p satin-bench --benches
cargo bench -q -p satin-bench --bench engine_micro --bench hash_window > /dev/null
# Every committed BENCH_*.json trajectory point must stay schema-valid
# (schema 1, or schema 2 which adds the host fingerprint object) and must
# record the >= 3x seeds/sec model speedup ISSUE 6 claims. CI validates
# the committed files rather than re-measuring: wall-clock numbers belong
# to the machine that produced them (regenerate with
#   cargo run --release -p satin-bench --bin repro -- --full --seed 42 bench --json BENCH_NNNN.json
# see EXPERIMENTS.md "Hot-path bench trajectory").
python3 - <<'EOF'
import glob, json

files = sorted(glob.glob("BENCH_*.json"))
assert files, "no committed BENCH_*.json snapshots"
need = {
    ("queue", "wheel_churn"), ("queue", "heap_churn"),
    ("hash_window", "djb2_batched"), ("hash_window", "djb2_boxed_per_byte"),
    ("seeds_model", "current"), ("seeds_model", "baseline"),
}
for path in files:
    r = json.load(open(path))
    assert r["id"] == path.removesuffix(".json"), (path, r["id"])
    assert r["schema"] in (1, 2), r["schema"]
    assert isinstance(r["quick"], bool) and isinstance(r["seed"], int)
    if r["schema"] >= 2:
        h = r["host"]
        assert isinstance(h["rustc"], str) and h["rustc"], h
        assert h["wall_ns"] > 0 and h["entries"] == len(r["entries"]), h
    got = set()
    for e in r["entries"]:
        assert set(e) == {"group", "name", "ns_per_unit", "per_sec", "unit", "samples"}, e
        assert e["ns_per_unit"] > 0 and e["per_sec"] > 0 and e["samples"] >= 1, e
        got.add((e["group"], e["name"]))
    assert need <= got, f"{path} missing entries: {need - got}"
    s = r["seeds_per_sec"]
    assert s["baseline_model"] > 0 and s["current_model"] > 0 and s["campaign_quick"] > 0, s
    assert s["speedup"] >= 3.0, f"{path}: seeds/sec model speedup {s['speedup']} < 3.0"
    print(f"{path} OK: schema {r['schema']}, {len(r['entries'])} entries, "
          f"seeds/sec model speedup {s['speedup']}x (>= 3.0 required)")
EOF

echo "== bench trajectory gate =="
# The newest committed snapshot must not regress the seeds/sec model
# speedup ratio by more than 20% against its predecessor (the ratio is
# dimensionless, so the gate holds across machines; see DESIGN.md §14).
./target/release/repro bench trajectory

echo "CI OK"
