#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# Runs the ROADMAP tier-1 gate (`cargo build --release && cargo test -q`)
# with all network access to the registry forbidden, then the full
# workspace test suite. The workspace's only verification dependency is
# the in-tree `dwc-testkit` crate, so any attempt to reach crates.io is
# a regression — this script makes that attempt a hard failure:
#
#   * `CARGO_NET_OFFLINE=true` turns any download attempt into an error;
#   * the lockfile is checked for registry entries before building.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   lower property-test case counts (smoke pass)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# --- 0. the dependency closure must be entirely in-tree ----------------
if grep -q 'source = "registry' Cargo.lock; then
  echo "FAIL: Cargo.lock references a registry; the workspace must be" >&2
  echo "      buildable with zero external crates:" >&2
  grep -B2 'source = "registry' Cargo.lock >&2
  exit 1
fi
echo "ok: lockfile is registry-free ($(grep -c '^name = ' Cargo.lock) in-tree packages)"

export CARGO_NET_OFFLINE=true
if [ "$QUICK" = 1 ]; then
  export DWC_TESTKIT_CASES="${DWC_TESTKIT_CASES:-8}"
  echo "quick mode: DWC_TESTKIT_CASES=$DWC_TESTKIT_CASES"
fi

# --- 1. tier-1: release build + root test suite ------------------------
cargo build --release
cargo test -q

# --- 2. the rest of the workspace (crate unit tests, aggregates props) -
cargo test -q --workspace

# --- 3. bench targets must at least compile (they don't run here) ------
cargo build -q -p dwc-bench --benches

# --- 3b. the wire-to-ack load generator builds and runs ----------------
# benchmark/ is its own crate (BENCHMARK.json's command) and compiles
# against the library API and the `stats` reply tokens; nothing above
# builds it. A 5 s smoke run of one workload exits non-zero on a
# `stats` parse failure or an oracle mismatch.
cargo build -q --release --manifest-path benchmark/Cargo.toml
cargo run -q --release --manifest-path benchmark/Cargo.toml -- --workload mixed-open --quick >/dev/null \
  || { echo "FAIL: the load generator's mixed-open smoke run failed" >&2; exit 1; }
echo "ok: load generator builds and its mixed-open smoke run passes"

# --- 4. pinned chaos replays -------------------------------------------
# Two known-interesting fault schedules for the ingestion layer, pinned
# by seed so every run exercises the exact same drop/duplicate/reorder/
# corrupt interleavings (regression armor on top of the random sweep in
# step 1). The seeds pin the testkit runner's case stream, as a failure
# banner would.
for seed in 8234113119275560397 1157442765409226768; do
  echo "chaos replay: DWC_TESTKIT_SEED=$seed"
  DWC_TESTKIT_SEED="$seed" cargo test -q --test chaos_props
done

# --- 5. (retired with relalg::exec, see E25) ---------------------------

# --- 6. the bench sweep driver runs end-to-end -------------------------
# Smoke the bench sweep into a scratch file; real numbers are recorded
# by `scripts/bench.sh` into BENCH_eval.json and never touched here.
SWEEP_OUT=$(mktemp)
# bench.sh drops the durability, server, and fault suites into sibling
# files; mktemp names carry no "eval", so those siblings are
# ${SWEEP_OUT}_recovery.json, ${SWEEP_OUT}_server.json and
# ${SWEEP_OUT}_faults.json.
trap 'rm -f "$SWEEP_OUT" "${SWEEP_OUT}_recovery.json" "${SWEEP_OUT}_server.json" "${SWEEP_OUT}_faults.json"' EXIT
scripts/bench.sh --quick --out "$SWEEP_OUT" >/dev/null
echo "ok: bench sweep produced $(grep -c '^{' "$SWEEP_OUT") results"

# --- 7. static analysis gate -------------------------------------------
# `dwc analyze` must certify the shipped good specs, reject each seeded
# defect with its documented code, and pass the workspace source lint.
# Everything here is offline and reads no relation instance.
DWC=target/release/dwc
[ -x "$DWC" ] || { echo "FAIL: $DWC missing (step 1 builds it)" >&2; exit 1; }

"$DWC" analyze examples/specs/fig1.dwc examples/specs/ex23.dwc \
  examples/specs/starschema.dwc >/dev/null \
  || { echo "FAIL: a known-good spec was rejected" >&2; exit 1; }
echo "ok: example specs certify"

for case in cyclic:DWC-C101 keyless:DWC-C201 lossy:DWC-L301 unsat:DWC-L302; do
  spec="examples/specs/${case%%:*}.dwc"
  code="${case##*:}"
  if "$DWC" analyze "$spec" >/dev/null 2>&1; then
    echo "FAIL: $spec must be rejected by the certification gate" >&2
    exit 1
  fi
  # dwc exits 1 on rejection (expected), so capture before grepping —
  # piping directly would trip pipefail even when the code is present.
  json=$("$DWC" analyze --json "$spec" || true)
  if ! grep -q "\"code\":\"$code\",\"severity\":\"error\"" <<<"$json"; then
    echo "FAIL: $spec must report $code as an error" >&2
    echo "$json" >&2
    exit 1
  fi
done
echo "ok: seeded-defect specs rejected with their documented codes"

"$DWC" analyze --self-check >/dev/null \
  || { echo "FAIL: workspace source lint (srclint) found violations" >&2
       "$DWC" analyze --self-check >&2 || true; exit 1; }
echo "ok: srclint self-check clean"

# --- 8. durability: pinned crash matrix --------------------------------
# The storage suite kills a simulated process at every IO boundary of a
# pinned-seed ingestion run (tests/crash_props.rs bakes its own seeds in,
# so no env pinning is needed) and proves recovery lands bit-identical to
# a never-crashed oracle. The process model is dwc_testkit::SimDisk under
# a MediumPlan whose crash_at_op kills it; each sweep asserts it visits
# at least as many boundaries as before the crash and fault simulators
# were merged. Release mode: the sweep recovers the warehouse
# a few hundred times. It also holds the cases the retired step 13 used
# to check in passing: a torn MANIFEST, an unreadable newest snapshot,
# stores an older build wrote (a manifest policy byte, a snapshot mirror
# flag) opening to the same state, and a sharded layout failing closed.
echo "crash matrix: tests/crash_props.rs"
cargo test -q --release --test crash_props
echo "ok: crash matrix green"

# --- 9. server: concurrency differential + group-commit accounting -----
# The server suites drive ServerCore (sessions, batcher, group commit,
# epoch publication) under seeded interleavings and prove convergence to
# the serial oracle, exact fsync accounting, and acked-state survival of
# a kill at every IO boundary — including mid-batch. Step 1 already ran
# them at the ambient seed; run them pinned in release (the crash sweep
# recovers the server a few hundred times), then widen the schedule
# sweep beyond the suites' built-in DWC_SCHED_SEEDS defaults.
echo "server matrix: tests/server_props.rs + tests/group_commit_props.rs"
cargo test -q --release --test server_props --test group_commit_props
for seeds in "2026 40490 271828182845904523" "11400714819323198485 6364136223846793005"; do
  echo "schedule sweep: DWC_SCHED_SEEDS=\"$seeds\""
  DWC_SCHED_SEEDS="$seeds" cargo test -q --release --test server_props \
    pinned_scenario_converges_under_every_sweep_seed
  DWC_SCHED_SEEDS="$seeds" cargo test -q --release --test group_commit_props \
    pinned_slicing_differential_under_every_sweep_seed
done
echo "ok: server differential green, schedule sweep green"

# --- 10. fault injection: pinned medium-fault matrix -------------------
# The fault suite runs the server on the same SimDisk under fault plans
# and injects a transient fault at every IO boundary (the server must
# self-heal and converge on the exact oracle ack stream), a permanent
# fault from every boundary (read-only degradation, acks a strict
# prefix, restart-recovery convergence), a crash at every boundary of a
# run that is healing from a transient fault (degrade, retry, generation
# roll; recovery plus redelivery must equal the oracle), modeled fsync
# stalls, and seeded random chaos — all offline, all deterministic
# (tests/fault_props.rs bakes its seed in).
# Release mode: the matrix drives the server a few hundred times.
echo "fault matrix: tests/fault_props.rs"
cargo test -q --release --test fault_props
echo "ok: fault matrix green"

# --- 11. columnar core: pinned differential replay ---------------------
# The columnar relation core (dictionary columns, cached key indexes)
# must be bit-identical to the retained naive set-semantics reference:
# canonical order, evaluation, joins under index reuse, complements and
# all four maintenance strategies. Step 1 ran the suite at the ambient
# seed; replay it pinned so this exact case stream stays green forever,
# alongside the dictionary codec fuzz legs.
echo "columnar differential: tests/columnar_props.rs (pinned seed)"
DWC_TESTKIT_SEED=20260807 cargo test -q --release --test columnar_props
DWC_TESTKIT_SEED=20260807 cargo test -q --release --test parser_fuzz dictionary_
echo "ok: columnar differential green"

# --- 12. one maintenance route: pinned differential + cost CLI ---------
# Every report takes the restricted incremental pass; the suite pins
# that it converges to the oracle W(u(d)) on two specs, offered one
# report per slice and as one slice, with no fallback. Then the static
# cost analyzer (a what-if the server does not consult) must run over
# the shipped specs and emit the machine-readable P101 payload.
echo "one-route differential: tests/planner_props.rs (pinned seed)"
DWC_TESTKIT_SEED=20260807 cargo test -q --release --test planner_props
"$DWC" analyze --cost examples/specs/fig1.dwc examples/specs/adaptive.dwc >/dev/null
COST_JSON="$("$DWC" analyze --cost --json examples/specs/adaptive.dwc)"
echo "$COST_JSON" | grep -q '"code":"DWC-P101"' \
  || { echo "FAIL: analyze --cost --json missing DWC-P101" >&2; exit 1; }
echo "$COST_JSON" | grep -q '"data":{"chosen":' \
  || { echo "FAIL: analyze --cost --json missing data payload" >&2; exit 1; }
echo "ok: one-route differential + cost analyzer green"

# --- 13. (retired with warehouse::shard, see E26) ---------------------

# --- 14. reply path: one write per reply, no stall, no leak -------------
# The line encoder and the ack writer over a counting writer (one
# `write` per reply and per drained ack batch, bytes identical to the
# old `writeln!` rendering), then the real acceptor/engine/connection
# threads on a loopback socket against a client that sets no socket
# option: 200 round trips in under a second (8.8 s behind the
# delayed-ACK stall), pipelined acks in order around intact `result`
# replies, EOF and no leftover thread after `quit`. Step 7's srclint
# S509 keeps socket writes confined to the encoder. The reply memo: a
# hit is the same one write with the miss's bytes, and the seeded
# loopback property (reports committed between and racing queries on
# three connections) finds every reply byte-identical to the fresh reply
# of the epoch in its header, never older than the acked prefix, and no
# connection's epoch going backwards. The run above uses the property's
# baked-in seeds; the sweep pins them and two more.
echo "wire properties: tests/wire_props.rs"
cargo test -q --release --test wire_props
for seeds in "5567941516665618433 1049554927718570583" "2027 271828182845904523"; do
  echo "memo schedule sweep: DWC_SCHED_SEEDS=\"$seeds\""
  DWC_SCHED_SEEDS="$seeds" cargo test -q --release --test wire_props \
    every_reply_is_the_fresh_reply_of_its_epoch_and_epochs_never_go_back
done
echo "ok: reply path green"

# --- 15. one pass per group commit: slicing differential ----------------
# A group commit maintains its batch in one pass over the batch's net
# delta, and recovery regroups the WAL its own way. Over hostile seeded
# streams (duplicates, reorders that park and drain, garbage, an epoch
# bump, cancel pairs) every cut into slices must give the per-envelope
# outcome stream, fingerprint and counters, and W(u(d)); a failing pass
# must fall back to exactly today's per-report behaviour; FK-ordered
# star-schema reports must coalesce. The suite bakes its seed in
# (SLICE_SEED); step 9's sweep already widened it. The counting tests
# (⌈K/B⌉ passes live, ⌈K/G⌉ in replay, none for an empty net) are crate
# unit tests and ran in step 2.
echo "slicing differential: tests/group_commit_props.rs (pinned seed)"
cargo test -q --release --test group_commit_props -- slicing fall fk_ordered
echo "ok: slicing differential green"

# --- 16. a maintenance pass proportional to |Δ|: rows touched -----------
# The pass counts the rows it produces, probes and splices. On the star
# schema at scale 0.005 / 0.05 / 0.5 a lone report must stay under
# C · |Δ| · fan-out with one C for all three sizes, with every step
# evaluated from the delta — a pass that read a fact table whole would
# touch thousands of rows at scale 0.5. Step 1 ran it at the ambient
# seed; this pins one case stream. (The differential against
# W(u(W⁻¹(w))), with restricted and whole steps mixed, is
# random_warehouses' restricted_pass_equals_reconstruction_and_mixes_whole_steps,
# run in step 1.)
echo "rows-touched property: tests/pass_props.rs (pinned seed)"
DWC_TESTKIT_SEED=20261016 cargo test -q --release --test pass_props
echo "ok: rows touched stay proportional to the delta"

# Clippy is not part of the offline gate, but when a toolchain ships it,
# run it too (still offline).
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy -q --workspace --all-targets -- -D warnings
  echo "ok: clippy clean"
else
  echo "skip: cargo clippy not installed"
fi

echo "verify: all green"
