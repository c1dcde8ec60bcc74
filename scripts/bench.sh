#!/usr/bin/env bash
# In-process bench sweep, fully offline.
#
# Runs the evaluator, complement, maintenance, star-schema and adaptive
# bench targets once each, collecting every JSON line into
# BENCH_eval.json. Each line carries `nproc` and `commit` (stamped by
# the bench targets via `dwc_bench::stamped`), so a committed row says
# which host and tree produced it:
#
#   jq -s 'group_by(.group+"/"+.bench)' BENCH_eval.json
#
# The durability suite (snapshot write, WAL append, cold recovery)
# lands in BENCH_recovery.json,
# the server group-commit suite in BENCH_server.json, and the
# degraded-mode serving suite (injected faults, modeled fsync stalls)
# in BENCH_faults.json.
#
# Usage: scripts/bench.sh [--quick] [--out FILE] [--help]
#   --quick      smoke pass (fewer samples, 2ms target per sample)
#   --out FILE   result file (default BENCH_eval.json; verify.sh points
#                this at a scratch file so a smoke run never overwrites
#                recorded numbers)
#   --help       print this text
#
# These are in-process rows. The end-to-end comparison of a change
# against its parent is scripts/ab.py: it exports the parent revision
# with `git archive` into a scratch directory, builds both sides, runs
# BENCHMARK.json's command (the wire-to-ack load generator) in N
# alternating parent/change pairs per workload, and prints per-pair
# ratios, medians with quartiles, and pass/fail against each end-to-end
# bound (plus an optional nine-of-ten-pairs claim check):
#
#   python3 scripts/ab.py HEAD~1 --workloads mixed-open --pairs 10 \
#       --claim mixed-open:ack_p50_ms
#   python3 scripts/ab.py HEAD~1 --trace    # per-layer rows instead

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUT=BENCH_eval.json
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    -h|--help) sed -n '2,/^$/s/^# \{0,1\}//p' "$0"; exit 0 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

export CARGO_NET_OFFLINE=true
if [ "$QUICK" = 1 ]; then
  export DWC_TESTKIT_BENCH_SAMPLES="${DWC_TESTKIT_BENCH_SAMPLES:-3}"
  export DWC_TESTKIT_BENCH_MS="${DWC_TESTKIT_BENCH_MS:-2}"
  echo "quick mode: samples=$DWC_TESTKIT_BENCH_SAMPLES target=${DWC_TESTKIT_BENCH_MS}ms"
fi
DWC_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)$(git diff --quiet HEAD 2>/dev/null || echo +)"
export DWC_BENCH_COMMIT

cargo build -q --release -p dwc-bench --benches

# One pass over one target: `cargo bench` with the testkit harness just
# runs the target's main; JSON lines go to stdout, cargo chatter to
# stderr.
run_bench() {
  cargo bench -q -p dwc-bench --bench "$1" | grep '^{'
}

# {eval -> $1} of whatever --out was given.
sibling() {
  local out
  out="$(dirname "$OUT")/$(basename "$OUT" | sed "s/eval/$1/")"
  [ "$out" = "$OUT" ] && out="${OUT%.json}_$1.json"
  echo "$out"
}

# The adaptive strategy comparison (fixed pins vs the planner, plus the
# clone baseline and the O(plan) planner-choose rows) lands in the main
# file next to the raw maintenance group it compares against.
: > "$OUT"
for bench in eval complement maintenance star adaptive; do
  echo "=== $bench ==="
  run_bench "$bench" | tee -a "$OUT"
done
echo "wrote $(grep -c '^{' "$OUT") results to $OUT"

# Snapshot write, WAL append (fsync / nosync) and cold recovery (with
# and without the W(W^-1(w)) = w cross-check) at two state sizes.
RECOVERY_OUT="$(sibling recovery)"
echo "=== durability: BENCH recovery ==="
run_bench recovery | tee "$RECOVERY_OUT"
echo "wrote $(grep -c '^{' "$RECOVERY_OUT") results to $RECOVERY_OUT"

# The target emits wall-clock acks/sec rows, deterministic SimDisk
# fsync-accounting rows, and "claim/..." rows carrying the batch>=16
# vs batch=1 speedup against threshold_x100=500 (the 5x headline), then
# the star-spec ingest rows, the maintain-pass/star-b{1,64}/sf{0.05,0.5}
# rows (one maintenance pass in process, with its rows_touched) and the
# query-reply/{miss,hit} rows (one `query` reply evaluated and memoised
# vs one served from the memo).
SERVER_OUT="$(sibling server)"
echo "=== server: BENCH group commit ==="
run_bench server | tee "$SERVER_OUT"
echo "wrote $(grep -c '^{' "$SERVER_OUT") results to $SERVER_OUT"

# Serving under injected faults: wall-clock acks/sec at rising transient
# error rates (with "claim/complete-..." rows pinning zero envelope
# loss) plus virtual-clock fsync-stall modeling with the batch>=16
# amortization claim against threshold_x100=500. Deterministic
# MediumPlan fault plans on the simulated disk (dwc_testkit::SimDisk).
FAULTS_OUT="$(sibling faults)"
echo "=== faults: BENCH degraded-mode serving ==="
run_bench faults | tee "$FAULTS_OUT"
echo "wrote $(grep -c '^{' "$FAULTS_OUT") results to $FAULTS_OUT"
