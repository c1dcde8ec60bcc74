#!/usr/bin/env bash
# Thread-scaling bench sweep, fully offline.
#
# Runs the evaluator, complement, maintenance, and star-schema bench
# targets serially (DWC_THREADS=1) and at a parallel width, collecting
# every JSON line into BENCH_eval.json. Each line carries a "threads"
# field (tagged by the bench targets via the exec layer), so the file is
# directly diffable across widths:
#
#   jq -s 'group_by(.group+"/"+.bench)' BENCH_eval.json
#
# The durability suite (snapshot write, WAL append, cold recovery) is
# IO-bound rather than thread-scaled, so it runs once serially and lands
# in BENCH_recovery.json. The server group-commit suite is IO-bound the
# same way and lands in BENCH_server.json, and the degraded-mode serving
# suite (injected faults, modeled fsync stalls) in BENCH_faults.json.
#
# Usage: scripts/bench.sh [--quick] [--threads N] [--out FILE]
#   --quick      smoke pass (fewer samples, 2ms target per sample)
#   --threads N  parallel width for the second sweep (default 4, or the
#                machine width if smaller is all that's available — the
#                exec layer caps nothing; on a 1-CPU host the N-thread
#                run measures scheduling overhead, not speedup)
#   --out FILE   result file (default BENCH_eval.json; verify.sh points
#                this at a scratch file so a smoke run never overwrites
#                recorded numbers)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
PAR_THREADS=4
OUT=BENCH_eval.json
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --threads) PAR_THREADS="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

export CARGO_NET_OFFLINE=true
if [ "$QUICK" = 1 ]; then
  export DWC_TESTKIT_BENCH_SAMPLES="${DWC_TESTKIT_BENCH_SAMPLES:-3}"
  export DWC_TESTKIT_BENCH_MS="${DWC_TESTKIT_BENCH_MS:-2}"
  echo "quick mode: samples=$DWC_TESTKIT_BENCH_SAMPLES target=${DWC_TESTKIT_BENCH_MS}ms"
fi

: > "$OUT"

cargo build -q --release -p dwc-bench --benches

BENCHES=(eval complement maintenance star)
for threads in 1 "$PAR_THREADS"; do
  echo "=== sweep: DWC_THREADS=$threads ==="
  for bench in "${BENCHES[@]}"; do
    # `cargo bench` with the testkit harness just runs the target's main;
    # JSON lines go to stdout, cargo chatter to stderr.
    DWC_THREADS="$threads" cargo bench -q -p dwc-bench --bench "$bench" \
      | grep '^{' | tee -a "$OUT"
  done
done

echo "wrote $(grep -c '^{' "$OUT") results to $OUT"

# Adaptive maintenance: the strategy comparison (fixed pins vs the
# planner, plus the clone baseline and the O(plan) planner-choose rows)
# is about strategy choice, not thread scaling, so it runs once
# serially. Rows are strategy-tagged and land in the main file next to
# the raw maintenance group they compare against.
echo "=== adaptive: strategy sweep ==="
DWC_THREADS=1 cargo bench -q -p dwc-bench --bench adaptive \
  | grep '^{' | tee -a "$OUT"
echo "wrote $(grep -c '^{' "$OUT") results to $OUT (incl. adaptive sweep)"

# Durability timings are IO-bound, not thread-scaled: one serial pass
# into a sibling file ({eval -> recovery} of whatever --out was given).
RECOVERY_OUT="$(dirname "$OUT")/$(basename "$OUT" | sed 's/eval/recovery/')"
[ "$RECOVERY_OUT" = "$OUT" ] && RECOVERY_OUT="${OUT%.json}_recovery.json"
echo "=== durability: BENCH recovery ==="
DWC_THREADS=1 cargo bench -q -p dwc-bench --bench recovery \
  | grep '^{' | tee "$RECOVERY_OUT"

# The key-range sharded sweep appends `shards`-tagged rows to the same
# file: the identical warehouse committed under 1/2/4 shard lineages,
# reopened through the parallel per-shard recovery at the parallel
# width. Each row also carries replay_critical_ns (slowest shard) and
# replay_total_ns (summed per-shard work) — their ratio is the modeled
# parallel-recovery speedup, which survives core-starved bench hosts
# where the wall-clock columns cannot show it.
echo "=== durability: sharded recovery sweep ==="
DWC_THREADS="$PAR_THREADS" DWC_BENCH_SHARDS=1,2,4 \
  cargo bench -q -p dwc-bench --bench recovery \
  | grep '^{' | tee -a "$RECOVERY_OUT"
echo "wrote $(grep -c '^{' "$RECOVERY_OUT") results to $RECOVERY_OUT (incl. shard sweep)"

# Server group-commit throughput: likewise IO-bound (one fsync per
# batch is the whole point), so one serial pass into its own sibling.
# The target emits wall-clock acks/sec rows, deterministic SimFs
# fsync-accounting rows, and "claim/..." rows carrying the batch>=16
# vs batch=1 speedup against threshold_x100=500 (the 5x headline).
SERVER_OUT="$(dirname "$OUT")/$(basename "$OUT" | sed 's/eval/server/')"
[ "$SERVER_OUT" = "$OUT" ] && SERVER_OUT="${OUT%.json}_server.json"
echo "=== server: BENCH group commit ==="
DWC_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)$(git diff --quiet HEAD 2>/dev/null || echo +)" \
DWC_THREADS=1 cargo bench -q -p dwc-bench --bench server \
  | grep '^{' | tee "$SERVER_OUT"
echo "wrote $(grep -c '^{' "$SERVER_OUT") results to $SERVER_OUT"

# Serving under injected faults: wall-clock acks/sec at rising transient
# error rates (with "claim/complete-..." rows pinning zero envelope
# loss) plus virtual-clock fsync-stall modeling with the batch>=16
# amortization claim against threshold_x100=500. Deterministic fault
# plans, one serial pass, own sibling file.
FAULTS_OUT="$(dirname "$OUT")/$(basename "$OUT" | sed 's/eval/faults/')"
[ "$FAULTS_OUT" = "$OUT" ] && FAULTS_OUT="${OUT%.json}_faults.json"
echo "=== faults: BENCH degraded-mode serving ==="
DWC_THREADS=1 cargo bench -q -p dwc-bench --bench faults \
  | grep '^{' | tee "$FAULTS_OUT"
echo "wrote $(grep -c '^{' "$FAULTS_OUT") results to $FAULTS_OUT"
