#!/usr/bin/env bash
# Regenerate every figure/table of the reproduction. Quick scales by
# default; pass --full for the paper-scale sweeps (much slower).
#
#   scripts/run_all_figures.sh [--full] [build_dir]
set -euo pipefail

FULL=""
if [[ "${1:-}" == "--full" ]]; then
  FULL="--full"
  shift
fi
BUILD="${1:-build}"
OUT="results"
mkdir -p "$OUT"

BENCHES=(
  fig3_delivery_time
  fig4_injection_wait
  fig5_speedup
  fig6_efficiency
  fig7_rollbacks
  fig8_kp_event_rate
  determinism_check
  baseline_comparison
  flow_control_contrast
  ablation_state_saving
  ablation_mapping
  ablation_cancellation
  ablation_gvt_interval
  priority_census
  mesh_vs_torus
  traffic_patterns
  phold_sweep
  pcs_blocking
  conservative_vs_optimistic
)

# Benches that run the Time Warp kernel also record a live monitor stream
# (one JSON-lines heartbeat per GVT round) next to their BENCH_*.json.
MONITORED=(
  fig5_speedup
  fig6_efficiency
  fig7_rollbacks
  fig8_kp_event_rate
)

for b in "${BENCHES[@]}"; do
  echo "=== $b ==="
  MON=()
  for m in "${MONITORED[@]}"; do
    if [[ "$b" == "$m" ]]; then
      MON=(--monitor --monitor-out="$OUT/MONITOR_$b.jsonl")
      : > "$OUT/MONITOR_$b.jsonl"  # fresh stream per run (writer appends)
    fi
  done
  # Run each bench with explicit failure propagation: a non-zero bench (e.g.
  # determinism_check finding a divergence) must name itself and abort the
  # whole regeneration with its own exit code — never produce a partial
  # results/ tree that looks complete.
  set +e
  "$BUILD/bench/$b" $FULL --csv="$OUT/$b.csv" --json="$OUT/BENCH_$b.json" \
    "${MON[@]}" | tee "$OUT/$b.txt"
  rc=${PIPESTATUS[0]}
  set -e
  if [[ $rc -ne 0 ]]; then
    echo "FAILED: bench $b exited $rc" >&2
    exit "$rc"
  fi
  echo
done

if [[ -x scripts/check_bench_json.py ]] || [[ -f scripts/check_bench_json.py ]]; then
  echo "=== validating bench JSON ==="
  python3 scripts/check_bench_json.py "$OUT"/BENCH_*.json
fi

echo "=== micro_engine ==="
"$BUILD/bench/micro_engine" --benchmark_min_time=0.05 | tee "$OUT/micro_engine.txt"

echo
echo "All outputs in $OUT/"
