#!/usr/bin/env bash
# Crash-recovery smoke: run quickstart with --checkpoint, SIGKILL it
# mid-flight, --restore from the surviving images, and require the restored
# run's model statistics to be bit-identical to an uninterrupted run with
# the same seed. Engine counters are deliberately excluded from the diff:
# a restored run's RunStats cover only the continuation.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${QUICKSTART:-./build/examples/quickstart}
N=${N:-16}
STEPS=${STEPS:-400}
PES=${PES:-4}
SEED=${SEED:-3}
EVERY=${EVERY:-200000}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Model statistics are lines 2-8 of the quickstart output. Line 1 names the
# kernel and everything after line 8 is engine/observability detail that is
# continuation-scoped after a restore.
stats() { sed -n '2,8p' "$1"; }

# Reference: the uninterrupted run.
"$BIN" --n="$N" --steps="$STEPS" --pes="$PES" --seed="$SEED" \
  > "$WORK/ref.out"
stats "$WORK/ref.out" > "$WORK/ref.stats"

# Victim: same run, writing images; SIGKILL it as soon as one image exists
# so the kill lands mid-flight, not at the finish line.
"$BIN" --n="$N" --steps="$STEPS" --pes="$PES" --seed="$SEED" \
  --checkpoint=every="$EVERY",dir="$WORK/cks" > /dev/null 2>&1 &
VICTIM=$!
for _ in $(seq 1 400); do
  if ls "$WORK/cks"/ckpt-*.hpck > /dev/null 2>&1; then break; fi
  sleep 0.05
done
kill -KILL "$VICTIM" 2> /dev/null || true
wait "$VICTIM" 2> /dev/null || true
if ! ls "$WORK/cks"/ckpt-*.hpck > /dev/null 2>&1; then
  echo "crash-recovery smoke: no checkpoint image was ever written" >&2
  exit 1
fi
echo "killed run $VICTIM with $(ls "$WORK/cks" | wc -l) image(s) on disk"

# Restore from the latest surviving image and finish the run.
"$BIN" --n="$N" --steps="$STEPS" --pes="$PES" --seed="$SEED" \
  --restore="$WORK/cks" > "$WORK/restored.out"
stats "$WORK/restored.out" > "$WORK/restored.stats"

diff -u "$WORK/ref.stats" "$WORK/restored.stats"
echo "crash-recovery smoke: restored run is bit-identical."
