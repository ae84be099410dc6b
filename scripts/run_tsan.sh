#!/usr/bin/env bash
# ThreadSanitizer gate for the Time Warp kernel: builds the tsan preset and
# runs the engine test binaries that exercise the lock-free remote event
# path (MPSC inbox, send batching, barrier GVT) under real PE threads.
# Any data race is a hard failure (halt_on_error).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build build-tsan -j "$(nproc)" --target test_mpsc_queue test_timewarp test_engine_matrix test_chaos test_event_pool test_pending_set test_latency test_obs test_checkpoint quickstart

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
./build-tsan/tests/test_mpsc_queue
./build-tsan/tests/test_timewarp
./build-tsan/tests/test_engine_matrix
# Fault injection + flow control stress the same lock-free paths from new
# angles (held envelopes, blocked PEs, duplicated antis).
./build-tsan/tests/test_chaos
# Slab pool recycling and the ladder-queue pending set run single-threaded
# per PE, but envelopes are freed into the receiving PE's pool — keep their
# unit suites in the gate so the cross-pool live accounting stays clean too.
./build-tsan/tests/test_event_pool
./build-tsan/tests/test_pending_set
# Latency telemetry runs a background collector thread draining per-PE SPSC
# rings while the engines push; the hub unit suite plus the obs equivalence
# matrix (which runs every engine with telemetry armed) cover that path.
./build-tsan/tests/test_latency
./build-tsan/tests/test_obs
# Checkpointing rolls every KP back to the GVT fence, quiesces in-flight
# traffic and serializes from a single PE while the others are parked; the
# watchdog adds a polling monitor thread over relaxed-atomic beacons. Both
# must stay race-free.
./build-tsan/tests/test_checkpoint

# Former cancellation-race repro (sub-ULP LadderQueue bucket geometry): long
# 4-PE runs that historically tripped HP_ASSERT pe.pending.erase(v) after
# thousands of GVT rounds. Five seeds keep the schedule-dependent window
# covered; any relapse shows up as an assert or a TSan report here.
for seed in 1 3 11 23 29; do
  ./build-tsan/examples/quickstart --n=32 --steps=4000 --pes=4 \
    --seed="$seed" > /dev/null
done

echo "TSan: TimeWarp test suite clean."
