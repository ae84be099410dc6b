#pragma once

// Stall watchdog: detects a run whose committed frontier has stopped moving
// and fails loudly with a structured diagnostic dump instead of hanging
// forever in a barrier or spinning in a livelock.
//
// Each engine publishes progress into lock-free telemetry (a WatchdogHeart
// plus one PeBeacon per PE — plain atomics updated with relaxed stores on
// the engine side, so the hot path pays a handful of uncontended writes per
// GVT round and nothing per event). A monitor thread polls the heart every
// poll_ms: as long as GVT or the committed-event count moves, the run is
// making progress — including legitimately Blocked PEs waiting out the pool
// budget, and chaos-stalled PEs that keep joining barriers. Only when BOTH
// are flat for timeout_ms does the watchdog escalate: it writes a per-PE
// dump (phase, processed/committed counts, pending/inbox depths, last GVT,
// top rollback-offender KP) straight to stderr with snprintf + write(2) —
// no allocation, no locks, nothing that could itself wedge — and terminates
// with a distinct exit code so harnesses can tell "stalled" from "crashed".
//
// The same dump is registered with util::fail_fast for the duration of
// run(), so an HP_ASSERT failure inside an engine produces the identical
// diagnostic block before aborting.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace hp::des {

// Exit code used when the watchdog declares the run wedged. Distinct from
// abort (SIGABRT) and from usage errors (2).
inline constexpr int kStallExitCode = 86;

// --watchdog=timeout=N[,poll=N] (milliseconds).
struct WatchdogConfig {
  std::uint64_t timeout_ms = 0;  // 0 = disabled
  std::uint64_t poll_ms = 50;

  bool enabled() const noexcept { return timeout_ms > 0; }

  // Parses "timeout=N[,poll=N]". Returns false and sets `err` on malformed
  // input without touching `out`.
  static bool parse(std::string_view spec, WatchdogConfig& out,
                    std::string& err);
  std::string to_string() const;
  bool operator==(const WatchdogConfig&) const = default;
};

// What a PE is doing right now, as seen from outside. Stored as a u8 in the
// beacon; names come from beacon_phase_name().
enum class BeaconPhase : std::uint8_t {
  Init = 0,
  Execute,     // processing events
  GvtBarrier,  // parked in a GVT reduction barrier
  Fossil,      // committing + reclaiming behind GVT
  Checkpoint,  // checkpoint fence rollback/quiesce/serialize
  Blocked,     // pool budget exhausted, waiting for fossil space
  Stalled,     // chaos-injected stall window
  Done,        // left the main loop
};

const char* beacon_phase_name(BeaconPhase phase) noexcept;

// Per-PE progress beacon. Cache-line aligned so PEs never false-share; all
// members are relaxed atomics — the dump is a diagnostic snapshot, not a
// synchronization point, and must stay data-race-free under TSan.
struct alignas(64) PeBeacon {
  std::atomic<std::uint8_t> phase{0};
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> pending{0};
  std::atomic<std::uint64_t> inbox{0};
  std::atomic<std::uint32_t> top_kp{~0u};  // worst rollback offender, if any

  void set_phase(BeaconPhase p) noexcept {
    phase.store(static_cast<std::uint8_t>(p), std::memory_order_relaxed);
  }
};

// Run-global progress heart. GVT travels as its bit pattern so the beacon
// stays lock-free on platforms without atomic<double>.
struct WatchdogHeart {
  std::atomic<std::uint64_t> gvt_bits{0};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> rounds{0};
};

// Everything the dump needs, bundled so the fail_fast callback can carry it
// through a single void* ctx.
struct WatchdogScope {
  const char* engine_name = "";
  const WatchdogHeart* heart = nullptr;
  const PeBeacon* beacons = nullptr;
  std::uint32_t num_pes = 0;
};

// Writes the structured diagnostic block to stderr. Async-crash-safe: reads
// only the atomics above, formats into a stack buffer with snprintf, emits
// with write(2).
void dump_stall_diagnostics(const char* reason,
                            const WatchdogScope& scope) noexcept;

// fail_fast callback adapter: ctx is a WatchdogScope*.
void failure_dump_adapter(void* ctx) noexcept;

// The monitor thread. Construct with start() semantics; stop() (or
// destruction) joins it. Fires at most once.
class Watchdog {
 public:
  Watchdog(const WatchdogConfig& cfg, const WatchdogScope& scope);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void stop() noexcept;

 private:
  void poll_loop(std::stop_token st);

  WatchdogConfig cfg_;
  WatchdogScope scope_;
  std::jthread thread_;
};

}  // namespace hp::des
