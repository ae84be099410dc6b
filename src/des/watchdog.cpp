#include "des/watchdog.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hp::des {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.front() == '-') return false;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// write(2) the whole buffer; best-effort (nothing sensible to do on error
// while crashing).
void emit(const char* buf, std::size_t n) noexcept {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(2, buf + off, n - off);
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

bool WatchdogConfig::parse(std::string_view spec, WatchdogConfig& out,
                           std::string& err) {
  WatchdogConfig cfg;
  bool saw_timeout = false;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view pair = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == pair.size() - 1) {
      err = "watchdog: expected key=value, got '" + std::string(pair) + "'";
      return false;
    }
    const std::string_view key = trim(pair.substr(0, eq));
    const std::string_view val = trim(pair.substr(eq + 1));
    if (key == "timeout") {
      if (!parse_u64(val, cfg.timeout_ms) || cfg.timeout_ms == 0) {
        err = "watchdog: timeout expects a positive millisecond count, got '" +
              std::string(val) + "'";
        return false;
      }
      saw_timeout = true;
    } else if (key == "poll") {
      if (!parse_u64(val, cfg.poll_ms) || cfg.poll_ms == 0) {
        err = "watchdog: poll expects a positive millisecond count, got '" +
              std::string(val) + "'";
        return false;
      }
    } else {
      err = "watchdog: unknown key '" + std::string(key) +
            "' (expected timeout, poll)";
      return false;
    }
  }
  if (!saw_timeout) {
    err = "watchdog: missing required timeout=N";
    return false;
  }
  out = cfg;
  return true;
}

std::string WatchdogConfig::to_string() const {
  if (!enabled()) return "off";
  return "timeout=" + std::to_string(timeout_ms) +
         ",poll=" + std::to_string(poll_ms);
}

const char* beacon_phase_name(BeaconPhase phase) noexcept {
  switch (phase) {
    case BeaconPhase::Init: return "init";
    case BeaconPhase::Execute: return "execute";
    case BeaconPhase::GvtBarrier: return "gvt-barrier";
    case BeaconPhase::Fossil: return "fossil";
    case BeaconPhase::Checkpoint: return "checkpoint";
    case BeaconPhase::Blocked: return "blocked";
    case BeaconPhase::Stalled: return "stalled";
    case BeaconPhase::Done: return "done";
  }
  return "?";
}

void dump_stall_diagnostics(const char* reason,
                            const WatchdogScope& scope) noexcept {
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf),
                        "\n==== %s diagnostic dump: %s ====\n",
                        scope.engine_name, reason);
  if (n > 0) emit(buf, static_cast<std::size_t>(n));

  if (scope.heart != nullptr) {
    const double gvt = std::bit_cast<double>(
        scope.heart->gvt_bits.load(std::memory_order_relaxed));
    n = std::snprintf(
        buf, sizeof(buf),
        "gvt %.17g  committed %llu  gvt-rounds %llu\n", gvt,
        static_cast<unsigned long long>(
            scope.heart->committed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            scope.heart->rounds.load(std::memory_order_relaxed)));
    if (n > 0) emit(buf, static_cast<std::size_t>(n));
  }

  for (std::uint32_t pe = 0; pe < scope.num_pes && scope.beacons != nullptr;
       ++pe) {
    const PeBeacon& b = scope.beacons[pe];
    const auto phase = static_cast<BeaconPhase>(
        b.phase.load(std::memory_order_relaxed));
    const std::uint32_t top_kp = b.top_kp.load(std::memory_order_relaxed);
    char kp_buf[32];
    if (top_kp == ~0u) {
      std::snprintf(kp_buf, sizeof(kp_buf), "-");
    } else {
      std::snprintf(kp_buf, sizeof(kp_buf), "%u", top_kp);
    }
    n = std::snprintf(
        buf, sizeof(buf),
        "PE %2u  phase %-11s  processed %10llu  committed %10llu  "
        "pending %8llu  inbox %6llu  top-offender-kp %s\n",
        pe, beacon_phase_name(phase),
        static_cast<unsigned long long>(
            b.processed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            b.committed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            b.pending.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            b.inbox.load(std::memory_order_relaxed)),
        kp_buf);
    if (n > 0) emit(buf, static_cast<std::size_t>(n));
  }
  n = std::snprintf(buf, sizeof(buf), "==== end diagnostic dump ====\n");
  if (n > 0) emit(buf, static_cast<std::size_t>(n));
}

void failure_dump_adapter(void* ctx) noexcept {
  const auto* scope = static_cast<const WatchdogScope*>(ctx);
  if (scope != nullptr) dump_stall_diagnostics("invariant failure", *scope);
}

Watchdog::Watchdog(const WatchdogConfig& cfg, const WatchdogScope& scope)
    : cfg_(cfg), scope_(scope) {
  if (cfg_.enabled()) {
    thread_ = std::jthread([this](std::stop_token st) { poll_loop(st); });
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() noexcept {
  if (thread_.joinable()) {
    thread_.request_stop();
    thread_.join();
  }
}

void Watchdog::poll_loop(std::stop_token st) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t last_gvt_bits =
      scope_.heart->gvt_bits.load(std::memory_order_relaxed);
  std::uint64_t last_committed =
      scope_.heart->committed.load(std::memory_order_relaxed);
  Clock::time_point last_progress = Clock::now();
  while (!st.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.poll_ms));
    if (st.stop_requested()) return;
    const std::uint64_t gvt_bits =
        scope_.heart->gvt_bits.load(std::memory_order_relaxed);
    const std::uint64_t committed =
        scope_.heart->committed.load(std::memory_order_relaxed);
    // Either frontier moving counts as progress: a Blocked PE waiting out the
    // pool budget advances committed without advancing GVT for a while, and
    // a chaos straggler can advance GVT without committing locally.
    if (gvt_bits != last_gvt_bits || committed != last_committed) {
      last_gvt_bits = gvt_bits;
      last_committed = committed;
      last_progress = Clock::now();
      continue;
    }
    const auto flat = std::chrono::duration_cast<std::chrono::milliseconds>(
                          Clock::now() - last_progress)
                          .count();
    if (flat >= static_cast<long long>(cfg_.timeout_ms)) {
      char reason[128];
      std::snprintf(reason, sizeof(reason),
                    "no GVT or commit progress for %lld ms (stall watchdog)",
                    static_cast<long long>(flat));
      dump_stall_diagnostics(reason, scope_);
      // _Exit: the run is wedged — destructors could block on the same
      // barrier the PEs are stuck in. The distinct code lets a harness
      // separate "declared stalled" from a crash.
      std::_Exit(kStallExitCode);
    }
  }
}

}  // namespace hp::des
