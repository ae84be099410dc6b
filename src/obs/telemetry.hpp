#pragma once

// Always-on latency telemetry: lock-free per-PE sample rings, a background
// collector, and the live metrics exposition surface.
//
// Dataflow:
//
//   PE hot path --try_push--> TelemetryRing (SPSC, fixed capacity, POD
//   samples; overflow drops + counts, never blocks or allocates)
//        |
//   collector thread --drain--> per-PE LatencyHistograms (ascending-PE fold
//   into the aggregate at any read point, the obs::ModelChannel discipline)
//        |
//   exposition: --metrics-endpoint (Prometheus text over a minimal
//   localhost HTTP/unix listener served from the collector thread) and
//   --metrics-out (periodic atomic-in-place rewrite of the same text for
//   socket-less CI, plus an async-signal-safe last-snapshot flush on
//   SIGINT/SIGTERM and at exit).
//
// Gauges (counters, phase seconds, GVT) cannot be read from live PE state
// without racing, so the simulation loop *publishes* them: the Time Warp
// kernel from PE 0 after GVT barrier B (where the MonitorSlice contract
// already makes every PE's round slice readable race-free), the
// single-threaded kernels from their own loop. publish_gauges copies a POD
// under the collector mutex — GVT-round granularity, never per event.
//
// Determinism: everything here is passive. Samples are wall-clock values
// that feed histograms only; committed state is bit-identical with
// telemetry on or off (pinned by determinism_check --telemetry).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace hp::obs {

// One latency observation. POD: the producer writes value + metric and
// publishes with a single release store of the ring cursor.
struct TelemetrySample {
  std::uint64_t value_ns = 0;
  std::uint32_t metric = 0;  // LatencyMetric
};

// Fixed-capacity single-producer/single-consumer ring. The producer is one
// PE thread (or the lone thread of a single-threaded kernel), the consumer
// is the collector thread. Full ring => the sample is dropped and counted;
// the hot path never waits on the collector.
class TelemetryRing {
 public:
  explicit TelemetryRing(std::uint32_t capacity);

  TelemetryRing(const TelemetryRing&) = delete;
  TelemetryRing& operator=(const TelemetryRing&) = delete;

  // Producer side (the PE hot path): two relaxed/acquire loads, one store,
  // one release store. No locks, no allocation, no clock reads.
  void try_push(LatencyMetric m, std::uint64_t ns) noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    if (t - h >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf_[static_cast<std::size_t>(t) & mask_] = {
        ns, static_cast<std::uint32_t>(m)};
    tail_.store(t + 1, std::memory_order_release);
  }

  // Consumer side: drains every published sample into `sink` (called once
  // per sample) and advances the head cursor. Returns samples drained.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = h; i != t; ++i) {
      sink(buf_[static_cast<std::size_t>(i) & mask_]);
    }
    head_.store(t, std::memory_order_release);
    return static_cast<std::size_t>(t - h);
  }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return buf_.size(); }

 private:
  std::vector<TelemetrySample> buf_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

// A point-in-time engine snapshot for the exposition surface, published by
// the simulation loop (see file comment for the race-free publish points).
struct GaugeSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumPhases> phase_ns{};
  double gvt = 0.0;
  std::uint64_t round = 0;
  double wall_seconds = 0.0;
};

class TelemetryHub {
 public:
  // `cfg` supplies ring capacity and the exposition settings
  // (metrics_endpoint / metrics_out / metrics_flush_ms).
  TelemetryHub(const ObsConfig& cfg, std::uint32_t num_pes);
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  TelemetryRing& ring(std::uint32_t pe) noexcept { return *rings_[pe]; }
  std::uint32_t num_pes() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }

  // Copy a fresh gauge snapshot for the next exposition render. Cheap
  // (one POD copy under the collector mutex); call at GVT-round cadence.
  void publish_gauges(const GaugeSnapshot& g);

  // Aggregate quantile across all PEs drained so far, in microseconds.
  // Used for the monitor heartbeat's commit_latency_p99_us.
  double quantile_us(LatencyMetric m, double q) const;

  // Total samples dropped across all rings (ring overflow).
  std::uint64_t dropped() const noexcept;

  // Stop the collector thread, drain every ring to the last sample, fold
  // the per-PE histograms in ascending-PE order into the report, and write
  // the final exposition snapshot (file dump and crash buffer). Call after
  // all PE threads have stopped pushing.
  void finalize_into(MetricsReport& report);

  // The Prometheus text snapshot (exactly what the endpoint serves and
  // metrics-out dumps). Public for tests.
  std::string render_prometheus() const;

 private:
  void collector_loop(const std::stop_token& st);
  void drain_all();
  void flush_file_locked(const std::string& text);
  void open_listener(const std::string& endpoint);
  void serve_pending();
  std::string render_locked() const;  // requires mu_

  std::vector<std::unique_ptr<TelemetryRing>> rings_;
  mutable std::mutex mu_;
  // Per-PE per-metric histograms; written by the collector, folded
  // ascending-PE on every aggregate read. Guarded by mu_.
  std::vector<std::array<LatencyHistogram, kNumLatencyMetrics>> hist_;
  GaugeSnapshot gauges_;
  bool have_gauges_ = false;

  std::string metrics_out_;
  std::uint32_t flush_ms_ = 500;
  int out_fd_ = -1;       // metrics-out file, held open for the crash flush
  int listen_fd_ = -1;    // exposition listener (TCP or unix)
  std::string unix_path_; // bound unix-socket path, unlinked on shutdown
  std::uint64_t last_flush_ns_ = 0;

  std::jthread collector_;
};

}  // namespace hp::obs
