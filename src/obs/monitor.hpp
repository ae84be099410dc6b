#pragma once

// Live run monitor: an opt-in heartbeat for long optimistic runs.
//
// When ObsConfig::monitor is on, the Time Warp kernel emits one JSON-lines
// record per GVT round (or every monitor_interval-th round) to stderr or a
// file, so a bench is observable in flight instead of only post-mortem:
//
//   {"round":42,"t_seconds":1.03,"gvt":512.0,"processed":81920,
//    "rolled_back":4096,"event_rate":2.1e6,"rollback_rate":0.05,
//    "inbox_depth":12,"top_offender_kp":7,"top_offender_events":1833}
//
// Rates are momentary (deltas since the previous record over the wall time
// between them). The top offender comes from the rollback-forensics per-KP
// heatmap (null when forensics is off or nothing rolled back yet); it is the
// per-PE arg-max with the most events, which under-reports an offender whose
// damage is spread thinly across victims — good enough for a heartbeat.
//
// MonitorWriter appends, so one stream accumulates every run of a sweep.
// Each record is composed off-stream and handed to the kernel with a single
// write(2), so every emitted line reaches the file whole even on
// SIGINT/abort mid-run — an interrupted sweep keeps a schema-valid tail
// with nothing buffered in userspace to lose. Only the GVT-round leader
// writes — there is no cross-thread contention to manage.

#include <cstdint>
#include <string>

namespace hp::obs {

struct MonitorSample {
  std::uint64_t round = 0;       // 0-based GVT round index
  double t_seconds = 0.0;        // wall time since run start
  double gvt = 0.0;              // this round's global minimum
  std::uint64_t processed = 0;   // forward executions since the last record
  std::uint64_t rolled_back = 0; // events undone since the last record
  std::uint64_t inbox_depth = 0; // envelopes across all inboxes at barrier B
  double event_rate = 0.0;       // processed / wall seconds since last record
  double rollback_rate = 0.0;    // rolled_back / processed (this record)
  bool has_offender = false;     // forensics heatmap had any offender yet
  std::uint32_t top_offender_kp = 0;
  std::uint64_t top_offender_events = 0;
  // Optimism flow control (all zero when no pool budget is configured):
  // outstanding envelopes across all pools at barrier B, and how many PEs
  // were throttled / hard-blocked when they published their round slice.
  // pool_bytes is the slab storage owned by all pools (always populated).
  std::uint64_t pool_live = 0;
  std::uint64_t pool_bytes = 0;
  std::uint32_t throttled_pes = 0;
  std::uint32_t blocked_pes = 0;
  // Latency telemetry (ObsConfig::telemetry): aggregate p99 of the
  // deliver->GVT-commit latency so far, in microseconds. Emitted only when
  // has_commit_latency is set (telemetry off keeps old streams unchanged).
  bool has_commit_latency = false;
  double commit_latency_p99_us = 0.0;
};

class MonitorWriter {
 public:
  // Empty path selects stderr; otherwise the file is opened in append mode.
  explicit MonitorWriter(const std::string& path);
  ~MonitorWriter();

  MonitorWriter(const MonitorWriter&) = delete;
  MonitorWriter& operator=(const MonitorWriter&) = delete;

  // One JSON object per line, durable immediately (single write(2) per
  // record, no userspace buffering to flush on abnormal exit).
  void emit(const MonitorSample& s);

  std::uint64_t lines() const noexcept { return lines_; }

 private:
  int fd_ = 2;          // stderr unless a path was given
  bool owns_fd_ = false;
  std::uint64_t lines_ = 0;
};

}  // namespace hp::obs
