#include "obs/monitor.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <sstream>

#include "util/json_writer.hpp"
#include "util/macros.hpp"

namespace hp::obs {

MonitorWriter::MonitorWriter(const std::string& path) {
  if (path.empty()) {
    fd_ = 2;  // stderr
    return;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  HP_ASSERT(fd_ >= 0, "cannot open monitor stream %s", path.c_str());
  owns_fd_ = true;
}

MonitorWriter::~MonitorWriter() {
  if (owns_fd_) ::close(fd_);
}

void MonitorWriter::emit(const MonitorSample& s) {
  // Build the record off-stream so it lands as one write(2): lines stay
  // whole when a monitor file is shared with other processes' appends, and
  // every emitted record is already durable if the run dies on the next
  // instruction — there is no buffered tail to lose on SIGINT/abort.
  std::ostringstream line;
  {
    util::JsonWriter w(line);
    w.begin_object();
    w.kv("round", s.round);
    w.kv("t_seconds", s.t_seconds);
    w.kv("gvt", s.gvt);  // non-finite (termination round) renders as null
    w.kv("processed", s.processed);
    w.kv("rolled_back", s.rolled_back);
    w.kv("event_rate", s.event_rate);
    w.kv("rollback_rate", s.rollback_rate);
    w.kv("inbox_depth", s.inbox_depth);
    w.kv("pool_live", s.pool_live);
    w.kv("pool_bytes", s.pool_bytes);
    w.kv("throttled_pes", s.throttled_pes);
    w.kv("blocked_pes", s.blocked_pes);
    if (s.has_commit_latency) {
      w.kv("commit_latency_p99_us", s.commit_latency_p99_us);
    }
    if (s.has_offender) {
      w.kv("top_offender_kp", s.top_offender_kp);
      w.kv("top_offender_events", s.top_offender_events);
    } else {
      w.key("top_offender_kp").null_value();
    }
    w.end_object();
  }
  std::string text = line.str();
  text += '\n';
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd_, text.data() + off, text.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ++lines_;
}

}  // namespace hp::obs
