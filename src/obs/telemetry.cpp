#include "obs/telemetry.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/probe.hpp"
#include "util/macros.hpp"

namespace hp::obs {

namespace {

// ---------------------------------------------------------------------------
// Async-signal-safe last-snapshot flush.
//
// The collector copies every rendered snapshot into a fixed static buffer;
// a SIGINT/SIGTERM handler (and an atexit hook) rewrites the metrics-out
// file from it using only write/ftruncate — so an interrupted sweep keeps a
// usable, whole snapshot instead of a torn tail. The length is zeroed while
// the collector copies, so the handler can only ever observe a complete
// snapshot or none.

constexpr std::size_t kCrashBufCap = std::size_t{1} << 18;  // 256 KiB
char g_crash_buf[kCrashBufCap];
std::atomic<std::size_t> g_crash_len{0};
std::atomic<int> g_crash_fd{-1};

void crash_flush() noexcept {  // async-signal-safe
  const int fd = g_crash_fd.load(std::memory_order_acquire);
  const std::size_t len = g_crash_len.load(std::memory_order_acquire);
  if (fd < 0 || len == 0) return;
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::pwrite(fd, g_crash_buf + off, len - off,
                               static_cast<off_t>(off));
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  (void)::ftruncate(fd, static_cast<off_t>(off));
}

void on_fatal_signal(int sig) {
  crash_flush();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_exit_flush_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::atexit(crash_flush);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_fatal_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
  });
}

void store_crash_snapshot(const std::string& text) {
  const std::size_t len = std::min(text.size(), kCrashBufCap);
  g_crash_len.store(0, std::memory_order_release);
  std::memcpy(g_crash_buf, text.data(), len);
  g_crash_len.store(len, std::memory_order_release);
}

bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// JsonWriter-style double formatting is overkill here; Prometheus text just
// needs plain decimal.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryRing

TelemetryRing::TelemetryRing(std::uint32_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  buf_.resize(cap);
  mask_ = cap - 1;
}

// ---------------------------------------------------------------------------
// TelemetryHub

TelemetryHub::TelemetryHub(const ObsConfig& cfg, std::uint32_t num_pes)
    : hist_(num_pes),
      metrics_out_(cfg.metrics_out),
      flush_ms_(std::max<std::uint32_t>(cfg.metrics_flush_ms, 1)) {
  HP_ASSERT(num_pes > 0, "telemetry hub needs at least one PE");
  rings_.reserve(num_pes);
  for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
    rings_.push_back(
        std::make_unique<TelemetryRing>(cfg.telemetry_ring_capacity));
  }
  if (!metrics_out_.empty()) {
    out_fd_ = ::open(metrics_out_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    HP_ASSERT(out_fd_ >= 0, "cannot open --metrics-out file %s",
              metrics_out_.c_str());
    install_exit_flush_once();
    g_crash_fd.store(out_fd_, std::memory_order_release);
    g_crash_len.store(0, std::memory_order_release);
  }
  if (!cfg.metrics_endpoint.empty()) open_listener(cfg.metrics_endpoint);
  collector_ = std::jthread(
      [this](std::stop_token st) { collector_loop(st); });
}

TelemetryHub::~TelemetryHub() {
  if (collector_.joinable()) {
    collector_.request_stop();
    collector_.join();
  }
  if (out_fd_ >= 0) {
    g_crash_fd.store(-1, std::memory_order_release);
    ::close(out_fd_);
    out_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void TelemetryHub::publish_gauges(const GaugeSnapshot& g) {
  std::lock_guard<std::mutex> lk(mu_);
  gauges_ = g;
  have_gauges_ = true;
}

double TelemetryHub::quantile_us(LatencyMetric m, double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  LatencyHistogram agg;
  for (const auto& pe : hist_) {  // ascending-PE fold
    agg.merge(pe[static_cast<std::size_t>(m)]);
  }
  return agg.quantile_ns(q) * 1e-3;
}

std::uint64_t TelemetryHub::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

void TelemetryHub::drain_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t pe = 0; pe < rings_.size(); ++pe) {
    auto& hists = hist_[pe];
    rings_[pe]->drain([&hists](const TelemetrySample& s) {
      if (s.metric < kNumLatencyMetrics) hists[s.metric].record(s.value_ns);
    });
  }
}

void TelemetryHub::collector_loop(const std::stop_token& st) {
  const std::uint64_t flush_ns = std::uint64_t{flush_ms_} * 1'000'000;
  while (!st.stop_requested()) {
    drain_all();
    serve_pending();
    const std::uint64_t now = monotonic_ns();
    if (out_fd_ >= 0 && now - last_flush_ns_ >= flush_ns) {
      last_flush_ns_ = now;
      std::string text;
      {
        std::lock_guard<std::mutex> lk(mu_);
        text = render_locked();
      }
      store_crash_snapshot(text);
      std::lock_guard<std::mutex> lk(mu_);
      flush_file_locked(text);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void TelemetryHub::flush_file_locked(const std::string& text) {
  if (out_fd_ < 0) return;
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::pwrite(out_fd_, text.data() + off, text.size() - off,
                               static_cast<off_t>(off));
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  (void)::ftruncate(out_fd_, static_cast<off_t>(off));
}

void TelemetryHub::finalize_into(MetricsReport& report) {
  if (collector_.joinable()) {
    collector_.request_stop();
    collector_.join();
  }
  drain_all();  // PE threads are quiescent; sweep the ring tails
  std::lock_guard<std::mutex> lk(mu_);
  report.telemetry = true;
  for (std::size_t m = 0; m < kNumLatencyMetrics; ++m) {
    report.latency[m].reset();
    for (const auto& pe : hist_) report.latency[m].merge(pe[m]);
  }
  const std::string text = render_locked();
  store_crash_snapshot(text);
  flush_file_locked(text);
}

// ---------------------------------------------------------------------------
// Exposition

std::string TelemetryHub::render_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  return render_locked();
}

std::string TelemetryHub::render_locked() const {
  std::string out;
  out.reserve(8192);

  out += "# HELP hp_telemetry_dropped Latency samples dropped on "
         "telemetry-ring overflow.\n";
  out += "# TYPE hp_telemetry_dropped counter\n";
  out += "hp_telemetry_dropped " + std::to_string(dropped()) + "\n";

  if (have_gauges_) {
    out += "# TYPE hp_gvt gauge\nhp_gvt ";
    append_double(out, gauges_.gvt);
    out += "\n# TYPE hp_gvt_round gauge\nhp_gvt_round " +
           std::to_string(gauges_.round) + "\n";
    out += "# TYPE hp_wall_seconds gauge\nhp_wall_seconds ";
    append_double(out, gauges_.wall_seconds);
    out += "\n";
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      const char* type =
          kCounterDefs[c].reduce == Reduce::Max ? "gauge" : "counter";
      out += "# TYPE hp_";
      out += kCounterDefs[c].name;
      out += " ";
      out += type;
      out += "\nhp_";
      out += kCounterDefs[c].name;
      out += " " + std::to_string(gauges_.counters[c]) + "\n";
    }
    out += "# TYPE hp_phase_seconds gauge\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      out += "hp_phase_seconds{phase=\"";
      out += phase_name(static_cast<Phase>(p));
      out += "\"} ";
      append_double(out, static_cast<double>(gauges_.phase_ns[p]) * 1e-9);
      out += "\n";
    }
  }

  for (std::size_t m = 0; m < kNumLatencyMetrics; ++m) {
    LatencyHistogram agg;
    for (const auto& pe : hist_) agg.merge(pe[m]);  // ascending-PE fold
    const char* name = latency_metric_name(static_cast<LatencyMetric>(m));
    out += "# TYPE hp_";
    out += name;
    out += " histogram\n";
    // Cumulative buckets over the occupied le edges only (valid Prometheus:
    // le values need not be dense, just sorted and capped by +Inf).
    std::uint64_t cum = 0;
    for (std::uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      if (agg.counts()[b] == 0) continue;
      cum += agg.counts()[b];
      out += "hp_";
      out += name;
      out += "_bucket{le=\"" +
             std::to_string(LatencyHistogram::bucket_hi(b)) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += "hp_";
    out += name;
    out += "_bucket{le=\"+Inf\"} " + std::to_string(agg.count()) + "\n";
    out += "hp_";
    out += name;
    out += "_sum " + std::to_string(agg.sum_ns()) + "\nhp_";
    out += name;
    out += "_count " + std::to_string(agg.count()) + "\n";
    out += "# TYPE hp_";
    out += name;
    out += "_quantile gauge\n";
    for (const double q : kLatencyQuantiles) {
      out += "hp_";
      out += name;
      out += "_quantile{q=\"";
      append_double(out, q);
      out += "\"} ";
      append_double(out, agg.quantile_ns(q));
      out += "\n";
    }
  }
  return out;
}

void TelemetryHub::open_listener(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    unix_path_ = endpoint.substr(5);
    HP_ASSERT(!unix_path_.empty(), "--metrics-endpoint=unix: needs a path");
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    HP_ASSERT(listen_fd_ >= 0, "metrics endpoint: socket() failed");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    HP_ASSERT(unix_path_.size() < sizeof(addr.sun_path),
              "--metrics-endpoint unix path too long: %s", unix_path_.c_str());
    std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size());
    ::unlink(unix_path_.c_str());
    HP_ASSERT(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "metrics endpoint: cannot bind %s", unix_path_.c_str());
  } else {
    char* end = nullptr;
    const long port = std::strtol(endpoint.c_str(), &end, 10);
    HP_ASSERT(end != nullptr && *end == '\0' && port > 0 && port < 65536,
              "--metrics-endpoint expects <port> or unix:<path>, got %s",
              endpoint.c_str());
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    HP_ASSERT(listen_fd_ >= 0, "metrics endpoint: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
    HP_ASSERT(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "metrics endpoint: cannot bind 127.0.0.1:%ld", port);
  }
  HP_ASSERT(::listen(listen_fd_, 8) == 0, "metrics endpoint: listen() failed");
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
}

void TelemetryHub::serve_pending() {
  if (listen_fd_ < 0) return;
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) return;  // EAGAIN: nobody waiting
    // The accepted socket is blocking; cap the request read so a silent
    // client cannot wedge the collector.
    timeval tv{};
    tv.tv_usec = 200 * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char req[1024];
    (void)::recv(client, req, sizeof(req), 0);  // request content ignored
    std::string body;
    {
      std::lock_guard<std::mutex> lk(mu_);
      body = render_locked();
    }
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n";
    resp += body;
    (void)write_all(client, resp.data(), resp.size());
    ::close(client);
  }
}

}  // namespace hp::obs
