#include "obs/metrics.hpp"

#include "util/json_writer.hpp"

namespace hp::obs {

PeMetrics reduce(const std::vector<PeMetrics>& per_pe) {
  PeMetrics out;
  for (const PeMetrics& pe : per_pe) {
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      switch (kCounterDefs[c].reduce) {
        case Reduce::Sum: out.counters[c] += pe.counters[c]; break;
        case Reduce::Max:
          out.counters[c] = std::max(out.counters[c], pe.counters[c]);
          break;
      }
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      out.phase_ns[p] += pe.phase_ns[p];
    }
  }
  return out;
}

namespace {

void write_pe_metrics(util::JsonWriter& w, const PeMetrics& m) {
  w.begin_object();
  w.key("counters").begin_object();
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    w.kv(kCounterDefs[c].name, m.counters[c]);
  }
  w.end_object();
  w.key("phase_seconds").begin_object();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    w.kv(phase_name(static_cast<Phase>(p)),
         static_cast<double>(m.phase_ns[p]) * 1e-9);
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void MetricsReport::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("wall_seconds", wall_seconds);
  w.kv("final_gvt", final_gvt);
  w.kv("gvt_rounds", gvt_rounds);
  if (trace_spans > 0 || trace_spans_dropped > 0) {
    w.kv("trace_spans", trace_spans);
    w.kv("trace_spans_dropped", trace_spans_dropped);
    w.kv("trace_flows", trace_flows);
  }
  if (monitor_lines > 0) w.kv("monitor_lines", monitor_lines);
  if (telemetry) {
    w.key("latency").begin_object();
    for (std::size_t m = 0; m < kNumLatencyMetrics; ++m) {
      const LatencyHistogram& h = latency[m];
      w.key(latency_metric_name(static_cast<LatencyMetric>(m)))
          .begin_object();
      w.kv("count", h.count());
      w.kv("sum_ns", h.sum_ns());
      w.kv("max_ns", h.max_ns());
      w.kv("p50", h.quantile_ns(0.50));
      w.kv("p90", h.quantile_ns(0.90));
      w.kv("p99", h.quantile_ns(0.99));
      w.kv("p999", h.quantile_ns(0.999));
      w.end_object();
    }
    w.end_object();
  }
  if (!forensics.empty()) {
    w.key("forensics");
    forensics.write_json(w);
  }
  w.key("total");
  write_pe_metrics(w, total);
  w.key("per_pe").begin_array();
  for (const PeMetrics& pe : per_pe) write_pe_metrics(w, pe);
  w.end_array();
  w.key("gvt_series").begin_array();
  for (const GvtRoundSample& s : gvt_series) {
    w.begin_object();
    w.kv("round", s.round);
    w.kv("t_seconds", static_cast<double>(s.t_ns) * 1e-9);
    w.kv("gvt", s.gvt);
    w.kv("processed", s.processed);
    w.kv("committed", s.committed);
    w.kv("commit_yield", s.commit_yield());
    w.kv("inbox_depth", s.inbox_depth);
    w.kv("pool_envelopes", s.pool_envelopes);
    w.kv("pool_live", s.pool_live);
    w.kv("pool_bytes", s.pool_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace hp::obs
