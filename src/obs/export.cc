#include "obs/export.h"

#include <string_view>

#include "util/json_writer.h"

namespace kdv {
namespace obs {

namespace {

// Counters follow the Prometheus convention of a _total suffix, enforced at
// the naming scheme (DESIGN.md §13); metrics that already carry it are not
// double-suffixed.
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void AppendPromNumber(std::string* out, double v) {
  // Prometheus text accepts NaN/Inf, but the deterministic-snapshot contract
  // is easier to hold (and the text easier to diff) with them scrubbed the
  // same way the JSON exporter scrubs.
  *out += JsonNumber(v);
}

}  // namespace

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string full = EndsWith(name, "_total") ? name : name + "_total";
    out += "# TYPE " + full + " counter\n";
    out += full + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    AppendPromNumber(&out, value);
    out += "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    uint64_t cum = 0;
    for (const auto& [ub, n] : h.buckets) {
      cum += n;
      out += h.name + "_bucket{le=\"";
      AppendPromNumber(&out, ub);
      out += "\"} " + std::to_string(cum) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += h.name + "_sum ";
    AppendPromNumber(&out, h.sum);
    out += "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  for (const TraceSpan& span : snapshot.traces) {
    for (int i = 0; i < kNumTraceStages; ++i) {
      if (span.stage_seconds[i] <= 0.0) continue;
      out += "kdv_trace_stage_seconds{request_id=\"" +
             std::to_string(span.request_id) + "\",stage=\"" +
             TraceStageName(static_cast<TraceStage>(i)) + "\",tier=\"" +
             span.tier + "\"} ";
      AppendPromNumber(&out, span.stage_seconds[i]);
      out += "\n";
    }
  }
  return out;
}

std::string ExportJson(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w.BeginObject();

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w.Key(name).Value(value);
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w.Key(name).Value(value);
  }
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    w.Key(h.name).BeginObject();
    w.Key("count").Value(h.count);
    w.Key("sum").Value(h.sum);
    w.Key("p50").Value(h.p50);
    w.Key("p90").Value(h.p90);
    w.Key("p99").Value(h.p99);
    w.Key("buckets").BeginArray();
    for (const auto& [ub, n] : h.buckets) {
      w.BeginArray().Value(ub).Value(n).EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.Key("traces").BeginArray();
  for (const TraceSpan& span : snapshot.traces) {
    w.BeginObject();
    w.Key("request_id").Value(span.request_id);
    if (span.has_epoch) {
      w.Key("epoch").Value(span.epoch);
    } else {
      w.Key("epoch").Null();
    }
    w.Key("tier").Value(span.tier);
    w.Key("attempts").Value(span.attempts);
    w.Key("frame_cache_hit").Value(span.frame_cache_hit);
    if (span.certified_eps >= 0.0) {
      w.Key("certified_eps").Number(span.certified_eps, 6);
    } else {
      w.Key("certified_eps").Null();
    }
    w.Key("ok").Value(span.ok);
    w.Key("total_seconds").Value(span.total_seconds);
    w.Key("stages").BeginObject();
    for (int i = 0; i < kNumTraceStages; ++i) {
      if (span.stage_seconds[i] <= 0.0) continue;
      w.Key(TraceStageName(static_cast<TraceStage>(i)))
          .Value(span.stage_seconds[i]);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace kdv
