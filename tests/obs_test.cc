// Observability layer units: counter/gauge/histogram semantics, quantile
// error bounds, registry handle stability across Reset(), the recent-trace
// ring, and the exporters (pure functions of a snapshot; the JSON form must
// satisfy the strict validator). Concurrency: the hot-path increments are
// relaxed atomics, hammered here so the tsan job watches them.
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/json_writer.h"

namespace kdv {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetOverwritesAndReset) {
  Gauge g;
  g.Set(2.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, CountSumAndQuantileBounds) {
  Histogram h;
  const double values[] = {0.001, 0.002, 0.004, 0.008, 0.5};
  double sum = 0.0;
  for (double v : values) {
    h.Record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  // Quantiles are bucket-upper-bound estimates: never below the true value,
  // within the documented ~1/(2*kSubBuckets) relative error above it.
  const double p100 = h.Quantile(1.0);
  EXPECT_GE(p100, 0.5);
  EXPECT_LE(p100, 0.5 * (1.0 + 1.0 / Histogram::kSubBuckets) + 1e-12);
  const double p0 = h.Quantile(0.0);
  EXPECT_GE(p0, 0.001);
  EXPECT_LE(p0, 0.001 * (1.0 + 1.0 / Histogram::kSubBuckets) + 1e-12);
}

TEST(HistogramTest, NonPositiveAndNonFiniteGoToBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(-1.0);
  h.Record(std::nan(""));
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 4u);
  // The sum must stay finite: only positive finite values contribute.
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramTest, BucketIndexConsistentWithUpperBound) {
  // Every positive finite value lands in a bucket whose inclusive upper
  // bound is >= the value and whose lower edge (the previous bound) is not
  // above it — a value exactly on a boundary belongs to the next bucket.
  for (double v : {1e-9, 3.7e-6, 0.001, 0.0625, 1.0, 1.5, 123.456, 8e9}) {
    const int i = Histogram::BucketIndex(v);
    ASSERT_GT(i, 0) << v;
    ASSERT_LT(i, Histogram::kNumBuckets) << v;
    EXPECT_GE(Histogram::BucketUpperBound(i), v) << v;
    EXPECT_LE(Histogram::BucketUpperBound(i - 1), v) << v;
  }
}

TEST(HistogramTest, ResetZeroesInPlace) {
  Histogram h;
  h.Record(1.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  h.Record(2.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(RegistryTest, HandlesAreStableAndSurviveReset) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test_ops_total");
  Histogram* h = registry.GetHistogram("test_seconds");
  Gauge* g = registry.GetGauge("test_pressure");
  EXPECT_EQ(registry.GetCounter("test_ops_total"), c);
  EXPECT_EQ(registry.GetHistogram("test_seconds"), h);
  EXPECT_EQ(registry.GetGauge("test_pressure"), g);
  c->Increment(7);
  h->Record(0.25);
  g->Set(0.5);
  registry.Reset();
  // Same pointers, zeroed values: cached call-site handles stay valid.
  EXPECT_EQ(registry.GetCounter("test_ops_total"), c);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  c->Increment();
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(RegistryTest, SnapshotIsNameOrdered) {
  MetricsRegistry registry;
  registry.GetCounter("zeta_total")->Increment();
  registry.GetCounter("alpha_total")->Increment();
  registry.GetCounter("mid_total")->Increment();
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha_total");
  EXPECT_EQ(snap.counters[1].first, "mid_total");
  EXPECT_EQ(snap.counters[2].first, "zeta_total");
}

TEST(RegistryTest, TraceRingBoundedOldestDropped) {
  MetricsRegistry registry;
  for (uint64_t i = 1; i <= 100; ++i) {
    TraceSpan span;
    span.request_id = i;
    span.AddStage(TraceStage::kQueueWait, 0.001);
    registry.RecordTrace(span);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_LE(snap.traces.size(), 64u);
  ASSERT_FALSE(snap.traces.empty());
  // Oldest-first ordering, newest span always retained.
  EXPECT_EQ(snap.traces.back().request_id, 100u);
  for (size_t i = 1; i < snap.traces.size(); ++i) {
    EXPECT_EQ(snap.traces[i].request_id,
              snap.traces[i - 1].request_id + 1);
  }
  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().traces.empty());
}

TEST(TraceSpanTest, AddStageAccumulatesIgnoresNonPositive) {
  TraceSpan span;
  span.AddStage(TraceStage::kRefinement, 0.25);
  span.AddStage(TraceStage::kRefinement, 0.25);
  span.AddStage(TraceStage::kRefinement, -1.0);
  span.AddStage(TraceStage::kRefinement, 0.0);
  EXPECT_DOUBLE_EQ(span.stage(TraceStage::kRefinement), 0.5);
  EXPECT_DOUBLE_EQ(span.stage(TraceStage::kCoarse), 0.0);
}

TEST(TraceSpanTest, StageTimerNullSpanIsInert) {
  { StageTimer timer(nullptr, TraceStage::kScrub); }  // must not crash
  TraceSpan span;
  { StageTimer timer(&span, TraceStage::kScrub); }
  // Real clock, near-instant scope: tiny or zero, never negative.
  EXPECT_GE(span.stage(TraceStage::kScrub), 0.0);
}

TEST(TraceStageNameTest, AllStagesNamed) {
  for (int i = 0; i < kNumTraceStages; ++i) {
    const char* name = TraceStageName(static_cast<TraceStage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(TraceStageName(TraceStage::kQueueWait), "queue_wait");
}

MetricsSnapshot PopulatedSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("kdv_test_requests_total")->Increment(3);
  registry.GetGauge("kdv_test_pressure")->Set(0.75);
  Histogram* h = registry.GetHistogram("kdv_test_seconds");
  h->Record(0.001);
  h->Record(0.010);
  TraceSpan span;
  span.request_id = 42;
  span.epoch = 7;
  span.has_epoch = true;
  span.tier = "certified";
  span.attempts = 1;
  span.ok = true;
  span.total_seconds = 0.012;
  span.AddStage(TraceStage::kQueueWait, 0.001);
  span.AddStage(TraceStage::kRefinement, 0.010);
  registry.RecordTrace(span);
  return registry.Snapshot();
}

TEST(ExportTest, PrometheusShapeAndPurity) {
  const MetricsSnapshot snap = PopulatedSnapshot();
  const std::string text = ExportPrometheus(snap);
  EXPECT_NE(text.find("# TYPE kdv_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("kdv_test_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kdv_test_pressure gauge"), std::string::npos);
  EXPECT_NE(text.find("kdv_test_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("kdv_test_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("kdv_trace_stage_seconds{request_id=\"42\""),
            std::string::npos);
  EXPECT_NE(text.find("stage=\"queue_wait\""), std::string::npos);
  // Pure function: same snapshot, same bytes.
  EXPECT_EQ(text, ExportPrometheus(snap));
}

TEST(ExportTest, JsonValidatesAndIsPure) {
  const MetricsSnapshot snap = PopulatedSnapshot();
  const std::string json = ExportJson(snap);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(json, ExportJson(snap));
  EXPECT_NE(json.find("\"kdv_test_requests_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
}

TEST(ExportTest, JsonEpochNullUntilPublished) {
  MetricsRegistry registry;
  TraceSpan span;
  span.request_id = 1;
  span.has_epoch = false;  // never reached execution
  registry.RecordTrace(span);
  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"epoch\":null"), std::string::npos);
}

TEST(ExportTest, JsonCarriesTheFrameCacheHit) {
  MetricsRegistry registry;
  TraceSpan span;
  span.request_id = 1;
  registry.RecordTrace(span);
  span.request_id = 2;
  span.frame_cache_hit = true;
  registry.RecordTrace(span);
  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"request_id\":1,\"epoch\":null,\"tier\":\"\","
                      "\"attempts\":0,\"frame_cache_hit\":false"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"request_id\":2,\"epoch\":null,\"tier\":\"\","
                      "\"attempts\":0,\"frame_cache_hit\":true"),
            std::string::npos)
      << json;
}

// A span names the ε its served frame certifies, or null when it certifies
// none.
TEST(ExportTest, JsonCarriesTheCertifiedEps) {
  MetricsRegistry registry;
  TraceSpan span;
  span.request_id = 1;
  registry.RecordTrace(span);
  span.request_id = 2;
  span.certified_eps = 0.15;
  registry.RecordTrace(span);
  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"frame_cache_hit\":false,\"certified_eps\":null"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"frame_cache_hit\":false,\"certified_eps\":0.15"),
            std::string::npos)
      << json;
}

TEST(ExportTest, EmptySnapshotExportsCleanly) {
  const MetricsSnapshot empty;
  EXPECT_TRUE(JsonValidate(ExportJson(empty)).ok());
  EXPECT_EQ(ExportPrometheus(empty), "");
}

TEST(ObsConcurrencyTest, ParallelIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("kdv_conc_total");
  Histogram* h = registry.GetHistogram("kdv_conc_seconds");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->Increment();
        h->Record(0.001);
        // Concurrent lookups of an existing metric must also be safe.
        ASSERT_EQ(registry.GetCounter("kdv_conc_total"), c);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_NEAR(h->sum(), kThreads * kOpsPerThread * 0.001, 1e-6);
}

}  // namespace
}  // namespace obs
}  // namespace kdv
