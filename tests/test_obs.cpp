// The unified tracing & counters layer (src/obs/): session lifecycle and
// ring semantics, the counter/gauge/histogram registry, the Chrome
// trace-event exporter, and the two cross-layer contracts the issue pins:
// TraceDeterminism (sim-clock trace bytes are a function of the workload
// alone, identical for any shard count) and the disabled path (no session
// => no ring allocations, and tracing never perturbs gated metrics).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "kernels/program.hpp"
#include "memsim/system.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "report/json.hpp"

namespace {

using raa::kern::AddressSpace;
using raa::kern::Phase;
using raa::kern::ScriptedProgram;
using raa::kern::Stream;
using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::RefClass;
using raa::mem::Region;
using raa::mem::RunOptions;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;

namespace obs = raa::obs;

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 16;
  cfg.mesh_x = 4;
  cfg.mesh_y = 4;
  return cfg;
}

/// Strided per-core stream (the SPM/DMA shape), enough work to exercise
/// DRAM, DMA and epoch events.
Workload strided_workload(const SystemConfig& cfg, std::uint64_t elems) {
  Workload w;
  w.name = "obs_stream";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part =
      (elems * 8 + cfg.dma_chunk_bytes - 1) / cfg.dma_chunk_bytes *
      cfg.dma_chunk_bytes;
  const Region& r = as.add(w, "data", cfg.tiles * part, RefClass::strided);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> ph;
    ph.push_back(Phase{
        .streams = {Stream{.region = &r, .store = false, .start = c * part,
                           .stride = 8}},
        .iterations = elems,
        .gap_cycles = 2});
    w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(ph), c));
  }
  return w;
}

// --- session & ring semantics ----------------------------------------------

TEST(ObsSession, LifecycleAndEventRoundTrip) {
  EXPECT_FALSE(obs::active());
  EXPECT_FALSE(obs::enabled());
  ASSERT_TRUE(obs::start());
  EXPECT_TRUE(obs::active());
  EXPECT_FALSE(obs::start());  // second start refused, session intact

  obs::set_thread_name("obs-test-main");
  obs::emit_sim(obs::Cat::memsim, obs::Name::dram_complete,
                obs::Phase::instant, 123.5, 7, 9,
                static_cast<std::uint8_t>(obs::kRowHit << obs::kRowShift));
  obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::begin, 1, 2);
  obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::end, 3, 4);

  const obs::Trace t = obs::stop();
  EXPECT_FALSE(obs::active());
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.dropped, 0u);
  ASSERT_EQ(t.threads.size(), 1u);
  EXPECT_EQ(t.threads[0], "obs-test-main");

  const obs::Event& e = t.events[0];
  EXPECT_EQ(e.cat, obs::Cat::memsim);
  EXPECT_EQ(e.name, obs::Name::dram_complete);
  EXPECT_EQ(e.phase, obs::Phase::instant);
  EXPECT_TRUE(e.flags & obs::kFlagHasSim);
  EXPECT_EQ((e.flags >> obs::kRowShift) & 0x3, obs::kRowHit);
  EXPECT_DOUBLE_EQ(e.sim_ts, 123.5);
  EXPECT_EQ(e.a0, 7u);
  EXPECT_EQ(e.a1, 9u);
  EXPECT_EQ(e.slot, 0u);

  EXPECT_FALSE(t.events[1].flags & obs::kFlagHasSim);
  EXPECT_EQ(t.events[1].phase, obs::Phase::begin);
  EXPECT_EQ(t.events[2].phase, obs::Phase::end);
  // Host stamps are monotone within one thread's ring.
  EXPECT_LE(t.events[1].host_ns, t.events[2].host_ns);
}

TEST(ObsSession, OverflowOverwritesOldestAndCounts) {
  obs::SessionOptions opt;
  opt.ring_capacity = 64;  // already a power of two, the configured minimum
  ASSERT_TRUE(obs::start(opt));
  for (std::uint64_t i = 0; i < 100; ++i)
    obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::instant, i, 0);
  const obs::Trace t = obs::stop();
  ASSERT_EQ(t.events.size(), 64u);
  EXPECT_EQ(t.dropped, 36u);
  // The survivors are the newest 64, still in emission order.
  EXPECT_EQ(t.events.front().a0, 36u);
  EXPECT_EQ(t.events.back().a0, 99u);
}

TEST(ObsSession, PerThreadRingsGetOwnSlots) {
  ASSERT_TRUE(obs::start());
  obs::set_thread_name("main-ring");
  obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::instant, 1, 0);
  std::thread worker{[] {
    obs::set_thread_name("worker-ring");
    obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::instant, 2, 0);
  }};
  worker.join();
  const obs::Trace t = obs::stop();
  ASSERT_EQ(t.events.size(), 2u);
  ASSERT_EQ(t.threads.size(), 2u);
  EXPECT_NE(t.events[0].slot, t.events[1].slot);
  for (const obs::Event& e : t.events) {
    const std::string& name = t.threads[e.slot];
    if (e.a0 == 1)
      EXPECT_EQ(name, "main-ring");
    else
      EXPECT_EQ(name, "worker-ring");
  }
}

TEST(ObsSession, NoSessionMeansNoRingsAndNoAllocations) {
  ASSERT_FALSE(obs::active());
  const std::uint64_t allocs_before = obs::ring_allocations();
  for (int i = 0; i < 1000; ++i)
    RAA_OBS_HOST_EVENT(app, mark, instant,
                       static_cast<std::uint64_t>(i), 0u);
  obs::emit_host(obs::Cat::app, obs::Name::mark, obs::Phase::instant, 1, 2);
  EXPECT_EQ(obs::ring_allocations(), allocs_before);
}

// --- counter / gauge / histogram registry ----------------------------------

TEST(ObsCounters, InterningReturnsStableCells) {
  auto& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("test.stable_cell");
  obs::Counter& b = reg.counter("test.stable_cell");
  EXPECT_EQ(&a, &b);
  const std::uint64_t before = a.get();
  b.add(3);
  EXPECT_EQ(a.get(), before + 3);
  EXPECT_EQ(reg.value("test.stable_cell"), before + 3);
}

TEST(ObsCounters, ExternalGaugesSumWithOwnedAndDetach) {
  auto& reg = obs::Registry::instance();
  reg.counter("test.gauge_sum").add(5);
  std::uint64_t g1 = 10, g2 = 100;
  const std::uint64_t t1 =
      reg.attach_external("test.gauge_sum", [&g1] { return g1; });
  const std::uint64_t t2 =
      reg.attach_external("test.gauge_sum", [&g2] { return g2; });
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t2, t1);
  EXPECT_EQ(reg.value("test.gauge_sum"), 115u);
  reg.detach_external(t1);
  EXPECT_EQ(reg.value("test.gauge_sum"), 105u);
  reg.detach_external(t2);
  EXPECT_EQ(reg.value("test.gauge_sum"), 5u);
  reg.detach_external(t2);  // double-detach is a no-op
}

TEST(ObsCounters, HistogramLogBuckets) {
  auto& reg = obs::Registry::instance();
  obs::Histogram& h = reg.histogram("test.latency_hist");
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
}

TEST(ObsCounters, SnapshotJsonIsSortedAndComplete) {
  auto& reg = obs::Registry::instance();
  reg.counter("test.snap_b").add(2);
  reg.counter("test.snap_a").add(1);
  reg.histogram("test.snap_hist").record(5);
  const raa::json::Value snap = reg.snapshot_json();
  ASSERT_TRUE(snap.is_object());
  const raa::json::Value* counters = snap.find("counters");
  ASSERT_TRUE(counters && counters->is_object());
  const raa::json::Value* a = counters->find("test.snap_a");
  const raa::json::Value* b = counters->find("test.snap_b");
  ASSERT_TRUE(a && a->is_number());
  ASSERT_TRUE(b && b->is_number());
  EXPECT_GE(a->as_number(), 1.0);
  EXPECT_GE(b->as_number(), 2.0);
  // Names are emitted sorted: the document order of the two keys is fixed.
  const std::string text = snap.dump(0);
  EXPECT_LT(text.find("test.snap_a"), text.find("test.snap_b"));
  const raa::json::Value* hists = snap.find("histograms");
  ASSERT_TRUE(hists && hists->is_object());
  const raa::json::Value* h = hists->find("test.snap_hist");
  ASSERT_TRUE(h && h->is_object());
  ASSERT_TRUE(h->find("count") && h->find("count")->is_number());
  EXPECT_GE(h->find("count")->as_number(), 1.0);
  ASSERT_TRUE(h->find("buckets") && h->find("buckets")->is_array());
}

// --- Chrome trace exporter -------------------------------------------------

TEST(TraceExport, ClockParserRoundTrips) {
  using raa::obs::TraceClock;
  EXPECT_EQ(raa::from_string<TraceClock>("sim"), TraceClock::sim);
  EXPECT_EQ(raa::from_string<TraceClock>("host"), TraceClock::host);
  EXPECT_EQ(raa::from_string<TraceClock>("dual"), TraceClock::dual);
  EXPECT_FALSE(raa::from_string<TraceClock>("wall").has_value());
  EXPECT_STREQ(obs::to_string(TraceClock::dual), "dual");
}

/// Hand-built trace: one sim B/E pair, one sim complete, one host-only
/// instant. Lets the test pin exporter behaviour without a live session.
obs::Trace sample_trace() {
  obs::Trace t;
  t.threads = {"main"};
  obs::Event b;
  b.sim_ts = 10.0;
  b.host_ns = 1000;
  b.name = obs::Name::epoch;
  b.cat = obs::Cat::memsim;
  b.phase = obs::Phase::begin;
  b.flags = obs::kFlagHasSim;
  t.events.push_back(b);

  obs::Event x;
  x.sim_ts = 50.0;  // stamped at END; exporter must render ts=30, dur=20
  x.host_ns = 2000;
  x.name = obs::Name::dma_chunk;
  x.cat = obs::Cat::memsim;
  x.phase = obs::Phase::complete;
  x.flags = obs::kFlagHasSim;
  x.a0 = std::bit_cast<std::uint64_t>(20.0);
  x.a1 = 4u | (8u << 16) | (std::uint64_t{3} << 32);
  t.events.push_back(x);

  obs::Event e;
  e.sim_ts = 90.0;
  e.host_ns = 3000;
  e.name = obs::Name::epoch;
  e.cat = obs::Cat::memsim;
  e.phase = obs::Phase::end;
  e.flags = obs::kFlagHasSim;
  t.events.push_back(e);

  obs::Event h;
  h.host_ns = 1500;
  h.name = obs::Name::steal_success;
  h.cat = obs::Cat::exec;
  h.phase = obs::Phase::instant;
  t.events.push_back(h);
  return t;
}

TEST(TraceExport, SimClockFiltersAndRendersSpans) {
  const std::string text =
      obs::chrome_trace_json(sample_trace(), obs::TraceClock::sim);
  std::string error;
  const auto doc = raa::json::Value::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const raa::json::Value* events = doc->find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  // 2 metadata + B + X + E; the host-only instant is filtered out.
  ASSERT_EQ(events->as_array().size(), 5u);
  const raa::json::Value& x = events->as_array()[3];
  ASSERT_TRUE(x.find("ph") && x.find("ph")->as_string() == "X");
  EXPECT_DOUBLE_EQ(x.find("ts")->as_number(), 30.0);   // 50 - dur
  EXPECT_DOUBLE_EQ(x.find("dur")->as_number(), 20.0);
  const raa::json::Value* args = x.find("args");
  ASSERT_TRUE(args);
  EXPECT_DOUBLE_EQ(args->find("lines")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(args->find("dram_lines")->as_number(), 8.0);
  EXPECT_DOUBLE_EQ(args->find("core")->as_number(), 3.0);
  const raa::json::Value* other = doc->find("otherData");
  ASSERT_TRUE(other);
  EXPECT_EQ(other->find("schema")->as_string(), "raa-trace");
  EXPECT_EQ(other->find("clock")->as_string(), "sim");
}

TEST(TraceExport, HostAndDualClockKeepAllEvents) {
  const obs::Trace t = sample_trace();
  const std::string host = obs::chrome_trace_json(t, obs::TraceClock::host);
  const auto hdoc = raa::json::Value::parse(host);
  ASSERT_TRUE(hdoc.has_value());
  // process meta + 1 thread meta + all 4 events.
  EXPECT_EQ(hdoc->find("traceEvents")->as_array().size(), 6u);

  const std::string dual = obs::chrome_trace_json(t, obs::TraceClock::dual);
  const auto ddoc = raa::json::Value::parse(dual);
  ASSERT_TRUE(ddoc.has_value());
  // sim lane (2 meta + 3 events) + host lane (2 meta + 4 events).
  EXPECT_EQ(ddoc->find("traceEvents")->as_array().size(), 11u);
}

// --- cross-layer contracts -------------------------------------------------

/// The sim-clock trace is part of the determinism contract: its bytes are
/// a function of the workload alone, for any shard count.
TEST(TraceDeterminism, SimTraceBytesIdenticalAcrossShards) {
  const SystemConfig cfg = small_cfg();
  std::string texts[2];
  const unsigned shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(obs::start());
    System sys{cfg, HierarchyMode::hybrid};
    Workload w = strided_workload(cfg, 512);
    RunOptions ro;
    ro.shards = shard_counts[i];
    sys.run(w, ro);
    const obs::Trace t = obs::stop();
    EXPECT_EQ(t.dropped, 0u);
    texts[i] = obs::chrome_trace_json(t, obs::TraceClock::sim);
  }
  EXPECT_GT(texts[0].size(), 1000u);  // a real trace, not an empty shell
  EXPECT_EQ(texts[0], texts[1]);
}

/// Tracing must observe, never perturb: gated metrics are bit-identical
/// with a session active and without one.
TEST(TraceDeterminism, TracingDoesNotPerturbMetrics) {
  const SystemConfig cfg = small_cfg();
  Metrics plain;
  {
    System sys{cfg, HierarchyMode::hybrid};
    Workload w = strided_workload(cfg, 256);
    plain = sys.run(w);
  }
  ASSERT_TRUE(obs::start());
  Metrics traced;
  {
    System sys{cfg, HierarchyMode::hybrid};
    Workload w = strided_workload(cfg, 256);
    traced = sys.run(w);
  }
  const obs::Trace t = obs::stop();
  EXPECT_FALSE(t.events.empty());
  EXPECT_TRUE(plain == traced);
}

}  // namespace
