// Scenario subsystem: declarative parsing/validation, the parameterized
// generators, and the trace record/replay round trip (the determinism
// contract: replaying a recorded run reproduces its Metrics exactly, under
// the serial and the sharded engine alike).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "expect_metrics.hpp"
#include "kernels/program.hpp"
#include "memsim/system.hpp"
#include "report/json.hpp"
#include "scenario/generators.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::kern::AddressSpace;
using raa::kern::Phase;
using raa::kern::ScriptedProgram;
using raa::kern::Stream;
using raa::kern::StreamKind;
using raa::mem::Access;
using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::RefClass;
using raa::mem::Region;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;
using raa::scen::GenKind;
using raa::scen::ProgramSpec;
using raa::scen::Scenario;
using raa::scen::TraceData;

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 4;
  cfg.mesh_x = 2;
  cfg.mesh_y = 2;
  cfg.l1_bytes = 4 * 1024;
  cfg.l2_bank_bytes = 16 * 1024;
  cfg.spm_bytes = 8 * 1024;
  cfg.dma_chunk_bytes = 1024;
  return cfg;
}

/// Drain a program through fill() in `batch`-sized chunks.
std::vector<Access> drain(raa::mem::CoreProgram& p, std::size_t batch) {
  std::vector<Access> all;
  std::vector<Access> buf(batch);
  std::size_t n = 0;
  while ((n = p.fill({buf.data(), buf.size()})) > 0)
    all.insert(all.end(), buf.begin(), buf.begin() + n);
  EXPECT_EQ(p.fill({buf.data(), buf.size()}), 0u);  // stays ended
  return all;
}

bool same_accesses(const std::vector<Access>& a,
                   const std::vector<Access>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].addr != b[i].addr || a[i].is_store != b[i].is_store ||
        a[i].ref != b[i].ref || a[i].gap_cycles != b[i].gap_cycles)
      return false;
  return true;
}

/// Mixed-class scripted workload (strided + guarded rmw + random) used by
/// the record/replay tests.
Workload mixed_workload(const SystemConfig& cfg, std::uint64_t seed) {
  Workload w;
  w.name = "mixed";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const Region& shared =
      as.add(w, "shared", cfg.tiles * part, RefClass::strided);
  const Region& priv =
      as.add(w, "private", cfg.tiles * 2048, RefClass::random_noalias);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .store = (c % 2 == 1),
                           .start = c * part, .stride = 8}},
        .iterations = part / 8,
        .gap_cycles = 2});
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .kind = StreamKind::random_rmw,
                           .ref = RefClass::random_unknown, .elem_bytes = 8},
                    Stream{.region = &priv, .kind = StreamKind::random,
                           .ref = RefClass::random_noalias,
                           .slice_bytes = 2048, .slice_base = c * 2048,
                           .elem_bytes = 8}},
        .iterations = 96,
        .gap_cycles = 3});
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(phases), seed * 131 + c));
  }
  return w;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --------------------------------------------------------------------------
// Generators
// --------------------------------------------------------------------------

TEST(Generators, ZipfIsDeterministicAndSkewed) {
  raa::scen::ZipfParams p;
  p.slice = {1 << 20, 64 * 1024};
  p.accesses = 4000;
  p.hot_fraction = 0.1;
  p.hot_weight = 0.9;
  p.store_fraction = 0.25;
  raa::scen::ZipfProgram a{p, 42};
  raa::scen::ZipfProgram b{p, 42};
  const auto sa = drain(a, 64);
  const auto sb = drain(b, 1);  // next()-sized batches: same sequence
  EXPECT_EQ(sa.size(), 4000u);
  EXPECT_TRUE(same_accesses(sa, sb));

  const std::uint64_t hot_end =
      p.slice.base + (p.slice.bytes / 10 / 8) * 8;  // ~hot_fraction
  std::size_t hot = 0, stores = 0;
  for (const auto& acc : sa) {
    ASSERT_GE(acc.addr, p.slice.base);
    ASSERT_LT(acc.addr, p.slice.base + p.slice.bytes);
    if (acc.addr < hot_end) ++hot;
    if (acc.is_store) ++stores;
  }
  // hot_weight=0.9 with generous slack; a uniform draw would give ~10%.
  EXPECT_GT(hot, sa.size() * 7 / 10);
  EXPECT_GT(stores, sa.size() / 10);
  EXPECT_LT(stores, sa.size() / 2);

  raa::scen::ZipfProgram c{p, 43};
  EXPECT_FALSE(same_accesses(sa, drain(c, 64)));  // seed matters
}

TEST(Generators, PointerChaseVisitsEveryElementOncePerLap) {
  raa::scen::PointerChaseParams p;
  p.slice = {4096, 512};  // 64 elements
  p.accesses = 128;       // two laps
  raa::scen::PointerChaseProgram a{p, 7};
  const auto s = drain(a, 16);
  ASSERT_EQ(s.size(), 128u);
  std::vector<int> seen(64, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(s[i].is_store);
    seen[(s[i].addr - 4096) / 8]++;
  }
  for (const int k : seen) EXPECT_EQ(k, 1);  // a full cycle
  // Second lap repeats the first.
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(s[i].addr, s[64 + i].addr);
}

TEST(Generators, StencilHaloTapsCrossSlicesAsGuarded) {
  raa::scen::StencilParams p;
  p.in_region = {0, 4 * 256};  // 4 cores x 32 elements
  p.out_region = {1 << 16, 4 * 256};
  p.elem_offset = 32;  // core 1 of 4
  p.elems = 32;
  p.halo = 1;
  p.sweeps = 2;
  p.in_ref = RefClass::strided;
  raa::scen::StencilProgram a{p};
  const auto s = drain(a, 13);
  // Per element: 3 reads + 1 write; 32 elements x 2 sweeps.
  ASSERT_EQ(s.size(), 4u * 32 * 2);
  // First element: taps 31 (left halo, guarded), 32, 33, then write 32.
  EXPECT_EQ(s[0].addr, 31u * 8);
  EXPECT_EQ(s[0].ref, RefClass::random_unknown);
  EXPECT_EQ(s[1].addr, 32u * 8);
  EXPECT_EQ(s[1].ref, RefClass::strided);
  EXPECT_EQ(s[2].addr, 33u * 8);
  EXPECT_TRUE(s[3].is_store);
  EXPECT_EQ(s[3].addr, (1u << 16) + 32u * 8);
  // Last element of the slice reads tap 64 — the right halo, guarded.
  const auto& right_tap = s[4 * 31 + 2];
  EXPECT_EQ(right_tap.addr, 64u * 8);
  EXPECT_EQ(right_tap.ref, RefClass::random_unknown);
}

TEST(Generators, StencilHaloAbove2To31DoesNotWrap) {
  // 2 * halo + 1 taps must not wrap in 32 bits: with halo = 2^31 every
  // access of the first element's tap window is a load, not the write.
  raa::scen::StencilParams p;
  p.in_region = {0, 4 * 512 * 8};  // 4 cores x 512 elements
  p.out_region = {1 << 20, 4 * 512 * 8};
  p.elem_offset = 512;
  p.elems = 512;
  p.halo = std::uint32_t{1} << 31;
  raa::scen::StencilProgram a{p};
  std::vector<Access> buf(8);
  ASSERT_EQ(a.fill({buf.data(), buf.size()}), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_FALSE(buf[i].is_store) << i;
}

TEST(Generators, ProducerConsumerAlternatesOwnStoreAndPeerLoad) {
  raa::scen::ProducerConsumerParams p;
  p.ring = {0, 4 * 1024};
  p.slot_bytes = 1024;
  p.core = 0;
  p.cores = 4;
  p.iterations = 200;
  raa::scen::ProducerConsumerProgram a{p};
  const auto s = drain(a, 7);
  ASSERT_EQ(s.size(), 400u);
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    EXPECT_TRUE(s[i].is_store);
    EXPECT_LT(s[i].addr, 1024u);  // own slot (core 0)
    EXPECT_FALSE(s[i + 1].is_store);
    EXPECT_GE(s[i + 1].addr, 3 * 1024u);  // left neighbour = core 3
  }
}

TEST(Generators, BurstyCarriesTheOffGapOnBurstHeads) {
  raa::scen::BurstyParams p;
  p.slice = {0, 8192};
  p.bursts = 5;
  p.burst_len = 50;
  p.gap_on = 2;
  p.gap_off = 777;
  raa::scen::BurstyProgram a{p, 3};
  const auto s = drain(a, 32);
  ASSERT_EQ(s.size(), 250u);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(s[i].gap_cycles, i % 50 == 0 ? 777u : 2u) << i;
}

// --------------------------------------------------------------------------
// Scenario parsing + validation
// --------------------------------------------------------------------------

const char* kScenarioDoc = R"({
  "name": "t",
  "mode": "compare",
  "seed": 5,
  "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2,
             "l1_bytes": 4096, "l2_bank_bytes": 16384,
             "spm_bytes": 8192, "dma_chunk_bytes": 1024},
  "regions": [
    {"name": "grid", "bytes_per_core": 2048, "class": "strided"},
    {"name": "table", "bytes": 8192, "class": "random_unknown"}
  ],
  "programs": [
    {"cores": [0, 1], "generator": "scripted", "phases": [
      {"iterations": 256, "gap_cycles": 2, "streams": [
        {"region": "grid", "kind": "linear", "stride": 8},
        {"region": "table", "kind": "random_rmw"}
      ]}
    ]},
    {"cores": [2], "generator": "zipf", "region": "table",
     "accesses": 800, "hot_fraction": 0.2, "store_fraction": 0.1}
  ]
})";

TEST(ScenarioParse, ParsesAndInstantiates) {
  std::string err;
  const auto doc = raa::json::Value::parse(kScenarioDoc, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto s = Scenario::parse(*doc, &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->name, "t");
  EXPECT_EQ(s->seed, 5u);
  EXPECT_EQ(s->config.tiles, 4u);
  EXPECT_EQ(s->hierarchy_modes().size(), 2u);
  Workload w = s->instantiate();
  ASSERT_EQ(w.programs.size(), 4u);  // core 3 idles
  ASSERT_EQ(w.regions.size(), 2u);
  EXPECT_EQ(w.regions[0].bytes, 4u * 2048);
  EXPECT_EQ(w.regions[1].bytes, 8192u);
  Access acc;
  EXPECT_FALSE(w.programs[3]->next(acc));  // unclaimed core: empty program

  // Deterministic: two instantiations produce identical streams.
  Workload w2 = s->instantiate();
  for (unsigned c = 0; c < 3; ++c)
    EXPECT_TRUE(same_accesses(drain(*w.programs[c], 33),
                              drain(*w2.programs[c], 65)));
}

TEST(ScenarioParse, ReportsActionableErrors) {
  const auto expect_error = [](const std::string& doc,
                               const std::string& fragment) {
    std::string err;
    const auto v = raa::json::Value::parse(doc, &err);
    ASSERT_TRUE(v.has_value()) << err;
    const auto s = Scenario::parse(*v, &err);
    EXPECT_FALSE(s.has_value()) << "accepted: " << doc;
    EXPECT_NE(err.find(fragment), std::string::npos)
        << "error was: " << err << "\nexpected fragment: " << fragment;
  };
  const std::string base =
      R"("regions": [{"name": "r", "bytes": 4096, "class": "strided"}])";

  expect_error(R"({"mode": "hybrid"})", "missing required key \"name\"");
  expect_error(R"({"name": "t", "typo": 1})", "scenario.typo: unknown key");
  expect_error(R"({"name": "t", "mode": "fast"})", "unknown mode 'fast'");
  expect_error(R"({"name": "t", "config": {"tiles": 8}, )" + base +
                   R"(, "programs": []})",
               "mesh_x * mesh_y");
  // 641 * 6700417 = 2^32 + 1: a 32-bit product would wrap to tiles.
  expect_error(R"({"name": "t", "config": {"tiles": 1, "mesh_x": 641,
                   "mesh_y": 6700417}, )" + base + R"(, "programs": []})",
               "must equal mesh_x * mesh_y (4294967297)");
  expect_error(R"({"name": "t", "config": {"l2_bank_bytes": 1000}, )" +
                   base + R"(, "programs": []})",
               "scenario.config.l2_bank_bytes: l2_bank_bytes (1000) must be "
               "a positive multiple of l2_assoc * line_bytes (512)");
  expect_error(R"({"name": "t", "config": {"l2_assoc": 257}, )" + base +
                   R"(, "programs": []})",
               "scenario.config.l2_assoc: l2_assoc (257) exceeds the "
               "256-way limit");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "memory": {"banked": {"mapping": "hash"}},
                   "programs": []})",
               "unknown mapping 'hash' (want block or xor)");
  expect_error(
      R"({"name": "t", "regions": [{"name": "r", "class": "strided"}]})",
      "exactly one of \"bytes\" or \"bytes_per_core\"");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "zipf",
                       "region": "nope", "accesses": 10}]})",
               "unknown region 'nope'");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "warp"}]})",
               "unknown generator 'warp'");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [
        {"generator": "zipf", "region": "r", "accesses": 10},
        {"cores": [1], "generator": "zipf", "region": "r", "accesses": 10}
      ]})",
               "already claimed by programs[0]");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 1024, "streams": [
          {"region": "r", "kind": "linear", "stride": 8}]}]}]})",
               "runs past its 4096-byte window");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "zipf", "region": "r",
                       "accesses": 10, "slice": "core"}]})",
               "requires a bytes_per_core region");
  // Giant strides must not wrap uint64 past the bounds check.
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 2049, "streams": [
          {"region": "r", "kind": "linear",
           "stride": 9007199254740992}]}]}]})",
               "runs past its 4096-byte window");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 1, "streams": [
          {"region": "r", "kind": "linear", "start": 4096}]}]}]})",
               "beyond the 4096-byte window");
  // Strided per-core slices must tile whole DMA chunks (the SPM
  // no-overlap contract would abort mid-run otherwise).
  expect_error(
      R"({"name": "t", "regions": [
        {"name": "r", "bytes_per_core": 6144, "class": "strided"}],
        "programs": [{"generator": "scripted", "phases": [
          {"iterations": 8, "streams": [
            {"region": "r", "kind": "linear", "stride": 8}]}]}]})",
      "multiple of dma_chunk_bytes");
}

TEST(ScenarioParse, RejectsOversizedPointerChaseSlice) {
  // The chase materialises its whole cycle at instantiate, so the size
  // limit is a parse error with a path, not a CheckError mid-run.
  const auto parse = [](std::uint64_t elems, std::string* err) {
    const std::string doc =
        R"({"name": "t", "regions": [{"name": "r", "bytes": )" +
        std::to_string(elems * 8) +
        R"(, "class": "random_noalias"}], "programs": [
          {"cores": [0], "generator": "zipf", "region": "r", "accesses": 10},
          {"cores": [1], "generator": "pointer_chase", "region": "r",
           "accesses": 10}]})";
    const auto v = raa::json::Value::parse(doc, err);
    EXPECT_TRUE(v.has_value()) << *err;
    return v ? Scenario::parse(*v, err) : std::nullopt;
  };
  std::string err;
  EXPECT_TRUE(parse(raa::scen::kMaxPointerChaseElems, &err).has_value())
      << err;
  EXPECT_FALSE(parse(raa::scen::kMaxPointerChaseElems + 1, &err).has_value());
  EXPECT_NE(err.find("scenario.programs[1]"), std::string::npos) << err;
  EXPECT_NE(err.find("too large for a pointer chase"), std::string::npos)
      << err;
}

TEST(ScenarioParse, RejectsMoreThan64Tiles) {
  // The directory's sharer mask caps the chip at kMaxTiles: a larger mesh
  // is a parse error with a path, not a CheckError after every core's
  // program has been built.
  const auto parse = [](unsigned mesh_x, unsigned mesh_y, std::string* err) {
    const std::string doc =
        R"({"name": "t", "config": {"tiles": )" +
        std::to_string(mesh_x * mesh_y) + R"(, "mesh_x": )" +
        std::to_string(mesh_x) + R"(, "mesh_y": )" + std::to_string(mesh_y) +
        R"(}, "regions": [{"name": "r", "bytes_per_core": 4096,
                           "class": "random_noalias"}],
          "programs": [{"generator": "zipf", "region": "r",
                        "accesses": 10}]})";
    const auto v = raa::json::Value::parse(doc, err);
    EXPECT_TRUE(v.has_value()) << *err;
    return v ? Scenario::parse(*v, err) : std::nullopt;
  };
  std::string ok_err, err;
  EXPECT_TRUE(parse(8, 8, &ok_err).has_value()) << ok_err;
  EXPECT_FALSE(parse(9, 8, &err).has_value());
  EXPECT_NE(err.find("scenario.config.tiles"), std::string::npos) << err;
  EXPECT_NE(err.find("64-tile limit"), std::string::npos) << err;

}

TEST(EnumNames, EveryEnumeratorRoundTripsAndUnknownNamesFail) {
  using raa::from_string;
  using raa::mem::BankMapping;
  using raa::mem::MemBackendKind;
  using raa::scen::ScenarioMode;
  for (const auto e : {HierarchyMode::cache_only, HierarchyMode::hybrid})
    EXPECT_EQ(from_string<HierarchyMode>(raa::mem::to_string(e)), e);
  for (const auto e : {MemBackendKind::flat, MemBackendKind::banked})
    EXPECT_EQ(from_string<MemBackendKind>(raa::mem::to_string(e)), e);
  for (const auto e : {BankMapping::block, BankMapping::xor_hash})
    EXPECT_EQ(from_string<BankMapping>(raa::mem::to_string(e)), e);
  for (const auto e : {ScenarioMode::cache_only, ScenarioMode::hybrid,
                       ScenarioMode::compare})
    EXPECT_EQ(from_string<ScenarioMode>(raa::scen::to_string(e)), e);
  for (const auto e : {RefClass::strided, RefClass::random_noalias,
                       RefClass::random_unknown})
    EXPECT_EQ(from_string<RefClass>(raa::mem::to_string(e)), e);
  for (const auto e :
       {StreamKind::linear, StreamKind::random, StreamKind::random_rmw})
    EXPECT_EQ(from_string<StreamKind>(raa::kern::to_string(e)), e);
  for (const auto e : {GenKind::scripted, GenKind::zipf,
                       GenKind::pointer_chase, GenKind::stencil,
                       GenKind::producer_consumer, GenKind::bursty})
    EXPECT_EQ(from_string<GenKind>(raa::scen::to_string(e)), e);
  EXPECT_EQ(from_string<HierarchyMode>("compare"), std::nullopt);
  EXPECT_EQ(from_string<MemBackendKind>("bankd"), std::nullopt);
  EXPECT_EQ(from_string<BankMapping>("xor_hash"), std::nullopt);
  EXPECT_EQ(from_string<ScenarioMode>("hybird"), std::nullopt);
  EXPECT_EQ(raa::unknown_name_error<BankMapping>("mapping", "x"),
            "unknown mapping 'x' (want block or xor)");
}

TEST(ScenarioParse, CapsPointerChaseElementsSummedOverCores) {
  // Every core materialises its own successor table, so the limit caps
  // elements x cores summed over all pointer_chase programs: 16 cores of
  // 2^23 elements would each pass a per-core check, but together need
  // twice the budget.
  const auto parse = [](const std::string& programs, std::string* err) {
    const std::string doc =
        R"({"name": "t", "config": {"tiles": 16, "mesh_x": 4, "mesh_y": 4},
          "regions": [{"name": "r", "bytes_per_core": )" +
        std::to_string((std::uint64_t{1} << 23) * 8) +
        R"(, "class": "random_noalias"}], "programs": [)" + programs + "]}";
    const auto v = raa::json::Value::parse(doc, err);
    EXPECT_TRUE(v.has_value()) << *err;
    return v ? Scenario::parse(*v, err) : std::nullopt;
  };
  const auto chase = [](const std::string& cores) {
    return R"({)" + cores + R"("generator": "pointer_chase", "region": "r",
               "slice": "core", "accesses": 10})";
  };
  const std::string low = chase(R"("cores": [0, 1, 2, 3, 4, 5, 6, 7], )");
  const std::string high =
      chase(R"("cores": [8, 9, 10, 11, 12, 13, 14, 15], )");
  std::string err;
  // 8 cores x 2^23 elements is exactly the budget.
  EXPECT_TRUE(parse(low, &err).has_value()) << err;
  err.clear();
  EXPECT_FALSE(parse(chase(""), &err).has_value());
  EXPECT_NE(err.find("scenario.programs[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("too large for a pointer chase"), std::string::npos)
      << err;
  // Split over two programs, the second one crosses the cap.
  err.clear();
  EXPECT_FALSE(parse(low + ", " + high, &err).has_value());
  EXPECT_NE(err.find("scenario.programs[1]"), std::string::npos) << err;
}

TEST(ScenarioParse, LoadFileReportsLineAndColumnForSyntaxErrors) {
  const std::string path = temp_path("bad_scenario.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\n  \"name\": \"x\",\n  \"name\": \"y\"\n}\n", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(Scenario::load_file(path, &err).has_value());
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate object key \"name\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

// --------------------------------------------------------------------------
// The program schema: field lists, canonical output, strict keys
// --------------------------------------------------------------------------

std::string read_text(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::string kAllKindsPath =
    std::string{RAA_TEST_DATA_DIR} + "/scenario_all_kinds.json";

TEST(ScenarioSchema, AllKindsFileRoundTripsByteForByte) {
  // The file uses every generator kind and every key, written in
  // to_json's canonical form: parse + to_json reproduces it exactly, which
  // pins the output format (key order, defaults written out).
  const std::string text = read_text(kAllKindsPath);
  ASSERT_FALSE(text.empty()) << kAllKindsPath;
  std::string err;
  const auto s = Scenario::load_file(kAllKindsPath, &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->to_json().dump(2) + "\n", text);
  std::set<GenKind> kinds;
  for (const auto& p : s->programs) kinds.insert(p.kind);
  EXPECT_EQ(kinds.size(), enum_names(GenKind{}).size());
}

/// Each kind's keys and rules, read off its field list.
std::map<std::string, unsigned> program_keys(GenKind kind) {
  ProgramSpec p;
  p.kind = kind;
  std::map<std::string, unsigned> keys;
  raa::scen::for_each_program_field(
      p, [&](const char* name, auto&, unsigned rule) { keys[name] = rule; });
  return keys;
}

TEST(ScenarioSchema, EveryKindRejectsForeignKeysAndMissingRequiredKeys) {
  std::string err;
  const auto doc = raa::json::Value::parse(read_text(kAllKindsPath), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto& programs = doc->find("programs")->as_array();
  const auto expect_error = [](const raa::json::Value& d,
                               const std::string& want) {
    std::string e;
    EXPECT_FALSE(Scenario::parse(d, &e).has_value()) << want;
    EXPECT_NE(e.find(want), std::string::npos)
        << "error was: " << e << "\nexpected: " << want;
  };
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const std::string path = "scenario.programs[" + std::to_string(i) + "]";
    const auto kind = raa::from_string<GenKind>(
        programs[i].find("generator")->as_string());
    ASSERT_TRUE(kind.has_value());
    const auto own = program_keys(*kind);
    std::size_t foreign = 0;
    for (const auto& e : enum_names(GenKind{}))
      for (const auto& [key, rule] : program_keys(e.value)) {
        if (own.contains(key)) continue;
        raa::json::Value d = *doc;
        d.find("programs")->as_array()[i].set(key, 1);
        expect_error(d, path + "." + key + ": unknown key");
        ++foreign;
      }
    EXPECT_GT(foreign, 0u) << path;
    for (const auto& [key, rule] : own) {
      if (!(rule & (raa::scen::kRequired | raa::scen::kRegion))) continue;
      raa::json::Value d = *doc;
      auto& obj = d.find("programs")->as_array()[i].as_object();
      std::erase_if(obj, [&](const auto& m) { return m.first == key; });
      expect_error(d, path + ": missing required key \"" + key + "\"");
    }
  }
  // The scripted program's phase and stream lists: every required key.
  const auto nested = [&](auto spec, const std::string& path,
                          const auto& locate) {
    raa::scen::for_each_field(spec, [&](const char* key, auto&,
                                        unsigned rule) {
      if (!(rule & (raa::scen::kRequired | raa::scen::kRegion))) return;
      raa::json::Value d = *doc;
      auto& obj = locate(d).as_object();
      std::erase_if(obj, [&](const auto& m) { return m.first == key; });
      expect_error(d, path + ": missing required key \"" +
                          std::string{key} + "\"");
    });
  };
  const auto phase = [](raa::json::Value& d) -> raa::json::Value& {
    return d.find("programs")->as_array()[0].find("phases")->as_array()[0];
  };
  nested(raa::scen::PhaseSpec{}, "scenario.programs[0].phases[0]", phase);
  nested(raa::scen::StreamSpec{}, "scenario.programs[0].phases[0].streams[0]",
         [&](raa::json::Value& d) -> raa::json::Value& {
           return phase(d).find("streams")->as_array()[0];
         });
}

/// Addresses of the members the field list of `s` claims, over `kinds`.
template <class S>
std::set<const void*> claimed(S& s, std::initializer_list<GenKind> kinds) {
  std::set<const void*> out;
  for (const GenKind k : kinds) {
    if constexpr (std::is_same_v<S, ProgramSpec>) s.kind = k;
    raa::scen::for_each_field(
        s, [&](const char*, auto& x, unsigned) { out.insert(&x); });
  }
  return out;
}

TEST(ScenarioSchema, EverySpecMemberIsClaimedBySomeFieldList) {
  // The structured bindings break the build when a member is added, so a
  // new member cannot skip the field lists (and with them the parser,
  // to_json and the shrinker) unnoticed.
  ProgramSpec p;
  auto& [cores, kind, phases, region, out_region, per_core_slice, ref,
         halo_ref, accesses, iterations, bursts, burst_len, sweeps, halo,
         elem_bytes, gap_cycles, gap_on, gap_off, hot_fraction, hot_weight,
         store_fraction] = p;
  const std::set<const void*> got =
      claimed(p, {GenKind::scripted, GenKind::zipf, GenKind::pointer_chase,
                  GenKind::stencil, GenKind::producer_consumer,
                  GenKind::bursty});
  const std::set<const void*> want{
      &phases,   &region,         &out_region, &per_core_slice, &ref,
      &halo_ref, &accesses,       &iterations, &bursts,         &burst_len,
      &sweeps,   &halo,           &elem_bytes, &gap_cycles,     &gap_on,
      &gap_off,  &hot_fraction,   &hot_weight, &store_fraction};
  EXPECT_EQ(got, want);
  EXPECT_FALSE(got.contains(&cores));
  EXPECT_FALSE(got.contains(&kind));

  raa::scen::PhaseSpec ph;
  auto& [ph_iterations, ph_gap_cycles, ph_streams] = ph;
  EXPECT_EQ(claimed(ph, {GenKind::scripted}),
            (std::set<const void*>{&ph_iterations, &ph_gap_cycles,
                                   &ph_streams}));
  raa::scen::StreamSpec st;
  auto& [st_region, st_kind, st_store, st_ref, st_start, st_stride,
         st_elem_bytes, st_slice] = st;
  EXPECT_EQ(claimed(st, {GenKind::scripted}),
            (std::set<const void*>{&st_region, &st_kind, &st_store, &st_ref,
                                   &st_start, &st_stride, &st_elem_bytes,
                                   &st_slice}));
}

// --------------------------------------------------------------------------
// Trace record / replay
// --------------------------------------------------------------------------

TEST(TraceRoundTrip, ReplayReproducesMetricsSerialAndSharded) {
  const SystemConfig cfg = small_cfg();
  for (const auto mode :
       {HierarchyMode::cache_only, HierarchyMode::hybrid}) {
    // Record a ScriptedProgram run.
    Workload recorded_w = mixed_workload(cfg, 17);
    TraceData trace;
    raa::scen::record_workload(recorded_w, cfg, mode, trace);
    System sys{cfg, mode};
    const Metrics reference = sys.run(recorded_w);
    ASSERT_GT(reference.accesses, 0u);
    ASSERT_EQ(trace.cores.size(), cfg.tiles);

    const auto shared = std::make_shared<const TraceData>(std::move(trace));

    // Serial replay.
    {
      Workload w = raa::scen::make_replay_workload(shared);
      System replay_sys{cfg, mode};
      expect_metrics_equal(reference, replay_sys.run(w));
    }
    // Sharded replay (shards = 4).
    {
      Workload w = raa::scen::make_replay_workload(shared);
      System replay_sys{cfg, mode};
      expect_metrics_equal(
          reference, replay_sys.run(w, raa::mem::RunOptions{.shards = 4}));
    }
  }
}

TEST(TraceRoundTrip, RecordingUnderShardsCapturesTheSameTrace) {
  const SystemConfig cfg = small_cfg();
  Workload w1 = mixed_workload(cfg, 23);
  TraceData serial_trace;
  raa::scen::record_workload(w1, cfg, HierarchyMode::hybrid, serial_trace);
  System s1{cfg, HierarchyMode::hybrid};
  const Metrics m1 = s1.run(w1);

  Workload w2 = mixed_workload(cfg, 23);
  TraceData sharded_trace;
  raa::scen::record_workload(w2, cfg, HierarchyMode::hybrid, sharded_trace);
  System s2{cfg, HierarchyMode::hybrid};
  const Metrics m2 = s2.run(w2, raa::mem::RunOptions{.shards = 4});

  expect_metrics_equal(m1, m2);
  ASSERT_EQ(serial_trace.cores.size(), sharded_trace.cores.size());
  for (std::size_t c = 0; c < serial_trace.cores.size(); ++c) {
    EXPECT_EQ(serial_trace.cores[c].count, sharded_trace.cores[c].count);
    EXPECT_EQ(serial_trace.cores[c].bytes, sharded_trace.cores[c].bytes);
  }
}

TEST(TraceRoundTrip, FileRoundTripPreservesEverything) {
  SystemConfig banked = small_cfg();
  banked.memory.kind = raa::mem::MemBackendKind::banked;
  banked.memory.banked.mapping = raa::mem::BankMapping::xor_hash;
  for (const SystemConfig& cfg : {small_cfg(), banked}) {
    Workload w = mixed_workload(cfg, 31);
    TraceData trace;
    raa::scen::record_workload(w, cfg, HierarchyMode::hybrid, trace);
    System sys{cfg, HierarchyMode::hybrid};
    const Metrics reference = sys.run(w);

    const std::string path = temp_path("roundtrip.raat");
    std::string err;
    ASSERT_TRUE(trace.write_file(path, &err)) << err;
    auto loaded = TraceData::read_file(path, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(loaded->mode, HierarchyMode::hybrid);
    EXPECT_EQ(loaded->name, "mixed");
    EXPECT_EQ(loaded->config, cfg);  // the bank mapping included
    ASSERT_EQ(loaded->regions.size(), 2u);
    EXPECT_EQ(loaded->regions[0].name, "shared");
    EXPECT_EQ(loaded->regions[1].ref, RefClass::random_noalias);

    // Replay on the config the file carries, not the caller's.
    const SystemConfig loaded_cfg = loaded->config;
    Workload replay = raa::scen::make_replay_workload(
        std::make_shared<const TraceData>(std::move(*loaded)));
    System replay_sys{loaded_cfg, HierarchyMode::hybrid};
    expect_metrics_equal(reference, replay_sys.run(replay));
  }
}

TEST(TraceRoundTrip, ReadRejectsCorruptFiles) {
  const std::string path = temp_path("corrupt.raat");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  EXPECT_FALSE(TraceData::read_file(temp_path("missing.raat"), &err)
                   .has_value());
}

TEST(TraceRoundTrip, ReadRejectsInsaneConfigs) {
  // A structurally valid file whose config would divide by zero inside
  // System must fail at read time, not crash at run time.
  TraceData t;
  t.config = small_cfg();
  t.config.line_bytes = 0;
  t.cores.resize(t.config.tiles);
  const std::string path = temp_path("badcfg.raat");
  std::string err;
  ASSERT_TRUE(t.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;

  TraceData t2;
  t2.config = small_cfg();
  t2.cores.resize(t2.config.tiles + 1);  // stream count != tiles
  ASSERT_TRUE(t2.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("does not match config tiles"), std::string::npos)
      << err;

  TraceData t3;  // a 9x8 mesh: past the directory's 64-tile limit
  t3.config = small_cfg();
  t3.config.tiles = 72;
  t3.config.mesh_x = 9;
  t3.config.mesh_y = 8;
  t3.cores.resize(t3.config.tiles);
  ASSERT_TRUE(t3.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("64-tile limit"), std::string::npos) << err;

  // Cache geometries System's caches cannot build: not a whole number of
  // sets, an associativity past the set layout's limit, and an
  // assoc * line_bytes product that wraps to 0 in 32 bits.
  const auto rejects_geometry = [&](SystemConfig cfg, const char* fragment) {
    TraceData tg;
    tg.config = cfg;
    tg.cores.resize(tg.config.tiles);
    ASSERT_TRUE(tg.write_file(path, &err)) << err;
    EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
    EXPECT_NE(err.find(fragment), std::string::npos) << err;
  };
  SystemConfig g = small_cfg();
  g.l1_bytes = 1000;
  rejects_geometry(g, "config l1_bytes (1000) must be a positive multiple");
  g = small_cfg();
  g.l1_assoc = g.line_bytes = g.dma_chunk_bytes = 65536;
  rejects_geometry(g, "config l1_assoc (65536) exceeds the 256-way limit");
  g = small_cfg();
  g.l1_assoc = raa::mem::kMaxAssoc;
  g.line_bytes = g.dma_chunk_bytes = 1u << 24;
  rejects_geometry(g, "config l1_bytes (4096) must be a positive multiple "
                      "of l1_assoc * line_bytes (4294967296)");

  TraceData t4;  // a bank mapping outside the enum
  t4.config = small_cfg();
  t4.config.memory.banked.mapping = static_cast<raa::mem::BankMapping>(7);
  t4.cores.resize(t4.config.tiles);
  ASSERT_TRUE(t4.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("enum field out of range"), std::string::npos) << err;
}

// --------------------------------------------------------------------------
// End to end: scenario -> run, shards=1 vs shards=4
// --------------------------------------------------------------------------

TEST(ScenarioRun, ShardsOneAndFourAreFieldIdentical) {
  std::string err;
  const auto doc = raa::json::Value::parse(kScenarioDoc, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto s = Scenario::parse(*doc, &err);
  ASSERT_TRUE(s.has_value()) << err;
  for (const HierarchyMode mode : s->hierarchy_modes()) {
    Workload w1 = s->instantiate();
    System sys1{s->config, mode};
    const Metrics m1 = sys1.run(w1, raa::mem::RunOptions{.shards = 1});
    ASSERT_GT(m1.accesses, 0u);
    Workload w4 = s->instantiate();
    System sys4{s->config, mode};
    expect_metrics_equal(m1,
                         sys4.run(w4, raa::mem::RunOptions{.shards = 4}));
  }
}

}  // namespace
