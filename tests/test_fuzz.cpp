// Fuzzing layer: seeded scenario generation (deterministic, always
// parse-valid, every region referenced), the serialize -> parse round
// trip, the marker-divergence shrinker contract, the budgeted driver's
// summary determinism, and property tests for the trace codec (random
// streams round-trip byte-identically; truncated/corrupted RAAT files
// fail with a clear error instead of undefined behaviour).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/genscenario.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "report/json.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::Rng;
using raa::fuzz::GenLimits;
using raa::mem::Access;
using raa::mem::RefClass;
using raa::scen::Scenario;
using raa::scen::TraceData;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Small limits keep the simulation legs of the oracle battery fast.
GenLimits small_limits() {
  GenLimits lim;
  lim.max_accesses = 512;
  return lim;
}

bool has_marker(const Scenario& s) {
  for (const auto& r : s.regions)
    if (r.name.rfind(raa::fuzz::kMarkerRegionName, 0) == 0) return true;
  return false;
}

// --- generation -----------------------------------------------------------

TEST(FuzzGen, DeterministicInSeedAndIndex) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull})
    for (std::uint64_t i = 0; i < 5; ++i) {
      const Scenario a = raa::fuzz::generate_scenario(seed, i);
      const Scenario b = raa::fuzz::generate_scenario(seed, i);
      EXPECT_TRUE(a == b) << "seed=" << seed << " index=" << i;
      EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
    }
}

TEST(FuzzGen, IndexVariesTheScenario) {
  std::set<std::string> dumps;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Scenario s = raa::fuzz::generate_scenario(9, i);
    s.name.clear();  // the name embeds the index; variety must be deeper
    s.description.clear();
    dumps.insert(s.to_json().dump(0));
  }
  EXPECT_GE(dumps.size(), 8u);
}

TEST(FuzzGen, GeneratedScenariosParseRoundTripFieldIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull})
    for (std::uint64_t i = 0; i < 25; ++i) {
      const Scenario s = raa::fuzz::generate_scenario(seed, i);
      std::string err;
      const auto parsed = Scenario::parse(s.to_json(), &err);
      ASSERT_TRUE(parsed.has_value())
          << "seed=" << seed << " index=" << i << ": " << err;
      EXPECT_TRUE(*parsed == s) << "seed=" << seed << " index=" << i;
      EXPECT_FALSE(s.first_unreferenced_region().has_value())
          << "seed=" << seed << " index=" << i;
    }
}

TEST(FuzzGen, OracleBatteryAgreesOnGeneratedScenarios) {
  raa::fuzz::OracleOptions opt;
  opt.shards = 2;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Scenario s = raa::fuzz::generate_scenario(5, i, small_limits());
    const auto div = raa::fuzz::check_oracles(s, opt);
    EXPECT_FALSE(div.has_value())
        << "index=" << i << ": oracle " << raa::fuzz::to_string(div->oracle)
        << " diverged: " << div->detail;
  }
}

TEST(FuzzPairs, NamesTheFirstDivergentFieldAndReportsSerialMetrics) {
  // The pair check raa_sim --selfcheck and the oracle battery share.
  std::string err;
  const auto doc = raa::json::Value::parse(R"({
    "name": "pairs", "mode": "hybrid", "seed": 1,
    "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2},
    "regions": [{"name": "r", "class": "random_noalias",
                 "bytes_per_core": 4096}],
    "programs": [{"generator": "zipf", "region": "r", "accesses": 200}]
  })", &err);
  ASSERT_TRUE(doc) << err;
  const auto s = Scenario::parse(*doc, &err);
  ASSERT_TRUE(s) << err;
  const auto mode = raa::mem::HierarchyMode::hybrid;

  raa::mem::Metrics serial;
  EXPECT_FALSE(raa::fuzz::check_pairs(
      s->config, mode, [&] { return s->instantiate(); }, 2, &serial));
  EXPECT_GT(serial.accesses, 0u);

  // Every workload after the first draws a different random stream, so
  // the sharded leg diverges and the report names a Metrics field.
  std::uint64_t calls = 0;
  const auto drifting = [&] {
    Scenario copy = *s;
    copy.seed += calls++;
    return copy.instantiate();
  };
  const auto div = raa::fuzz::check_pairs(s->config, mode, drifting, 2);
  ASSERT_TRUE(div);
  EXPECT_EQ(div->oracle, raa::fuzz::Oracle::shards);
  EXPECT_NE(div->detail.find(" vs "), std::string::npos) << div->detail;
}

// --- marker injection and shrinking --------------------------------------

TEST(FuzzMarker, InjectionKeepsScenarioParseValid) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    Scenario s = raa::fuzz::generate_scenario(21, i);
    raa::fuzz::inject_marker_divergence(s);
    EXPECT_TRUE(has_marker(s));
    std::string err;
    const auto parsed = Scenario::parse(s.to_json(), &err);
    ASSERT_TRUE(parsed.has_value()) << "index=" << i << ": " << err;
    EXPECT_TRUE(*parsed == s) << "index=" << i;
    EXPECT_FALSE(s.first_unreferenced_region().has_value());
  }
}

TEST(FuzzMarker, OracleFailsExactlyOnMarkerScenarios) {
  raa::fuzz::OracleOptions opt;
  opt.shards = 2;
  opt.check_marker = true;
  Scenario s = raa::fuzz::generate_scenario(5, 0, small_limits());
  EXPECT_FALSE(raa::fuzz::check_oracles(s, opt).has_value());
  raa::fuzz::inject_marker_divergence(s);
  const auto div = raa::fuzz::check_oracles(s, opt);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->oracle, raa::fuzz::Oracle::marker);
}

TEST(FuzzShrink, MinimizesInjectedMarkerDivergence) {
  Scenario s = raa::fuzz::generate_scenario(13, 2, small_limits());
  raa::fuzz::inject_marker_divergence(s);
  raa::fuzz::OracleOptions opt;
  opt.shards = 2;
  opt.check_marker = true;

  raa::fuzz::ShrinkStats stats;
  const Scenario shrunk = raa::fuzz::shrink_scenario(
      s,
      [&](const Scenario& cand) {
        const auto d = raa::fuzz::check_oracles(cand, opt);
        return d && d->oracle == raa::fuzz::Oracle::marker;
      },
      &stats);

  // The minimal scenario that still carries the synthetic bug: one marker
  // region, one single-core program touching it, a 1x1 chip.
  ASSERT_EQ(shrunk.regions.size(), 1u);
  EXPECT_TRUE(has_marker(shrunk));
  ASSERT_EQ(shrunk.programs.size(), 1u);
  EXPECT_LE(shrunk.programs[0].cores.size(), 1u);
  EXPECT_EQ(shrunk.config.tiles, 1u);
  EXPECT_LE(shrunk.regions[0].bytes, 64u);
  EXPECT_GE(stats.accepted, 1u);

  // Still a valid scenario file — a repro raa_sim can load unchanged.
  std::string err;
  const auto parsed = Scenario::parse(shrunk.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_TRUE(*parsed == shrunk);
}

// --- the budgeted driver --------------------------------------------------

TEST(FuzzDriver, SummaryIsDeterministic) {
  raa::fuzz::FuzzOptions opt;
  opt.seed = 17;
  opt.budget_runs = 3;
  opt.shards = 2;
  opt.limits = small_limits();
  opt.quiet = true;
  opt.out_dir = temp_path("fuzz_det_a");
  const auto a = raa::fuzz::run_fuzz(opt);
  opt.out_dir = temp_path("fuzz_det_b");
  const auto b = raa::fuzz::run_fuzz(opt);
  EXPECT_EQ(a.summary.dump(2), b.summary.dump(2));
  EXPECT_EQ(a.divergences, 0u);
  EXPECT_TRUE(a.error.empty()) << a.error;
  const auto* status = a.summary.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->as_string(), "ok");
}

TEST(FuzzDriver, InjectedDivergenceWritesLoadableRepro) {
  raa::fuzz::FuzzOptions opt;
  opt.seed = 29;
  opt.budget_runs = 1;
  opt.shards = 2;
  opt.limits = small_limits();
  opt.quiet = true;
  opt.inject_marker = true;
  opt.out_dir = temp_path("fuzz_marker_out");
  const auto res = raa::fuzz::run_fuzz(opt);
  EXPECT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.divergences, 1u);

  std::string err;
  const auto repro =
      Scenario::load_file(opt.out_dir + "/repro_i0.json", &err);
  ASSERT_TRUE(repro.has_value()) << err;
  EXPECT_TRUE(has_marker(*repro));
  EXPECT_FALSE(repro->first_unreferenced_region().has_value());

  const auto trace = TraceData::read_file(opt.out_dir + "/repro_i0.raat", &err);
  ASSERT_TRUE(trace.has_value()) << err;
  EXPECT_EQ(trace->cores.size(), repro->config.tiles);
}

// --- trace codec properties -----------------------------------------------

std::vector<Access> random_accesses(Rng& rng, std::size_t n) {
  static constexpr RefClass kClasses[] = {
      RefClass::strided, RefClass::random_noalias, RefClass::random_unknown};
  std::vector<Access> v;
  std::uint64_t addr = rng.below(1u << 20) * 8;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(5)) {
      case 0: addr += 64; break;                      // repeat-delta run
      case 1: break;                                  // zero delta
      case 2: addr = rng.below(std::uint64_t{1} << 40); break;  // far jump
      case 3: addr += rng.below(4096); break;         // small forward
      default: addr -= std::min(addr, rng.below(4096)); break;  // backward
    }
    Access a;
    a.addr = addr;
    a.is_store = rng.chance(0.3);
    a.ref = kClasses[rng.below(3)];
    a.gap_cycles =
        rng.chance(0.25) ? static_cast<std::uint32_t>(rng.below(100000)) : 0;
    v.push_back(a);
  }
  return v;
}

TEST(FuzzTraceCodec, RandomStreamsRoundTripByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    const std::size_t n = 1 + rng.below(800);
    const std::vector<Access> in = random_accesses(rng, n);
    const TraceData::CoreStream enc = raa::scen::encode_accesses(in);
    EXPECT_EQ(enc.count, in.size());
    const std::vector<Access> out = raa::scen::decode_stream(enc);
    ASSERT_EQ(out.size(), in.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i].addr, in[i].addr) << "seed=" << seed << " i=" << i;
      EXPECT_EQ(out[i].is_store, in[i].is_store);
      EXPECT_EQ(out[i].ref, in[i].ref);
      EXPECT_EQ(out[i].gap_cycles, in[i].gap_cycles);
    }
    // Re-encoding the decoded stream reproduces the exact bytes: the
    // encoding is canonical, not merely invertible.
    const TraceData::CoreStream enc2 = raa::scen::encode_accesses(out);
    EXPECT_EQ(enc.bytes, enc2.bytes) << "seed=" << seed;
  }
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TraceData codec_trace() {
  TraceData t;
  t.mode = raa::mem::HierarchyMode::cache_only;
  t.name = "codec_fixture";
  raa::mem::Region r;
  r.name = "data";
  r.base = 0;
  r.bytes = std::uint64_t{1} << 41;
  r.ref = RefClass::random_noalias;
  t.regions.push_back(std::move(r));
  Rng rng{99};
  t.cores.push_back(raa::scen::encode_accesses(random_accesses(rng, 200)));
  t.cores.resize(t.config.tiles);  // read_file wants one stream per tile
  return t;
}

TEST(FuzzTraceCodec, TruncatedFilesFailWithClearError) {
  const std::string path = temp_path("fuzz_codec_trunc.raat");
  const TraceData t = codec_trace();
  std::string err;
  ASSERT_TRUE(t.write_file(path, &err)) << err;
  const std::vector<char> whole = slurp(path);
  ASSERT_FALSE(whole.empty());
  ASSERT_TRUE(TraceData::read_file(path, &err).has_value()) << err;

  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{8},
        whole.size() / 2, whole.size() - 1}) {
    const std::string cut_path = temp_path("fuzz_codec_cut.raat");
    spit(cut_path, {whole.begin(), whole.begin() + static_cast<long>(cut)});
    err.clear();
    const auto broken = TraceData::read_file(cut_path, &err);
    EXPECT_FALSE(broken.has_value()) << "cut=" << cut;
    EXPECT_FALSE(err.empty()) << "cut=" << cut;
  }
}

TEST(FuzzTraceCodec, CorruptedBytesNeverCrashTheLoader) {
  const std::string path = temp_path("fuzz_codec_flip.raat");
  const TraceData t = codec_trace();
  std::string err;
  ASSERT_TRUE(t.write_file(path, &err)) << err;
  const std::vector<char> whole = slurp(path);

  // Flip every byte of the header region (magic, version, config walk,
  // mode/flags) and a sample of the stream bytes: the loader must either
  // reject with a message or accept a benignly different trace — never
  // crash or read out of bounds (ASan/UBSan jobs run this too).
  Rng rng{7};
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < std::min<std::size_t>(whole.size(), 64); ++i)
    positions.push_back(i);
  for (int i = 0; i < 64; ++i) positions.push_back(rng.below(whole.size()));
  for (const std::size_t pos : positions) {
    std::vector<char> mutated = whole;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    const std::string flip_path = temp_path("fuzz_codec_flipped.raat");
    spit(flip_path, mutated);
    err.clear();
    const auto loaded = TraceData::read_file(flip_path, &err);
    if (!loaded.has_value()) {
      EXPECT_FALSE(err.empty()) << "pos=" << pos;
    }
  }
}

// --- degenerate-scenario rejection (raa_sim exit-3 companion) -------------

TEST(FuzzScenario, FirstUnreferencedRegionFindsTheOrphan) {
  const char* doc = R"({
    "name": "orphan_check",
    "config": {"tiles": 2, "mesh_x": 2, "mesh_y": 1},
    "regions": [
      {"name": "data", "class": "random_noalias", "bytes": 1024},
      {"name": "orphan", "class": "random_unknown", "bytes": 2048}
    ],
    "programs": [
      {"generator": "zipf", "region": "data", "accesses": 64}
    ]
  })";
  std::string err;
  const auto v = raa::json::Value::parse(doc, &err);
  ASSERT_TRUE(v.has_value()) << err;
  const auto s = Scenario::parse(*v, &err);
  ASSERT_TRUE(s.has_value()) << err;
  const auto unref = s->first_unreferenced_region();
  ASSERT_TRUE(unref.has_value());
  EXPECT_EQ(*unref, 1u);
  EXPECT_EQ(s->regions[*unref].name, "orphan");
}

}  // namespace
