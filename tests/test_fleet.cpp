// Tests for the fleet batch engine (src/fleet/): manifest parsing and
// validation, seed derivation, glob matching, and — the load-bearing
// suite — FleetEquivalence: every gated byte of the per-job results and
// the merged index is identical for any lane count and any completion
// order, and injected faults degrade exactly the injected jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "fleet/fleet.hpp"
#include "fleet/job.hpp"
#include "fleet/manifest.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::fleet::ErrorKind;
using raa::fleet::FleetOptions;
using raa::fleet::FleetResult;
using raa::fleet::JobStatus;
using raa::fleet::Manifest;
using raa::fleet::run_fleet;
using raa::json::Value;
using raa::mem::HierarchyMode;
using raa::mem::MemBackendKind;
using raa::scen::ScenarioMode;

// --- fixtures -----------------------------------------------------------

/// A temp-file path private to the running test. CTest runs each test
/// case in its own process, concurrently under -j, so a shared name would
/// let one process truncate a scenario while another reads it.
std::string temp_file(const std::string& name) {
  return ::testing::TempDir() +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name + ".json";
}

/// Write a small self-contained scenario file and return its path.
std::string write_scenario(const std::string& name, unsigned accesses,
                           const std::string& mode = "compare") {
  const std::string path = temp_file(name);
  std::ofstream out{path};
  out << R"({
  "name": ")" << name << R"(",
  "mode": ")" << mode << R"(",
  "seed": 5,
  "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2},
  "regions": [
    {"name": "data", "bytes_per_core": 4096, "class": "strided"}
  ],
  "programs": [
    {"generator": "pointer_chase", "region": "data", "accesses": )"
      << accesses << R"(, "gap_cycles": 1}
  ]
})";
  return path;
}

/// A three-job manifest over freshly written scenario files.
Manifest small_manifest() {
  Manifest m;
  m.name = "unit";
  m.seed = 101;
  for (const char* id : {"alpha", "beta", "gamma"}) {
    raa::fleet::JobSpec job;
    job.id = id;
    job.scenario = write_scenario(std::string{"fleet_"} + id, 400);
    m.jobs.push_back(std::move(job));
  }
  return m;
}

/// The index with its quarantined host-dependent block removed — what the
/// determinism contract actually covers.
Value gated_index(const FleetResult& r) {
  Value v = r.index;
  auto& obj = v.as_object();
  std::erase_if(obj, [](const raa::json::Member& m) {
    return m.first == "informational";
  });
  return v;
}

// --- manifest parsing ---------------------------------------------------

TEST(Manifest, ParsesAndRoundTrips) {
  const std::string text = R"({
    "schema": "raa-fleet-manifest",
    "schema_version": 1,
    "name": "demo",
    "seed": 9,
    "defaults": {"mode": "hybrid", "retries": 2, "timeout_ms": 500},
    "jobs": [
      {"id": "a", "scenario": "a.json"},
      {"id": "b", "trace": "b.raat", "shards": 4, "seed": 3},
      {"id": "c", "scenario": "c.json", "backend": "banked"}
    ]
  })";
  std::string error;
  const auto doc = Value::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  const auto m = Manifest::parse(*doc, &error);
  ASSERT_TRUE(m) << error;
  EXPECT_EQ(m->name, "demo");
  EXPECT_EQ(m->seed, 9u);
  EXPECT_EQ(m->defaults.mode, ScenarioMode::hybrid);
  EXPECT_EQ(m->defaults.retries, 2u);
  EXPECT_EQ(m->defaults.timeout_ms, 500u);
  ASSERT_EQ(m->jobs.size(), 3u);
  EXPECT_EQ(m->jobs[1].trace, "b.raat");
  EXPECT_EQ(m->jobs[1].limits.shards, 4u);
  EXPECT_EQ(m->jobs[1].seed, 3u);
  EXPECT_EQ(m->jobs[2].limits.backend, MemBackendKind::banked);

  // to_json() -> parse() is the identity.
  const auto again = Manifest::parse(m->to_json(), &error);
  ASSERT_TRUE(again) << error;
  EXPECT_EQ(*again, *m);
}

TEST(Manifest, RejectsInvalidDocumentsWithJsonPaths) {
  const auto reject = [](const std::string& text,
                         const std::string& needle) {
    std::string error;
    const auto doc = Value::parse(text, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_FALSE(Manifest::parse(*doc, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  reject(R"({"jobs": []})", "at least one job");
  reject(R"({"jobz": 1})", "unknown key");
  reject(R"({"schema": "raa-bench-results", "jobs": [{"id": "a",
             "scenario": "x"}]})",
         "raa-fleet-manifest");
  reject(R"({"jobs": [{"id": "a"}]})", "exactly one of");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "trace": "y"}]})",
         "exactly one of");
  reject(R"({"jobs": [{"id": "a/b", "scenario": "x"}]})", "A-Za-z0-9");
  reject(R"({"jobs": [{"id": "a", "scenario": "x"},
                      {"id": "a", "scenario": "y"}]})",
         "duplicate job id");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "mode": "hybird"}]})",
         "unknown mode");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "shards": 0}]})",
         "shards >= 1");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "seed": -1}]})",
         "non-negative");
}

TEST(Manifest, LimitsLayerJobOverDefaultsOverFallback) {
  raa::fleet::JobLimits job, defaults, fallback;
  defaults.mode = ScenarioMode::hybrid;
  defaults.retries = 2;
  fallback.mode = ScenarioMode::cache_only;
  fallback.shards = 8;
  fallback.timeout_ms = 99;
  job.timeout_ms = 5;
  const auto eff = job.or_else(defaults).or_else(fallback);
  EXPECT_EQ(eff.mode, ScenarioMode::hybrid);  // defaults beat fallback
  EXPECT_EQ(eff.retries, 2u);        // from defaults
  EXPECT_EQ(eff.shards, 8u);         // only fallback sets it
  EXPECT_EQ(eff.timeout_ms, 5u);     // job entry wins
}

TEST(Manifest, DerivedSeedsDependOnIdNotPosition) {
  const std::uint64_t a = raa::fleet::derive_job_seed(7, "alpha");
  EXPECT_EQ(a, raa::fleet::derive_job_seed(7, "alpha"));  // pure
  EXPECT_NE(a, raa::fleet::derive_job_seed(7, "beta"));
  EXPECT_NE(a, raa::fleet::derive_job_seed(8, "alpha"));
}

TEST(Manifest, GlobMatchesShellStyle) {
  using raa::fleet::glob_match;
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("gen_i*", "gen_i42"));
  EXPECT_FALSE(glob_match("gen_i*", "gem_i42"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*chase*", "pointer_chase_v2"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_TRUE(glob_match("**", "x"));
}

// --- FleetEquivalence: the determinism contract -------------------------

TEST(FleetEquivalence, ResultsAndIndexAreByteIdenticalForAnyLaneCount) {
  FleetOptions opt;
  opt.manifest = small_manifest();

  opt.jobs = 1;
  const FleetResult r1 = run_fleet(opt);
  opt.jobs = 2;
  const FleetResult r2 = run_fleet(opt);
  opt.jobs = 8;
  const FleetResult r8 = run_fleet(opt);

  ASSERT_EQ(r1.exit_code, raa::kExitOk);
  ASSERT_EQ(r2.exit_code, raa::kExitOk);
  ASSERT_EQ(r8.exit_code, raa::kExitOk);
  const std::string i1 = gated_index(r1).dump(2);
  EXPECT_EQ(i1, gated_index(r2).dump(2));
  EXPECT_EQ(i1, gated_index(r8).dump(2));
  ASSERT_EQ(r1.records.size(), 3u);
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].result.dump(2), r2.records[i].result.dump(2));
    EXPECT_EQ(r1.records[i].result.dump(2), r8.records[i].result.dump(2));
  }
}

TEST(FleetEquivalence, ShuffledManifestGivesSameSeedsAndResultsPerJob) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult fwd = run_fleet(opt);

  std::reverse(opt.manifest.jobs.begin(), opt.manifest.jobs.end());
  opt.jobs = 2;
  const FleetResult rev = run_fleet(opt);

  ASSERT_EQ(fwd.records.size(), rev.records.size());
  for (const auto& a : fwd.records) {
    const auto b = std::find_if(
        rev.records.begin(), rev.records.end(),
        [&](const auto& r) { return r.id == a.id; });
    ASSERT_NE(b, rev.records.end()) << a.id;
    EXPECT_EQ(a.seed, b->seed) << a.id;
    EXPECT_EQ(a.result.dump(2), b->result.dump(2)) << a.id;
  }
}

TEST(FleetEquivalence, InjectedFailureDegradesOnlyTheInjectedJob) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);
  ASSERT_EQ(clean.exit_code, raa::kExitOk);

  opt.inject_fail = "beta";
  opt.jobs = 2;
  const FleetResult faulty = run_fleet(opt);
  EXPECT_EQ(faulty.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(faulty.failed, 1u);
  EXPECT_EQ(faulty.ok, 2u);
  for (std::size_t i = 0; i < faulty.records.size(); ++i) {
    const auto& r = faulty.records[i];
    if (r.id == "beta") {
      EXPECT_EQ(r.status, JobStatus::failed);
      EXPECT_EQ(r.error, ErrorKind::injected);
      EXPECT_EQ(r.attempts, 1u);
    } else {
      EXPECT_EQ(r.status, JobStatus::ok);
      // The healthy jobs' gated bytes are unchanged by the failure.
      EXPECT_EQ(r.result.dump(2), clean.records[i].result.dump(2));
    }
  }
}

TEST(FleetEquivalence, InjectedHangTimesOutAndReclaimsTheLane) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);

  opt.inject_hang = "alpha";
  opt.manifest.jobs[0].limits.timeout_ms = 100;
  opt.jobs = 2;
  const FleetResult faulty = run_fleet(opt);
  EXPECT_EQ(faulty.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(faulty.timeout, 1u);
  EXPECT_EQ(faulty.ok, 2u);
  EXPECT_EQ(faulty.records[0].status, JobStatus::timeout);
  EXPECT_EQ(faulty.records[0].error, ErrorKind::cancelled);
  // The other jobs ran to completion on the reclaimed lanes, unchanged.
  for (std::size_t i = 1; i < faulty.records.size(); ++i)
    EXPECT_EQ(faulty.records[i].result.dump(2),
              clean.records[i].result.dump(2));
}

TEST(FleetEquivalence, TransientFailureRetriesToSuccess) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);

  opt.inject_flaky = "gamma";
  opt.fallback.retries = 1;
  opt.backoff_base_ms = 1;  // keep the test fast
  const FleetResult retried = run_fleet(opt);
  EXPECT_EQ(retried.exit_code, raa::kExitOk);
  EXPECT_EQ(retried.retried_ok, 1u);
  const auto& r = retried.records[2];
  EXPECT_EQ(r.id, "gamma");
  EXPECT_EQ(r.status, JobStatus::retried_ok);
  EXPECT_EQ(r.attempts, 2u);
  // A retried success converges on the same gated bytes as a clean run.
  EXPECT_EQ(r.result.dump(2), clean.records[2].result.dump(2));
}

TEST(FleetEquivalence, RetriesExhaustOnPersistentTimeout) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_hang = "beta";
  opt.manifest.jobs[1].limits.timeout_ms = 50;
  opt.manifest.jobs[1].limits.retries = 1;
  opt.backoff_base_ms = 1;
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(res.records[1].status, JobStatus::timeout);
  EXPECT_EQ(res.records[1].attempts, 2u);  // deadline hit both attempts
}

// --- degradation edges --------------------------------------------------

TEST(Fleet, AllJobsFailingExitsWithTotalFailure) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_fail = "*";
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitFailure);
  EXPECT_EQ(res.failed, 3u);
}

TEST(Fleet, FailFastSkipsUnstartedJobs) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_fail = "alpha";
  opt.fail_fast = true;
  opt.jobs = 1;  // serial lanes: alpha fails before beta/gamma launch
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.records[0].status, JobStatus::failed);
  EXPECT_EQ(res.skipped, 2u);
  EXPECT_EQ(res.records[1].status, JobStatus::skipped);
  EXPECT_EQ(res.records[2].status, JobStatus::skipped);
  EXPECT_EQ(res.exit_code, raa::kExitFailure);  // nothing succeeded
}

TEST(Fleet, UnparseableScenarioIsAClassifiedJobFailureNotACrash) {
  const std::string bad = temp_file("fleet_bad");
  std::ofstream{bad} << "{ this is not json";
  FleetOptions opt;
  opt.manifest = small_manifest();
  raa::fleet::JobSpec job;
  job.id = "broken";
  job.scenario = bad;
  opt.manifest.jobs.push_back(std::move(job));
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(res.records[3].status, JobStatus::failed);
  EXPECT_EQ(res.records[3].error, ErrorKind::parse);
  EXPECT_EQ(res.ok, 3u);
}

TEST(Fleet, HangInjectionWithoutDeadlineIsAConfigError) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_hang = "alpha";  // no timeout anywhere
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitUsage);
  EXPECT_NE(res.error.find("inject-hang"), std::string::npos);
}

TEST(Fleet, IndexRecordsSchemaCountsAndPerJobSeeds) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult res = run_fleet(opt);
  const Value& idx = res.index;
  ASSERT_TRUE(idx.find("schema"));
  EXPECT_EQ(idx.find("schema")->as_string(), "raa-fleet-index");
  EXPECT_EQ(idx.find("status")->as_string(), "ok");
  EXPECT_EQ(idx.find("counts")->find("ok")->as_number(), 3.0);
  const auto& jobs = idx.find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 3u);
  // Seeds are decimal strings (64-bit exact) matching the derivation.
  EXPECT_EQ(jobs[0].find("seed")->as_string(),
            std::to_string(raa::fleet::derive_job_seed(101, "alpha")));
  ASSERT_TRUE(idx.find("informational"));
  EXPECT_TRUE(idx.find("informational")->find("wall_seconds"));
}

TEST(FleetEquivalence, InformationalJobWallSpansCoverManifestInOrder) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult res = run_fleet(opt);
  ASSERT_EQ(res.exit_code, raa::kExitOk);

  // job_wall_ms lives inside the quarantined informational block (values
  // are host-dependent), but its *shape* is deterministic: one entry per
  // manifest job, in manifest order.
  const Value* info = res.index.find("informational");
  ASSERT_TRUE(info);
  const Value* spans = info->find("job_wall_ms");
  ASSERT_TRUE(spans && spans->is_array());
  const auto& arr = spans->as_array();
  ASSERT_EQ(arr.size(), 3u);
  const char* ids[] = {"alpha", "beta", "gamma"};
  for (std::size_t i = 0; i < arr.size(); ++i) {
    ASSERT_TRUE(arr[i].find("id"));
    EXPECT_EQ(arr[i].find("id")->as_string(), ids[i]);
    ASSERT_TRUE(arr[i].find("wall_ms"));
    EXPECT_GE(arr[i].find("wall_ms")->as_number(), 0.0);
  }

  // And the gated index stays free of it: stripping informational removes
  // every host-dependent field (the byte-determinism contract upstream).
  EXPECT_EQ(gated_index(res).dump(2).find("job_wall_ms"), std::string::npos);
}

// --- the shared job path: load_input / record_result ----------------------

/// The kind load_input throws for `job` under `settings`; none on success.
ErrorKind load_error(const raa::fleet::JobSpec& job,
                     const raa::fleet::JobSettings& settings) {
  try {
    raa::fleet::load_input(job, settings);
  } catch (const raa::fleet::JobError& e) {
    return e.kind();
  }
  return ErrorKind::none;
}

/// The params object load_input + record_result write for `job`.
Value result_params(const raa::fleet::JobSpec& job,
                    const raa::fleet::JobSettings& settings) {
  const raa::fleet::Input in = raa::fleet::load_input(job, settings);
  const std::vector<raa::mem::Metrics> results(in.modes.size());
  raa::report::RunReport run{1};
  raa::fleet::record_result(run.benchmark(job.id, "unit"), in, 1, results);
  return *run.to_json().find("benchmarks")->as_array()[0].find("params");
}

TEST(LoadInput, TraceJobRejectsCompareAsParse) {
  raa::scen::TraceData t;
  t.config.tiles = 4;
  t.config.mesh_x = 2;
  t.config.mesh_y = 2;
  t.mode = HierarchyMode::cache_only;
  t.cores.resize(4);
  raa::fleet::JobSpec job;
  job.id = "replay";
  job.trace = temp_file("trace");
  std::string error;
  ASSERT_TRUE(t.write_file(job.trace, &error)) << error;

  raa::fleet::JobSettings settings;
  EXPECT_EQ(raa::fleet::load_input(job, settings).modes,
            std::vector{HierarchyMode::cache_only});  // the trace's own
  settings.mode = ScenarioMode::hybrid;
  EXPECT_EQ(raa::fleet::load_input(job, settings).modes,
            std::vector{HierarchyMode::hybrid});
  settings.mode = ScenarioMode::compare;
  EXPECT_EQ(load_error(job, settings), ErrorKind::parse);
}

TEST(LoadInput, UnreferencedRegionIsDegenerate) {
  raa::fleet::JobSpec job;
  job.id = "orphan";
  job.scenario = temp_file("orphan");
  std::ofstream{job.scenario} << R"({
  "name": "orphan",
  "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2},
  "regions": [{"name": "used", "bytes_per_core": 4096, "class": "strided"},
              {"name": "unused", "bytes": 4096, "class": "strided"}],
  "programs": [{"generator": "zipf", "region": "used", "accesses": 10}]
})";
  EXPECT_EQ(load_error(job, {}), ErrorKind::degenerate);
}

TEST(LoadInput, SeedOverridesOnlyWhenSet) {
  raa::fleet::JobSpec job;
  job.id = "seeded";
  job.scenario = write_scenario("seeded", 50, "hybrid");  // seed 5
  raa::fleet::JobSettings settings;
  EXPECT_EQ(raa::fleet::load_input(job, settings).scenario.seed, 5u);
  EXPECT_EQ(result_params(job, settings).find("seed")->as_string(), "5");
  settings.seed = 42;
  EXPECT_EQ(raa::fleet::load_input(job, settings).scenario.seed, 42u);
  EXPECT_EQ(result_params(job, settings).find("seed")->as_string(), "42");
}

TEST(RecordResult, WritesMappingOnlyForBankedInputs) {
  raa::fleet::JobSpec job;
  job.id = "mapped";
  job.scenario = write_scenario("mapped", 50, "hybrid");  // flat backend
  raa::fleet::JobSettings settings;
  const Value flat = result_params(job, settings);
  EXPECT_EQ(flat.find("backend")->as_string(), "flat");
  EXPECT_EQ(flat.find("mapping"), nullptr);
  settings.backend = MemBackendKind::banked;
  const Value banked = result_params(job, settings);
  EXPECT_EQ(banked.find("backend")->as_string(), "banked");
  ASSERT_NE(banked.find("mapping"), nullptr);
  EXPECT_EQ(banked.find("mapping")->as_string(), "block");
}

}  // namespace
