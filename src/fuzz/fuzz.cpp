#include "fuzz/fuzz.hpp"

#include <cstdio>
#include <filesystem>
#include <string>

#include "fleet/manifest.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "memsim/system.hpp"
#include "report/report.hpp"
#include "scenario/trace.hpp"

namespace raa::fuzz {

namespace {

/// Record a reference run (serial engine) of `s` under the divergence's
/// hierarchy mode and persist it as a RAAT trace next to the JSON repro,
/// so a triager can replay the exact access streams.
bool write_repro_trace(const scen::Scenario& s, mem::HierarchyMode mode,
                       const std::string& path, std::string* error) {
  scen::TraceData trace;
  mem::Workload w = s.instantiate();
  scen::record_workload(w, s.config, mode, trace);
  (void)mem::System{s.config, mode}.run(w);
  return trace.write_file(path, error);
}

}  // namespace

FuzzResult run_fuzz(const FuzzOptions& opt) {
  FuzzResult res;

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      res.error = opt.out_dir + ": cannot create output directory (" +
                  ec.message() + ")";
      return res;
    }
  }
  const auto out_path = [&](const std::string& file) {
    return opt.out_dir.empty() ? file : opt.out_dir + "/" + file;
  };

  if (opt.emit_manifest) {
    if (opt.out_dir.empty()) {
      res.error = "--emit-manifest needs an output directory (--out)";
      return res;
    }
    fleet::Manifest man;
    man.name = "fuzz_s" + std::to_string(opt.seed);
    man.seed = opt.seed;
    for (std::uint64_t i = 0; i < opt.budget_runs; ++i) {
      scen::Scenario s = generate_scenario(opt.seed, i, opt.limits);
      if (opt.inject_marker) inject_marker_divergence(s);
      const std::string file = "gen_i" + std::to_string(i) + ".json";
      std::string io_err;
      if (!report::write_json_file(s.to_json(), out_path(file), &io_err)) {
        res.error = io_err;
        break;
      }
      fleet::JobSpec job;
      job.id = "gen_i" + std::to_string(i);
      job.scenario = file;  // manifest-relative: the bundle is portable
      // Pin the generated seed: the fleet overrides a scenario's seed with
      // the job's, so an explicit match preserves the fuzzer's streams.
      job.seed = s.seed;
      man.jobs.push_back(std::move(job));
      if (!opt.quiet)
        std::printf("[raa_fuzz] case %llu/%llu %s: emitted %s\n",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(opt.budget_runs),
                    s.name.c_str(), file.c_str());
    }
    if (res.error.empty()) {
      std::string io_err;
      if (!report::write_json_file(man.to_json(),
                                   out_path("fleet_manifest.json"), &io_err))
        res.error = io_err;
    }
    json::Value& sum = res.summary;
    sum.set("schema", report::kFuzzSchemaName);
    sum.set("schema_version", report::kFuzzSchemaVersion);
    sum.set("seed", static_cast<double>(opt.seed));
    sum.set("budget_runs", static_cast<double>(opt.budget_runs));
    sum.set("emit_manifest", true);
    sum.set("manifest", "fleet_manifest.json");
    sum.set("emitted", static_cast<double>(man.jobs.size()));
    sum.set("status", res.error.empty() ? "ok" : "error");
    if (!res.error.empty()) sum.set("error", res.error);
    return res;
  }

  OracleOptions oopt;
  oopt.shards = opt.shards;
  oopt.check_marker = opt.inject_marker;

  json::Value divergences{json::Array{}};
  for (std::uint64_t i = 0; i < opt.budget_runs; ++i) {
    scen::Scenario s = generate_scenario(opt.seed, i, opt.limits);
    if (opt.inject_marker) inject_marker_divergence(s);
    const auto div = check_oracles(s, oopt);
    if (!div) {
      if (!opt.quiet)
        std::printf("[raa_fuzz] case %llu/%llu %s: ok\n",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(opt.budget_runs),
                    s.name.c_str());
      continue;
    }
    ++res.divergences;
    if (!opt.quiet)
      std::printf("[raa_fuzz] case %llu/%llu %s: DIVERGENCE oracle=%s (%s) — "
                  "shrinking\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(opt.budget_runs),
                  s.name.c_str(), to_string(div->oracle), div->detail.c_str());

    // Shrink under "same oracle still fails" so the minimization cannot
    // wander onto a different bug than the one it started from.
    ShrinkStats stats;
    const scen::Scenario shrunk = shrink_scenario(
        s,
        [&](const scen::Scenario& cand) {
          const auto d = check_oracles(cand, oopt);
          return d && d->oracle == div->oracle;
        },
        &stats);
    const auto final_div = check_oracles(shrunk, oopt);

    const std::string repro_name =
        "repro_i" + std::to_string(i) + ".json";
    const std::string trace_name = "repro_i" + std::to_string(i) + ".raat";
    std::string io_err;
    if (!report::write_json_file(shrunk.to_json(), out_path(repro_name),
                                 &io_err)) {
      res.error = io_err;
      break;
    }
    const mem::HierarchyMode trace_mode =
        final_div ? final_div->mode : shrunk.hierarchy_modes().front();
    if (!write_repro_trace(shrunk, trace_mode, out_path(trace_name),
                           &io_err)) {
      res.error = io_err;
      break;
    }

    json::Value d;
    d.set("index", static_cast<double>(i));
    d.set("scenario", s.name);
    d.set("oracle", to_string(div->oracle));
    d.set("mode", mem::to_string(div->mode));
    d.set("detail", final_div ? final_div->detail : div->detail);
    json::Value sh;
    sh.set("rounds", stats.rounds);
    sh.set("attempts", stats.attempts);
    sh.set("accepted", stats.accepted);
    sh.set("regions", static_cast<double>(shrunk.regions.size()));
    sh.set("programs", static_cast<double>(shrunk.programs.size()));
    d.set("shrink", std::move(sh));
    d.set("repro", repro_name);
    d.set("trace", trace_name);
    divergences.push_back(std::move(d));
    if (!opt.quiet)
      std::printf("[raa_fuzz]   shrunk to %zu region(s), %zu program(s) -> "
                  "%s\n",
                  shrunk.regions.size(), shrunk.programs.size(),
                  out_path(repro_name).c_str());
  }

  json::Value& sum = res.summary;
  sum.set("schema", report::kFuzzSchemaName);
  sum.set("schema_version", report::kFuzzSchemaVersion);
  sum.set("seed", static_cast<double>(opt.seed));
  sum.set("budget_runs", static_cast<double>(opt.budget_runs));
  sum.set("shards", opt.shards);
  sum.set("inject_marker", opt.inject_marker);
  sum.set("clean", static_cast<double>(opt.budget_runs - res.divergences));
  sum.set("divergence_count", res.divergences);
  sum.set("divergences", std::move(divergences));
  sum.set("status", res.error.empty()
                        ? (res.divergences == 0 ? "ok" : "divergence")
                        : "error");
  if (!res.error.empty()) sum.set("error", res.error);
  return res;
}

}  // namespace raa::fuzz
