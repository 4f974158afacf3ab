// raa_sim — the scenario driver: loads a declarative scenario file (or a
// recorded binary trace), runs it through the memory-hierarchy simulator,
// and emits a BENCH_results-schema JSON report. It is a thin command line
// over the fleet job path (src/fleet/job.hpp): fleet::load_input resolves
// the input and the --mode/--backend/--seed overrides exactly as a fleet
// job does, fleet::record_result writes the report's result block, and
// --selfcheck runs the fuzzer's determinism pairs (fuzz::check_pairs).
//
//   raa_sim --scenario=FILE [--mode=M] [--seed=N] [--shards=N]
//           [--record=TRACE] [--json=PATH] [--selfcheck] [--quiet]
//   raa_sim --replay=TRACE  [--mode=M] [--shards=N] [--json=PATH]
//           [--selfcheck] [--quiet]
//
//   --mode       cache_only | hybrid | compare (compare runs both and
//                reports the hybrid speedups; replay defaults to the
//                trace's recorded mode and cannot use compare)
//   --backend    flat | banked — override the DRAM timing backend the
//                scenario (or trace) selected; banked parameters still
//                come from the scenario's "memory" object / the trace
//   --mapping    block | xor — override the banked backend's bank-hash
//                address mapping (scenario key memory.banked.mapping)
//   --seed       override the scenario's seed (deterministic re-runs
//                under a different random stream); a non-negative integer
//   --shards     front-end lanes per System::run, an integer >= 1
//                (metrics are identical for every N — see
//                docs/ARCHITECTURE.md)
//   --record     write the run's access streams as a self-contained
//                trace file (requires a single concrete mode)
//   --selfcheck  prove the determinism contracts for this input: metrics
//                field-identical for shards=1 vs shards=4, and for an
//                in-memory record -> replay round trip; exit 1 on any
//                mismatch, naming the first field that differs
//
//   --fail-on-marker  test hook for the fuzz suite: exit 1 when the
//                scenario declares a __diverge_marker region (the
//                synthetic divergence the shrinker tests inject), so a
//                shrunken repro can be shown to reproduce end to end
//
// Exit codes (src/common/exit_codes.hpp — shared by every tool): 0 ok,
// 1 simulation/selfcheck/write failure, 2 bad usage, a malformed flag
// value or an unparseable input (including more than 64 tiles), 3
// degenerate scenario (a region claimed by zero cores — parseable, but
// simulating it silently skews the address-space layout for no workload
// effect).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "fleet/job.hpp"
#include "fuzz/oracles.hpp"
#include "memsim/system.hpp"
#include "report/report.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::System;
using raa::mem::Workload;
using raa::scen::TraceData;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario=FILE [--mode=cache_only|hybrid|compare] "
      "[--backend=flat|banked] [--mapping=block|xor] [--seed=N] "
      "[--shards=N] [--record=TRACE] "
      "[--json=PATH] [--trace-out=PATH] [--trace-clock=sim|host|dual] "
      "[--selfcheck] [--fail-on-marker] [--quiet]\n"
      "       %s --replay=TRACE [--mode=cache_only|hybrid] "
      "[--backend=flat|banked] [--mapping=block|xor] [--shards=N] "
      "[--json=PATH] [--trace-out=PATH] [--trace-clock=sim|host|dual] "
      "[--selfcheck] "
      "[--quiet]\n",
      argv0, argv0);
  return raa::kExitUsage;
}

/// Write the report, then read it back and re-parse as a schema sanity
/// check (the scenario-smoke CI tests rely on the emitted file being
/// machine-readable).
bool write_and_validate_json(const raa::report::RunReport& run,
                             const std::string& path) {
  std::string error;
  if (!run.write_file(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  const auto doc = raa::json::Value::parse_file(path, &error);
  if (!doc) {
    std::fprintf(stderr, "error: emitted JSON does not re-parse: %s\n",
                 error.c_str());
    return false;
  }
  const auto* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != raa::report::kSchemaName) {
    std::fprintf(stderr, "error: emitted JSON lacks the \"%s\" schema "
                         "marker\n",
                 raa::report::kSchemaName);
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const raa::Cli cli{argc, argv};
  if (cli.get_bool("help", false)) {
    usage(argv[0]);
    return raa::kExitOk;
  }

  raa::fleet::JobSpec job;
  job.scenario = cli.get_string("scenario", "");
  job.trace = cli.get_string("replay", "");
  const std::string record_path = cli.get_string("record", "");
  const std::string json_path = cli.get_string("json", "");
  const bool selfcheck = cli.get_bool("selfcheck", false);
  const bool quiet = cli.get_bool("quiet", false);
  const std::string trace_out = cli.get_string("trace-out", "");

  // Flags are typed and parsed once, here: a malformed value is a usage
  // error, never a silent fallback to the input's own setting.
  raa::fleet::JobSettings settings;
  std::optional<raa::mem::BankMapping> mapping;
  std::optional<raa::obs::TraceClock> trace_clock = raa::obs::TraceClock::sim;
  if (!cli.get_enum("trace-clock", trace_clock) ||
      !cli.get_enum("mode", settings.mode) ||
      !cli.get_enum("backend", settings.backend) ||
      !cli.get_enum("mapping", mapping) ||
      !cli.get_uint<std::uint64_t>("seed", 0, settings.seed) ||
      !cli.get_uint("shards", 1u, settings.shards))
    return usage(argv[0]);

  if (job.scenario.empty() == job.trace.empty()) {
    std::fprintf(stderr,
                 "error: give exactly one of --scenario or --replay\n");
    return usage(argv[0]);
  }
  if (!record_path.empty() && !job.trace.empty()) {
    std::fprintf(stderr, "error: --record cannot be combined with "
                         "--replay (the trace already exists)\n");
    return usage(argv[0]);
  }

  raa::fleet::Input in = raa::fleet::load_input(job, settings);
  if (mapping) in.config.memory.banked.mapping = *mapping;
  if (cli.get_bool("fail-on-marker", false))
    if (const auto* r = raa::fuzz::find_marker_region(in.scenario)) {
      std::fprintf(stderr,
                   "marker divergence reproduced: region '%s' present in "
                   "%s\n",
                   r->name.c_str(), job.scenario.c_str());
      return raa::kExitFailure;
    }
  if (!record_path.empty() && in.modes.size() != 1) {
    std::fprintf(stderr,
                 "error: --record needs a single concrete mode; pass "
                 "--mode=cache_only or --mode=hybrid\n");
    return raa::kExitUsage;
  }

  // --- main run(s) --------------------------------------------------------
  // The tracing session brackets exactly the main runs (not the
  // selfcheck re-runs), so a sim-clock trace is a function of the
  // scenario alone — byte-identical for any --shards (TraceDeterminism).
  if (!trace_out.empty()) raa::obs::start();
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::vector<Metrics> results;
  TraceData recorded;
  for (std::size_t i = 0; i < in.modes.size(); ++i) {
    Workload w = in.make_workload();
    if (!record_path.empty() && i == 0)
      raa::scen::record_workload(w, in.config, in.modes[i], recorded);
    System sys{in.config, in.modes[i]};
    results.push_back(
        sys.run(w, raa::mem::RunOptions{.shards = settings.shards}));
  }
  const double wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  if (!trace_out.empty() &&
      !raa::obs::stop_and_export(trace_out, *trace_clock, "raa_sim", quiet))
    return raa::kExitFailure;

  if (!record_path.empty()) {
    std::string error;
    if (!recorded.write_file(record_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitFailure;
    }
    std::printf("recorded %s (%zu cores, %llu accesses)\n",
                record_path.c_str(), recorded.cores.size(),
                static_cast<unsigned long long>(results[0].accesses));
  }

  // --- summary ------------------------------------------------------------
  if (!quiet) {
    if (job.trace.empty())
      std::printf("scenario %s: tiles=%u seed=%llu shards=%u\n",
                  in.name.c_str(), in.config.tiles,
                  static_cast<unsigned long long>(in.scenario.seed),
                  settings.shards);
    else
      std::printf("replaying %s (%s): tiles=%u shards=%u\n",
                  job.trace.c_str(), in.name.c_str(), in.config.tiles,
                  settings.shards);
    raa::Table t{{"mode", "cycles", "energy pJ", "noc flit-hops",
                  "accesses"}};
    for (std::size_t i = 0; i < in.modes.size(); ++i)
      t.row(raa::mem::to_string(in.modes[i]), results[i].cycles,
            results[i].energy_pj(), results[i].noc_flit_hops,
            static_cast<unsigned long>(results[i].accesses));
    t.print(std::cout);
    if (in.modes.size() == 2) {
      const Metrics& base = results[0];
      const Metrics& hyb = results[1];
      std::printf("hybrid speedups: time %.3fx, energy %.3fx, NoC %.3fx\n",
                  base.cycles / hyb.cycles,
                  base.energy_pj() / hyb.energy_pj(),
                  base.noc_flit_hops / hyb.noc_flit_hops);
    }
  }

  // --- selfcheck ----------------------------------------------------------
  if (selfcheck) {
    const auto make = [&in] { return in.make_workload(); };
    for (const HierarchyMode mode : in.modes)
      if (const auto d = raa::fuzz::check_pairs(in.config, mode, make, 4)) {
        std::fprintf(stderr, "selfcheck FAILED (%s): %s pair differs: %s\n",
                     raa::mem::to_string(mode),
                     raa::fuzz::to_string(d->oracle), d->detail.c_str());
        return raa::kExitFailure;
      }
    std::printf("selfcheck OK: shards=1 == shards=4 == trace replay for "
                "%zu mode%s\n",
                in.modes.size(), in.modes.size() == 1 ? "" : "s");
  }

  // --- machine-readable report -------------------------------------------
  if (!json_path.empty()) {
    raa::report::RunReport run{1};
    run.set_wall_seconds(wall);
    auto& b = run.benchmark(in.name, "scenario");
    raa::fleet::record_result(b, in, settings.shards, results);
    b.record_info("wall_seconds", wall, "s");
    // Quarantined "obs" section: only attached when a tracing session
    // ran, so untraced reports keep their exact pre-obs bytes.
    if (!trace_out.empty())
      run.set_obs(raa::obs::Registry::instance().snapshot_json());
    if (!write_and_validate_json(run, json_path))
      return raa::kExitFailure;
  }
  return raa::kExitOk;
} catch (const raa::fleet::JobError& e) {
  // load_input's failures: the one place their kinds become exit codes.
  std::fprintf(stderr, "error: %s\n", e.what());
  return e.kind() == raa::fleet::ErrorKind::degenerate ? raa::kExitBadScenario
                                                      : raa::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return raa::kExitFailure;
}
