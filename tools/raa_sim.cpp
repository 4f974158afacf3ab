// raa_sim — the scenario driver: loads a declarative scenario file (or a
// recorded binary trace), runs it through the memory-hierarchy simulator,
// and emits a BENCH_results-schema JSON report.
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
//                under a different random stream)
//   --shards     front-end lanes per System::run (metrics are identical
//                for every N — see docs/ARCHITECTURE.md)
//   --record     write the run's access streams as a self-contained
//                trace file (requires a single concrete mode)
//   --selfcheck  prove the determinism contracts for this input: metrics
//                field-identical for shards=1 vs shards=4, and for an
//                in-memory record -> replay round trip; exit 1 on any
//                mismatch
//
//   --fail-on-marker  test hook for the fuzz suite: exit 1 when the
//                scenario declares a __diverge_marker region (the
//                synthetic divergence the shrinker tests inject), so a
//                shrunken repro can be shown to reproduce end to end
//
// Exit codes (src/common/exit_codes.hpp — shared by every tool): 0 ok,
// 1 simulation/selfcheck/write failure, 2 bad usage or unparseable input,
// 3 degenerate scenario (a region claimed by zero cores — parseable, but
// simulating it silently skews the address-space layout for no workload
// effect).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "fleet/job.hpp"  // record_metrics — shared with the fleet engine
#include "fuzz/genscenario.hpp"  // kMarkerRegionName (header-only use)
#include "memsim/system.hpp"
#include "report/report.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;
using raa::scen::Scenario;
using raa::scen::TraceData;

Metrics run_once(const SystemConfig& cfg, HierarchyMode mode, Workload& w,
                 unsigned shards) {
  System sys{cfg, mode};
  return sys.run(w, raa::mem::RunOptions{.shards = shards});
}

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

/// Verify the shards=1 vs shards=4 and record->replay contracts for one
/// (make_workload, mode) pair. Returns false (with a stderr diagnostic) on
/// any metrics mismatch.
template <typename MakeWorkload>
bool selfcheck_mode(const SystemConfig& cfg, HierarchyMode mode,
                    const MakeWorkload& make, bool check_replay) {
  auto w1 = make();
  TraceData trace;
  if (check_replay) raa::scen::record_workload(w1, cfg, mode, trace);
  const Metrics m1 = run_once(cfg, mode, w1, 1);

  auto w4 = make();
  const Metrics m4 = run_once(cfg, mode, w4, 4);
  if (!(m1 == m4)) {
    std::fprintf(stderr,
                 "selfcheck FAILED (%s): shards=4 metrics differ from "
                 "shards=1\n",
                 raa::mem::to_string(mode));
    return false;
  }
  if (check_replay) {
    auto replay = raa::scen::make_replay_workload(
        std::make_shared<const TraceData>(std::move(trace)));
    const Metrics mr = run_once(cfg, mode, replay, 1);
    if (!(m1 == mr)) {
      std::fprintf(stderr,
                   "selfcheck FAILED (%s): trace replay metrics differ "
                   "from the recorded run\n",
                   raa::mem::to_string(mode));
      return false;
    }
  }
  return true;
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
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = raa::json::Value::parse(ss.str(), &error);
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

  const std::string scenario_path = cli.get_string("scenario", "");
  const std::string replay_path = cli.get_string("replay", "");
  const std::string record_path = cli.get_string("record", "");
  const std::string json_path = cli.get_string("json", "");
  const bool selfcheck = cli.get_bool("selfcheck", false);
  const bool quiet = cli.get_bool("quiet", false);
  const std::string trace_out = cli.get_string("trace-out", "");
  const auto trace_clock =
      raa::obs::parse_trace_clock(cli.get_string("trace-clock", "sim"));
  if (!trace_clock) {
    std::fprintf(stderr,
                 "error: --trace-clock must be sim, host or dual\n");
    return usage(argv[0]);
  }
  const auto shards = static_cast<unsigned>(
      std::max<std::int64_t>(1, cli.get_int("shards", 1)));

  if ((scenario_path.empty()) == (replay_path.empty())) {
    std::fprintf(stderr,
                 "error: give exactly one of --scenario or --replay\n");
    return usage(argv[0]);
  }
  if (!record_path.empty() && !replay_path.empty()) {
    std::fprintf(stderr, "error: --record cannot be combined with "
                         "--replay (the trace already exists)\n");
    return usage(argv[0]);
  }

  // Resolve the input into (name, config, modes, make_workload).
  SystemConfig cfg;
  std::vector<HierarchyMode> modes;
  std::string name;
  std::function<Workload()> make_workload;
  Scenario scenario;                       // scenario path only
  std::shared_ptr<const TraceData> trace;  // replay path only

  if (!replay_path.empty()) {
    std::string error;
    auto t = TraceData::read_file(replay_path, &error);
    if (!t) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitUsage;
    }
    trace = std::make_shared<const TraceData>(std::move(*t));
    cfg = trace->config;
    name = trace->name.empty() ? "replay" : trace->name;
    HierarchyMode mode = trace->mode;
    if (cli.has("mode")) {
      const std::string ms = cli.get_string("mode", "");
      if (ms == "cache_only") mode = HierarchyMode::cache_only;
      else if (ms == "hybrid") mode = HierarchyMode::hybrid;
      else {
        std::fprintf(stderr, "error: --mode for --replay must be "
                             "cache_only or hybrid, got '%s'\n",
                     ms.c_str());
        return raa::kExitUsage;
      }
    }
    modes = {mode};
    make_workload = [&] { return raa::scen::make_replay_workload(trace); };
  } else {
    std::string error;
    auto s = Scenario::load_file(scenario_path, &error);
    if (!s) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitUsage;
    }
    scenario = std::move(*s);
    if (cli.has("seed"))
      scenario.seed = static_cast<std::uint64_t>(
          cli.get_int("seed", static_cast<std::int64_t>(scenario.seed)));
    if (cli.has("mode")) {
      const auto m = raa::scen::scenario_mode_from(cli.get_string("mode", ""));
      if (!m) {
        std::fprintf(stderr, "error: --mode must be cache_only, hybrid or "
                             "compare\n");
        return raa::kExitUsage;
      }
      scenario.mode = *m;
    }
    // A declared region no program references is a degenerate scenario:
    // parse() accepts it (the struct is well-formed) but running it would
    // silently skew the address-space layout for no workload effect.
    // Distinct exit code so scripts can tell it from a parse error.
    if (const auto unref = scenario.first_unreferenced_region()) {
      std::fprintf(stderr,
                   "error: %s: scenario.regions[%zu]: region '%s' is "
                   "declared but referenced by no program (claimed by zero "
                   "cores)\n",
                   scenario_path.c_str(), *unref,
                   scenario.regions[*unref].name.c_str());
      return raa::kExitBadScenario;
    }
    if (cli.get_bool("fail-on-marker", false)) {
      for (const auto& r : scenario.regions)
        if (r.name.rfind(raa::fuzz::kMarkerRegionName, 0) == 0) {
          std::fprintf(stderr,
                       "marker divergence reproduced: region '%s' present "
                       "in %s\n",
                       r.name.c_str(), scenario_path.c_str());
          return raa::kExitFailure;
        }
    }
    cfg = scenario.config;
    name = scenario.name;
    modes = scenario.hierarchy_modes();
    make_workload = [&] { return scenario.instantiate(); };
    if (!record_path.empty() && modes.size() != 1) {
      std::fprintf(stderr,
                   "error: --record needs a single concrete mode; pass "
                   "--mode=cache_only or --mode=hybrid\n");
      return raa::kExitUsage;
    }
  }
  if (cli.has("backend")) {
    const std::string bs = cli.get_string("backend", "");
    if (bs == "flat") {
      cfg.memory.kind = raa::mem::MemBackendKind::flat;
    } else if (bs == "banked") {
      cfg.memory.kind = raa::mem::MemBackendKind::banked;
    } else {
      std::fprintf(stderr,
                   "error: --backend must be flat or banked, got '%s'\n",
                   bs.c_str());
      return raa::kExitUsage;
    }
  }
  if (cli.has("mapping")) {
    const std::string ms = cli.get_string("mapping", "");
    if (ms == "block") {
      cfg.memory.banked.mapping = raa::mem::BankMapping::block;
    } else if (ms == "xor") {
      cfg.memory.banked.mapping = raa::mem::BankMapping::xor_hash;
    } else {
      std::fprintf(stderr,
                   "error: --mapping must be block or xor, got '%s'\n",
                   ms.c_str());
      return raa::kExitUsage;
    }
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
  for (std::size_t i = 0; i < modes.size(); ++i) {
    Workload w = make_workload();
    if (!record_path.empty() && i == 0)
      raa::scen::record_workload(w, cfg, modes[i], recorded);
    results.push_back(run_once(cfg, modes[i], w, shards));
  }
  const double wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  if (!trace_out.empty()) {
    const raa::obs::Trace obs_trace = raa::obs::stop();
    std::string error;
    if (!raa::obs::write_chrome_trace(obs_trace, trace_out, *trace_clock,
                                      &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitFailure;
    }
    if (!quiet)
      std::printf(
          "wrote trace %s (%zu events, %llu dropped, clock=%s)\n",
          trace_out.c_str(), obs_trace.events.size(),
          static_cast<unsigned long long>(obs_trace.dropped),
          raa::obs::trace_clock_str(*trace_clock));
  }

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
    if (replay_path.empty())
      std::printf("scenario %s: tiles=%u seed=%llu shards=%u\n",
                  name.c_str(), cfg.tiles,
                  static_cast<unsigned long long>(scenario.seed), shards);
    else
      std::printf("replaying %s (%s): tiles=%u shards=%u\n",
                  replay_path.c_str(), name.c_str(), cfg.tiles, shards);
    raa::Table t{{"mode", "cycles", "energy pJ", "noc flit-hops",
                  "accesses"}};
    for (std::size_t i = 0; i < modes.size(); ++i)
      t.row(raa::mem::to_string(modes[i]), results[i].cycles,
            results[i].energy_pj(), results[i].noc_flit_hops,
            static_cast<unsigned long>(results[i].accesses));
    t.print(std::cout);
    if (modes.size() == 2) {
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
    bool ok = true;
    for (const HierarchyMode mode : modes)
      ok = selfcheck_mode(cfg, mode, make_workload,
                          /*check_replay=*/replay_path.empty()) &&
           ok;
    if (!ok) return raa::kExitFailure;
    std::printf("selfcheck OK: shards=1 == shards=4%s for %zu mode%s\n",
                replay_path.empty() ? " == trace replay" : "", modes.size(),
                modes.size() == 1 ? "" : "s");
  }

  // --- machine-readable report -------------------------------------------
  if (!json_path.empty()) {
    raa::report::RunReport run{1};
    run.set_wall_seconds(wall);
    auto& b = run.benchmark(name, "scenario");
    b.set_param("tiles", std::to_string(cfg.tiles));
    b.set_param("shards", std::to_string(shards));
    b.set_param("backend", raa::mem::to_string(cfg.memory.kind));
    if (cfg.memory.kind == raa::mem::MemBackendKind::banked)
      b.set_param("mapping", raa::mem::to_string(cfg.memory.banked.mapping));
    if (replay_path.empty()) {
      b.set_param("scenario", scenario_path);
      b.set_param("mode", raa::scen::to_string(scenario.mode));
      b.set_param("seed", std::to_string(scenario.seed));
    } else {
      b.set_param("trace", replay_path);
      b.set_param("mode", raa::mem::to_string(modes[0]));
    }
    for (std::size_t i = 0; i < modes.size(); ++i)
      raa::fleet::record_metrics(
          b, std::string{raa::mem::to_string(modes[i])} + "/", results[i]);
    if (modes.size() == 2) {
      b.record("time_x", results[0].cycles / results[1].cycles, "x");
      b.record("energy_x", results[0].energy_pj() / results[1].energy_pj(),
               "x");
      b.record("noc_x",
               results[0].noc_flit_hops / results[1].noc_flit_hops, "x");
    }
    b.record_info("wall_seconds", wall, "s");
    // Quarantined "obs" section: only attached when a tracing session
    // ran, so untraced reports keep their exact pre-obs bytes.
    if (!trace_out.empty())
      run.set_obs(raa::obs::Registry::instance().snapshot_json());
    if (!write_and_validate_json(run, json_path))
      return raa::kExitFailure;
  }
  return raa::kExitOk;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return raa::kExitFailure;
}
