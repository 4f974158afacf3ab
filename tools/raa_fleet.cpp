// raa_fleet — the fault-isolated batch driver: run every job of a fleet
// manifest (or every scenario in a directory) through the memory-hierarchy
// simulator, stream one result JSON per job, and merge everything into a
// machine-readable index. Individual job failures never kill the fleet:
// they are classified (src/fleet/job.hpp), optionally retried, and
// reported — graceful degradation by construction.
//
//   raa_fleet --manifest=FILE [options]
//   raa_fleet --scenarios=DIR [options]
//
//   --out=DIR        output directory: per-job <id>.json plus index.json
//                    (default fleet_out)
//   --jobs=N         concurrent job lanes, at least 1 (default 1; capped
//                    at the job count; results are byte-identical for
//                    every N)
//   --mode=M         fallback mode for jobs that set none
//                    (cache_only | hybrid | compare)
//   --backend=B      fallback DRAM backend (flat | banked)
//   --shards=N       fallback front-end lanes per System::run
//   --timeout-ms=N   fallback per-job deadline (0 = none); timed-out jobs
//                    are cancelled cooperatively and their lane reclaimed
//   --retries=N      fallback retry budget for transient failures
//   --backoff-ms=N   first retry delay (default 50), doubling per attempt
//   --backoff-cap-ms=N  backoff ceiling (default 2000)
//   --seed=N         fleet seed override (per-job seeds derive from it and
//                    the job id — stable under manifest reordering)
//   --fail-fast      record still-unstarted jobs as skipped once any job
//                    has failed
//   --trace-out=PATH write a Chrome trace-event JSON of the fleet run
//                    (host clock: job spans, retries, timeouts)
//
//   --inject-fail=GLOB / --inject-flaky=GLOB / --inject-hang=GLOB
//                    fault-injection test hooks over job ids: permanent
//                    failure, transient first-attempt failure (drives the
//                    retry path), cooperative hang (drives the watchdog
//                    timeout path; matching jobs need a deadline)
//
// Exit codes (src/common/exit_codes.hpp): 0 every job ok, 4 partial fleet
// (some jobs ok, some not — the degradation signal), 1 no job succeeded or
// the fleet itself failed, 2 bad usage/manifest.

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --manifest=FILE | --scenarios=DIR [--out=DIR] [--jobs=N]\n"
      "       [--mode=cache_only|hybrid|compare] [--backend=flat|banked]\n"
      "       [--shards=N] [--timeout-ms=N] [--retries=N] [--backoff-ms=N]\n"
      "       [--backoff-cap-ms=N] [--seed=N] [--fail-fast] [--quiet]\n"
      "       [--trace-out=PATH]\n"
      "       [--inject-fail=GLOB] [--inject-flaky=GLOB] "
      "[--inject-hang=GLOB]\n",
      argv0);
  return raa::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const raa::Cli cli{argc, argv};
  using raa::fleet::FleetOptions;
  using raa::fleet::Manifest;

  const std::string manifest_path = cli.get_string("manifest", "");
  const std::string scenarios_dir = cli.get_string("scenarios", "");
  if (manifest_path.empty() == scenarios_dir.empty()) {
    std::fprintf(stderr,
                 "raa_fleet: give exactly one of --manifest or --scenarios\n");
    return usage(argv[0]);
  }

  std::string error;
  std::optional<Manifest> man =
      !manifest_path.empty() ? Manifest::load_file(manifest_path, &error)
                             : Manifest::from_directory(scenarios_dir, &error);
  if (!man) {
    std::fprintf(stderr, "raa_fleet: %s\n", error.c_str());
    return raa::kExitUsage;
  }
  std::optional<std::uint64_t> seed;
  if (!cli.get_uint<std::uint64_t>("seed", 0, seed)) return usage(argv[0]);
  if (seed) man->seed = *seed;

  FleetOptions opt;
  opt.manifest = std::move(*man);
  opt.out_dir = cli.get_string("out", "fleet_out");
  // The fallbacks follow the manifest's own rules for these keys: a bad
  // name or number is a usage error before any job runs.
  if (!cli.get_uint("jobs", 1u, opt.jobs) ||
      !cli.get_uint<std::uint64_t>("backoff-ms", 0, opt.backoff_base_ms) ||
      !cli.get_uint<std::uint64_t>("backoff-cap-ms", 0, opt.backoff_cap_ms) ||
      !cli.get_enum("mode", opt.fallback.mode) ||
      !cli.get_enum("backend", opt.fallback.backend) ||
      !cli.get_uint("shards", 1u, opt.fallback.shards) ||
      !cli.get_uint<std::uint64_t>("timeout-ms", 0, opt.fallback.timeout_ms) ||
      !cli.get_uint("retries", 0u, opt.fallback.retries))
    return usage(argv[0]);
  opt.inject_fail = cli.get_string("inject-fail", "");
  opt.inject_flaky = cli.get_string("inject-flaky", "");
  opt.inject_hang = cli.get_string("inject-hang", "");
  opt.fail_fast = cli.get_bool("fail-fast", false);
  opt.quiet = cli.get_bool("quiet", false);

  // Fleet spans live on the host clock (job wall time is the point), so
  // the exported trace always uses TraceClock::host.
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty()) raa::obs::start();

  const raa::fleet::FleetResult res = raa::fleet::run_fleet(opt);

  if (!trace_out.empty() &&
      !raa::obs::stop_and_export(trace_out, raa::obs::TraceClock::host,
                                 "raa_fleet", opt.quiet))
    return raa::kExitFailure;
  if (!res.error.empty())
    std::fprintf(stderr, "raa_fleet: %s\n", res.error.c_str());
  if (res.records.empty()) return res.exit_code;

  if (!opt.quiet) {
    raa::Table t{{"job", "status", "attempts", "seed", "detail"}};
    for (const auto& r : res.records)
      t.row(r.id, raa::fleet::to_string(r.status),
            std::to_string(r.attempts), std::to_string(r.seed),
            r.message.empty() ? r.result_file : r.message);
    t.print(std::cout);
    std::printf(
        "[raa_fleet] %zu jobs: %u ok, %u retried_ok, %u failed, %u timeout, "
        "%u skipped -> %s (exit %d)\n",
        res.records.size(), res.ok, res.retried_ok, res.failed, res.timeout,
        res.skipped,
        raa::to_string(static_cast<raa::ExitCode>(res.exit_code)),
        res.exit_code);
  }
  return res.exit_code;
}
