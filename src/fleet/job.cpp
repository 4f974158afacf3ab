#include "fleet/job.hpp"

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "memsim/system.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace raa::fleet {

namespace {

/// CoreProgram wrapper that observes the watchdog's cancel flag at every
/// batch boundary. fill() runs on shard-producer threads when the job is
/// sharded; the sharded engine rethrows a producer's original exception
/// with priority, so the JobError reaches run_job_attempt intact for any
/// shard count.
class CancellableProgram final : public mem::CoreProgram {
 public:
  CancellableProgram(std::unique_ptr<mem::CoreProgram> inner,
                     const std::atomic<bool>* cancel)
      : inner_(std::move(inner)), cancel_(cancel) {}

  bool next(mem::Access& out) override {
    check();
    return inner_->next(out);
  }

  std::size_t fill(std::span<mem::Access> out) override {
    check();
    return inner_->fill(out);
  }

 private:
  void check() const {
    if (cancel_->load(std::memory_order_relaxed))
      throw JobError(ErrorKind::cancelled,
                     "per-job deadline exceeded (run cancelled at an "
                     "access-stream batch boundary)");
  }

  std::unique_ptr<mem::CoreProgram> inner_;
  const std::atomic<bool>* cancel_;
};

void wrap_cancellable(mem::Workload& w, const std::atomic<bool>& cancel) {
  for (auto& program : w.programs)
    program = std::make_unique<CancellableProgram>(std::move(program),
                                                   &cancel);
}

}  // namespace

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::none: return "none";
    case ErrorKind::parse: return "parse";
    case ErrorKind::degenerate: return "degenerate";
    case ErrorKind::check: return "check";
    case ErrorKind::io: return "io";
    case ErrorKind::cancelled: return "cancelled";
    case ErrorKind::injected: return "injected";
    case ErrorKind::internal: return "internal";
  }
  return "unknown";
}

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::ok: return "ok";
    case JobStatus::retried_ok: return "retried_ok";
    case JobStatus::failed: return "failed";
    case JobStatus::timeout: return "timeout";
    case JobStatus::skipped: return "skipped";
  }
  return "unknown";
}

void record_metrics(report::BenchReport& b, const std::string& prefix,
                    const mem::Metrics& m) {
  b.record(prefix + "cycles", m.cycles, "cycles");
  b.record(prefix + "energy_pj", m.energy_pj(), "pJ");
  b.record(prefix + "noc_flit_hops", m.noc_flit_hops, "flit-hops");
  // The counters, in declaration order.
  mem::for_each_metric_field(
      [&]<class T>(const char* name, T mem::Metrics::*field) {
        if constexpr (std::is_same_v<T, std::uint64_t>)
          b.record(prefix + name, static_cast<double>(m.*field), "count");
      });
}

namespace {

/// The throwing core of run_job_attempt; the public wrapper translates
/// every escape into a classified outcome.
JobOutcome run_attempt_impl(const JobSpec& job, const JobSettings& settings,
                            const std::atomic<bool>& cancel) {
  mem::SystemConfig cfg;
  std::vector<mem::HierarchyMode> modes;
  std::function<mem::Workload()> make_workload;
  scen::Scenario scenario;                       // scenario jobs
  std::shared_ptr<const scen::TraceData> trace;  // trace jobs

  if (!job.trace.empty()) {
    std::string error;
    auto t = scen::TraceData::read_file(job.trace, &error);
    if (!t) throw JobError(ErrorKind::parse, error);
    trace = std::make_shared<const scen::TraceData>(std::move(*t));
    cfg = trace->config;
    mem::HierarchyMode mode = trace->mode;
    if (settings.mode == "cache_only") mode = mem::HierarchyMode::cache_only;
    else if (settings.mode == "hybrid") mode = mem::HierarchyMode::hybrid;
    else if (!settings.mode.empty())
      throw JobError(ErrorKind::parse,
                     "trace jobs accept mode cache_only or hybrid, got '" +
                         settings.mode + "'");
    modes = {mode};
    make_workload = [&] { return scen::make_replay_workload(trace); };
  } else {
    std::string error;
    auto s = scen::Scenario::load_file(job.scenario, &error);
    if (!s) throw JobError(ErrorKind::parse, error);
    scenario = std::move(*s);
    scenario.seed = settings.seed;
    if (!settings.mode.empty()) {
      const auto m = scen::scenario_mode_from(settings.mode);
      if (!m)
        throw JobError(ErrorKind::parse,
                       "unknown mode override '" + settings.mode + "'");
      scenario.mode = *m;
    }
    if (const auto unref = scenario.first_unreferenced_region())
      throw JobError(ErrorKind::degenerate,
                     job.scenario + ": scenario.regions[" +
                         std::to_string(*unref) + "]: region '" +
                         scenario.regions[*unref].name +
                         "' is declared but referenced by no program");
    cfg = scenario.config;
    modes = scenario.hierarchy_modes();
    make_workload = [&] { return scenario.instantiate(); };
  }
  if (settings.backend == "flat") {
    cfg.memory.kind = mem::MemBackendKind::flat;
  } else if (settings.backend == "banked") {
    cfg.memory.kind = mem::MemBackendKind::banked;
  } else if (!settings.backend.empty()) {
    throw JobError(ErrorKind::parse,
                   "unknown backend override '" + settings.backend + "'");
  }

  JobOutcome out;
  std::vector<mem::Metrics> results;
  for (const mem::HierarchyMode mode : modes) {
    mem::Workload w = make_workload();
    wrap_cancellable(w, cancel);
    mem::System sys{cfg, mode};
    results.push_back(
        sys.run(w, mem::RunOptions{.shards = settings.shards}));
    out.sim_accesses += results.back().accesses;
  }

  // The result document is deliberately wall-clock-free: byte-identical
  // for any lane count and completion order (the FleetEquivalence
  // contract). Fleet-level throughput lives in the index's informational
  // block instead.
  report::RunReport run{1};
  auto& b = run.benchmark(job.id, "fleet-job");
  b.set_param("tiles", std::to_string(cfg.tiles));
  b.set_param("shards", std::to_string(settings.shards));
  b.set_param("backend", mem::to_string(cfg.memory.kind));
  if (!job.trace.empty()) {
    b.set_param("trace", job.trace);
    b.set_param("mode", mem::to_string(modes[0]));
  } else {
    b.set_param("scenario", job.scenario);
    b.set_param("mode", scen::to_string(scenario.mode));
    b.set_param("seed", std::to_string(scenario.seed));
  }
  for (std::size_t i = 0; i < modes.size(); ++i)
    record_metrics(b, std::string{mem::to_string(modes[i])} + "/",
                   results[i]);
  if (modes.size() == 2) {
    b.record("time_x", results[0].cycles / results[1].cycles, "x");
    b.record("energy_x", results[0].energy_pj() / results[1].energy_pj(),
             "x");
    b.record("noc_x", results[0].noc_flit_hops / results[1].noc_flit_hops,
             "x");
  }
  out.result = run.to_json();
  return out;
}

}  // namespace

JobOutcome run_job_attempt(const JobSpec& job, const JobSettings& settings,
                           const std::atomic<bool>& cancel) {
  try {
    return run_attempt_impl(job, settings, cancel);
  } catch (const JobError& e) {
    JobOutcome out;
    out.error = e.kind();
    out.message = e.what();
    return out;
  } catch (const CheckError& e) {
    // A broken simulator invariant: the run's numbers would be garbage,
    // so the job fails permanently — but the process (and every other
    // job) survives. This is the isolation the taxonomy exists for.
    JobOutcome out;
    out.error = ErrorKind::check;
    out.message = e.what();
    return out;
  } catch (const std::exception& e) {
    JobOutcome out;
    out.error = ErrorKind::internal;
    out.message = e.what();
    return out;
  }
}

}  // namespace raa::fleet
