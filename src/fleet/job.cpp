#include "fleet/job.hpp"

#include <type_traits>

#include "common/check.hpp"
#include "memsim/system.hpp"

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

mem::Workload Input::make_workload() const {
  return trace ? scen::make_replay_workload(trace) : scenario.instantiate();
}

Input load_input(const JobSpec& job, const JobSettings& settings) {
  Input in;
  std::string error;
  if (!job.trace.empty()) {
    auto t = scen::TraceData::read_file(job.trace, &error);
    if (!t) throw JobError(ErrorKind::parse, error);
    in.trace = std::make_shared<const scen::TraceData>(std::move(*t));
    in.config = in.trace->config;
    in.name = in.trace->name.empty() ? "replay" : in.trace->name;
    mem::HierarchyMode mode = in.trace->mode;
    if (settings.mode) {
      const char* name = scen::to_string(*settings.mode);
      const auto m = from_string<mem::HierarchyMode>(name);
      if (!m)
        throw JobError(ErrorKind::parse,
                       unknown_name_error<mem::HierarchyMode>("trace mode",
                                                              name));
      mode = *m;
    }
    in.modes = {mode};
    in.params = {{"trace", job.trace}, {"mode", mem::to_string(mode)}};
  } else {
    auto s = scen::Scenario::load_file(job.scenario, &error);
    if (!s) throw JobError(ErrorKind::parse, error);
    in.scenario = std::move(*s);
    scen::Scenario& sc = in.scenario;
    if (settings.seed) sc.seed = *settings.seed;
    if (settings.mode) sc.mode = *settings.mode;
    if (const auto unref = sc.first_unreferenced_region())
      throw JobError(ErrorKind::degenerate,
                     job.scenario + ": scenario.regions[" +
                         std::to_string(*unref) + "]: region '" +
                         sc.regions[*unref].name +
                         "' is declared but referenced by no program");
    in.config = sc.config;
    in.name = sc.name;
    in.modes = sc.hierarchy_modes();
    in.params = {{"scenario", job.scenario},
                 {"mode", scen::to_string(sc.mode)},
                 {"seed", std::to_string(sc.seed)}};
  }
  if (settings.backend) in.config.memory.kind = *settings.backend;
  return in;
}

void record_result(report::BenchReport& b, const Input& input,
                   unsigned shards, std::span<const mem::Metrics> results) {
  const mem::MemoryConfig& memory = input.config.memory;
  b.set_param("tiles", std::to_string(input.config.tiles));
  b.set_param("shards", std::to_string(shards));
  b.set_param("backend", mem::to_string(memory.kind));
  if (memory.kind == mem::MemBackendKind::banked)
    b.set_param("mapping", mem::to_string(memory.banked.mapping));
  for (const auto& [key, value] : input.params) b.set_param(key, value);
  for (std::size_t i = 0; i < input.modes.size(); ++i)
    record_metrics(b, std::string{mem::to_string(input.modes[i])} + "/",
                   results[i]);
  if (input.modes.size() == 2) {
    b.record("time_x", results[0].cycles / results[1].cycles, "x");
    b.record("energy_x", results[0].energy_pj() / results[1].energy_pj(),
             "x");
    b.record("noc_x", results[0].noc_flit_hops / results[1].noc_flit_hops,
             "x");
  }
}

namespace {

/// The throwing core of run_job_attempt; the public wrapper translates
/// every escape into a classified outcome.
JobOutcome run_attempt_impl(const JobSpec& job, const JobSettings& settings,
                            const std::atomic<bool>& cancel) {
  const Input in = load_input(job, settings);
  JobOutcome out;
  std::vector<mem::Metrics> results;
  for (const mem::HierarchyMode mode : in.modes) {
    mem::Workload w = in.make_workload();
    wrap_cancellable(w, cancel);
    mem::System sys{in.config, mode};
    results.push_back(
        sys.run(w, mem::RunOptions{.shards = settings.shards}));
    out.sim_accesses += results.back().accesses;
  }

  // The result document is deliberately wall-clock-free: byte-identical
  // for any lane count and completion order (the FleetEquivalence
  // contract). Fleet-level throughput lives in the index's informational
  // block instead.
  report::RunReport run{1};
  record_result(run.benchmark(job.id, "fleet-job"), in, settings.shards,
                results);
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
