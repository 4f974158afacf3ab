// raa_perfbench — the measuring half of the repository benchmark. run.py
// builds it, drives it, checks its output against the stored goldens and
// aggregates the repetitions into the benchmark's metrics.
//
//   raa_perfbench --workload=fig1_nas|chase_banked|replay_traced --seed=N
//                 --seconds=S --trace=0|1 --bench-dir=DIR --work-dir=DIR
//                 [--replay-trace=FILE]
//   raa_perfbench --record-replay --seed=N --bench-dir=DIR --out=FILE
//
// A repetition ("rep") is one set-up (everything before the first
// System::run) followed by the timed window: every System::run of the
// workload, then, for replay_traced, obs::stop + write_chrome_trace, then
// record_metrics + RunReport::write_file. Reps repeat until --seconds of
// measuring have passed. With --trace=1, untraced and traced reps
// alternate; a traced rep wraps every CoreProgram in a timing decorator
// and times each call into a layer from here, so nothing under src/
// changes; chase_banked then adds one traced rep with a sharded front end
// (the exec probe). Every rep prints one "rep {json}" line carrying its host
// timings and the full Metrics of every run; "setup {json}" lines carry
// extra set-up samples and the final "end {json}" line the peak RSS and
// the DRAM-backend probe.
//
// Exit codes: 0 ok (correctness is judged by run.py), 2 bad usage or
// unreadable input.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "fleet/job.hpp"
#include "kernels/nas.hpp"
#include "memsim/backend.hpp"
#include "memsim/system.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "report/report.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

namespace mem = raa::mem;
namespace scen = raa::scen;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user + system CPU seconds, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Figure 1 working-set multiplier (1 = the fig1_hybrid_memory default).
constexpr unsigned kFig1Scale = 1;
/// Front-end lanes of chase_banked's exec probe (3 threads, under a 4-core
/// host). Its timed reps run serially: a sharded run's wall time stalls
/// whenever the host deschedules a lane, and that noise swamps any bound.
constexpr unsigned kProbeShards = 3;
/// Set-up samples per run: reps that measured fewer add set-up-only ones.
constexpr std::size_t kMinSetupSamples = 7;

/// Forwards to the wrapped program and times every fill() call, split by
/// whether it ran on the thread that called System::run. Each core's
/// program is pulled by one lane at a time and the totals are read after
/// run() returned (its pool joined), so plain counters are race-free.
class TimedProgram final : public mem::CoreProgram {
 public:
  TimedProgram(std::unique_ptr<mem::CoreProgram> inner,
               std::thread::id commit_thread)
      : inner_(std::move(inner)), commit_thread_(commit_thread) {}

  bool next(mem::Access& out) override { return fill({&out, 1}) == 1; }

  std::size_t fill(std::span<mem::Access> out) override {
    const auto t0 = Clock::now();
    const std::size_t n = inner_->fill(out);
    const double s = since(t0);
    (std::this_thread::get_id() == commit_thread_ ? on_commit_s : off_commit_s) += s;
    return n;
  }

  double on_commit_s = 0.0;
  double off_commit_s = 0.0;

 private:
  std::unique_ptr<mem::CoreProgram> inner_;
  std::thread::id commit_thread_;
};

/// One System::run of a rep, set up in full before the timed window.
struct Job {
  std::string label;  ///< "<kernel>/<mode>" or "<workload>/<mode>"
  mem::SystemConfig config;
  mem::HierarchyMode mode = mem::HierarchyMode::cache_only;
  mem::RunOptions options;
  mem::Workload workload;
  std::unique_ptr<mem::System> system;
  std::vector<TimedProgram*> timed;  ///< traced reps only
  mem::Metrics metrics;
  bool ok = false;
  std::string error;
};

/// Host seconds of one rep, per layer. Set-up spans are recorded on every
/// rep (they cost a few clock reads); the rest only on traced reps.
struct Spans {
  double setup = 0.0;
  double parse = 0.0;        ///< Scenario::load_file
  double instantiate = 0.0;  ///< Scenario::instantiate
  double trace_read = 0.0;   ///< TraceData::read_file
  double run = 0.0;          ///< System::run, summed over jobs
  double fill_on = 0.0;      ///< CoreProgram::fill on the commit thread
  double fill_off = 0.0;     ///< ... on front-end lanes
  double obs_stop = 0.0;
  double obs_export = 0.0;
  double report_write = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t events_kept = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t trace_bytes = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned shards = 1;  ///< chase_banked's front-end lanes
  std::filesystem::path bench_dir;
  std::filesystem::path work_dir;
  std::string replay_trace;
};

const char* mode_label(mem::HierarchyMode m) {
  return m == mem::HierarchyMode::hybrid ? "hybrid" : "cache_only";
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "raa_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

scen::Scenario load_scenario(const Options& o, const std::string& name,
                             Spans& spans) {
  const auto t0 = Clock::now();
  std::string error;
  auto s = scen::Scenario::load_file(
      (o.bench_dir / "scenarios" / (name + ".json")).string(), &error);
  spans.parse += since(t0);
  if (!s) die(error);
  s->seed = o.seed;
  return std::move(*s);
}

/// fig1_nas: the six NAS kernels on the default 64-tile chip, cache_only
/// then hybrid. The seed permutes the per-core programs over the tiles
/// (program i runs on tile perm[i]); seed 0 is the identity placement.
std::vector<Job> setup_fig1(const Options& o) {
  const mem::SystemConfig cfg;
  std::vector<unsigned> perm(cfg.tiles);
  std::iota(perm.begin(), perm.end(), 0u);
  if (o.seed != 0) {
    raa::Rng rng{o.seed};
    for (std::size_t i = perm.size() - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<Job> jobs;
  for (const auto& kernel : raa::kern::nas_kernels()) {
    for (const auto mode :
         {mem::HierarchyMode::cache_only, mem::HierarchyMode::hybrid}) {
      Job j;
      j.label = kernel.name + "/" + mode_label(mode);
      j.config = cfg;
      j.mode = mode;
      j.workload = kernel.make(cfg, kFig1Scale);
      auto& programs = j.workload.programs;
      std::vector<std::unique_ptr<mem::CoreProgram>> placed(programs.size());
      for (std::size_t i = 0; i < programs.size(); ++i)
        placed[perm[i]] = std::move(programs[i]);
      programs = std::move(placed);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

/// chase_banked: the checked-in scenario with the run's seed.
std::vector<Job> setup_chase(const Options& o, Spans& spans) {
  const scen::Scenario s = load_scenario(o, "chase_banked", spans);
  std::vector<Job> jobs;
  for (const auto mode : s.hierarchy_modes()) {
    Job j;
    j.label = s.name + "/" + mode_label(mode);
    j.config = s.config;
    j.mode = mode;
    j.options.shards = o.shards;
    const auto t0 = Clock::now();
    j.workload = s.instantiate();
    spans.instantiate += since(t0);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// replay_traced: read the trace recorded for this seed and replay it
/// serially inside an obs session (started here, the last set-up step).
std::vector<Job> setup_replay(const Options& o, Spans& spans) {
  const auto t0 = Clock::now();
  std::string error;
  auto data = scen::TraceData::read_file(o.replay_trace, &error);
  spans.trace_read += since(t0);
  if (!data) die(error);
  auto trace = std::make_shared<const scen::TraceData>(std::move(*data));
  Job j;
  j.label = (trace->name.empty() ? std::string{"replay"} : trace->name) +
            "/" + mode_label(trace->mode);
  j.config = trace->config;
  j.mode = trace->mode;
  j.workload = scen::make_replay_workload(trace);
  std::vector<Job> jobs;
  jobs.push_back(std::move(j));
  if (!raa::obs::start()) die("an obs session is already active");
  return jobs;
}

bool uses_obs(const Options& o) { return o.workload == "replay_traced"; }

/// Everything before the first System::run: the workload's own set-up plus
/// one fresh System per job (the modelled caches start empty every run).
std::vector<Job> setup(const Options& o, Spans& spans) {
  const auto t0 = Clock::now();
  std::vector<Job> jobs = o.workload == "fig1_nas"       ? setup_fig1(o)
                          : o.workload == "chase_banked" ? setup_chase(o, spans)
                                                         : setup_replay(o, spans);
  for (Job& j : jobs) j.system = std::make_unique<mem::System>(j.config, j.mode);
  spans.setup = since(t0);
  return jobs;
}

void wrap_programs(Job& j) {
  const auto self = std::this_thread::get_id();
  for (auto& p : j.workload.programs) {
    auto timed = std::make_unique<TimedProgram>(std::move(p), self);
    j.timed.push_back(timed.get());
    p = std::move(timed);
  }
}

/// The timed window: runs, obs drain + export, report. `trace` and `report`
/// are owned by the caller so that freeing them falls outside the window.
void run_window(const Options& o, std::vector<Job>& jobs, bool traced,
                raa::obs::Trace& trace, raa::report::RunReport& report,
                Spans& spans) {
  const auto wall0 = Clock::now();
  const double cpu0 = cpu_seconds();
  for (Job& j : jobs) {
    const auto t0 = Clock::now();
    try {
      j.metrics = j.system->run(j.workload, j.options);
      j.ok = true;
    } catch (const std::exception& e) {
      j.error = e.what();
    }
    if (traced) spans.run += since(t0);
  }
  if (uses_obs(o)) {
    auto t0 = Clock::now();
    trace = raa::obs::stop();
    if (traced) spans.obs_stop = since(t0);
    t0 = Clock::now();
    const auto path = o.work_dir / "obs_trace.json";
    std::string error;
    if (!raa::obs::write_chrome_trace(trace, path.string(),
                                      raa::obs::TraceClock::sim, &error))
      die(error);
    if (traced) spans.obs_export = since(t0);
  }
  const auto t0 = Clock::now();
  auto& b = report.benchmark(o.workload, "perfbench");
  b.set_param("seed", std::to_string(o.seed));
  for (const Job& j : jobs)
    if (j.ok) raa::fleet::record_metrics(b, j.label + "/", j.metrics);
  if (uses_obs(o))
    report.set_obs(raa::obs::Registry::instance().snapshot_json());
  std::string error;
  if (!report.write_file((o.work_dir / "report.json").string(), &error))
    die(error);
  if (traced) spans.report_write = since(t0);
  spans.wall = since(wall0);
  spans.cpu = cpu_seconds() - cpu0;
}

void print_metrics(const mem::Metrics& m) {
  std::printf(
      "{\"cycles\":%.17g,\"noc_flit_hops\":%.17g,\"e_l1\":%.17g,"
      "\"e_l2\":%.17g,\"e_spm\":%.17g,\"e_dram\":%.17g,\"e_noc\":%.17g,"
      "\"e_dir\":%.17g,\"e_static\":%.17g",
      m.cycles, m.noc_flit_hops, m.e_l1, m.e_l2, m.e_spm, m.e_dram, m.e_noc,
      m.e_dir, m.e_static);
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"accesses", m.accesses},
      {"l1_hits", m.l1_hits},
      {"l1_misses", m.l1_misses},
      {"l2_hits", m.l2_hits},
      {"l2_misses", m.l2_misses},
      {"spm_hits", m.spm_hits},
      {"dram_line_reads", m.dram_line_reads},
      {"dram_line_writes", m.dram_line_writes},
      {"dram_row_hits", m.dram_row_hits},
      {"dram_row_misses", m.dram_row_misses},
      {"dram_row_conflicts", m.dram_row_conflicts},
      {"dram_refreshes", m.dram_refreshes},
      {"invalidations", m.invalidations},
      {"writebacks", m.writebacks},
      {"prefetch_fills", m.prefetch_fills},
      {"dma_transfers", m.dma_transfers},
      {"guarded_lookups", m.guarded_lookups},
      {"guarded_to_spm", m.guarded_to_spm},
      {"remote_spm_accesses", m.remote_spm_accesses},
  };
  for (const auto& [name, v] : counts)
    std::printf(",\"%s\":%llu", name, static_cast<unsigned long long>(v));
  std::printf("}");
}

/// JSON string body: the error texts come from RAA_CHECK messages.
std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

void print_rep(const Options& o, bool traced, const Spans& s,
               const std::vector<Job>& jobs) {
  std::printf(
      "rep {\"traced\":%d,\"shards\":%u,\"setup_s\":%.9g,\"wall_s\":%.9g,\"cpu_s\":%.9g,"
      "\"spans\":{\"parse_s\":%.9g,\"instantiate_s\":%.9g,"
      "\"trace_read_s\":%.9g,\"run_s\":%.9g,\"fill_on_s\":%.9g,"
      "\"fill_off_s\":%.9g,\"obs_stop_s\":%.9g,\"obs_export_s\":%.9g,"
      "\"report_write_s\":%.9g,\"events_kept\":%llu,\"events_dropped\":%llu,"
      "\"trace_bytes\":%llu},\"runs\":[",
      traced ? 1 : 0, o.shards, s.setup, s.wall, s.cpu, s.parse, s.instantiate,
      s.trace_read, s.run, s.fill_on, s.fill_off, s.obs_stop, s.obs_export,
      s.report_write, static_cast<unsigned long long>(s.events_kept),
      static_cast<unsigned long long>(s.events_dropped),
      static_cast<unsigned long long>(s.trace_bytes));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    std::printf("%s{\"label\":\"%s\",\"ok\":%s,\"error\":\"%s\",\"metrics\":",
                i == 0 ? "" : ",", j.label.c_str(), j.ok ? "true" : "false",
                escaped(j.error).c_str());
    print_metrics(j.metrics);
    std::printf("}");
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

/// What the DRAM-backend probe needs from a rep.
struct DramLoad {
  mem::SystemConfig config;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// One rep: set-up, the timed window, then teardown outside the window.
DramLoad run_rep(const Options& o, bool traced) {
  Spans spans;
  std::vector<Job> jobs = setup(o, spans);
  if (traced)
    for (Job& j : jobs) wrap_programs(j);
  raa::obs::Trace trace;
  raa::report::RunReport report{1};
  run_window(o, jobs, traced, trace, report, spans);
  if (uses_obs(o)) {
    spans.events_kept = trace.events.size();
    spans.events_dropped = trace.dropped;
    spans.trace_bytes = std::filesystem::file_size(o.work_dir / "obs_trace.json");
  }
  DramLoad load{jobs.front().config};
  for (const Job& j : jobs) {
    for (const TimedProgram* t : j.timed) {
      spans.fill_on += t->on_commit_s;
      spans.fill_off += t->off_commit_s;
    }
    load.reads += j.metrics.dram_line_reads;
    load.writes += j.metrics.dram_line_writes;
  }
  print_rep(o, traced, spans, jobs);
  return load;
}

/// Host ns per DRAM request when make_backend(cfg) is driven directly with
/// `reads` blocking demand reads and `writes` posted writebacks, evenly
/// interleaved, at random line addresses — System::dram_read's loop
/// without the rest of the simulator. Median of three passes.
double backend_ns_per_req(const mem::SystemConfig& cfg, std::uint64_t reads,
                          std::uint64_t writes, std::uint64_t seed) {
  const std::uint64_t total = reads + writes;
  if (total == 0) return 0.0;
  constexpr std::uint64_t kLines = std::uint64_t{1} << 20;  // 64 MiB span
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    raa::Rng rng{seed + static_cast<std::uint64_t>(pass)};
    const auto t0 = Clock::now();
    const auto backend = mem::make_backend(cfg);
    backend->begin_run();
    bool done = false;
    double latency = 0.0;
    backend->set_completion([&](const mem::LineReq& r, double lat) {
      if (r.kind == mem::LineReq::Kind::read && !r.burst) {
        done = true;
        latency = lat;
      }
    });
    double now = 0.0;
    for (std::uint64_t i = 0; i < total; ++i) {
      const std::uint64_t line = rng.below(kLines) * cfg.line_bytes;
      const auto mc = static_cast<unsigned>(rng.below(cfg.mem_controllers));
      if ((i + 1) * writes / total != i * writes / total) {
        backend->enqueue({mem::LineReq::Kind::write, line, mc, now, false});
        continue;
      }
      done = false;
      backend->enqueue({mem::LineReq::Kind::read, line, mc, now, false});
      while (!done) backend->tick();
      now += latency;
    }
    while (!backend->idle()) backend->tick();
    passes.push_back(since(t0) * 1e9 / static_cast<double>(total));
  }
  std::sort(passes.begin(), passes.end());
  return passes[1];
}

/// Record the replay_traced scenario's access streams for one seed.
int record_replay(const Options& o, const std::string& out) {
  Spans unused;
  const scen::Scenario s = load_scenario(o, "replay_traced", unused);
  const auto modes = s.hierarchy_modes();
  if (modes.size() != 1) die("replay_traced must name one hierarchy mode");
  mem::Workload w = s.instantiate();
  scen::TraceData data;
  scen::record_workload(w, s.config, modes[0], data);
  mem::System sys{s.config, modes[0]};
  const mem::Metrics m = sys.run(w);
  std::string error;
  if (!data.write_file(out, &error)) die(error);
  std::printf("recorded %s: %llu accesses\n", out.c_str(),
              static_cast<unsigned long long>(m.accesses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const raa::Cli cli{argc, argv};
  Options o;
  o.workload = cli.get_string("workload", "");
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  o.bench_dir = cli.get_string("bench-dir", "perfbench");
  o.work_dir = cli.get_string("work-dir", ".");
  o.replay_trace = cli.get_string("replay-trace", "");
  if (cli.get_bool("record-replay", false))
    return record_replay(o, cli.get_string("out", "replay.raat"));

  if (o.workload != "fig1_nas" && o.workload != "chase_banked" &&
      o.workload != "replay_traced")
    die("--workload must be fig1_nas, chase_banked or replay_traced");
  if (uses_obs(o) && o.replay_trace.empty())
    die("replay_traced needs --replay-trace=FILE");
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace_mode = cli.get_int("trace", 0) != 0;

  // Untraced runs: reps until the next one would overrun --seconds (at
  // least 3). Traced runs: untraced/traced pairs (at least one) for the
  // tracing overhead, then, on chase_banked, one traced sharded rep (the
  // exec probe), then the DRAM-backend probe.
  const std::size_t min_reps = trace_mode ? 2 : 3;
  std::size_t reps = 0;
  DramLoad dram;
  const auto start = Clock::now();
  while (true) {
    const bool traced = trace_mode && reps % 2 == 1;
    dram = run_rep(o, traced);
    ++reps;
    const double elapsed = since(start);
    const double per_rep = elapsed / static_cast<double>(reps);
    const bool pair_done = !trace_mode || reps % 2 == 0;
    if (reps >= min_reps && pair_done &&
        elapsed + per_rep * (trace_mode ? 2.0 : 1.0) > seconds)
      break;
  }
  for (std::size_t i = reps; i < kMinSetupSamples; ++i) {
    Spans spans;
    { const std::vector<Job> jobs = setup(o, spans); }
    if (uses_obs(o)) raa::obs::stop();
    std::printf("setup {\"setup_s\":%.9g}\n", spans.setup);
  }

  if (trace_mode && o.workload == "chase_banked") {
    Options probe = o;
    probe.shards = kProbeShards;
    run_rep(probe, true);
  }
  const double ns_per_req =
      trace_mode ? backend_ns_per_req(dram.config, dram.reads, dram.writes, o.seed)
                 : 0.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "end {\"peak_rss_kib\":%ld,\"backend_ns_per_req\":%.9g,"
      "\"backend_requests\":%llu}\n",
      ru.ru_maxrss, ns_per_req,
      static_cast<unsigned long long>(dram.reads + dram.writes));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "raa_perfbench: %s\n", e.what());
  return 2;
}
