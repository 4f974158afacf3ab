#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/exit_codes.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"
#include "report/report.hpp"

namespace raa::fleet {

namespace {

using clock_type = std::chrono::steady_clock;

/// One in-flight attempt, shared between the pool task and the
/// coordinator. `start` is published through the `started` flag
/// (release/acquire) so the watchdog reads a valid timestamp.
struct Attempt {
  std::size_t job = 0;
  unsigned attempt_no = 1;
  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};
  clock_type::time_point start{};
  JobOutcome outcome;
};

}  // namespace

FleetResult run_fleet(const FleetOptions& opt) {
  FleetResult res;
  const Manifest& man = opt.manifest;
  const std::size_t n = man.jobs.size();
  if (n == 0) {
    res.error = "fleet manifest has no jobs";
    res.exit_code = kExitUsage;
    return res;
  }

  // Resolve the effective settings of every job up front: job entry >
  // manifest defaults > driver fallback.
  std::vector<JobSettings> settings(n);
  for (std::size_t i = 0; i < n; ++i) {
    const JobSpec& job = man.jobs[i];
    const JobLimits eff =
        job.limits.or_else(man.defaults).or_else(opt.fallback);
    settings[i].mode = eff.mode;
    settings[i].backend = eff.backend;
    settings[i].shards = std::max(1u, eff.shards.value_or(1));
    settings[i].timeout_ms = eff.timeout_ms.value_or(0);
    settings[i].retries = eff.retries.value_or(0);
    settings[i].seed =
        job.seed ? *job.seed : derive_job_seed(man.seed, job.id);
    if (!opt.inject_hang.empty() && glob_match(opt.inject_hang, job.id) &&
        settings[i].timeout_ms == 0) {
      res.error = "job '" + job.id +
                  "' matches --inject-hang but has no timeout_ms — an "
                  "undeadlined hang would stall the fleet forever";
      res.exit_code = kExitUsage;
      return res;
    }
  }

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      res.error =
          opt.out_dir + ": cannot create output directory (" + ec.message() +
          ")";
      res.exit_code = kExitFailure;
      return res;
    }
  }

  res.records.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.records[i].id = man.jobs[i].id;
    res.records[i].input = man.jobs[i].trace.empty() ? man.jobs[i].scenario
                                                     : man.jobs[i].trace;
    res.records[i].seed = *settings[i].seed;
  }

  // More lanes than jobs would only start idle workers.
  const auto lanes = static_cast<unsigned>(
      std::clamp<std::size_t>(opt.jobs, 1, n));
  exec::Pool pool{lanes};
  exec::Pool::Group group;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<Attempt>> done;  // guarded by mu

  std::vector<std::shared_ptr<Attempt>> running;
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) ready.push_back(i);
  struct Delayed {
    clock_type::time_point release;
    std::size_t job;
  };
  std::vector<Delayed> delayed;  // retry backoff queue (small, scanned)

  std::vector<unsigned> attempts(n, 0);
  std::vector<bool> finalized(n, false);
  // Per-job wall-clock span: first submit -> finalize, measured on the
  // coordinator thread. Feeds the job trace spans and the index's
  // informational job_wall_ms list (host-dependent, never gated).
  std::vector<bool> job_started(n, false);
  std::vector<clock_type::time_point> job_first_start(n);
  std::vector<double> job_wall_ms(n, 0.0);
  std::size_t n_final = 0;
  bool any_failed = false;
  std::uint64_t total_sim_accesses = 0;
  std::size_t attempted_jobs = 0;

  const auto submit_attempt = [&](std::size_t job) {
    auto att = std::make_shared<Attempt>();
    att->job = job;
    att->attempt_no = ++attempts[job];
    if (att->attempt_no == 1) {
      ++attempted_jobs;
      job_started[job] = true;
      job_first_start[job] = clock_type::now();
      RAA_OBS_HOST_EVENT(fleet, job, begin, job, 0);
    }
    running.push_back(att);
    pool.submit(group, [&, att] {
      att->start = clock_type::now();
      att->started.store(true, std::memory_order_release);
      JobOutcome out;
      const std::string& id = man.jobs[att->job].id;
      if (!opt.inject_fail.empty() && glob_match(opt.inject_fail, id)) {
        out.error = ErrorKind::injected;
        out.message = "injected permanent failure (--inject-fail)";
      } else if (!opt.inject_flaky.empty() &&
                 glob_match(opt.inject_flaky, id) && att->attempt_no == 1) {
        out.error = ErrorKind::io;
        out.message =
            "injected transient failure (--inject-flaky, first attempt)";
      } else if (!opt.inject_hang.empty() &&
                 glob_match(opt.inject_hang, id)) {
        // Stall cooperatively: the watchdog's cancel is the only exit, so
        // this drives the timeout/reclamation path end to end.
        while (!att->cancel.load(std::memory_order_relaxed))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        out.error = ErrorKind::cancelled;
        out.message =
            "per-job deadline exceeded (injected hang cancelled)";
      } else {
        out = run_job_attempt(man.jobs[att->job], settings[att->job],
                              att->cancel);
      }
      {
        const std::scoped_lock lock{mu};
        att->outcome = std::move(out);
        done.push_back(att);
      }
      cv.notify_all();
    });
  };

  /// Delay before attempt `made + 1`: base * 2^(made-1), capped.
  const auto backoff_delay = [&](unsigned made) {
    std::uint64_t ms = std::max<std::uint64_t>(1, opt.backoff_base_ms);
    for (unsigned k = 1; k < made && ms < opt.backoff_cap_ms; ++k) ms *= 2;
    return std::chrono::milliseconds(
        std::min(ms, std::max<std::uint64_t>(1, opt.backoff_cap_ms)));
  };

  const auto finalize = [&](std::size_t job, JobStatus status,
                            const JobOutcome* out) {
    if (job_started[job]) {
      job_wall_ms[job] = std::chrono::duration<double, std::milli>(
                             clock_type::now() - job_first_start[job])
                             .count();
      RAA_OBS_HOST_EVENT(fleet, job, end, job,
                         static_cast<std::uint64_t>(status) |
                             (std::uint64_t{attempts[job]} << 8));
    }
    JobRecord& r = res.records[job];
    r.status = status;
    r.attempts = attempts[job];
    if (out != nullptr) {
      r.error = out->error;
      r.message = out->message;
      if (out->error == ErrorKind::none) {
        r.result = out->result;
        r.sim_accesses = out->sim_accesses;
        total_sim_accesses += out->sim_accesses;
        if (!opt.out_dir.empty()) {
          r.result_file = r.id + ".json";
          std::string io_err;
          if (!report::write_json_file(
                  r.result, opt.out_dir + "/" + r.result_file, &io_err) &&
              res.error.empty())
            res.error = io_err;
        }
      }
    }
    if (status == JobStatus::failed || status == JobStatus::timeout)
      any_failed = true;
    finalized[job] = true;
    ++n_final;
    if (!opt.quiet)
      std::printf("[raa_fleet] job %s (%zu/%zu): %s (%u attempt%s)%s%s\n",
                  r.id.c_str(), n_final, n, to_string(status), r.attempts,
                  r.attempts == 1 ? "" : "s",
                  r.message.empty() ? "" : " — ",
                  r.message.c_str());
  };

  const auto t0 = clock_type::now();
  while (n_final < n) {
    const auto now = clock_type::now();

    // Graceful degradation, fail-fast flavor: once any job has failed,
    // everything not yet started is recorded skipped instead of run.
    if (opt.fail_fast && any_failed && (!ready.empty() || !delayed.empty())) {
      for (const std::size_t job : ready)
        finalize(job, JobStatus::skipped, nullptr);
      for (const Delayed& d : delayed)
        finalize(d.job, JobStatus::skipped, nullptr);
      ready.clear();
      delayed.clear();
      continue;
    }

    // Release retry attempts whose backoff has elapsed, oldest job first
    // so the retry order is deterministic.
    {
      std::vector<std::size_t> due;
      std::erase_if(delayed, [&](const Delayed& d) {
        if (d.release > now) return false;
        due.push_back(d.job);
        return true;
      });
      std::sort(due.begin(), due.end());
      for (const std::size_t job : due) ready.push_back(job);
    }

    while (running.size() < lanes && !ready.empty()) {
      const std::size_t job = ready.front();
      ready.pop_front();
      submit_attempt(job);
    }

    // Collect finished attempts.
    std::vector<std::shared_ptr<Attempt>> batch;
    {
      const std::scoped_lock lock{mu};
      batch.swap(done);
    }
    if (!batch.empty()) {
      for (const auto& att : batch) {
        std::erase(running, att);
        const std::size_t job = att->job;
        const JobOutcome& out = att->outcome;
        if (out.error == ErrorKind::none) {
          finalize(job,
                   attempts[job] > 1 ? JobStatus::retried_ok : JobStatus::ok,
                   &out);
        } else if (is_transient(out.error) &&
                   attempts[job] <= settings[job].retries) {
          if (!opt.quiet)
            std::printf(
                "[raa_fleet] job %s: attempt %u failed (%s: %s) — retrying "
                "after backoff\n",
                man.jobs[job].id.c_str(), attempts[job],
                to_string(out.error), out.message.c_str());
          RAA_OBS_HOST_EVENT(fleet, job_retry, instant, job, attempts[job]);
          delayed.push_back(
              Delayed{now + backoff_delay(attempts[job]), job});
          res.records[job].error = out.error;  // last-seen, final wins later
          res.records[job].message = out.message;
        } else {
          finalize(job,
                   out.error == ErrorKind::cancelled ? JobStatus::timeout
                                                     : JobStatus::failed,
                   &out);
        }
      }
      continue;  // a lane just freed: launch before sleeping
    }

    // Watchdog: cancel running attempts past their deadline, and work out
    // how long the coordinator may sleep.
    auto next_event = clock_type::time_point::max();
    for (const auto& att : running) {
      const std::uint64_t timeout_ms = settings[att->job].timeout_ms;
      if (timeout_ms == 0) continue;
      if (att->started.load(std::memory_order_acquire)) {
        const auto deadline =
            att->start + std::chrono::milliseconds(timeout_ms);
        if (now >= deadline) {
          // exchange: emit the timeout event once, not per watchdog pass.
          if (!att->cancel.exchange(true, std::memory_order_relaxed))
            RAA_OBS_HOST_EVENT(fleet, job_timeout, instant, att->job,
                               att->attempt_no);
        } else {
          next_event = std::min(next_event, deadline);
        }
      } else {
        // Queued behind a busy lane: poll until it stamps its start.
        next_event =
            std::min(next_event, now + std::chrono::milliseconds(10));
      }
    }
    for (const Delayed& d : delayed)
      next_event = std::min(next_event, d.release);

    std::unique_lock lock{mu};
    if (!done.empty()) continue;
    if (next_event == clock_type::time_point::max())
      cv.wait(lock, [&] { return !done.empty(); });
    else
      cv.wait_until(lock, next_event, [&] { return !done.empty(); });
  }
  pool.wait(group);
  const double wall =
      std::chrono::duration<double>(clock_type::now() - t0).count();

  // --- counts, exit code, merged index (manifest order) -------------------
  for (const JobRecord& r : res.records) {
    switch (r.status) {
      case JobStatus::ok: ++res.ok; break;
      case JobStatus::retried_ok: ++res.retried_ok; break;
      case JobStatus::failed: ++res.failed; break;
      case JobStatus::timeout: ++res.timeout; break;
      case JobStatus::skipped: ++res.skipped; break;
    }
  }
  const unsigned good = res.ok + res.retried_ok;
  if (!res.error.empty())
    res.exit_code = kExitFailure;  // fleet-level I/O failure trumps
  else if (good == n)
    res.exit_code = kExitOk;
  else if (good > 0)
    res.exit_code = kExitPartialFleet;
  else
    res.exit_code = kExitFailure;

  json::Value& index = res.index;
  index.set("schema", report::kFleetIndexSchemaName);
  index.set("schema_version", report::kFleetIndexSchemaVersion);
  index.set("name", man.name);
  index.set("seed", static_cast<double>(man.seed));
  index.set("jobs_total", static_cast<double>(n));
  {
    json::Value counts;
    counts.set("ok", res.ok);
    counts.set("retried_ok", res.retried_ok);
    counts.set("failed", res.failed);
    counts.set("timeout", res.timeout);
    counts.set("skipped", res.skipped);
    index.set("counts", std::move(counts));
  }
  index.set("status", good == n          ? "ok"
                      : good > 0         ? "partial"
                                         : "failed");
  index.set("exit_code", res.exit_code);
  {
    json::Value jobs{json::Array{}};
    for (const JobRecord& r : res.records) {
      json::Value jv;
      jv.set("id", r.id);
      jv.set("input", r.input);
      // Decimal string, not a JSON number: derived seeds use all 64 bits
      // and a double would silently round them past 2^53.
      jv.set("seed", std::to_string(r.seed));
      jv.set("status", to_string(r.status));
      jv.set("attempts", r.attempts);
      if (r.error != ErrorKind::none) {
        jv.set("error_kind", to_string(r.error));
        jv.set("error", r.message);
      }
      if (!r.result_file.empty()) jv.set("result", r.result_file);
      jobs.push_back(std::move(jv));
    }
    index.set("jobs", std::move(jobs));
  }
  {
    // Host-dependent throughput: quarantined under one key so the
    // determinism suites (and any future baseline gate) can strip it
    // wholesale — mirrors the bench report's `informational` convention.
    json::Value info;
    info.set("lanes", lanes);
    info.set("wall_seconds", wall);
    info.set("scenarios_per_second",
             wall > 0.0 ? static_cast<double>(attempted_jobs) / wall : 0.0);
    info.set("sim_accesses_per_second",
             wall > 0.0 ? static_cast<double>(total_sim_accesses) / wall
                        : 0.0);
    // Per-job wall spans in manifest order (ordering deterministic,
    // values host-dependent; skipped jobs report 0).
    json::Value spans{json::Array{}};
    for (std::size_t i = 0; i < n; ++i) {
      json::Value s;
      s.set("id", res.records[i].id);
      s.set("wall_ms", job_wall_ms[i]);
      spans.push_back(std::move(s));
    }
    info.set("job_wall_ms", std::move(spans));
    index.set("informational", std::move(info));
  }

  if (!opt.out_dir.empty()) {
    std::string io_err;
    if (!report::write_json_file(index, opt.out_dir + "/index.json",
                                 &io_err) &&
        res.error.empty()) {
      res.error = io_err;
      res.exit_code = kExitFailure;
    }
  }
  return res;
}

}  // namespace raa::fleet
