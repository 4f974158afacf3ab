#pragma once
/// \file job.hpp
/// One fleet job, run fault-isolated and in-process: the typed error
/// taxonomy (JobError), the final per-job statuses, and the attempt
/// runner. It is also the one path from a scenario or RAAT trace to a run
/// and a result document: load_input() resolves the input and its
/// overrides, record_result() writes the result block, and both raa_fleet
/// (through run_job_attempt) and raa_sim call them. The taxonomy is what
/// makes the fleet robust by construction — a poisoned scenario (parse
/// failure, degenerate workload, broken simulator invariant) surfaces as a
/// classified JobError the engine records and survives, never an abort();
/// transient kinds are retried under the deterministic backoff budget,
/// permanent kinds fail fast.
///
/// Cancellation is cooperative: every core program is wrapped so the
/// access-stream front end observes the watchdog's cancel flag between
/// fill() batches and unwinds with ErrorKind::cancelled. Since the
/// simulator's commit loop is bounded by the accesses the front end
/// produces, cancelling production bounds the whole run — which is how a
/// timed-out job's pool slot is reclaimed without killing any thread.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fleet/manifest.hpp"
#include "memsim/access.hpp"
#include "memsim/config.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace raa::fleet {

/// Why a job attempt failed. The kind decides retryability: transient
/// kinds (io, cancelled) re-enter the queue under the retry budget;
/// everything else is permanent — retrying a parse error or a broken
/// invariant would burn budget to reproduce the same failure.
enum class ErrorKind : std::uint8_t {
  none,        ///< attempt succeeded
  parse,       ///< scenario/trace unreadable or schema-invalid
  degenerate,  ///< parsed, but degenerate as a workload (unused region)
  check,       ///< RAA_CHECK fired inside the simulator (raa::CheckError)
  io,          ///< filesystem error reading inputs — transient
  cancelled,   ///< watchdog deadline cancelled the attempt — transient
  injected,    ///< --inject-fail test hook
  internal,    ///< any other exception (bug in the job runner)
};

constexpr std::array<EnumName<ErrorKind>, 8> enum_names(ErrorKind) noexcept {
  return {{{ErrorKind::none, "none"}, {ErrorKind::parse, "parse"},
           {ErrorKind::degenerate, "degenerate"}, {ErrorKind::check, "check"},
           {ErrorKind::io, "io"}, {ErrorKind::cancelled, "cancelled"},
           {ErrorKind::injected, "injected"},
           {ErrorKind::internal, "internal"}}};
}

inline const char* to_string(ErrorKind k) noexcept { return enum_name(k); }

/// True for kinds worth retrying (a repeat attempt can plausibly succeed).
constexpr bool is_transient(ErrorKind kind) noexcept {
  return kind == ErrorKind::io || kind == ErrorKind::cancelled;
}

/// The one exception type job code throws; everything else escaping an
/// attempt is classified ErrorKind::internal by the runner.
class JobError : public std::runtime_error {
 public:
  JobError(ErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Final per-job status in the fleet index.
enum class JobStatus : std::uint8_t {
  ok,          ///< first attempt succeeded
  retried_ok,  ///< succeeded after >= 1 failed attempt
  failed,      ///< permanent error, or transient retries exhausted
  timeout,     ///< retries exhausted with the deadline as the last error
  skipped,     ///< never attempted (fail-fast tripped first)
};

constexpr std::array<EnumName<JobStatus>, 5> enum_names(JobStatus) noexcept {
  return {{{JobStatus::ok, "ok"}, {JobStatus::retried_ok, "retried_ok"},
           {JobStatus::failed, "failed"}, {JobStatus::timeout, "timeout"},
           {JobStatus::skipped, "skipped"}}};
}

inline const char* to_string(JobStatus s) noexcept { return enum_name(s); }

/// Effective per-job execution settings after resolving job entry >
/// manifest defaults > driver fallback (fleet.cpp does the resolving;
/// raa_sim fills them from its command line).
struct JobSettings {
  std::optional<scen::ScenarioMode> mode;      ///< unset = the input's own
  std::optional<mem::MemBackendKind> backend;  ///< unset = the input's own
  unsigned shards = 1;
  std::optional<std::uint64_t> seed;  ///< unset = the scenario's own seed
  std::uint64_t timeout_ms = 0;  ///< 0 = no deadline (engine-enforced)
  unsigned retries = 0;          ///< extra attempts for transient kinds
};

/// A job's input with its settings applied: what a driver simulates and
/// what record_result() describes. Owns the scenario or the trace.
struct Input {
  mem::SystemConfig config;
  std::vector<mem::HierarchyMode> modes;  ///< one run per mode, in order
  std::string name;  ///< the scenario's name, the trace's, or "replay"
  /// Input-specific result params in document order: scenario, mode and
  /// seed for a scenario; trace and mode for a trace.
  std::vector<std::pair<std::string, std::string>> params;
  scen::Scenario scenario;                       ///< scenario inputs
  std::shared_ptr<const scen::TraceData> trace;  ///< trace inputs

  /// A fresh workload for one run: the scenario instantiated, or a replay
  /// of the trace.
  mem::Workload make_workload() const;
};

/// Read `job`'s scenario or trace and apply the mode, backend and seed of
/// `settings`. Throws JobError: `parse` for an unreadable or
/// schema-invalid input, or a trace asked to run `compare`; `degenerate`
/// for a scenario region that no program references.
Input load_input(const JobSpec& job, const JobSettings& settings);

/// Write one run of `input` into `b`: the params (tiles, shards, backend,
/// mapping when banked, then input.params), each mode's metrics through
/// record_metrics, and for a two-mode run the hybrid speedups time_x,
/// energy_x and noc_x. `results` holds one Metrics per input.modes entry.
void record_result(report::BenchReport& b, const Input& input,
                   unsigned shards, std::span<const mem::Metrics> results);

/// What one attempt produced. `error == none` means success and `result`
/// holds the deterministic per-job report document (no wall-clock or
/// host-dependent fields — the fleet determinism contract hangs on this).
struct JobOutcome {
  ErrorKind error = ErrorKind::none;
  std::string message;
  json::Value result;
  std::uint64_t sim_accesses = 0;  ///< informational throughput input
};

/// Run one attempt of `job` end to end: load_input(), simulate every
/// hierarchy mode, build the result document with record_result(). Never
/// throws — every failure comes back classified in the outcome. `cancel`
/// is the watchdog's flag; the attempt observes it cooperatively.
JobOutcome run_job_attempt(const JobSpec& job, const JobSettings& settings,
                           const std::atomic<bool>& cancel);

/// Record the full gated metric set of one simulated mode under
/// `prefix` ("hybrid/", ...). Shared with raa_sim so the per-job result
/// files and the scenario driver's reports never drift apart.
void record_metrics(report::BenchReport& b, const std::string& prefix,
                    const mem::Metrics& m);

}  // namespace raa::fleet
