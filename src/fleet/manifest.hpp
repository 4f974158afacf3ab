#pragma once
/// \file manifest.hpp
/// Fleet job manifests: the declarative input of the batch engine
/// (fleet.hpp). A manifest names a set of scenario/trace *jobs* plus
/// fleet-wide defaults; it is either written by hand (JSON, schema
/// "raa-fleet-manifest", documented in docs/FLEET.md), synthesized from a
/// directory of scenario files, or emitted by the fuzzer
/// (`raa_fuzz --emit-manifest`).
///
/// Determinism contract: per-job seeds derive from (manifest seed, job id)
/// — not from array position or submission time — so results are
/// byte-identical for any `--jobs=N`, any completion order, and even a
/// shuffled manifest. Parsing is strict in the scenario-parser tradition:
/// unknown keys, duplicate ids, missing inputs and invalid enum strings
/// all fail with a JSON-path message.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "memsim/config.hpp"
#include "report/json.hpp"
#include "scenario/scenario.hpp"

namespace raa::fleet {

/// Per-job knobs resolvable at three levels: job entry > manifest
/// "defaults" > the driver's command-line fallback. Enum knobs are typed:
/// their names are checked once, where the manifest or command line is
/// read.
struct JobLimits {
  std::optional<scen::ScenarioMode> mode;
  std::optional<mem::MemBackendKind> backend;
  std::optional<unsigned> shards;      ///< front-end lanes per System::run
  std::optional<std::uint64_t> timeout_ms;  ///< per-job deadline; 0 = none
  std::optional<unsigned> retries;     ///< extra attempts for transient errors

  /// Layer `over` (the weaker level) under this one: unset fields inherit.
  JobLimits or_else(const JobLimits& over) const;

  friend bool operator==(const JobLimits&, const JobLimits&) = default;
};

/// One fleet job: a unique id plus exactly one input (scenario JSON file
/// or recorded RAAT trace).
struct JobSpec {
  std::string id;        ///< unique, filesystem-safe ([A-Za-z0-9._-])
  std::string scenario;  ///< path to a scenario JSON file
  std::string trace;     ///< path to a RAAT trace
  std::optional<std::uint64_t> seed;  ///< explicit seed; absent = derived
  JobLimits limits;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// A parsed, validated fleet manifest.
struct Manifest {
  std::string name = "fleet";
  std::uint64_t seed = 1;  ///< fleet seed; per-job seeds derive from it
  JobLimits defaults;
  std::vector<JobSpec> jobs;

  /// Parse + validate the "raa-fleet-manifest" schema. On failure returns
  /// nullopt and stores a JSON-path message in `error` when non-null.
  static std::optional<Manifest> parse(const json::Value& doc,
                                       std::string* error = nullptr);

  /// parse() over a file; relative scenario/trace paths in the manifest
  /// resolve against the manifest file's directory.
  static std::optional<Manifest> load_file(const std::string& path,
                                           std::string* error = nullptr);

  /// Synthesize a manifest from every `*.json` scenario file directly in
  /// `dir` (sorted by filename; id = file stem). Fails on an unreadable
  /// or scenario-free directory.
  static std::optional<Manifest> from_directory(const std::string& dir,
                                                std::string* error = nullptr);

  /// Serialize back to the schema parse() accepts (the fuzzer's
  /// --emit-manifest writer and tests round-trip through this).
  json::Value to_json() const;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// The per-job seed when the job entry gives none: a pure function of the
/// fleet seed and the job *id*, so reordering or subsetting a manifest
/// never changes any job's random stream.
std::uint64_t derive_job_seed(std::uint64_t fleet_seed, std::string_view id);

/// Shell-style glob match over job ids (`*` any run, `?` any one char) —
/// the selector behind the fault-injection test hooks.
bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace raa::fleet
