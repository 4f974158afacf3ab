#pragma once
/// \file compare.hpp
/// Baseline comparison for benchmark reports: diff a BENCH_results.json
/// against a checked-in bench/baselines/*.json with a per-metric relative
/// tolerance. Both files use the RunReport schema; the baseline may add a
/// "tolerance" field on any metric to override the default. The compared
/// value is the per-metric "median".

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "report/json.hpp"

namespace raa::report {

struct CompareOptions {
  /// Relative tolerance (rel_diff) applied when the baseline metric does
  /// not carry its own "tolerance" field.
  double default_tolerance = 0.05;
};

enum class DeltaKind {
  ok,          ///< within tolerance
  regression,  ///< |rel diff| beyond tolerance
  missing,     ///< metric present in the baseline, absent from the results
};

constexpr std::array<EnumName<DeltaKind>, 3> enum_names(DeltaKind) noexcept {
  return {{{DeltaKind::ok, "ok"}, {DeltaKind::regression, "REGRESSION"},
           {DeltaKind::missing, "MISSING"}}};
}

inline const char* to_string(DeltaKind k) noexcept { return enum_name(k); }

/// One baseline metric's verdict.
struct MetricDelta {
  std::string benchmark;
  std::string metric;
  double baseline = 0.0;
  double measured = 0.0;   ///< 0 when missing
  double rel = 0.0;        ///< rel_diff(baseline, measured)
  double tolerance = 0.0;  ///< tolerance applied to this metric
  DeltaKind kind = DeltaKind::ok;
};

struct CompareResult {
  std::vector<MetricDelta> deltas;  ///< one entry per gated baseline metric
  std::size_t extra_metrics = 0;    ///< in the results but not the baseline
  /// Baseline metrics carrying `"informational": true` (host wall-clock,
  /// throughput): recorded for trends, never gated — host noise must not
  /// fail CI.
  std::size_t informational_skipped = 0;

  std::size_t violations() const noexcept;
  bool ok() const noexcept { return violations() == 0; }
};

/// Diff `results` against `baseline`. Throws std::runtime_error when either
/// document is not a schema-versioned RunReport.
CompareResult compare(const json::Value& baseline, const json::Value& results,
                      const CompareOptions& options = {});

}  // namespace raa::report
