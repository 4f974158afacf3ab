#include "report/compare.hpp"

#include <stdexcept>

#include "common/stats.hpp"
#include "report/report.hpp"

namespace raa::report {

namespace {

/// Validate the schema header and return the "benchmarks" array.
const json::Array& benchmarks_of(const json::Value& doc, const char* label) {
  const std::string where{label};
  if (!doc.is_object())
    throw std::runtime_error(where + ": not a JSON object");
  const auto* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != kSchemaName)
    throw std::runtime_error(where + ": missing schema marker \"" +
                             kSchemaName + "\"");
  const auto* version = doc.find("schema_version");
  if (!version || !version->is_number() ||
      static_cast<int>(version->as_number()) != kSchemaVersion)
    throw std::runtime_error(where + ": unsupported schema_version (want " +
                             std::to_string(kSchemaVersion) + ")");
  const auto* benches = doc.find("benchmarks");
  if (!benches || !benches->is_array())
    throw std::runtime_error(where + ": missing \"benchmarks\" array");
  return benches->as_array();
}

const std::string* name_of(const json::Value& v) {
  const auto* n = v.find("name");
  return n && n->is_string() ? &n->as_string() : nullptr;
}

/// Find the metric object for benchmark/metric in a benchmarks array.
const json::Value* find_metric(const json::Array& benches,
                               const std::string& bench_name,
                               const std::string& metric_name) {
  for (const auto& b : benches) {
    const auto* bn = name_of(b);
    if (!bn || *bn != bench_name) continue;
    const auto* metrics = b.find("metrics");
    if (!metrics || !metrics->is_array()) return nullptr;
    for (const auto& m : metrics->as_array()) {
      const auto* mn = name_of(m);
      if (mn && *mn == metric_name) return &m;
    }
    return nullptr;
  }
  return nullptr;
}

std::size_t count_metrics(const json::Array& benches) {
  std::size_t n = 0;
  for (const auto& b : benches) {
    const auto* metrics = b.find("metrics");
    if (metrics && metrics->is_array()) n += metrics->as_array().size();
  }
  return n;
}

}  // namespace

std::size_t CompareResult::violations() const noexcept {
  std::size_t n = 0;
  for (const auto& d : deltas)
    if (d.kind != DeltaKind::ok) ++n;
  return n;
}

CompareResult compare(const json::Value& baseline, const json::Value& results,
                      const CompareOptions& options) {
  const auto& base_benches = benchmarks_of(baseline, "baseline");
  const auto& res_benches = benchmarks_of(results, "results");

  CompareResult out;
  std::size_t matched = 0;
  for (const auto& b : base_benches) {
    const auto* bench_name = name_of(b);
    const auto* metrics = b.find("metrics");
    // A malformed baseline must fail loudly, not silently disable the
    // regression gate for the affected metric.
    if (!bench_name || !metrics || !metrics->is_array())
      throw std::runtime_error(
          "baseline: benchmark entry without \"name\"/\"metrics\"");
    for (const auto& m : metrics->as_array()) {
      const auto* metric_name = name_of(m);
      const auto* base_median = m.find("median");
      if (!metric_name || !base_median || !base_median->is_number())
        throw std::runtime_error(
            "baseline: metric without \"name\"/\"median\" in benchmark \"" +
            *bench_name + "\"");
      // Informational metrics (host wall-clock / throughput) are tracked
      // for trends but exempt from the two-sided gate.
      if (const auto* info = m.find("informational");
          info && info->is_bool() && info->as_bool()) {
        ++out.informational_skipped;
        continue;
      }

      MetricDelta d;
      d.benchmark = *bench_name;
      d.metric = *metric_name;
      d.baseline = base_median->as_number();
      d.tolerance = options.default_tolerance;
      if (const auto* tol = m.find("tolerance");
          tol && tol->is_number())
        d.tolerance = tol->as_number();

      const auto* measured =
          find_metric(res_benches, *bench_name, *metric_name);
      const json::Value* measured_median =
          measured ? measured->find("median") : nullptr;
      if (!measured_median || !measured_median->is_number()) {
        d.kind = DeltaKind::missing;
      } else {
        ++matched;
        d.measured = measured_median->as_number();
        d.rel = rel_diff(d.baseline, d.measured);
        d.kind = d.rel > d.tolerance ? DeltaKind::regression : DeltaKind::ok;
      }
      out.deltas.push_back(std::move(d));
    }
  }
  const std::size_t res_total = count_metrics(res_benches);
  out.extra_metrics = res_total > matched ? res_total - matched : 0;
  return out;
}

}  // namespace raa::report
