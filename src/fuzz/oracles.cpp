#include "fuzz/oracles.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "fuzz/genscenario.hpp"
#include "memsim/system.hpp"
#include "scenario/trace.hpp"

namespace raa::fuzz {

namespace {

/// Name the first field where the two Metrics disagree; equality is exact,
/// so any report means a real divergence, never FP noise.
std::string metrics_diff(const mem::Metrics& a, const mem::Metrics& b) {
  std::ostringstream os;
  os.precision(17);
  mem::for_each_metric_field([&](const char* name, auto field) {
    if (os.tellp() == 0 && a.*field != b.*field)
      os << name << ": " << a.*field << " vs " << b.*field;
  });
  return os.tellp() == 0 ? std::string{"metrics differ"} : os.str();
}

}  // namespace

const scen::RegionSpec* find_marker_region(const scen::Scenario& s) {
  for (const auto& r : s.regions)
    if (r.name.starts_with(kMarkerRegionName)) return &r;
  return nullptr;
}

std::optional<Divergence> check_pairs(
    const mem::SystemConfig& cfg, mem::HierarchyMode mode,
    const std::function<mem::Workload()>& make, unsigned shards,
    mem::Metrics* serial) {
  // Reference leg: serial engine, recorded as it runs.
  auto trace = std::make_shared<scen::TraceData>();
  mem::Workload w = make();
  scen::record_workload(w, cfg, mode, *trace);
  const mem::Metrics ref = mem::System{cfg, mode}.run(w);
  if (serial != nullptr) *serial = ref;

  mem::Workload sharded = make();
  const mem::Metrics m =
      mem::System{cfg, mode}.run(sharded, mem::RunOptions{.shards = shards});
  if (!(m == ref))
    return Divergence{Oracle::shards, mode, metrics_diff(ref, m)};

  mem::Workload replay = scen::make_replay_workload(trace);
  const mem::Metrics r = mem::System{cfg, mode}.run(replay);
  if (!(r == ref))
    return Divergence{Oracle::replay, mode, metrics_diff(ref, r)};
  return std::nullopt;
}

std::optional<Divergence> check_oracles(const scen::Scenario& s,
                                        const OracleOptions& opt) {
  if (opt.check_marker)
    if (const scen::RegionSpec* r = find_marker_region(s))
      return Divergence{Oracle::marker, mem::HierarchyMode::cache_only,
                        "synthetic marker region '" + r->name + "' present"};

  // Serializer round trip first: structural, mode-independent. The parsed
  // copy also re-runs below so a to_json/parse asymmetry that happens to
  // compare field-equal would still surface as a metrics mismatch.
  std::string err;
  const auto parsed = scen::Scenario::parse(s.to_json(), &err);
  if (!parsed)
    return Divergence{Oracle::roundtrip, mem::HierarchyMode::cache_only,
                      "serialized scenario fails to parse: " + err};
  if (!(*parsed == s))
    return Divergence{Oracle::roundtrip, mem::HierarchyMode::cache_only,
                      "parse(to_json()) is not field-identical"};

  const auto make = [&s] { return s.instantiate(); };
  for (const mem::HierarchyMode mode : s.hierarchy_modes()) {
    mem::Metrics ref;
    if (auto d = check_pairs(s.config, mode, make, opt.shards, &ref))
      return d;
    mem::Workload w = parsed->instantiate();
    const mem::Metrics m = mem::System{parsed->config, mode}.run(w);
    if (!(m == ref))
      return Divergence{Oracle::roundtrip, mode, metrics_diff(ref, m)};
  }

  // Backend oracle: the same pairs under a forced-banked config. When the
  // scenario already selected banked the loop above covered it.
  if (s.config.memory.kind != mem::MemBackendKind::banked) {
    mem::SystemConfig banked = s.config;
    banked.memory.kind = mem::MemBackendKind::banked;
    for (const mem::HierarchyMode mode : s.hierarchy_modes())
      if (auto d = check_pairs(banked, mode, make, opt.shards))
        return Divergence{Oracle::backend, mode,
                          (d->oracle == Oracle::shards
                               ? "banked serial vs sharded: "
                               : "banked record vs replay: ") +
                              d->detail};
  }
  return std::nullopt;
}

}  // namespace raa::fuzz
