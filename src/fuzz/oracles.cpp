#include "fuzz/oracles.hpp"

#include <memory>
#include <sstream>

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

const char* to_string(Oracle o) noexcept {
  switch (o) {
    case Oracle::shards: return "shards";
    case Oracle::replay: return "replay";
    case Oracle::roundtrip: return "roundtrip";
    case Oracle::backend: return "backend";
    case Oracle::marker: return "marker";
  }
  return "?";
}

std::optional<Divergence> check_oracles(const scen::Scenario& s,
                                        const OracleOptions& opt) {
  if (opt.check_marker) {
    for (const auto& r : s.regions)
      if (r.name.rfind(kMarkerRegionName, 0) == 0)
        return Divergence{Oracle::marker, mem::HierarchyMode::cache_only,
                          "synthetic marker region '" + r.name + "' present"};
  }

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

  for (const mem::HierarchyMode mode : s.hierarchy_modes()) {
    // Reference leg: serial engine, recorded as it runs.
    auto trace = std::make_shared<scen::TraceData>();
    mem::Workload w = s.instantiate();
    scen::record_workload(w, s.config, mode, *trace);
    const mem::Metrics ref = mem::System{s.config, mode}.run(w);

    {
      mem::Workload w2 = s.instantiate();
      mem::RunOptions ro;
      ro.shards = opt.shards;
      const mem::Metrics m = mem::System{s.config, mode}.run(w2, ro);
      if (!(m == ref))
        return Divergence{Oracle::shards, mode, metrics_diff(ref, m)};
    }
    {
      mem::Workload w2 = scen::make_replay_workload(trace);
      const mem::Metrics m = mem::System{s.config, mode}.run(w2);
      if (!(m == ref))
        return Divergence{Oracle::replay, mode, metrics_diff(ref, m)};
    }
    {
      mem::Workload w2 = parsed->instantiate();
      const mem::Metrics m = mem::System{parsed->config, mode}.run(w2);
      if (!(m == ref))
        return Divergence{Oracle::roundtrip, mode, metrics_diff(ref, m)};
    }
  }

  // Backend oracle: a forced-banked copy must satisfy the same determinism
  // contracts (serial == sharded, recorded run == trace replay). When the
  // scenario already selected banked the main battery covered it above.
  if (s.config.memory.kind != mem::MemBackendKind::banked) {
    scen::Scenario b = s;
    b.config.memory.kind = mem::MemBackendKind::banked;
    for (const mem::HierarchyMode mode : b.hierarchy_modes()) {
      auto trace = std::make_shared<scen::TraceData>();
      mem::Workload w = b.instantiate();
      scen::record_workload(w, b.config, mode, *trace);
      const mem::Metrics ref = mem::System{b.config, mode}.run(w);
      {
        mem::Workload w2 = b.instantiate();
        mem::RunOptions ro;
        ro.shards = opt.shards;
        const mem::Metrics m = mem::System{b.config, mode}.run(w2, ro);
        if (!(m == ref))
          return Divergence{Oracle::backend, mode,
                            "banked serial vs sharded: " +
                                metrics_diff(ref, m)};
      }
      {
        mem::Workload w2 = scen::make_replay_workload(trace);
        const mem::Metrics m = mem::System{b.config, mode}.run(w2);
        if (!(m == ref))
          return Divergence{Oracle::backend, mode,
                            "banked record vs replay: " +
                                metrics_diff(ref, m)};
      }
    }
  }
  return std::nullopt;
}

}  // namespace raa::fuzz
