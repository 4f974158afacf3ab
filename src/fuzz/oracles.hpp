#pragma once
/// \file oracles.hpp
/// The differential oracle battery: every generated scenario is run through
/// independent pairs of executions that the simulator contracts to be
/// *exactly* equal (Metrics operator== is bit-for-bit, FP sums included):
///
///   shards    serial engine           vs  N-sharded engine
///   replay    live generators         vs  recorded-trace replay
///   roundtrip the scenario as built   vs  parse(to_json(scenario))
///   backend   the shards and replay pairs again under a forced-banked
///             config (the pairs above already run under whichever DRAM
///             backend the scenario itself selected)
///
/// The shards and replay pairs are one function, check_pairs(), which
/// raa_sim --selfcheck runs as well.
///
/// A further, test-only oracle ("marker") fails for exactly the scenarios
/// containing a __diverge_marker region; the shrinker tests use it as a
/// synthetic bug with a known minimal reproducer, and raa_sim
/// --fail-on-marker uses the same lookup.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "memsim/access.hpp"
#include "memsim/config.hpp"
#include "scenario/scenario.hpp"

namespace raa::fuzz {

enum class Oracle : std::uint8_t {
  shards,
  replay,
  roundtrip,
  backend,
  marker
};

constexpr std::array<EnumName<Oracle>, 5> enum_names(Oracle) noexcept {
  return {{{Oracle::shards, "shards"}, {Oracle::replay, "replay"},
           {Oracle::roundtrip, "roundtrip"}, {Oracle::backend, "backend"},
           {Oracle::marker, "marker"}}};
}

inline const char* to_string(Oracle o) noexcept { return enum_name(o); }

struct OracleOptions {
  unsigned shards = 4;        ///< lane count for the shards oracle
  bool check_marker = false;  ///< enable the synthetic test oracle
};

/// One disagreement: which pair diverged, under which hierarchy mode, and
/// a short what-differed message for the repro report.
struct Divergence {
  Oracle oracle = Oracle::shards;
  mem::HierarchyMode mode = mem::HierarchyMode::cache_only;
  std::string detail;
};

/// The first region whose name starts with the __diverge_marker prefix, or
/// nullptr.
const scen::RegionSpec* find_marker_region(const scen::Scenario& s);

/// The determinism pairs for one (config, mode): a serial run of a fresh
/// `make()` workload, recorded as it runs, against a `shards`-lane run
/// (Oracle::shards) and against a replay of the recording
/// (Oracle::replay). Returns the first divergence, naming the first
/// Metrics field that differs; `serial`, when non-null, receives the
/// serial run's metrics.
std::optional<Divergence> check_pairs(
    const mem::SystemConfig& cfg, mem::HierarchyMode mode,
    const std::function<mem::Workload()>& make, unsigned shards,
    mem::Metrics* serial = nullptr);

/// Run the full battery over `s` (every hierarchy mode the scenario names).
/// Returns the first divergence, or nullopt when every pair agrees — the
/// predicate the fuzz driver and the shrinker both evaluate.
std::optional<Divergence> check_oracles(const scen::Scenario& s,
                                        const OracleOptions& opt = {});

}  // namespace raa::fuzz
