#pragma once
/// \file scenario.hpp
/// Declarative scenario descriptions: a JSON file names the chip
/// configuration, the hierarchy mode(s), the data regions and a per-core
/// program for each region — either a scripted phase/stream body (the
/// full expressive power of kernels/program.hpp) or one of the
/// parameterized generators (generators.hpp). `Scenario::instantiate()`
/// lowers the description onto a `mem::Workload`, so any workload a file
/// can describe runs through the unmodified `System::run` — no C++, no
/// recompilation.
///
/// The schema is documented in docs/BENCHMARKS.md; the checked-in corpus
/// lives in `scenarios/`. Parsing is strict: unknown keys, dangling region
/// references, out-of-range cores and ill-sized streams are all errors
/// with a JSON-path context (the json layer supplies line/column for
/// syntax errors), because scenario files are edited by hand.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "kernels/program.hpp"
#include "memsim/access.hpp"
#include "memsim/config.hpp"
#include "report/json.hpp"

namespace raa::scen {

/// Which hierarchy configuration(s) a scenario runs under. `compare` runs
/// both and reports the hybrid-vs-cache-only speedups (the Figure 1
/// shape, generalised to arbitrary workloads).
enum class ScenarioMode : std::uint8_t { cache_only, hybrid, compare };

constexpr std::array<EnumName<ScenarioMode>, 3> enum_names(
    ScenarioMode) noexcept {
  return {{{ScenarioMode::cache_only, "cache_only"},
           {ScenarioMode::hybrid, "hybrid"},
           {ScenarioMode::compare, "compare"}}};
}

inline const char* to_string(ScenarioMode m) noexcept { return enum_name(m); }

/// A declared data region. Exactly one of `bytes` (one shared extent) or
/// `bytes_per_core` (tiles consecutive per-core slices) is non-zero;
/// addresses are assigned at instantiate() time, DMA-chunk aligned.
struct RegionSpec {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t bytes_per_core = 0;
  mem::RefClass ref = mem::RefClass::strided;

  /// Byte length of the window a stream or generator draws from: one
  /// core's slice, or the whole region on a `tiles`-core chip.
  std::uint64_t window(bool per_core, unsigned tiles) const {
    return per_core ? bytes_per_core
                    : (bytes != 0 ? bytes : bytes_per_core * tiles);
  }

  friend bool operator==(const RegionSpec&, const RegionSpec&) = default;
};

/// One stream of a scripted phase (see kernels/program.hpp). Offsets are
/// relative to the stream's window: the core's slice when `per_core_slice`
/// (requires a bytes_per_core region), else the whole region.
struct StreamSpec {
  std::size_t region = 0;  ///< index into Scenario::regions
  kern::StreamKind kind = kern::StreamKind::linear;
  bool store = false;
  std::optional<mem::RefClass> ref;  ///< default: the region's class
  std::uint64_t start = 0;
  std::uint64_t stride = 8;
  std::uint32_t elem_bytes = 8;
  bool per_core_slice = false;

  friend bool operator==(const StreamSpec&, const StreamSpec&) = default;
};

struct PhaseSpec {
  std::uint64_t iterations = 0;
  std::uint32_t gap_cycles = 0;
  std::vector<StreamSpec> streams;

  friend bool operator==(const PhaseSpec&, const PhaseSpec&) = default;
};

/// The program kind a scenario assigns to a set of cores.
enum class GenKind : std::uint8_t {
  scripted,
  zipf,
  pointer_chase,
  stencil,
  producer_consumer,
  bursty,
};

constexpr std::array<EnumName<GenKind>, 6> enum_names(GenKind) noexcept {
  return {{{GenKind::scripted, "scripted"}, {GenKind::zipf, "zipf"},
           {GenKind::pointer_chase, "pointer_chase"},
           {GenKind::stencil, "stencil"},
           {GenKind::producer_consumer, "producer_consumer"},
           {GenKind::bursty, "bursty"}}};
}

inline const char* to_string(GenKind k) noexcept { return enum_name(k); }

/// One "programs" entry: which cores it covers and either a scripted
/// phase list or the parameters of a generator. A flat struct: unused
/// fields stay at their defaults, and for_each_program_field names the
/// fields each kind uses.
struct ProgramSpec {
  std::vector<unsigned> cores;  ///< empty = every core
  GenKind kind = GenKind::scripted;

  // scripted
  std::vector<PhaseSpec> phases;

  // generators (region indices into Scenario::regions)
  std::size_t region = 0;
  std::size_t out_region = 0;  ///< stencil only
  bool per_core_slice = false;
  std::optional<mem::RefClass> ref;
  std::optional<mem::RefClass> halo_ref;  ///< stencil only
  std::uint64_t accesses = 0;    ///< zipf, pointer_chase
  std::uint64_t iterations = 0;  ///< producer_consumer
  std::uint64_t bursts = 0;      ///< bursty
  std::uint64_t burst_len = 0;
  std::uint32_t sweeps = 1;  ///< stencil
  std::uint32_t halo = 1;
  std::uint32_t elem_bytes = 8;
  std::uint32_t gap_cycles = 0;
  std::uint32_t gap_on = 0;  ///< bursty
  std::uint32_t gap_off = 1000;
  double hot_fraction = 0.1;  ///< zipf
  double hot_weight = 0.9;
  double store_fraction = 0.0;  ///< zipf, bursty

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// A parsed, validated scenario. Deterministic: instantiate() is a pure
/// function of the spec (including `seed`), so two calls produce
/// workloads with bit-identical access streams.
struct Scenario {
  std::string name;
  std::string description;
  ScenarioMode mode = ScenarioMode::compare;
  std::uint64_t seed = 1;
  mem::SystemConfig config;
  std::vector<RegionSpec> regions;
  std::vector<ProgramSpec> programs;

  /// The concrete hierarchy modes to simulate (compare = both).
  std::vector<mem::HierarchyMode> hierarchy_modes() const;

  /// Parse + validate a JSON document / file. On failure returns nullopt
  /// and stores an actionable message (JSON-path or line/column context)
  /// in `error` when non-null.
  static std::optional<Scenario> parse(const json::Value& doc,
                                       std::string* error = nullptr);
  static std::optional<Scenario> load_file(const std::string& path,
                                           std::string* error = nullptr);

  /// Lower onto a runnable workload: lay the regions out in the simulated
  /// address space and build one program per core (cores no entry covers
  /// get an empty program).
  mem::Workload instantiate() const;

  /// Serialize back to the JSON schema parse() accepts. The round trip is
  /// field-identical: parse(to_json()) == *this for any parse-valid
  /// scenario (numbers go through shortest-round-trip formatting, and
  /// every per-generator key parse() reads is emitted explicitly). This
  /// is what lets the fuzzer persist generated scenarios and shrunken
  /// repro artifacts as files raa_sim accepts unchanged.
  json::Value to_json() const;

  /// Index of the first declared region no program ever references — a
  /// region "claimed by zero cores". parse() accepts such scenarios (the
  /// struct is still well-formed), but drivers should reject them:
  /// simulating a region nobody touches silently skews the address-space
  /// layout for no workload effect. nullopt when every region is used.
  std::optional<std::size_t> first_unreferenced_region() const;

  /// Drop every region no program references and renumber the survivors'
  /// indices, so that first_unreferenced_region() == nullopt. Returns the
  /// number of regions dropped.
  std::size_t drop_unreferenced_regions();

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// What a field-list entry demands of its JSON value, how to_json writes
/// it, and how the fuzz shrinker may edit it. Flags combine with `|`.
enum FieldRule : unsigned {
  kOptional = 0,            ///< an absent key keeps the member's default
  kRequired = 1u << 0,      ///< the key must be present (a string non-empty)
  kPositive = 1u << 1,      ///< a given number must be > 0
  kOpenFraction = 1u << 2,  ///< a fraction strictly inside (0, 1), not [0, 1]
  kRegion = 1u << 3,        ///< a required region name, stored as its index
  kSlice = 1u << 4,         ///< "core" | "all" over the preceding kRegion;
                            ///< absent = "core" iff it is bytes_per_core
  kOmitDefault = 1u << 5,   ///< to_json leaves out a member at its default
  kHalve = 1u << 6,         ///< shrinker: a size to halve toward 1
  kZero = 1u << 7,          ///< shrinker: a gap or fraction to set to 0
  kCount = kRequired | kPositive | kHalve,  ///< a required positive count
};

/// The schema of each spec, `f(key, member, rules)` in to_json order.
/// Scenario::parse, Scenario::to_json, the region-reference visitor and
/// the fuzz shrinker all walk these lists, so every key is declared once.
/// A list-valued entry comes after the entries its elements are checked
/// against. Doubles are fractions in [0, 1].
template <class S, class F>
constexpr void for_each_scenario_field(S& s, F&& f) {
  f("name", s.name, kRequired), f("description", s.description, kOmitDefault);
  f("mode", s.mode, kOptional), f("seed", s.seed, kOptional);
  f("config", s.config, kOptional), f("memory", s.config.memory, kOptional);
  f("regions", s.regions, kRequired), f("programs", s.programs, kRequired);
}

/// The "memory" object: backend selection plus both models' knobs (their
/// keys are memsim/config.hpp's lists). Read after "config", so
/// memory.flat.* wins over the aliased config-level keys.
template <class S, class F>
constexpr void for_each_memory_field(S& m, F&& f) {
  f("backend", m.kind, kOptional), f("flat", m.flat, kOptional);
  f("banked", m.banked, kOptional);
}

template <class S, class F>
constexpr void for_each_region_field(S& r, F&& f) {
  f("name", r.name, kRequired), f("class", r.ref, kRequired);
  f("bytes", r.bytes, kOmitDefault | kHalve);
  f("bytes_per_core", r.bytes_per_core, kOmitDefault | kHalve);
}

template <class S, class F>
constexpr void for_each_stream_field(S& s, F&& f) {
  f("region", s.region, kRegion), f("kind", s.kind, kOptional);
  f("store", s.store, kOptional), f("class", s.ref, kOmitDefault);
  f("start", s.start, kOptional), f("stride", s.stride, kOptional);
  f("elem_bytes", s.elem_bytes, kPositive);
  f("slice", s.per_core_slice, kSlice);
}

template <class S, class F>
constexpr void for_each_phase_field(S& s, F&& f) {
  f("iterations", s.iterations, kCount);
  f("gap_cycles", s.gap_cycles, kZero);
  f("streams", s.streams, kRequired);
}

/// Switches on `p.kind`: each kind lists only its own keys. The
/// "generator" (kind) and "cores" keys precede every kind's list.
template <class P, class F>
constexpr void for_each_program_field(P& p, F&& f) {
  const auto region = [&](bool slice) {
    f("region", p.region, kRegion);
    if (slice) f("slice", p.per_core_slice, kSlice);
    f("class", p.ref, kOmitDefault);
  };
  const auto accesses = [&] { f("accesses", p.accesses, kCount); };
  const auto elem_bytes = [&] { f("elem_bytes", p.elem_bytes, kPositive); };
  const auto gap_cycles = [&] { f("gap_cycles", p.gap_cycles, kZero); };
  const auto store_fraction = [&] {
    f("store_fraction", p.store_fraction, kZero);
  };
  switch (p.kind) {
    case GenKind::scripted:
      f("phases", p.phases, kRequired);
      break;
    case GenKind::zipf:
      region(true), accesses(), elem_bytes();
      f("hot_fraction", p.hot_fraction, kOpenFraction);
      f("hot_weight", p.hot_weight, kOptional);
      store_fraction(), gap_cycles();
      break;
    case GenKind::pointer_chase:
      region(true), accesses(), elem_bytes(), gap_cycles();
      break;
    case GenKind::stencil:
      f("in", p.region, kRegion), f("out", p.out_region, kRegion);
      f("sweeps", p.sweeps, kPositive | kHalve), f("halo", p.halo, kHalve);
      f("halo_class", p.halo_ref, kOmitDefault);
      elem_bytes(), gap_cycles();
      break;
    case GenKind::producer_consumer:
      region(false);
      f("iterations", p.iterations, kCount);
      elem_bytes(), gap_cycles();
      break;
    case GenKind::bursty:
      region(true);
      f("bursts", p.bursts, kCount), f("burst_len", p.burst_len, kCount);
      f("gap_on", p.gap_on, kOptional), f("gap_off", p.gap_off, kOptional);
      store_fraction(), elem_bytes();
      break;
  }
}

/// The field list of whichever spec `s` is.
template <class S, class F>
constexpr void for_each_field(S& s, F&& f) {
  using T = std::remove_const_t<S>;
  if constexpr (std::is_same_v<T, Scenario>)
    for_each_scenario_field(s, f);
  else if constexpr (std::is_same_v<T, mem::MemoryConfig>)
    for_each_memory_field(s, f);
  else if constexpr (std::is_same_v<T, RegionSpec>)
    for_each_region_field(s, f);
  else if constexpr (std::is_same_v<T, ProgramSpec>)
    for_each_program_field(s, f);
  else if constexpr (std::is_same_v<T, PhaseSpec>)
    for_each_phase_field(s, f);
  else
    for_each_stream_field(s, f);
}

/// True for the list-valued entries (regions, programs, phases, streams).
template <class T>
inline constexpr bool is_spec_list = false;
template <class S>
inline constexpr bool is_spec_list<std::vector<S>> = true;

}  // namespace raa::scen
