#include "scenario/scenario.hpp"

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"
#include "report/json_fields.hpp"
#include "scenario/generators.hpp"

namespace raa::scen {

namespace {

using json::Ctx;
using json::to_enum;
using json::to_str;
using json::to_u32;
using json::to_u64;
using json::Value;

/// One field of a walked parameter object (memsim/config.hpp's
/// for_each_*_field lists). Unsigned values must be positive unless
/// `zero_ok`; doubles must be non-negative.
bool to_param(Ctx& c, const Value& v, const std::string& path,
              unsigned& out, bool zero_ok) {
  std::uint32_t x = 0;
  if (!to_u32(c, v, path, x)) return false;
  if (x == 0 && !zero_ok) return c.fail(path, "must be positive");
  out = x;
  return true;
}

bool to_param(Ctx& c, const Value& v, const std::string& path, double& out,
              bool) {
  if (!v.is_number() || v.as_number() < 0.0)
    return c.fail(path, "expected a non-negative number");
  out = v.as_number();
  return true;
}

bool to_param(Ctx& c, const Value& v, const std::string& path,
              mem::BankMapping& out, bool) {
  return to_enum(c, v, path, "mapping", out);
}

/// Read every key of object `v` into the field `walk` lists under that
/// name; a key no field claims fails with `unknown`.
template <class Walk>
bool parse_fields(Ctx& c, const Value& v, const std::string& path,
                  Walk&& walk, const char* unknown) {
  if (!v.is_object()) return c.fail(path, "expected an object");
  for (const auto& [key, val] : v.as_object()) {
    const std::string p = path + "." + key;
    bool known = false;
    bool ok = true;
    walk([&](const char* name, auto& field, bool zero_ok = false) {
      if (known || key != name) return;
      known = true;
      ok = to_param(c, val, p, field, zero_ok);
    });
    if (!known) return c.fail(p, unknown);
    if (!ok) return false;
  }
  return true;
}

// lat_dram / dram_cycles_per_line / e_dram_line moved into the flat
// backend's parameter struct; the config-level keys stay as aliases so
// pre-backend scenario files keep parsing (memory.flat overrides them when
// both are given — it is parsed after config).
bool parse_config(Ctx& c, const Value& v, const std::string& path,
                  mem::SystemConfig& cfg) {
  if (!parse_fields(
          c, v, path,
          [&](auto&& f) { mem::for_each_config_field(cfg, f); },
          "unknown config key"))
    return false;
  if (const auto e = mem::check_config(cfg))
    return c.fail(*e->field ? path + "." + e->field : path, e->message);
  return true;
}

// Region indices (std::size_t) share the u64 reader, which resolves
// kRegion entries by name.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

/// The name an enum's "unknown ..." diagnostic gives the field.
constexpr const char* enum_what(ScenarioMode) { return "mode"; }
constexpr const char* enum_what(mem::RefClass) { return "reference class"; }
constexpr const char* enum_what(kern::StreamKind) { return "stream kind"; }
constexpr const char* enum_what(mem::MemBackendKind) { return "backend"; }

/// Reads a scenario document through the field lists (scenario.hpp), spec
/// by spec, then applies the checks that span several fields.
struct SpecReader {
  Ctx& c;
  const Scenario& s;  ///< the scenario being read: regions, tiles
  /// Pointer-chase elements over the programs read so far (see
  /// kMaxPointerChaseElems).
  std::uint64_t chase_elems = 0;

  bool positive(const std::string& path, std::uint64_t x, unsigned rule) {
    return !(rule & kPositive) || x != 0 || c.fail(path, "must be positive");
  }

  bool value(const Value& v, const std::string& path, std::uint64_t& out,
             unsigned rule) {
    if (!(rule & kRegion))
      return to_u64(c, v, path, out) && positive(path, out, rule);
    std::string name;
    if (!to_str(c, v, path, name)) return false;
    for (std::size_t i = 0; i < s.regions.size(); ++i)
      if (s.regions[i].name == name) {
        out = i;
        return true;
      }
    return c.fail(path, "unknown region '" + name + "'");
  }
  bool value(const Value& v, const std::string& path, std::uint32_t& out,
             unsigned rule) {
    return to_u32(c, v, path, out) && positive(path, out, rule);
  }
  bool value(const Value& v, const std::string& path, double& out,
             unsigned rule) {
    if (!v.is_number() || v.as_number() < 0.0 || v.as_number() > 1.0)
      return c.fail(path, "expected a number in [0, 1]");
    out = v.as_number();
    if ((rule & kOpenFraction) && (out <= 0.0 || out >= 1.0))
      return c.fail(path, "must be strictly inside (0, 1)");
    return true;
  }
  bool value(const Value& v, const std::string& path, bool& out, unsigned) {
    if (!v.is_bool()) return c.fail(path, "expected true or false");
    out = v.as_bool();
    return true;
  }
  bool value(const Value& v, const std::string& path, std::string& out,
             unsigned rule) {
    if (!to_str(c, v, path, out)) return false;
    return !(rule & kRequired) || !out.empty() ||
           c.fail(path, "must not be empty");
  }
  template <class E>
    requires std::is_enum_v<E>
  bool value(const Value& v, const std::string& path, E& out, unsigned) {
    return to_enum(c, v, path, enum_what(E{}), out);
  }
  bool value(const Value& v, const std::string& path,
             std::optional<mem::RefClass>& out, unsigned) {
    return to_enum(c, v, path, enum_what(mem::RefClass{}), out);
  }
  bool value(const Value& v, const std::string& path, mem::SystemConfig& out,
             unsigned) {
    return parse_config(c, v, path, out);
  }
  bool value(const Value& v, const std::string& path, mem::MemoryConfig& out,
             unsigned) {
    return object(v, path, out);
  }
  bool value(const Value& v, const std::string& path,
             mem::FlatBackendParams& out, unsigned) {
    return parse_fields(
        c, v, path, [&](auto&& f) { mem::for_each_flat_field(out, f); },
        "unknown key");
  }
  bool value(const Value& v, const std::string& path,
             mem::BankedBackendParams& out, unsigned) {
    return parse_fields(
        c, v, path, [&](auto&& f) { mem::for_each_banked_field(out, f); },
        "unknown key");
  }

  /// A kSlice entry: "core" or "all" over region `region`; absent takes
  /// the natural default ("core" iff the region is bytes_per_core).
  bool slice(const Value* v, const std::string& path, const RegionSpec& r,
             bool& per_core) {
    per_core = r.bytes_per_core != 0;
    if (v == nullptr) return true;
    std::string str;
    if (!to_str(c, *v, path, str)) return false;
    if (str != "core" && str != "all")
      return c.fail(path, "expected \"core\" or \"all\"");
    per_core = str == "core";
    if (per_core && r.bytes_per_core == 0)
      return c.fail(path, "\"core\" requires a bytes_per_core region, but '" +
                              r.name + "' declares \"bytes\"");
    return true;
  }

  /// Read object `v` into `spec`: every key must be listed (or in
  /// `extra`), required keys present, each value valid under its rules.
  template <class S>
  bool object(const Value& v, const std::string& path, S& spec,
              std::initializer_list<const char*> extra = {}) {
    if (!v.is_object()) return c.fail(path, "expected an object");
    for (const auto& [key, val] : v.as_object()) {
      bool known = false;
      for (const char* e : extra) known = known || key == e;
      for_each_field(spec, [&](const char* name, auto&, unsigned) {
        known = known || key == name;
      });
      if (!known) return c.fail(path + "." + key, "unknown key");
    }
    bool ok = true;
    std::size_t region = 0;  // the preceding kRegion entry's index
    for_each_field(spec, [&](const char* name, auto& x, unsigned rule) {
      using T = std::remove_cvref_t<decltype(x)>;
      if (!ok) return;
      const Value* fv = v.find(name);
      const std::string p = path + "." + name;
      if constexpr (std::is_same_v<T, bool>)
        if (rule & kSlice) {
          ok = slice(fv, p, s.regions[region], x);
          return;
        }
      if (fv == nullptr) {
        if (rule & (kRequired | kRegion))
          ok = c.fail(path, std::string{"missing required key \""} + name +
                                "\"");
        return;
      }
      if constexpr (is_spec_list<T>) {
        ok = list(*fv, p, name, x, spec);
      } else {
        ok = value(*fv, p, x, rule);
        if constexpr (std::is_same_v<T, std::size_t>)
          if (rule & kRegion) region = x;
      }
    });
    return ok;
  }

  /// A program object: its "generator" picks the field list, "cores" the
  /// cores it covers.
  bool object(const Value& v, const std::string& path, ProgramSpec& p) {
    if (!v.is_object()) return c.fail(path, "expected an object");
    const Value* g = v.find("generator");
    if (g == nullptr) return c.fail(path, "missing required key \"generator\"");
    if (!to_enum(c, *g, path + ".generator", "generator", p.kind))
      return false;
    return cores(v, path, p.cores) &&
           object<ProgramSpec>(v, path, p, {"generator", "cores"});
  }

  bool cores(const Value& obj, const std::string& path,
             std::vector<unsigned>& out) {
    const Value* v = obj.find("cores");
    if (v == nullptr) return true;  // default: all cores
    if (v->is_string()) {
      if (v->as_string() == "all") return true;
      return c.fail(path + ".cores", "expected \"all\" or an array of cores");
    }
    if (!v->is_array() || v->as_array().empty())
      return c.fail(path + ".cores", "expected \"all\" or a non-empty array");
    for (std::size_t i = 0; i < v->as_array().size(); ++i) {
      const std::string p = path + ".cores[" + std::to_string(i) + "]";
      std::uint64_t core = 0;
      if (!to_u64(c, v->as_array()[i], p, core)) return false;
      if (core >= s.config.tiles)
        return c.fail(p, "core " + std::to_string(core) +
                             " out of range (tiles = " +
                             std::to_string(s.config.tiles) + ")");
      out.push_back(static_cast<unsigned>(core));
    }
    return true;
  }

  /// A non-empty array of specs; each is checked against its `parent`,
  /// read up to the list entry.
  template <class S, class Parent>
  bool list(const Value& v, const std::string& path, const char* noun,
            std::vector<S>& out, const Parent& parent) {
    if (!v.is_array() || v.as_array().empty())
      return c.fail(path, std::string{"expected a non-empty array of "} +
                              noun);
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      const std::string p = path + "[" + std::to_string(i) + "]";
      S spec;
      if (!object(v.as_array()[i], p, spec) || !check(p, spec, parent))
        return false;
      out.push_back(std::move(spec));
    }
    return true;
  }

  bool check(const std::string& path, const RegionSpec& r, const Scenario&) {
    if ((r.bytes == 0) == (r.bytes_per_core == 0))
      return c.fail(path,
                    "give exactly one of \"bytes\" or \"bytes_per_core\"");
    // Strided per-core slices become SPM software-cache tiles; a slice
    // that is not a whole number of DMA chunks would make adjacent cores
    // share a chunk, violating the protocol's no-overlap tiling contract
    // (System aborts on it mid-run — catch it here instead).
    const std::uint32_t chunk = s.config.dma_chunk_bytes;
    if (r.ref == mem::RefClass::strided && r.bytes_per_core % chunk != 0)
      return c.fail(path + ".bytes_per_core",
                    "strided per-core slices must be a multiple of "
                    "dma_chunk_bytes (" + std::to_string(chunk) + ")");
    for (const auto& seen : s.regions)
      if (seen.name == r.name)
        return c.fail(path + ".name", "duplicate region name '" + r.name + "'");
    return true;
  }

  bool check(const std::string&, const PhaseSpec&, const ProgramSpec&) {
    return true;
  }

  /// A stream must stay inside its window for all of `ph`'s iterations.
  bool check(const std::string& path, const StreamSpec& st,
             const PhaseSpec& ph) {
    const std::uint64_t window =
        s.regions[st.region].window(st.per_core_slice, s.config.tiles);
    if (st.kind != kern::StreamKind::linear) {
      if (st.start + st.elem_bytes > window)
        return c.fail(path, "random stream window smaller than one element");
      return true;
    }
    // Linear streams only: a random stream ignores its stride.
    if (st.stride == 0) return c.fail(path + ".stride", "must be positive");
    if (st.start >= window)
      return c.fail(path + ".start", "beyond the " + std::to_string(window) +
                                         "-byte window");
    // Division form: `start + (iterations-1)*stride` could wrap uint64
    // and dodge the bound.
    const std::uint64_t max_iters = (window - st.start - 1) / st.stride + 1;
    if (ph.iterations > max_iters)
      return c.fail(
          path, "linear stream runs past its " + std::to_string(window) +
                    "-byte window after " + std::to_string(ph.iterations) +
                    " iterations (start " + std::to_string(st.start) +
                    ", stride " + std::to_string(st.stride) + ")");
    return true;
  }

  /// `r`'s window must hold >= `min_elems` elements of p.elem_bytes.
  bool window_check(const std::string& path, const ProgramSpec& p,
                    const RegionSpec& r, bool per_core,
                    std::uint64_t min_elems) {
    if (r.window(per_core, s.config.tiles) / p.elem_bytes < min_elems)
      return c.fail(path, "region '" + r.name +
                              "' window too small: need at least " +
                              std::to_string(min_elems) + " elements of " +
                              std::to_string(p.elem_bytes) + " bytes");
    return true;
  }

  /// The per-kind rules that span several fields.
  bool check(const std::string& path, const ProgramSpec& p, const Scenario&) {
    const unsigned tiles = s.config.tiles;
    const RegionSpec& r = s.regions[p.region];
    switch (p.kind) {
      case GenKind::scripted:
        return true;
      case GenKind::zipf:
        return window_check(path, p, r, p.per_core_slice, 2);
      case GenKind::pointer_chase: {
        if (!window_check(path, p, r, p.per_core_slice, 2)) return false;
        const std::uint64_t elems =
            r.window(p.per_core_slice, tiles) / p.elem_bytes;
        // Every core materialises its own cycle: the limit caps the total
        // over all cores of all pointer_chase programs.
        const std::uint64_t cores = p.cores.empty() ? tiles : p.cores.size();
        if (elems > (kMaxPointerChaseElems - chase_elems) / cores)
          return c.fail(path, "region '" + r.name +
                                  "' window too large for a pointer chase: " +
                                  std::to_string(elems) + " elements x " +
                                  std::to_string(cores) +
                                  " cores exceed the " +
                                  std::to_string(kMaxPointerChaseElems) +
                                  "-element limit on all chases together (" +
                                  std::to_string(chase_elems) +
                                  " already used)");
        chase_elems += elems * cores;
        return true;
      }
      case GenKind::stencil: {
        const RegionSpec& out = s.regions[p.out_region];
        for (const RegionSpec* g : {&r, &out})
          if (g->bytes_per_core == 0)
            return c.fail(path, "stencil grids must be bytes_per_core "
                                "regions, but '" + g->name +
                                    "' declares \"bytes\"");
        if (p.halo_ref == mem::RefClass::strided)
          return c.fail(path + ".halo_class",
                        "halo taps cross core slices and cannot be strided "
                        "(overlapping SPM tiles)");
        if (out.bytes_per_core < r.bytes_per_core)
          return c.fail(path, "output grid '" + out.name +
                                  "' is smaller per core than input grid '" +
                                  r.name + "'");
        return window_check(path, p, r, /*per_core=*/true, 1);
      }
      case GenKind::producer_consumer:
        if (r.bytes_per_core == 0)
          return c.fail(path, "producer_consumer needs a bytes_per_core "
                              "region (the per-core slot), but '" +
                                  r.name + "' declares \"bytes\"");
        return window_check(path, p, r, /*per_core=*/true, 1);
      case GenKind::bursty:
        return window_check(path, p, r, p.per_core_slice, 1);
    }
    return true;
  }

  /// No core may be claimed twice (cores nobody claims simply idle).
  bool check(const std::string& path, const Scenario& sc) {
    std::vector<int> owner(sc.config.tiles, -1);
    for (std::size_t i = 0; i < sc.programs.size(); ++i) {
      std::vector<unsigned> cores = sc.programs[i].cores;
      if (cores.empty())
        for (unsigned t = 0; t < sc.config.tiles; ++t) cores.push_back(t);
      for (const unsigned core : cores) {
        if (owner[core] >= 0)
          return c.fail(path + ".programs[" + std::to_string(i) + "]",
                        "core " + std::to_string(core) +
                            " is already claimed by programs[" +
                            std::to_string(owner[core]) + "]");
        owner[core] = static_cast<int>(i);
      }
    }
    return true;
  }
};

}  // namespace

std::vector<mem::HierarchyMode> Scenario::hierarchy_modes() const {
  switch (mode) {
    case ScenarioMode::cache_only: return {mem::HierarchyMode::cache_only};
    case ScenarioMode::hybrid: return {mem::HierarchyMode::hybrid};
    case ScenarioMode::compare:
      return {mem::HierarchyMode::cache_only, mem::HierarchyMode::hybrid};
  }
  return {};
}

std::optional<Scenario> Scenario::parse(const json::Value& doc,
                                        std::string* error) {
  Ctx c{error};
  Scenario s;
  SpecReader rd{c, s};
  if (!rd.object(doc, "scenario", s) || !rd.check("scenario", s))
    return std::nullopt;
  return s;
}

std::optional<Scenario> Scenario::load_file(const std::string& path,
                                            std::string* error) {
  const auto doc = json::Value::parse_file(path, error);
  if (!doc) return std::nullopt;
  std::string semantic_error;
  auto s = parse(*doc, &semantic_error);
  if (!s && error) *error = path + ": " + semantic_error;
  return s;
}

namespace {

/// Serialization helpers for Scenario::to_json. Every key parse() can read
/// is emitted explicitly (defaults included), so the parse(to_json()) round
/// trip restores every field bit-for-bit instead of relying on the two
/// sides agreeing about defaults.
template <class Walk>
json::Value fields_to_json(Walk&& walk) {
  json::Value v;
  walk([&](const char* name, const auto& field, bool = false) {
    if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(field)>>)
      v.set(name, mem::to_string(field));
    else
      v.set(name, field);
  });
  return v;
}

/// The flat backend's knobs are written once, under "memory.flat", not
/// again under their config-level alias names.
json::Value config_to_json(const mem::SystemConfig& c) {
  return fields_to_json([&](auto&& f) {
    mem::for_each_config_field(c, [&](const char* name, const auto& field) {
      bool alias = false;
      mem::for_each_flat_field(c.memory.flat, [&](const char* n, auto&) {
        alias = alias || std::string_view{n} == name;
      });
      if (!alias) f(name, field);
    });
  });
}

json::Value cores_to_json(const std::vector<unsigned>& cores) {
  json::Value a;
  for (const unsigned c : cores) a.push_back(c);
  return a;
}

/// One walk over `s`'s field list, nested specs included. Every entry is
/// written, defaults too, except kOmitDefault ones at their default.
template <class S>
json::Value spec_to_json(const S& s, const Scenario& sc) {
  json::Value v;
  if constexpr (std::is_same_v<S, ProgramSpec>) {
    v.set("generator", to_string(s.kind));
    if (!s.cores.empty()) v.set("cores", cores_to_json(s.cores));
  }
  for_each_field(s, [&](const char* key, const auto& x, unsigned rule) {
    using T = std::remove_cvref_t<decltype(x)>;
    if ((rule & kOmitDefault) && x == T{}) return;
    if constexpr (is_spec_list<T>) {
      json::Value a;
      for (const auto& e : x) a.push_back(spec_to_json(e, sc));
      v.set(key, std::move(a));
    } else if constexpr (std::is_same_v<T, mem::SystemConfig>) {
      v.set(key, config_to_json(x));
    } else if constexpr (std::is_same_v<T, mem::MemoryConfig>) {
      v.set(key, spec_to_json(x, sc));
    } else if constexpr (std::is_same_v<T, mem::FlatBackendParams>) {
      v.set(key, fields_to_json(
                     [&](auto&& f) { mem::for_each_flat_field(x, f); }));
    } else if constexpr (std::is_same_v<T, mem::BankedBackendParams>) {
      v.set(key, fields_to_json(
                     [&](auto&& f) { mem::for_each_banked_field(x, f); }));
    } else if constexpr (std::is_same_v<T, std::optional<mem::RefClass>>) {
      v.set(key, enum_name(*x));
    } else if constexpr (std::is_enum_v<T>) {
      v.set(key, enum_name(x));
    } else if constexpr (std::is_same_v<T, bool>) {
      v.set(key, (rule & kSlice) ? json::Value{x ? "core" : "all"} : x);
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      v.set(key, (rule & kRegion) ? json::Value{sc.regions[x].name} : x);
    } else {
      v.set(key, x);
    }
  });
  return v;
}

/// Call `f(index)` on every region index `s` references: its kRegion
/// entries and those of the specs nested in it.
template <class S, class F>
void for_each_region_ref(S& s, F&& f) {
  for_each_field(s, [&](const char*, auto& x, unsigned rule) {
    using T = std::remove_cvref_t<decltype(x)>;
    if constexpr (is_spec_list<T>) {
      for (auto& e : x) for_each_region_ref(e, f);
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      if (rule & kRegion) f(x);
    }
  });
}

/// used[i]: some program references region i.
std::vector<bool> referenced_regions(const Scenario& s) {
  std::vector<bool> used(s.regions.size(), false);
  for_each_region_ref(s, [&](std::size_t r) { used[r] = true; });
  return used;
}

}  // namespace

json::Value Scenario::to_json() const { return spec_to_json(*this, *this); }

std::optional<std::size_t> Scenario::first_unreferenced_region() const {
  const std::vector<bool> used = referenced_regions(*this);
  for (std::size_t i = 0; i < used.size(); ++i)
    if (!used[i]) return i;
  return std::nullopt;
}

std::size_t Scenario::drop_unreferenced_regions() {
  const std::vector<bool> used = referenced_regions(*this);
  std::vector<std::size_t> remap(regions.size(), 0);
  std::vector<RegionSpec> kept;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (!used[i]) continue;
    remap[i] = kept.size();
    kept.push_back(std::move(regions[i]));
  }
  const std::size_t dropped = regions.size() - kept.size();
  regions = std::move(kept);
  for_each_region_ref(*this, [&](std::size_t& r) { r = remap[r]; });
  return dropped;
}

mem::Workload Scenario::instantiate() const {
  mem::Workload w;
  w.name = name;
  kern::AddressSpace as{config.dma_chunk_bytes};
  std::vector<const mem::Region*> regs;
  regs.reserve(regions.size());
  for (const auto& r : regions)
    regs.push_back(&as.add(w, r.name, r.window(false, config.tiles), r.ref));

  /// The window a spec draws from on core `c`.
  const auto window = [&](std::size_t region, bool per_core,
                          unsigned c) -> Slice {
    const RegionSpec& r = regions[region];
    const std::uint64_t base = regs[region]->base;
    return Slice{per_core ? base + std::uint64_t{c} * r.bytes_per_core : base,
                 r.window(per_core, config.tiles)};
  };

  std::vector<const ProgramSpec*> owner(config.tiles, nullptr);
  for (const auto& p : programs) {
    if (p.cores.empty()) {
      for (auto& o : owner) o = &p;
    } else {
      for (const unsigned c : p.cores) owner[c] = &p;
    }
  }

  for (unsigned c = 0; c < config.tiles; ++c) {
    // Deterministic per-core seeds, distinct across cores and scenarios.
    const std::uint64_t core_seed =
        seed * 0x9e3779b97f4a7c15ULL + std::uint64_t{c} + 1;
    const ProgramSpec* p = owner[c];
    if (p == nullptr) {
      // Unclaimed core: an immediately-ending program (the core idles).
      w.programs.push_back(std::make_unique<kern::ScriptedProgram>(
          std::vector<kern::Phase>{}, core_seed));
      continue;
    }
    switch (p->kind) {
      case GenKind::scripted: {
        std::vector<kern::Phase> phases;
        for (const auto& ph : p->phases) {
          kern::Phase phase;
          phase.iterations = ph.iterations;
          phase.gap_cycles = ph.gap_cycles;
          for (const auto& st : ph.streams) {
            const Slice win = window(st.region, st.per_core_slice, c);
            const std::uint64_t rel = win.base - regs[st.region]->base;
            kern::Stream stream;
            stream.region = regs[st.region];
            stream.kind = st.kind;
            stream.store = st.store;
            stream.ref = st.ref.value_or(regions[st.region].ref);
            stream.elem_bytes = st.elem_bytes;
            if (st.kind == kern::StreamKind::linear) {
              stream.start = rel + st.start;
              stream.stride = st.stride;
            } else {
              stream.slice_base = rel + st.start;
              stream.slice_bytes = win.bytes - st.start;
            }
            phase.streams.push_back(stream);
          }
          phases.push_back(std::move(phase));
        }
        w.programs.push_back(std::make_unique<kern::ScriptedProgram>(
            std::move(phases), core_seed));
        break;
      }
      case GenKind::zipf: {
        ZipfParams zp;
        zp.slice = window(p->region, p->per_core_slice, c);
        zp.accesses = p->accesses;
        zp.elem_bytes = p->elem_bytes;
        zp.hot_fraction = p->hot_fraction;
        zp.hot_weight = p->hot_weight;
        zp.store_fraction = p->store_fraction;
        zp.gap_cycles = p->gap_cycles;
        zp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<ZipfProgram>(zp, core_seed));
        break;
      }
      case GenKind::pointer_chase: {
        PointerChaseParams pp;
        pp.slice = window(p->region, p->per_core_slice, c);
        pp.accesses = p->accesses;
        pp.elem_bytes = p->elem_bytes;
        pp.gap_cycles = p->gap_cycles;
        pp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(
            std::make_unique<PointerChaseProgram>(pp, core_seed));
        break;
      }
      case GenKind::stencil: {
        StencilParams sp;
        sp.in_region = window(p->region, /*per_core=*/false, c);
        sp.out_region = window(p->out_region, /*per_core=*/false, c);
        const std::uint64_t elems_pc =
            regions[p->region].bytes_per_core / p->elem_bytes;
        sp.elem_offset = std::uint64_t{c} * elems_pc;
        sp.elems = elems_pc;
        sp.halo = p->halo;
        sp.sweeps = p->sweeps;
        sp.elem_bytes = p->elem_bytes;
        sp.gap_cycles = p->gap_cycles;
        sp.in_ref = p->ref.value_or(regions[p->region].ref);
        sp.out_ref = p->ref.value_or(regions[p->out_region].ref);
        sp.halo_ref = p->halo_ref.value_or(mem::RefClass::random_unknown);
        w.programs.push_back(std::make_unique<StencilProgram>(sp));
        break;
      }
      case GenKind::producer_consumer: {
        ProducerConsumerParams cp;
        cp.ring = window(p->region, /*per_core=*/false, c);
        cp.slot_bytes = regions[p->region].bytes_per_core;
        cp.core = c;
        cp.cores = config.tiles;
        cp.iterations = p->iterations;
        cp.elem_bytes = p->elem_bytes;
        cp.gap_cycles = p->gap_cycles;
        cp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<ProducerConsumerProgram>(cp));
        break;
      }
      case GenKind::bursty: {
        BurstyParams bp;
        bp.slice = window(p->region, p->per_core_slice, c);
        bp.bursts = p->bursts;
        bp.burst_len = p->burst_len;
        bp.gap_on = p->gap_on;
        bp.gap_off = p->gap_off;
        bp.store_fraction = p->store_fraction;
        bp.elem_bytes = p->elem_bytes;
        bp.ref = p->ref.value_or(regions[p->region].ref);
        w.programs.push_back(std::make_unique<BurstyProgram>(bp, core_seed));
        break;
      }
    }
  }
  return w;
}

}  // namespace raa::scen
