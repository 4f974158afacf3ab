#include "scenario/scenario.hpp"

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"
#include "report/json_fields.hpp"
#include "scenario/generators.hpp"

namespace raa::scen {

namespace {

using json::check_keys;
using json::Ctx;
using json::to_enum;
using json::to_str;
using json::to_u32;
using json::to_u64;
using json::Value;

bool to_fraction(Ctx& c, const Value& v, const std::string& path,
                 double& out) {
  if (!v.is_number() || v.as_number() < 0.0 || v.as_number() > 1.0)
    return c.fail(path, "expected a number in [0, 1]");
  out = v.as_number();
  return true;
}

bool to_bool(Ctx& c, const Value& v, const std::string& path, bool& out) {
  if (!v.is_bool()) return c.fail(path, "expected true or false");
  out = v.as_bool();
  return true;
}

/// Optional-field helpers: absent leaves the default in place.
template <typename T, typename Fn>
bool opt(Ctx& c, const Value& obj, const std::string& path, const char* key,
         Fn&& to, T& out) {
  const Value* v = obj.find(key);
  return v == nullptr || to(c, *v, path + "." + key, out);
}

template <typename T, typename Fn>
bool req(Ctx& c, const Value& obj, const std::string& path, const char* key,
         Fn&& to, T& out) {
  const Value* v = obj.find(key);
  if (v == nullptr)
    return c.fail(path, std::string{"missing required key \""} + key + "\"");
  return to(c, *v, path + "." + key, out);
}

/// opt()/req() readers over an enum's name table; the string names the
/// field in the "unknown ..." diagnostic.
constexpr auto enum_field(const char* what) {
  return [what](Ctx& c, const Value& v, const std::string& path, auto& out) {
    return to_enum(c, v, path, what, out);
  };
}
constexpr auto to_ref_class = enum_field("reference class");
constexpr auto to_stream_kind = enum_field("stream kind");
constexpr auto to_gen_kind = enum_field("generator");

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
  if (cfg.tiles > mem::kMaxTiles)
    return c.fail(path + ".tiles",
                  "tiles (" + std::to_string(cfg.tiles) + ") exceeds the " +
                      std::to_string(mem::kMaxTiles) +
                      "-tile limit (the directory's sharer mask)");
  if (cfg.tiles != cfg.mesh_x * cfg.mesh_y)
    return c.fail(path, "tiles (" + std::to_string(cfg.tiles) +
                            ") must equal mesh_x * mesh_y (" +
                            std::to_string(cfg.mesh_x * cfg.mesh_y) + ")");
  if (cfg.dma_chunk_bytes % cfg.line_bytes != 0)
    return c.fail(path, "dma_chunk_bytes must be a multiple of line_bytes");
  return true;
}

/// The scenario's "memory" object: backend selection + both models'
/// knobs. Parsed after "config", so memory.flat.* wins over the aliased
/// config-level keys.
bool parse_memory(Ctx& c, const Value& v, const std::string& path,
                  mem::MemoryConfig& m) {
  if (!v.is_object()) return c.fail(path, "expected an object");
  if (!check_keys(c, v, path, {"backend", "flat", "banked"})) return false;
  if (const Value* bv = v.find("backend")) {
    if (!to_enum(c, *bv, path + ".backend", "backend", m.kind)) return false;
  }
  if (const Value* fv = v.find("flat"))
    if (!parse_fields(
            c, *fv, path + ".flat",
            [&](auto&& f) { mem::for_each_flat_field(m.flat, f); },
            "unknown key"))
      return false;
  if (const Value* bv = v.find("banked"))
    if (!parse_fields(
            c, *bv, path + ".banked",
            [&](auto&& f) { mem::for_each_banked_field(m.banked, f); },
            "unknown key"))
      return false;
  return true;
}

bool parse_regions(Ctx& c, const Value& v, const std::string& path,
                   std::uint32_t dma_chunk_bytes,
                   std::vector<RegionSpec>& out) {
  if (!v.is_array() || v.as_array().empty())
    return c.fail(path, "expected a non-empty array of regions");
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    const std::string p = path + "[" + std::to_string(i) + "]";
    const Value& rv = v.as_array()[i];
    if (!rv.is_object()) return c.fail(p, "expected an object");
    if (!check_keys(c, rv, p, {"name", "class", "bytes", "bytes_per_core"}))
      return false;
    RegionSpec r;
    if (!req(c, rv, p, "name", to_str, r.name)) return false;
    if (r.name.empty()) return c.fail(p + ".name", "must not be empty");
    if (!req(c, rv, p, "class", to_ref_class, r.ref)) return false;
    if (!opt(c, rv, p, "bytes", to_u64, r.bytes)) return false;
    if (!opt(c, rv, p, "bytes_per_core", to_u64, r.bytes_per_core))
      return false;
    if ((r.bytes == 0) == (r.bytes_per_core == 0))
      return c.fail(p, "give exactly one of \"bytes\" or \"bytes_per_core\"");
    // Strided per-core slices become SPM software-cache tiles; a slice
    // that is not a whole number of DMA chunks would make adjacent cores
    // share a chunk, violating the protocol's no-overlap tiling contract
    // (System aborts on it mid-run — catch it here instead).
    if (r.ref == mem::RefClass::strided && r.bytes_per_core != 0 &&
        r.bytes_per_core % dma_chunk_bytes != 0)
      return c.fail(p + ".bytes_per_core",
                    "strided per-core slices must be a multiple of "
                    "dma_chunk_bytes (" + std::to_string(dma_chunk_bytes) +
                        ")");
    for (const auto& seen : out)
      if (seen.name == r.name)
        return c.fail(p + ".name", "duplicate region name '" + r.name + "'");
    out.push_back(std::move(r));
  }
  return true;
}

/// Resolve a region-name value to its index.
bool to_region_index(Ctx& c, const Value& v, const std::string& path,
                     const std::vector<RegionSpec>& regions,
                     std::size_t& out) {
  std::string name;
  if (!to_str(c, v, path, name)) return false;
  for (std::size_t i = 0; i < regions.size(); ++i)
    if (regions[i].name == name) {
      out = i;
      return true;
    }
  return c.fail(path, "unknown region '" + name + "'");
}

/// Parse a "slice" value ("core" or "all") into the per-core flag;
/// validates that "core" is only used with bytes_per_core regions.
bool parse_slice(Ctx& c, const Value& obj, const std::string& path,
                 const std::vector<RegionSpec>& regions, std::size_t region,
                 bool& per_core) {
  per_core = regions[region].bytes_per_core != 0;  // the natural default
  const Value* v = obj.find("slice");
  if (v == nullptr) return true;
  std::string s;
  if (!to_str(c, *v, path + ".slice", s)) return false;
  if (s == "core")
    per_core = true;
  else if (s == "all")
    per_core = false;
  else
    return c.fail(path + ".slice", "expected \"core\" or \"all\"");
  if (per_core && regions[region].bytes_per_core == 0)
    return c.fail(path + ".slice",
                  "\"core\" requires a bytes_per_core region, but '" +
                      regions[region].name + "' declares \"bytes\"");
  return true;
}

/// Byte length of the window a stream/generator draws from.
std::uint64_t window_bytes(const RegionSpec& r, bool per_core,
                           unsigned tiles) {
  return per_core ? r.bytes_per_core
                  : (r.bytes != 0 ? r.bytes : r.bytes_per_core * tiles);
}

bool parse_streams(Ctx& c, const Value& v, const std::string& path,
                   const std::vector<RegionSpec>& regions, unsigned tiles,
                   std::uint64_t iterations, std::vector<StreamSpec>& out) {
  if (!v.is_array() || v.as_array().empty())
    return c.fail(path, "expected a non-empty array of streams");
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    const std::string p = path + "[" + std::to_string(i) + "]";
    const Value& sv = v.as_array()[i];
    if (!sv.is_object()) return c.fail(p, "expected an object");
    if (!check_keys(c, sv, p,
                    {"region", "kind", "store", "class", "start", "stride",
                     "elem_bytes", "slice"}))
      return false;
    StreamSpec s;
    if (!req(c, sv, p, "region",
             [&](Ctx& cc, const Value& vv, const std::string& pp,
                 std::size_t& oo) {
               return to_region_index(cc, vv, pp, regions, oo);
             },
             s.region))
      return false;
    if (!opt(c, sv, p, "kind", to_stream_kind, s.kind)) return false;
    if (!opt(c, sv, p, "store", to_bool, s.store)) return false;
    if (!opt(c, sv, p, "class", to_ref_class, s.ref)) return false;
    if (!opt(c, sv, p, "start", to_u64, s.start)) return false;
    if (!opt(c, sv, p, "stride", to_u64, s.stride)) return false;
    if (!opt(c, sv, p, "elem_bytes", to_u32, s.elem_bytes)) return false;
    if (s.elem_bytes == 0) return c.fail(p + ".elem_bytes", "must be positive");
    if (!parse_slice(c, sv, p, regions, s.region, s.per_core_slice))
      return false;

    const std::uint64_t window =
        window_bytes(regions[s.region], s.per_core_slice, tiles);
    if (s.kind == kern::StreamKind::linear) {
      if (s.stride == 0) return c.fail(p + ".stride", "must be positive");
      if (s.start >= window)
        return c.fail(p + ".start", "beyond the " + std::to_string(window) +
                                        "-byte window");
      // Division form: `start + (iterations-1)*stride` could wrap uint64
      // and dodge the bound.
      const std::uint64_t max_iters = (window - s.start - 1) / s.stride + 1;
      if (iterations > max_iters)
        return c.fail(
            p, "linear stream runs past its " + std::to_string(window) +
                   "-byte window after " + std::to_string(iterations) +
                   " iterations (start " + std::to_string(s.start) +
                   ", stride " + std::to_string(s.stride) + ")");
    } else {
      if (s.start + s.elem_bytes > window)
        return c.fail(p, "random stream window smaller than one element");
    }
    out.push_back(std::move(s));
  }
  return true;
}

bool parse_phases(Ctx& c, const Value& v, const std::string& path,
                  const std::vector<RegionSpec>& regions, unsigned tiles,
                  std::vector<PhaseSpec>& out) {
  if (!v.is_array() || v.as_array().empty())
    return c.fail(path, "expected a non-empty array of phases");
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    const std::string p = path + "[" + std::to_string(i) + "]";
    const Value& pv = v.as_array()[i];
    if (!pv.is_object()) return c.fail(p, "expected an object");
    if (!check_keys(c, pv, p, {"iterations", "gap_cycles", "streams"}))
      return false;
    PhaseSpec ph;
    if (!req(c, pv, p, "iterations", to_u64, ph.iterations)) return false;
    if (ph.iterations == 0) return c.fail(p + ".iterations", "must be positive");
    if (!opt(c, pv, p, "gap_cycles", to_u32, ph.gap_cycles)) return false;
    const Value* sv = pv.find("streams");
    if (sv == nullptr) return c.fail(p, "missing required key \"streams\"");
    if (!parse_streams(c, *sv, p + ".streams", regions, tiles, ph.iterations,
                       ph.streams))
      return false;
    out.push_back(std::move(ph));
  }
  return true;
}

bool parse_cores(Ctx& c, const Value& obj, const std::string& path,
                 unsigned tiles, std::vector<unsigned>& out) {
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
    if (core >= tiles)
      return c.fail(p, "core " + std::to_string(core) +
                           " out of range (tiles = " + std::to_string(tiles) +
                           ")");
    out.push_back(static_cast<unsigned>(core));
  }
  return true;
}

/// `chase_elems` is the running total of pointer-chase elements over the
/// programs parsed so far (see kMaxPointerChaseElems).
bool parse_program(Ctx& c, const Value& v, const std::string& path,
                   const std::vector<RegionSpec>& regions, unsigned tiles,
                   std::uint64_t& chase_elems, ProgramSpec& p) {
  if (!v.is_object()) return c.fail(path, "expected an object");
  if (!req(c, v, path, "generator", to_gen_kind, p.kind)) return false;
  if (!parse_cores(c, v, path, tiles, p.cores)) return false;

  const auto region_field = [&](const char* key, std::size_t& out) {
    return req(c, v, path, key,
               [&](Ctx& cc, const Value& vv, const std::string& pp,
                   std::size_t& oo) {
                 return to_region_index(cc, vv, pp, regions, oo);
               },
               out);
  };
  const auto elem_and_gap = [&] {
    if (!opt(c, v, path, "elem_bytes", to_u32, p.elem_bytes)) return false;
    if (p.elem_bytes == 0)
      return c.fail(path + ".elem_bytes", "must be positive");
    return opt(c, v, path, "gap_cycles", to_u32, p.gap_cycles);
  };
  /// Window must hold >= `min_elems` elements of p.elem_bytes.
  const auto window_check = [&](std::size_t region, bool per_core,
                                std::uint64_t min_elems) {
    const std::uint64_t window = window_bytes(regions[region], per_core, tiles);
    if (window / p.elem_bytes < min_elems)
      return c.fail(path, "region '" + regions[region].name +
                              "' window too small: need at least " +
                              std::to_string(min_elems) + " elements of " +
                              std::to_string(p.elem_bytes) + " bytes");
    return true;
  };

  if (p.kind == GenKind::scripted) {
    if (!check_keys(c, v, path, {"generator", "cores", "phases"}))
      return false;
    const Value* pv = v.find("phases");
    if (pv == nullptr) return c.fail(path, "missing required key \"phases\"");
    return parse_phases(c, *pv, path + ".phases", regions, tiles, p.phases);
  }
  if (p.kind == GenKind::zipf) {
    if (!check_keys(c, v, path,
                    {"generator", "cores", "region", "slice", "class",
                     "accesses", "elem_bytes", "hot_fraction", "hot_weight",
                     "store_fraction", "gap_cycles"}))
      return false;
    if (!region_field("region", p.region)) return false;
    if (!parse_slice(c, v, path, regions, p.region, p.per_core_slice))
      return false;
    if (!opt(c, v, path, "class", to_ref_class, p.ref)) return false;
    if (!req(c, v, path, "accesses", to_u64, p.accesses)) return false;
    if (p.accesses == 0) return c.fail(path + ".accesses", "must be positive");
    if (!elem_and_gap()) return false;
    if (!opt(c, v, path, "hot_fraction", to_fraction, p.hot_fraction))
      return false;
    if (p.hot_fraction <= 0.0 || p.hot_fraction >= 1.0)
      return c.fail(path + ".hot_fraction", "must be strictly inside (0, 1)");
    if (!opt(c, v, path, "hot_weight", to_fraction, p.hot_weight))
      return false;
    if (!opt(c, v, path, "store_fraction", to_fraction, p.store_fraction))
      return false;
    return window_check(p.region, p.per_core_slice, 2);
  }
  if (p.kind == GenKind::pointer_chase) {
    if (!check_keys(c, v, path,
                    {"generator", "cores", "region", "slice", "class",
                     "accesses", "elem_bytes", "gap_cycles"}))
      return false;
    if (!region_field("region", p.region)) return false;
    if (!parse_slice(c, v, path, regions, p.region, p.per_core_slice))
      return false;
    if (!opt(c, v, path, "class", to_ref_class, p.ref)) return false;
    if (!req(c, v, path, "accesses", to_u64, p.accesses)) return false;
    if (p.accesses == 0) return c.fail(path + ".accesses", "must be positive");
    if (!elem_and_gap()) return false;
    if (!window_check(p.region, p.per_core_slice, 2)) return false;
    const std::uint64_t elems =
        window_bytes(regions[p.region], p.per_core_slice, tiles) /
        p.elem_bytes;
    // Every core materialises its own cycle: the limit caps the total
    // over all cores of all pointer_chase programs.
    const std::uint64_t cores = p.cores.empty() ? tiles : p.cores.size();
    if (elems > (kMaxPointerChaseElems - chase_elems) / cores)
      return c.fail(path, "region '" + regions[p.region].name +
                              "' window too large for a pointer chase: " +
                              std::to_string(elems) + " elements x " +
                              std::to_string(cores) + " cores exceed the " +
                              std::to_string(kMaxPointerChaseElems) +
                              "-element limit on all chases together (" +
                              std::to_string(chase_elems) + " already used)");
    chase_elems += elems * cores;
    return true;
  }
  if (p.kind == GenKind::stencil) {
    if (!check_keys(c, v, path,
                    {"generator", "cores", "in", "out", "sweeps", "halo",
                     "halo_class", "elem_bytes", "gap_cycles"}))
      return false;
    if (!region_field("in", p.region)) return false;
    if (!region_field("out", p.out_region)) return false;
    for (const std::size_t r : {p.region, p.out_region})
      if (regions[r].bytes_per_core == 0)
        return c.fail(path, "stencil grids must be bytes_per_core regions, "
                            "but '" + regions[r].name + "' declares \"bytes\"");
    if (!opt(c, v, path, "sweeps", to_u32, p.sweeps)) return false;
    if (p.sweeps == 0) return c.fail(path + ".sweeps", "must be positive");
    if (!opt(c, v, path, "halo", to_u32, p.halo)) return false;
    if (!opt(c, v, path, "halo_class", to_ref_class, p.halo_ref))
      return false;
    if (p.halo_ref && *p.halo_ref == mem::RefClass::strided)
      return c.fail(path + ".halo_class",
                    "halo taps cross core slices and cannot be strided "
                    "(overlapping SPM tiles)");
    if (!elem_and_gap()) return false;
    if (regions[p.out_region].bytes_per_core <
        regions[p.region].bytes_per_core)
      return c.fail(path, "output grid '" + regions[p.out_region].name +
                              "' is smaller per core than input grid '" +
                              regions[p.region].name + "'");
    return window_check(p.region, /*per_core=*/true, 1);
  }
  if (p.kind == GenKind::producer_consumer) {
    if (!check_keys(c, v, path,
                    {"generator", "cores", "region", "class", "iterations",
                     "elem_bytes", "gap_cycles"}))
      return false;
    if (!region_field("region", p.region)) return false;
    if (regions[p.region].bytes_per_core == 0)
      return c.fail(path, "producer_consumer needs a bytes_per_core region "
                          "(the per-core slot), but '" +
                              regions[p.region].name + "' declares \"bytes\"");
    if (!opt(c, v, path, "class", to_ref_class, p.ref)) return false;
    if (!req(c, v, path, "iterations", to_u64, p.iterations)) return false;
    if (p.iterations == 0)
      return c.fail(path + ".iterations", "must be positive");
    if (!elem_and_gap()) return false;
    return window_check(p.region, /*per_core=*/true, 1);
  }
  if (p.kind == GenKind::bursty) {
    if (!check_keys(c, v, path,
                    {"generator", "cores", "region", "slice", "class",
                     "bursts", "burst_len", "gap_on", "gap_off",
                     "store_fraction", "elem_bytes"}))
      return false;
    if (!region_field("region", p.region)) return false;
    if (!parse_slice(c, v, path, regions, p.region, p.per_core_slice))
      return false;
    if (!opt(c, v, path, "class", to_ref_class, p.ref)) return false;
    if (!req(c, v, path, "bursts", to_u64, p.bursts)) return false;
    if (!req(c, v, path, "burst_len", to_u64, p.burst_len)) return false;
    if (p.bursts == 0 || p.burst_len == 0)
      return c.fail(path, "bursts and burst_len must be positive");
    if (!opt(c, v, path, "gap_on", to_u32, p.gap_on)) return false;
    if (!opt(c, v, path, "gap_off", to_u32, p.gap_off)) return false;
    if (!opt(c, v, path, "store_fraction", to_fraction, p.store_fraction))
      return false;
    if (!opt(c, v, path, "elem_bytes", to_u32, p.elem_bytes)) return false;
    if (p.elem_bytes == 0)
      return c.fail(path + ".elem_bytes", "must be positive");
    return window_check(p.region, p.per_core_slice, 1);
  }
  return true;
}

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
  const std::string root = "scenario";
  if (!doc.is_object()) {
    c.fail(root, "expected a JSON object");
    return std::nullopt;
  }
  Scenario s;
  if (!check_keys(c, doc, root,
                  {"name", "description", "mode", "seed", "config", "memory",
                   "regions", "programs"}))
    return std::nullopt;
  if (!req(c, doc, root, "name", to_str, s.name)) return std::nullopt;
  if (s.name.empty()) {
    c.fail(root + ".name", "must not be empty");
    return std::nullopt;
  }
  if (!opt(c, doc, root, "description", to_str, s.description))
    return std::nullopt;
  if (const Value* mv = doc.find("mode"))
    if (!to_enum(c, *mv, root + ".mode", "mode", s.mode)) return std::nullopt;
  if (!opt(c, doc, root, "seed", to_u64, s.seed)) return std::nullopt;
  if (const Value* cv = doc.find("config")) {
    if (!parse_config(c, *cv, root + ".config", s.config)) return std::nullopt;
  }
  if (const Value* mv = doc.find("memory")) {
    if (!parse_memory(c, *mv, root + ".memory", s.config.memory))
      return std::nullopt;
  }

  const Value* rv = doc.find("regions");
  if (rv == nullptr) {
    c.fail(root, "missing required key \"regions\"");
    return std::nullopt;
  }
  if (!parse_regions(c, *rv, root + ".regions", s.config.dma_chunk_bytes,
                     s.regions))
    return std::nullopt;

  const Value* pv = doc.find("programs");
  if (pv == nullptr) {
    c.fail(root, "missing required key \"programs\"");
    return std::nullopt;
  }
  if (!pv->is_array() || pv->as_array().empty()) {
    c.fail(root + ".programs", "expected a non-empty array");
    return std::nullopt;
  }
  std::uint64_t chase_elems = 0;
  for (std::size_t i = 0; i < pv->as_array().size(); ++i) {
    ProgramSpec p;
    if (!parse_program(c, pv->as_array()[i],
                       root + ".programs[" + std::to_string(i) + "]",
                       s.regions, s.config.tiles, chase_elems, p))
      return std::nullopt;
    s.programs.push_back(std::move(p));
  }

  // Core-coverage check: no core may be claimed twice (cores nobody claims
  // simply idle).
  std::vector<int> owner(s.config.tiles, -1);
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    std::vector<unsigned> cores = s.programs[i].cores;
    if (cores.empty())
      for (unsigned t = 0; t < s.config.tiles; ++t) cores.push_back(t);
    for (const unsigned core : cores) {
      if (owner[core] >= 0) {
        c.fail(root + ".programs[" + std::to_string(i) + "]",
               "core " + std::to_string(core) +
                   " is already claimed by programs[" +
                   std::to_string(owner[core]) + "]");
        return std::nullopt;
      }
      owner[core] = static_cast<int>(i);
    }
  }
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

/// The "memory" object mirrors parse_memory key for key, defaults
/// included, keeping the parse(to_json()) round trip field-identical.
json::Value memory_to_json(const mem::MemoryConfig& m) {
  json::Value v;
  v.set("backend", mem::to_string(m.kind));
  v.set("flat", fields_to_json(
                    [&](auto&& f) { mem::for_each_flat_field(m.flat, f); }));
  v.set("banked", fields_to_json([&](auto&& f) {
          mem::for_each_banked_field(m.banked, f);
        }));
  return v;
}

json::Value cores_to_json(const std::vector<unsigned>& cores) {
  json::Value a;
  for (const unsigned c : cores) a.push_back(c);
  return a;
}

const char* slice_str(bool per_core) { return per_core ? "core" : "all"; }

json::Value program_to_json(const ProgramSpec& p,
                            const std::vector<RegionSpec>& regions) {
  json::Value v;
  const auto region_name = [&](std::size_t idx) {
    return json::Value{regions[idx].name};
  };
  v.set("generator", to_string(p.kind));
  if (!p.cores.empty()) v.set("cores", cores_to_json(p.cores));
  switch (p.kind) {
    case GenKind::scripted: {
      json::Value phases;
      for (const auto& ph : p.phases) {
        json::Value pv;
        pv.set("iterations", static_cast<double>(ph.iterations));
        pv.set("gap_cycles", ph.gap_cycles);
        json::Value streams;
        for (const auto& st : ph.streams) {
          json::Value sv;
          sv.set("region", region_name(st.region));
          sv.set("kind", kern::to_string(st.kind));
          sv.set("store", st.store);
          if (st.ref) sv.set("class", mem::to_string(*st.ref));
          sv.set("start", static_cast<double>(st.start));
          sv.set("stride", static_cast<double>(st.stride));
          sv.set("elem_bytes", st.elem_bytes);
          sv.set("slice", slice_str(st.per_core_slice));
          streams.push_back(std::move(sv));
        }
        pv.set("streams", std::move(streams));
        phases.push_back(std::move(pv));
      }
      v.set("phases", std::move(phases));
      break;
    }
    case GenKind::zipf:
      v.set("region", region_name(p.region));
      v.set("slice", slice_str(p.per_core_slice));
      if (p.ref) v.set("class", mem::to_string(*p.ref));
      v.set("accesses", static_cast<double>(p.accesses));
      v.set("elem_bytes", p.elem_bytes);
      v.set("hot_fraction", p.hot_fraction);
      v.set("hot_weight", p.hot_weight);
      v.set("store_fraction", p.store_fraction);
      v.set("gap_cycles", p.gap_cycles);
      break;
    case GenKind::pointer_chase:
      v.set("region", region_name(p.region));
      v.set("slice", slice_str(p.per_core_slice));
      if (p.ref) v.set("class", mem::to_string(*p.ref));
      v.set("accesses", static_cast<double>(p.accesses));
      v.set("elem_bytes", p.elem_bytes);
      v.set("gap_cycles", p.gap_cycles);
      break;
    case GenKind::stencil:
      v.set("in", region_name(p.region));
      v.set("out", region_name(p.out_region));
      v.set("sweeps", p.sweeps);
      v.set("halo", p.halo);
      if (p.halo_ref) v.set("halo_class", mem::to_string(*p.halo_ref));
      v.set("elem_bytes", p.elem_bytes);
      v.set("gap_cycles", p.gap_cycles);
      break;
    case GenKind::producer_consumer:
      v.set("region", region_name(p.region));
      if (p.ref) v.set("class", mem::to_string(*p.ref));
      v.set("iterations", static_cast<double>(p.iterations));
      v.set("elem_bytes", p.elem_bytes);
      v.set("gap_cycles", p.gap_cycles);
      break;
    case GenKind::bursty:
      // Note: bursty has no gap_cycles key (gap_on/gap_off cover it).
      v.set("region", region_name(p.region));
      v.set("slice", slice_str(p.per_core_slice));
      if (p.ref) v.set("class", mem::to_string(*p.ref));
      v.set("bursts", static_cast<double>(p.bursts));
      v.set("burst_len", static_cast<double>(p.burst_len));
      v.set("gap_on", p.gap_on);
      v.set("gap_off", p.gap_off);
      v.set("store_fraction", p.store_fraction);
      v.set("elem_bytes", p.elem_bytes);
      break;
  }
  return v;
}

}  // namespace

json::Value Scenario::to_json() const {
  json::Value doc;
  doc.set("name", name);
  if (!description.empty()) doc.set("description", description);
  doc.set("mode", to_string(mode));
  doc.set("seed", static_cast<double>(seed));
  doc.set("config", config_to_json(config));
  doc.set("memory", memory_to_json(config.memory));
  json::Value regions_v;
  for (const auto& r : regions) {
    json::Value rv;
    rv.set("name", r.name);
    rv.set("class", mem::to_string(r.ref));
    if (r.bytes != 0) rv.set("bytes", static_cast<double>(r.bytes));
    if (r.bytes_per_core != 0)
      rv.set("bytes_per_core", static_cast<double>(r.bytes_per_core));
    regions_v.push_back(std::move(rv));
  }
  doc.set("regions", std::move(regions_v));
  json::Value programs_v;
  for (const auto& p : programs)
    programs_v.push_back(program_to_json(p, regions));
  doc.set("programs", std::move(programs_v));
  return doc;
}

std::optional<std::size_t> Scenario::first_unreferenced_region() const {
  std::vector<bool> used(regions.size(), false);
  for (const auto& p : programs) {
    if (p.kind == GenKind::scripted) {
      for (const auto& ph : p.phases)
        for (const auto& st : ph.streams) used[st.region] = true;
    } else {
      used[p.region] = true;
      if (p.kind == GenKind::stencil) used[p.out_region] = true;
    }
  }
  for (std::size_t i = 0; i < used.size(); ++i)
    if (!used[i]) return i;
  return std::nullopt;
}

mem::Workload Scenario::instantiate() const {
  mem::Workload w;
  w.name = name;
  kern::AddressSpace as{config.dma_chunk_bytes};
  std::vector<const mem::Region*> regs;
  regs.reserve(regions.size());
  for (const auto& r : regions) {
    const std::uint64_t total =
        r.bytes != 0 ? r.bytes : r.bytes_per_core * config.tiles;
    regs.push_back(&as.add(w, r.name, total, r.ref));
  }

  /// The window a spec draws from on core `c`.
  const auto window = [&](std::size_t region, bool per_core,
                          unsigned c) -> Slice {
    const RegionSpec& r = regions[region];
    const std::uint64_t total =
        r.bytes != 0 ? r.bytes : r.bytes_per_core * config.tiles;
    if (per_core)
      return Slice{regs[region]->base + std::uint64_t{c} * r.bytes_per_core,
                   r.bytes_per_core};
    return Slice{regs[region]->base, total};
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
