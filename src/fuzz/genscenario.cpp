#include "fuzz/genscenario.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace raa::fuzz {

namespace {

using scen::GenKind;
using scen::PhaseSpec;
using scen::ProgramSpec;
using scen::RegionSpec;
using scen::Scenario;
using scen::StreamSpec;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

template <typename T>
T pick(Rng& rng, std::initializer_list<T> xs) {
  return xs.begin()[rng.below(xs.size())];
}

/// Draw a region for `spec` and how it may address it, into the spec's
/// region, slice and class, without tripping the protocol's safety checks.
/// The invariants (derived from System::run):
///  * an effective-strided access must stay inside the core's own slice of
///    a strided bytes_per_core region — anything else overlaps another
///    core's SPM chunks and aborts mid-run;
///  * a region that is ever SPM-mapped (class strided) must only otherwise
///    be accessed through the guarded class (random_unknown): the
///    no-alias class asserts the line is unmapped.
template <class S>
void draw_access(Rng& rng, const std::vector<RegionSpec>& regions, S& spec) {
  spec.region = rng.below(regions.size());
  const RegionSpec& r = regions[spec.region];
  if (r.ref == mem::RefClass::strided) {
    if (rng.chance(0.35)) {
      spec.ref = mem::RefClass::random_unknown;  // guarded view of mapped data
      spec.per_core_slice = rng.chance(0.5);
    } else {
      spec.per_core_slice = true;  // SPM-tiled: own slice only
    }
  } else {
    spec.per_core_slice = r.bytes_per_core != 0 && rng.chance(0.6);
    if (rng.chance(0.25))
      spec.ref = rng.chance(0.5) ? mem::RefClass::random_unknown : r.ref;
  }
}

/// Does `spec` go through the SPM software cache? Such accesses must stay
/// load-only: a store write-allocates its chunk (DMA-in skipped), and a
/// later load of a line the stores never reached trips the System's
/// spm_valid assertion. Loads, and rmw (whose load leg maps the chunk
/// with a full DMA fill first), are always safe.
template <class S>
bool spm_tiled(const std::vector<RegionSpec>& regions, const S& spec) {
  return regions[spec.region].ref == mem::RefClass::strided &&
         spec.per_core_slice && !spec.ref.has_value();
}

std::uint32_t draw_gap(Rng& rng) {
  return rng.chance(0.6) ? 0u : pick<std::uint32_t>(rng, {1, 10, 100});
}

std::vector<RegionSpec> draw_regions(Rng& rng, const mem::SystemConfig& cfg) {
  const std::size_t n = 1 + rng.below(3);
  std::vector<RegionSpec> regions;
  for (std::size_t i = 0; i < n; ++i) {
    RegionSpec r;
    r.name = "r" + std::to_string(i);
    if (rng.chance(0.45)) {
      // SPM-tileable region: strided per-core slices, whole DMA chunks.
      r.ref = mem::RefClass::strided;
      r.bytes_per_core = cfg.dma_chunk_bytes * (1 + rng.below(2));
    } else {
      r.ref = rng.chance(0.5) ? mem::RefClass::random_unknown
                              : mem::RefClass::random_noalias;
      if (rng.chance(0.5))
        r.bytes_per_core = pick<std::uint64_t>(rng, {256, 512, 1024});
      else
        r.bytes = pick<std::uint64_t>(rng, {1024, 2048, 4096, 8192});
    }
    regions.push_back(std::move(r));
  }
  return regions;
}

/// Indices of bytes_per_core regions (stencil grids, producer/consumer
/// rings must be per-core).
std::vector<std::size_t> per_core_regions(const std::vector<RegionSpec>& rs) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rs.size(); ++i)
    if (rs[i].bytes_per_core != 0) out.push_back(i);
  return out;
}

ProgramSpec draw_scripted(Rng& rng, const std::vector<RegionSpec>& regions,
                          unsigned tiles, const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::scripted;
  const std::size_t n_phases = 1 + rng.below(2);
  for (std::size_t ph = 0; ph < n_phases; ++ph) {
    PhaseSpec phase;
    phase.gap_cycles = draw_gap(rng);
    const std::size_t n_streams = 1 + rng.below(2);
    std::uint64_t max_iters = limits.max_accesses /
                              (n_phases * n_streams);
    if (max_iters == 0) max_iters = 1;
    for (std::size_t st = 0; st < n_streams; ++st) {
      StreamSpec s;
      draw_access(rng, regions, s);
      s.kind = pick(rng, {kern::StreamKind::linear, kern::StreamKind::random,
                          kern::StreamKind::random_rmw});
      s.store = !spm_tiled(regions, s) && rng.chance(0.4);
      s.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
      const std::uint64_t window =
          regions[s.region].window(s.per_core_slice, tiles);
      if (s.kind == kern::StreamKind::linear) {
        s.start = s.elem_bytes * rng.below(4);  // < 64 <= any window
        s.stride = s.elem_bytes * (1 + rng.below(3));
        const std::uint64_t fit = (window - s.start - 1) / s.stride + 1;
        max_iters = std::min(max_iters, fit);
      } else {
        s.start = rng.chance(0.7) ? 0 : s.elem_bytes;
        s.stride = 8;  // parse default; unused by random streams
      }
      phase.streams.push_back(std::move(s));
    }
    phase.iterations = 1 + rng.below(max_iters);
    p.phases.push_back(std::move(phase));
  }
  return p;
}

ProgramSpec draw_zipf(Rng& rng, const std::vector<RegionSpec>& regions,
                      const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::zipf;
  draw_access(rng, regions, p);
  p.accesses = 1 + rng.below(limits.max_accesses);
  p.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
  p.hot_fraction = rng.uniform(0.05, 0.5);
  p.hot_weight = rng.uniform(0.5, 0.99);
  p.store_fraction =
      (spm_tiled(regions, p) || rng.chance(0.5)) ? 0.0 : rng.uniform(0.0, 0.5);
  p.gap_cycles = draw_gap(rng);
  return p;
}

ProgramSpec draw_pointer_chase(Rng& rng, const std::vector<RegionSpec>& regions,
                               const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::pointer_chase;
  draw_access(rng, regions, p);
  p.accesses = 1 + rng.below(limits.max_accesses);
  p.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
  p.gap_cycles = draw_gap(rng);
  return p;
}

/// May `out` serve as the output grid of a stencil whose input grid has
/// `in_bpc` bytes per core? Beyond being at least as large per core, a
/// strided (SPM-tiled) output must not let chunk mappings collide:
///  * out != in: core c writes output bytes [c*in_bpc, (c+1)*in_bpc), so
///    the span must be a whole number of DMA chunks or two cores end up
///    SPM-mapping the same chunk (the System's spm_mapped conflict check
///    aborts the run);
///  * out == in: the tap loads and the element writes interleave on the
///    same per-region chunk stream. At an interior chunk boundary the
///    taps pull the next chunk in, and the write behind them re-maps the
///    previous chunk by store write-allocate (no DMA fetch) — the next
///    tap load of an unwritten line in it trips the System's spm_valid
///    check. Only a single-chunk slice (taps can never cross a chunk
///    boundary inside the slice; cross-slice taps are guarded) is safe.
bool stencil_out_ok(const RegionSpec& out, std::uint64_t in_bpc, bool self,
                    const mem::SystemConfig& cfg) {
  if (out.bytes_per_core < in_bpc) return false;
  if (out.ref != mem::RefClass::strided) return true;
  if (self) return in_bpc <= cfg.dma_chunk_bytes;
  return in_bpc % cfg.dma_chunk_bytes == 0;
}

/// Input-grid candidates that admit at least one legal output grid —
/// draw_stencil must only pick from these (and the stencil kind is only
/// offered when this is non-empty).
std::vector<std::size_t> stencil_ins(const std::vector<RegionSpec>& regions,
                                     const std::vector<std::size_t>& bpc,
                                     const mem::SystemConfig& cfg) {
  std::vector<std::size_t> ins;
  for (const std::size_t i : bpc)
    for (const std::size_t j : bpc)
      if (stencil_out_ok(regions[j], regions[i].bytes_per_core, i == j,
                         cfg)) {
        ins.push_back(i);
        break;
      }
  return ins;
}

ProgramSpec draw_stencil(Rng& rng, const std::vector<RegionSpec>& regions,
                         const std::vector<std::size_t>& bpc,
                         const std::vector<std::size_t>& ins,
                         const mem::SystemConfig& cfg,
                         const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::stencil;
  p.region = ins[rng.below(ins.size())];
  const std::uint64_t in_bpc = regions[p.region].bytes_per_core;
  std::vector<std::size_t> outs;
  for (const std::size_t i : bpc)
    if (stencil_out_ok(regions[i], in_bpc, i == p.region, cfg))
      outs.push_back(i);
  p.out_region = outs[rng.below(outs.size())];
  p.halo = 1 + rng.below(2);
  p.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
  // Halo taps cross into neighbouring slices, so they must stay guarded.
  if (rng.chance(0.5)) p.halo_ref = mem::RefClass::random_unknown;
  const std::uint64_t elems = regions[p.region].bytes_per_core / p.elem_bytes;
  const std::uint64_t per_sweep = elems * (2 * std::uint64_t{p.halo} + 2);
  const std::uint64_t cap = std::clamp<std::uint64_t>(
      limits.max_accesses / std::max<std::uint64_t>(per_sweep, 1), 1, 4);
  p.sweeps = static_cast<std::uint32_t>(1 + rng.below(cap));
  p.gap_cycles = draw_gap(rng);
  return p;
}

ProgramSpec draw_producer_consumer(Rng& rng,
                                   const std::vector<RegionSpec>& regions,
                                   const std::vector<std::size_t>& bpc,
                                   const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::producer_consumer;
  p.region = bpc[rng.below(bpc.size())];
  // The ring crosses slice boundaries (each core reads its neighbour's
  // slot), so the access class must never be effectively strided.
  if (regions[p.region].ref == mem::RefClass::strided || rng.chance(0.4))
    p.ref = mem::RefClass::random_unknown;
  p.iterations = 1 + rng.below(std::max<std::uint64_t>(limits.max_accesses / 2, 1));
  p.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
  p.gap_cycles = draw_gap(rng);
  return p;
}

ProgramSpec draw_bursty(Rng& rng, const std::vector<RegionSpec>& regions,
                        const GenLimits& limits) {
  ProgramSpec p;
  p.kind = GenKind::bursty;
  draw_access(rng, regions, p);
  p.burst_len = 4 + rng.below(61);
  p.bursts =
      1 + rng.below(std::max<std::uint64_t>(limits.max_accesses / p.burst_len, 1));
  p.gap_on = pick<std::uint32_t>(rng, {0, 1, 5});
  p.gap_off = pick<std::uint32_t>(rng, {100, 1000});
  p.store_fraction =
      (spm_tiled(regions, p) || rng.chance(0.5)) ? 0.0 : rng.uniform(0.0, 0.5);
  p.elem_bytes = pick<std::uint32_t>(rng, {4, 8, 16});
  return p;
}

}  // namespace

scen::Scenario generate_scenario(std::uint64_t seed, std::uint64_t index,
                                 const GenLimits& limits) {
  std::uint64_t st = seed ^ (kGolden * (index + 1));
  Rng rng{splitmix64(st)};

  Scenario s;
  s.name = "fuzz_s" + std::to_string(seed) + "_i" + std::to_string(index);
  s.description =
      "generated: seed=" + std::to_string(seed) + " index=" + std::to_string(index);
  s.mode = pick(rng, {scen::ScenarioMode::cache_only, scen::ScenarioMode::hybrid,
                      scen::ScenarioMode::compare});
  s.seed = 1 + rng.below(std::uint64_t{1} << 48);

  auto& cfg = s.config;
  cfg.mesh_x = 1 + static_cast<unsigned>(rng.below(std::max(1u, limits.max_mesh_x)));
  cfg.mesh_y = 1 + static_cast<unsigned>(rng.below(std::max(1u, limits.max_mesh_y)));
  cfg.tiles = cfg.mesh_x * cfg.mesh_y;
  cfg.line_bytes = pick<unsigned>(rng, {32, 64});
  cfg.dma_chunk_bytes = pick<unsigned>(rng, {512, 1024});
  // Room for four double-buffered strided streams per core — more than any
  // generated program can open (at most one per region, <= 3 regions).
  cfg.spm_bytes = 8 * cfg.dma_chunk_bytes;
  cfg.l1_bytes = pick<unsigned>(rng, {2048, 4096});
  cfg.l1_assoc = pick<unsigned>(rng, {2, 4});
  cfg.l2_bank_bytes = pick<unsigned>(rng, {8192, 16384});
  cfg.l2_assoc = pick<unsigned>(rng, {4, 8});

  // Half the corpus runs the banked DRAM backend, knobs drawn wide enough
  // to hit row hits, conflicts and (when the interval is on) refreshes.
  if (rng.chance(0.5)) {
    cfg.memory.kind = mem::MemBackendKind::banked;
    auto& b = cfg.memory.banked;
    b.channels = pick<unsigned>(rng, {1, 2, 4});
    b.banks_per_channel = pick<unsigned>(rng, {2, 4, 8});
    b.mapping = rng.chance(0.5) ? mem::BankMapping::xor_hash
                                : mem::BankMapping::block;
    b.row_bytes = pick<unsigned>(rng, {1024, 2048, 4096});
    b.t_rp = pick<unsigned>(rng, {20, 40});
    b.t_rcd = pick<unsigned>(rng, {20, 40});
    b.t_cas = pick<unsigned>(rng, {20, 40});
    b.line_cycles = pick<unsigned>(rng, {2, 4});
    b.refresh_interval = pick<unsigned>(rng, {0, 4096, 8192});
    b.refresh_cycles = pick<unsigned>(rng, {64, 128});
    b.dma_cycles_per_line = pick<unsigned>(rng, {2, 4});
  }

  s.regions = draw_regions(rng, cfg);
  const std::vector<std::size_t> bpc = per_core_regions(s.regions);
  const std::vector<std::size_t> sins = stencil_ins(s.regions, bpc, cfg);

  // Partition a shuffled core list among the programs; optionally leave a
  // tail of cores idle.
  std::vector<unsigned> cores(cfg.tiles);
  std::iota(cores.begin(), cores.end(), 0u);
  rng.shuffle(cores);
  const unsigned max_prog = std::max(1u, std::min(limits.max_programs, cfg.tiles));
  const unsigned n_prog = 1 + static_cast<unsigned>(rng.below(max_prog));
  unsigned claimed = cfg.tiles;
  if (cfg.tiles > n_prog && rng.chance(0.35))
    claimed = n_prog + static_cast<unsigned>(rng.below(cfg.tiles - n_prog + 1));
  std::vector<unsigned> sizes(n_prog, 1);
  for (unsigned extra = claimed - n_prog; extra > 0; --extra)
    ++sizes[rng.below(n_prog)];

  std::size_t next_core = 0;
  for (unsigned pi = 0; pi < n_prog; ++pi) {
    std::vector<GenKind> kinds{GenKind::scripted, GenKind::zipf,
                               GenKind::pointer_chase, GenKind::bursty};
    if (!bpc.empty()) {
      if (!sins.empty()) kinds.push_back(GenKind::stencil);
      kinds.push_back(GenKind::producer_consumer);
    }
    ProgramSpec p;
    switch (kinds[rng.below(kinds.size())]) {
      case GenKind::scripted:
        p = draw_scripted(rng, s.regions, cfg.tiles, limits);
        break;
      case GenKind::zipf:
        p = draw_zipf(rng, s.regions, limits);
        break;
      case GenKind::pointer_chase:
        p = draw_pointer_chase(rng, s.regions, limits);
        break;
      case GenKind::stencil:
        p = draw_stencil(rng, s.regions, bpc, sins, cfg, limits);
        break;
      case GenKind::producer_consumer:
        p = draw_producer_consumer(rng, s.regions, bpc, limits);
        break;
      case GenKind::bursty:
        p = draw_bursty(rng, s.regions, limits);
        break;
    }
    p.cores.assign(cores.begin() + next_core,
                   cores.begin() + next_core + sizes[pi]);
    next_core += sizes[pi];
    // Exercise the implicit "every core" form when one program owns the
    // whole chip anyway.
    if (n_prog == 1 && claimed == cfg.tiles && rng.chance(0.3)) p.cores.clear();
    s.programs.push_back(std::move(p));
  }

  s.drop_unreferenced_regions();
  return s;
}

void inject_marker_divergence(scen::Scenario& s) {
  RegionSpec marker;
  marker.name = kMarkerRegionName;
  marker.bytes = 256;
  marker.ref = mem::RefClass::random_noalias;
  s.regions.push_back(std::move(marker));

  ProgramSpec p;
  p.kind = GenKind::bursty;
  p.region = s.regions.size() - 1;
  p.bursts = 1;
  p.burst_len = 4;
  p.gap_on = 0;
  p.gap_off = 100;
  p.elem_bytes = 8;

  // Find a core for the marker program: an idle one if any exists.
  std::vector<int> owner(s.config.tiles, -1);
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    if (s.programs[i].cores.empty()) {
      for (auto& o : owner) o = static_cast<int>(i);
    } else {
      for (const unsigned c : s.programs[i].cores)
        owner[c] = static_cast<int>(i);
    }
  }
  unsigned core = s.config.tiles;
  for (unsigned t = 0; t < s.config.tiles; ++t)
    if (owner[t] < 0) {
      core = t;
      break;
    }
  bool dropped_donor = false;
  if (core == s.config.tiles) {
    // No idle core: steal one from the widest program (materializing the
    // implicit all-cores form first so the donor keeps an explicit list).
    std::size_t widest = 0;
    std::size_t wsize = 0;
    for (std::size_t i = 0; i < s.programs.size(); ++i) {
      auto& cs = s.programs[i].cores;
      if (cs.empty())
        for (unsigned t = 0; t < s.config.tiles; ++t) cs.push_back(t);
      if (cs.size() > wsize) {
        wsize = cs.size();
        widest = i;
      }
    }
    auto& donor = s.programs[widest].cores;
    core = donor.back();
    donor.pop_back();
    if (donor.empty()) {
      // Single-core donor: remove it outright (an empty explicit core
      // list is not parseable). Regions it alone used are pruned below,
      // after the marker program joins — so the marker region, being
      // referenced, survives the remap.
      s.programs.erase(s.programs.begin() +
                       static_cast<std::ptrdiff_t>(widest));
      dropped_donor = true;
    }
  }
  p.cores = {core};
  s.programs.push_back(std::move(p));
  if (dropped_donor) s.drop_unreferenced_regions();
}

}  // namespace raa::fuzz
