#pragma once
/// \file config.hpp
/// Configuration and cost constants of the tiled-manycore memory-hierarchy
/// simulator (§2, Figure 1).
///
/// The modelled chip is the one the paper's hybrid-hierarchy study targets:
/// 64 tiles on an 8x8 mesh, each tile with a core, a private L1-D and (in
/// the hybrid configuration) a scratchpad slice; a distributed shared L2
/// (one bank per tile, line-interleaved, home-node directory embedded);
/// DRAM behind memory controllers at the mesh corners.
///
/// Latency constants are in core cycles and energy constants in picojoules;
/// the orders of magnitude follow the usual CACTI/McPAT-class numbers for a
/// ~22 nm manycore (SPM access cheaper than a tag+data associative cache
/// lookup, DRAM two orders above SRAM, NoC energy per flit-hop). Only
/// *relative* magnitudes matter for the reproduced speedups.

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/enum_names.hpp"

namespace raa::mem {

/// Hard ceiling on SystemConfig::tiles: the directory keeps each line's
/// sharer set in one 64-bit mask. Scenario and trace readers reject larger
/// chips with a parse error before anything is instantiated.
inline constexpr unsigned kMaxTiles = 64;

/// Hard ceiling on l1_assoc and l2_assoc: a cache set keeps each way's LRU
/// age in one byte, and a way handle keeps the way in its low byte
/// (memsim/cache.hpp).
inline constexpr unsigned kMaxAssoc = 256;

/// Which DRAM-timing model serves line fills and writebacks (see
/// memsim/backend.hpp for the MemBackend interface and both models).
enum class MemBackendKind : std::uint8_t {
  flat,    ///< fixed-latency DRAM — the original model, baseline-identical
  banked,  ///< per-channel/bank FSMs: open-row policy, FR-FCFS, refresh
};

constexpr std::array<EnumName<MemBackendKind>, 2> enum_names(
    MemBackendKind) noexcept {
  return {{{MemBackendKind::flat, "flat"}, {MemBackendKind::banked, "banked"}}};
}

inline const char* to_string(MemBackendKind k) noexcept { return enum_name(k); }

/// Parameters of the flat (fixed-latency) model. These are the former
/// loose SystemConfig fields `lat_dram`/`dram_cycles_per_line`/
/// `e_dram_line`, now owned by FlatBackend; the scenario parser keeps the
/// old config-level keys as aliases into this struct.
struct FlatBackendParams {
  unsigned lat_dram = 120;            ///< cycles per line access
  unsigned dram_cycles_per_line = 4;  ///< bandwidth term for DMA bursts
  double e_dram_line = 1200.0;        ///< pJ per line read/write

  friend bool operator==(const FlatBackendParams&,
                         const FlatBackendParams&) = default;
};

/// How a row block is mapped to a bank within its channel.
enum class BankMapping : std::uint8_t {
  block,     ///< bank = (block / channels) % banks — plain interleave
  xor_hash,  ///< bank index XOR-folded with the row — spreads strided
             ///< streams whose stride aliases the bank count ("xor")
};

constexpr std::array<EnumName<BankMapping>, 2> enum_names(
    BankMapping) noexcept {
  return {{{BankMapping::block, "block"}, {BankMapping::xor_hash, "xor"}}};
}

inline const char* to_string(BankMapping m) noexcept { return enum_name(m); }

/// Parameters of the banked model. Timings are DDR-class in core cycles:
/// a row hit costs t_cas + line_cycles, an activate-on-closed-bank adds
/// t_rcd, a row conflict adds a precharge (t_rp) on top — so with the
/// defaults a conflict lands on the flat model's 120 cycles and a hit is
/// ~3x cheaper, which is exactly the locality axis the flat model hides.
struct BankedBackendParams {
  unsigned channels = 2;          ///< independent channels per controller
  unsigned banks_per_channel = 8;
  /// Address-to-bank hash. `block` keeps the original interleave (and the
  /// pre-mapping baseline numbers); `xor_hash` folds the row bits in, the
  /// classic defence against power-of-two strides camping on one bank.
  BankMapping mapping = BankMapping::block;
  unsigned row_bytes = 2048;      ///< row-buffer size
  unsigned t_rp = 40;             ///< precharge (close a conflicting row)
  unsigned t_rcd = 40;            ///< activate (open a row)
  unsigned t_cas = 40;            ///< column access on the open row
  unsigned line_cycles = 4;       ///< data-burst cycles per line on the bus
  /// Cycles between all-bank refreshes per channel (0 disables refresh).
  unsigned refresh_interval = 8192;
  unsigned refresh_cycles = 128;  ///< banks blocked per refresh (tRFC)
  /// Streaming cadence for burst lines served from L2, not DRAM.
  unsigned dma_cycles_per_line = 4;
  double e_line = 1200.0;      ///< pJ per line transferred
  double e_activate = 300.0;   ///< pJ per row activation
  double e_refresh = 600.0;    ///< pJ per all-bank refresh

  friend bool operator==(const BankedBackendParams&,
                         const BankedBackendParams&) = default;
};

/// Backend selection + both parameter sets (the unselected one is inert,
/// but kept so scenario round trips are field-identical).
struct MemoryConfig {
  MemBackendKind kind = MemBackendKind::flat;
  FlatBackendParams flat;
  BankedBackendParams banked;

  friend bool operator==(const MemoryConfig&, const MemoryConfig&) = default;
};

/// Chip-level configuration. Defaults reproduce the Figure 1 system.
struct SystemConfig {
  // --- topology ---
  unsigned tiles = 64;   ///< cores; must equal mesh_x * mesh_y
  unsigned mesh_x = 8;
  unsigned mesh_y = 8;
  unsigned mem_controllers = 4;  ///< placed at the mesh corners

  // --- line / capacity ---
  unsigned line_bytes = 64;
  unsigned l1_bytes = 32 * 1024;
  unsigned l1_assoc = 8;  ///< 8-way: NAS multi-stream sweeps need >= 6 ways
  unsigned l2_bank_bytes = 512 * 1024;  ///< per tile
  unsigned l2_assoc = 8;
  unsigned spm_bytes = 64 * 1024;       ///< per tile (hybrid only)
  unsigned dma_chunk_bytes = 4 * 1024;  ///< software-cache tile size

  // --- latencies (cycles) ---
  unsigned lat_l1_hit = 2;
  unsigned lat_spm_hit = 1;
  unsigned lat_l2_hit = 8;
  unsigned lat_dir = 2;  ///< directory/filter consultation at home
  /// Local SPM-filter lookup for guarded accesses. 1 cycle: the lookup
  /// overlaps the L1 tag probe (as in the ISCA'15 design).
  unsigned lat_filter = 1;
  unsigned lat_router = 2;     ///< per hop
  unsigned lat_link = 1;       ///< per hop

  // --- energies (pJ) ---
  double e_l1_hit = 20.0;
  double e_l1_probe = 8.0;    ///< miss probe (tag check only)
  double e_spm = 6.0;         ///< SPM access: no tag array, no associativity
  double e_l2 = 60.0;
  double e_dir = 8.0;
  double e_filter = 2.0;
  double e_flit_hop = 3.0;
  /// Chip static power expressed as pJ per core-cycle (leakage of the full
  /// tile incl. its slice of the uncore).
  double e_static_per_tile_cycle = 2.0;

  // --- DRAM timing model (memsim/backend.hpp) ---
  MemoryConfig memory;

  unsigned lines_per_chunk() const { return dma_chunk_bytes / line_bytes; }
  /// Flits for one line payload: 1 header + line/8B payload flits.
  unsigned flits_per_line() const { return 1 + line_bytes / 8; }

  /// Exact field-wise equality (the scenario serializer's round-trip
  /// contract — generate -> serialize -> parse — is field-identical).
  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// A broken SystemConfig rule: `field` is the config key to blame, or
/// empty when the rule spans the config as a whole.
struct ConfigError {
  const char* field = "";
  std::string message;
};

/// The SystemConfig rules that span several fields, for the scenario parser
/// and the RAAT reader alike. Both check each field first (unsigned fields
/// positive), so this may divide by line_bytes. Products are taken in 64
/// bits: an `unsigned` `assoc * line_bytes` or `mesh_x * mesh_y` can wrap
/// to a value that passes.
inline std::optional<ConfigError> check_config(const SystemConfig& c) {
  const auto str = [](std::uint64_t v) { return std::to_string(v); };
  if (c.tiles > kMaxTiles)
    return ConfigError{"tiles", "tiles (" + str(c.tiles) + ") exceeds the " +
                                    str(kMaxTiles) + "-tile limit (the "
                                    "directory's sharer mask)"};
  const std::uint64_t mesh = std::uint64_t{c.mesh_x} * c.mesh_y;
  if (c.tiles != mesh)
    return ConfigError{"", "tiles (" + str(c.tiles) +
                               ") must equal mesh_x * mesh_y (" + str(mesh) +
                               ")"};
  if (c.dma_chunk_bytes % c.line_bytes != 0)
    return ConfigError{"dma_chunk_bytes",
                       "dma_chunk_bytes must be a multiple of line_bytes"};
  const struct {
    const char *bytes_key, *assoc_key;
    unsigned bytes, assoc;
  } caches[] = {{"l1_bytes", "l1_assoc", c.l1_bytes, c.l1_assoc},
                {"l2_bank_bytes", "l2_assoc", c.l2_bank_bytes, c.l2_assoc}};
  for (const auto& k : caches) {
    const std::uint64_t set_bytes = std::uint64_t{k.assoc} * c.line_bytes;
    if (k.assoc > kMaxAssoc)
      return ConfigError{k.assoc_key, std::string{k.assoc_key} + " (" +
                                          str(k.assoc) + ") exceeds the " +
                                          str(kMaxAssoc) + "-way limit"};
    if (k.bytes % set_bytes != 0)
      return ConfigError{k.bytes_key, std::string{k.bytes_key} + " (" +
                                          str(k.bytes) +
                                          ") must be a positive multiple of " +
                                          k.assoc_key + " * line_bytes (" +
                                          str(set_bytes) + ")"};
  }
  return std::nullopt;
}

/// The one list of SystemConfig's numeric fields: `f(name, field)` in the
/// order the scenario "config" object and the RAAT trace header share. The
/// flat backend's knobs appear under their legacy config-level names,
/// which scenario files still accept as aliases of "memory.flat".
template <class C, class F>
constexpr void for_each_config_field(C& c, F&& f) {
  f("tiles", c.tiles), f("mesh_x", c.mesh_x), f("mesh_y", c.mesh_y);
  f("mem_controllers", c.mem_controllers), f("line_bytes", c.line_bytes);
  f("l1_bytes", c.l1_bytes), f("l1_assoc", c.l1_assoc);
  f("l2_bank_bytes", c.l2_bank_bytes), f("l2_assoc", c.l2_assoc);
  f("spm_bytes", c.spm_bytes), f("dma_chunk_bytes", c.dma_chunk_bytes);
  f("lat_l1_hit", c.lat_l1_hit), f("lat_spm_hit", c.lat_spm_hit);
  f("lat_l2_hit", c.lat_l2_hit), f("lat_dir", c.lat_dir);
  f("lat_filter", c.lat_filter), f("lat_dram", c.memory.flat.lat_dram);
  f("lat_router", c.lat_router), f("lat_link", c.lat_link);
  f("dram_cycles_per_line", c.memory.flat.dram_cycles_per_line);
  f("e_l1_hit", c.e_l1_hit), f("e_l1_probe", c.e_l1_probe);
  f("e_spm", c.e_spm), f("e_l2", c.e_l2), f("e_dir", c.e_dir);
  f("e_filter", c.e_filter), f("e_dram_line", c.memory.flat.e_dram_line);
  f("e_flit_hop", c.e_flit_hop);
  f("e_static_per_tile_cycle", c.e_static_per_tile_cycle);
}

/// The "memory.flat" keys, `f(name, field)`.
template <class P, class F>
constexpr void for_each_flat_field(P& p, F&& f) {
  f("lat_dram", p.lat_dram);
  f("dram_cycles_per_line", p.dram_cycles_per_line);
  f("e_dram_line", p.e_dram_line);
}

/// The "memory.banked" keys in document order, `f(name, field, zero_ok)`:
/// `zero_ok` marks the unsigned fields that may be 0 (timings, and refresh,
/// which can be disabled outright). `mapping` is the one enum field.
template <class P, class F>
constexpr void for_each_banked_field(P& b, F&& f) {
  f("channels", b.channels, false);
  f("banks_per_channel", b.banks_per_channel, false);
  f("mapping", b.mapping, false), f("row_bytes", b.row_bytes, false);
  f("t_rp", b.t_rp, true), f("t_rcd", b.t_rcd, true);
  f("t_cas", b.t_cas, true), f("line_cycles", b.line_cycles, false);
  f("refresh_interval", b.refresh_interval, true);
  f("refresh_cycles", b.refresh_cycles, true);
  f("dma_cycles_per_line", b.dma_cycles_per_line, false);
  f("e_line", b.e_line, false), f("e_activate", b.e_activate, false);
  f("e_refresh", b.e_refresh, false);
}

/// Which hierarchy the system models (the Figure 1 comparison).
enum class HierarchyMode : std::uint8_t {
  cache_only,  ///< baseline: everything through the cache hierarchy
  hybrid,      ///< SPM+cache with the co-designed coherence protocol
};

constexpr std::array<EnumName<HierarchyMode>, 2> enum_names(
    HierarchyMode) noexcept {
  return {{{HierarchyMode::cache_only, "cache_only"},
           {HierarchyMode::hybrid, "hybrid"}}};
}

/// "cache_only" / "hybrid": the name reports, tables and traces use.
inline const char* to_string(HierarchyMode m) noexcept { return enum_name(m); }

/// Aggregated simulation results.
struct Metrics {
  double cycles = 0.0;  ///< makespan: max per-core clock
  double noc_flit_hops = 0.0;

  // Energy breakdown (pJ).
  double e_l1 = 0.0, e_l2 = 0.0, e_spm = 0.0, e_dram = 0.0, e_noc = 0.0;
  double e_dir = 0.0, e_static = 0.0;

  // Event counters.
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t spm_hits = 0;
  std::uint64_t dram_line_reads = 0, dram_line_writes = 0;
  // Banked-backend row-buffer behaviour (always 0 under the flat model).
  std::uint64_t dram_row_hits = 0, dram_row_misses = 0;
  std::uint64_t dram_row_conflicts = 0, dram_refreshes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t guarded_lookups = 0;
  std::uint64_t guarded_to_spm = 0;
  std::uint64_t remote_spm_accesses = 0;

  double energy_pj() const {
    return e_l1 + e_l2 + e_spm + e_dram + e_noc + e_dir + e_static;
  }

  /// Exact (bit-for-bit, including the FP sums) equality. The simulator's
  /// determinism contracts — sharded vs serial, trace record vs replay —
  /// are *exact*, so equality here is ==, not a tolerance.
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

/// Call `f(name, member_pointer)` for every Metrics field, in declaration
/// order. This is the one field list: metrics diffs, fleet reports and the
/// equality checks in tests all walk it, and a test pins it to
/// sizeof(Metrics), so a new field cannot be left out of any of them.
template <class F>
constexpr void for_each_metric_field(F&& f) {
  f("cycles", &Metrics::cycles);
  f("noc_flit_hops", &Metrics::noc_flit_hops);
  f("e_l1", &Metrics::e_l1);
  f("e_l2", &Metrics::e_l2);
  f("e_spm", &Metrics::e_spm);
  f("e_dram", &Metrics::e_dram);
  f("e_noc", &Metrics::e_noc);
  f("e_dir", &Metrics::e_dir);
  f("e_static", &Metrics::e_static);
  f("accesses", &Metrics::accesses);
  f("l1_hits", &Metrics::l1_hits);
  f("l1_misses", &Metrics::l1_misses);
  f("l2_hits", &Metrics::l2_hits);
  f("l2_misses", &Metrics::l2_misses);
  f("spm_hits", &Metrics::spm_hits);
  f("dram_line_reads", &Metrics::dram_line_reads);
  f("dram_line_writes", &Metrics::dram_line_writes);
  f("dram_row_hits", &Metrics::dram_row_hits);
  f("dram_row_misses", &Metrics::dram_row_misses);
  f("dram_row_conflicts", &Metrics::dram_row_conflicts);
  f("dram_refreshes", &Metrics::dram_refreshes);
  f("invalidations", &Metrics::invalidations);
  f("writebacks", &Metrics::writebacks);
  f("prefetch_fills", &Metrics::prefetch_fills);
  f("dma_transfers", &Metrics::dma_transfers);
  f("guarded_lookups", &Metrics::guarded_lookups);
  f("guarded_to_spm", &Metrics::guarded_to_spm);
  f("remote_spm_accesses", &Metrics::remote_spm_accesses);
}

}  // namespace raa::mem
