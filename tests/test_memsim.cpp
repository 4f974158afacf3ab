// System-level tests of the memory-hierarchy simulator: NoC geometry, MSI
// protocol behaviour through the directory, SPM/DMA software caching, the
// guarded-access path of the hybrid coherence protocol, and randomized
// protocol property tests (the system self-checks that every load is served
// the value of the last store).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "expect_metrics.hpp"
#include "kernels/program.hpp"
#include "memsim/linetable.hpp"
#include "memsim/noc.hpp"
#include "memsim/system.hpp"

namespace {

using raa::kern::AddressSpace;
using raa::kern::Phase;
using raa::kern::ScriptedProgram;
using raa::kern::Stream;
using raa::kern::StreamKind;
using raa::mem::Access;
using raa::mem::CoreProgram;
using raa::mem::HierarchyMode;
using raa::mem::LineInfo;
using raa::mem::LineTable;
using raa::mem::Metrics;
using raa::mem::Noc;
using raa::mem::RefClass;
using raa::mem::Region;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 16;
  cfg.mesh_x = 4;
  cfg.mesh_y = 4;
  return cfg;
}

/// A hand-rolled program from an explicit access list.
class ListProgram final : public CoreProgram {
 public:
  explicit ListProgram(std::vector<Access> accesses)
      : accesses_(std::move(accesses)) {}
  bool next(Access& out) override {
    if (pos_ >= accesses_.size()) return false;
    out = accesses_[pos_++];
    return true;
  }

 private:
  std::vector<Access> accesses_;
  std::size_t pos_ = 0;
};

/// Workload with one explicit per-core access list; unspecified cores idle.
Workload list_workload(const SystemConfig& cfg,
                       std::vector<std::vector<Access>> per_core,
                       std::vector<Region> regions = {}) {
  Workload w;
  w.name = "list";
  w.regions.assign(regions.begin(), regions.end());
  per_core.resize(cfg.tiles);
  for (auto& v : per_core)
    w.programs.push_back(std::make_unique<ListProgram>(std::move(v)));
  return w;
}

TEST(Noc, HopsAreManhattan) {
  const Noc noc{small_cfg()};
  EXPECT_EQ(noc.hops(0, 0), 0u);
  EXPECT_EQ(noc.hops(0, 3), 3u);    // same row
  EXPECT_EQ(noc.hops(0, 12), 3u);   // same column
  EXPECT_EQ(noc.hops(0, 15), 6u);   // opposite corner
  EXPECT_EQ(noc.hops(5, 10), 2u);
  EXPECT_EQ(noc.hops(10, 5), 2u);   // symmetric
}

TEST(Noc, LatencyAndTraffic) {
  const SystemConfig cfg = small_cfg();
  const Noc noc{cfg};
  // 2 hops, 9 flits: head = 2*(2+1), serialization = 8.
  EXPECT_EQ(noc.latency(2, 9), 2 * 3 + 8u);
  EXPECT_EQ(noc.latency(0, 9), 0u);  // local
  EXPECT_DOUBLE_EQ(noc.traffic(2, 9), 18.0);
  EXPECT_DOUBLE_EQ(noc.energy(2, 9), 18.0 * cfg.e_flit_hop);
}

TEST(Noc, NearestMcIsACorner) {
  const Noc noc{small_cfg()};
  EXPECT_EQ(noc.nearest_mc(0), 0u);
  EXPECT_EQ(noc.nearest_mc(3), 3u);
  EXPECT_EQ(noc.nearest_mc(15), 15u);
  EXPECT_EQ(noc.nearest_mc(5), 0u);  // (1,1) closest to corner (0,0)
}

TEST(System, ColdMissThenHit) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = list_workload(cfg, {{
                             Access{4096, false, RefClass::random_noalias, 0},
                             Access{4096, false, RefClass::random_noalias, 0},
                             Access{4100, false, RefClass::random_noalias, 0},
                         }});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.accesses, 3u);
  EXPECT_EQ(m.l1_misses, 1u);  // same line afterwards
  EXPECT_EQ(m.l1_hits, 2u);
  EXPECT_EQ(m.l2_misses, 1u);
  EXPECT_EQ(m.dram_line_reads, 1u);
  EXPECT_GT(m.cycles, 0.0);
  EXPECT_GT(m.energy_pj(), 0.0);
}

TEST(System, SecondCoreLoadServedOnChip) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Core 0 loads the line (granted Exclusive); core 1's later load is
  // forwarded from core 0 — exactly one DRAM fetch happens.
  auto w = list_workload(
      cfg, {{Access{8192, false, RefClass::random_noalias, 0}},
            {Access{8192, false, RefClass::random_noalias, 100}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.l1_misses, 2u);
  EXPECT_EQ(m.dram_line_reads, 1u);
  EXPECT_EQ(m.invalidations, 0u);
}

TEST(System, StoreInvalidatesSharers) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Cores 0..3 read the line; then core 4 (much later) writes it.
  std::vector<std::vector<Access>> acc(cfg.tiles);
  for (unsigned c = 0; c < 4; ++c)
    acc[c] = {Access{16384, false, RefClass::random_noalias, 10 * c}};
  acc[4] = {Access{16384, true, RefClass::random_noalias, 5000}};
  auto w = list_workload(cfg, std::move(acc));
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.invalidations, 4u);
}

TEST(System, OwnerForwardsModifiedData) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Core 0 writes (owns M), then core 1 reads: the value must be forwarded
  // (the built-in oracle would throw on a stale read).
  auto w = list_workload(
      cfg, {{Access{32768, true, RefClass::random_noalias, 0}},
            {Access{32768, false, RefClass::random_noalias, 5000}}});
  EXPECT_NO_THROW({
    const Metrics m = sys.run(w);
    EXPECT_EQ(m.invalidations, 0u);  // read downgrades, does not invalidate
  });
}

TEST(System, WriteWriteMigratesOwnership) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = list_workload(
      cfg, {{Access{32768, true, RefClass::random_noalias, 0}},
            {Access{32768, true, RefClass::random_noalias, 5000},
             Access{32768, false, RefClass::random_noalias, 0}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.invalidations, 1u);  // previous owner dropped
  EXPECT_EQ(m.l1_hits, 1u);        // core 1 re-reads its own M line
}

TEST(System, CapacityEvictionWritesBack) {
  SystemConfig cfg = small_cfg();
  cfg.l1_bytes = 1024;  // 16 lines, 4-way -> 4 sets
  System sys{cfg, HierarchyMode::cache_only};
  // Store to 64 distinct lines mapping across sets: must evict dirty lines.
  std::vector<Access> acc;
  for (std::uint64_t i = 0; i < 64; ++i)
    acc.push_back(Access{1 << 20 | (i * 64), true,
                         RefClass::random_noalias, 0});
  auto w = list_workload(cfg, {std::move(acc)});
  const Metrics m = sys.run(w);
  EXPECT_GT(m.writebacks, 0u);
}

// --- SPM / hybrid path ------------------------------------------------

Workload strided_workload(const SystemConfig& cfg, std::uint64_t elems,
                          bool store, std::uint32_t gap) {
  Workload w;
  w.name = "stream";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part =
      (elems * 8 + cfg.dma_chunk_bytes - 1) / cfg.dma_chunk_bytes *
      cfg.dma_chunk_bytes;
  const Region& r = as.add(w, "data", cfg.tiles * part, RefClass::strided);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> ph;
    ph.push_back(Phase{
        .streams = {Stream{.region = &r, .store = store, .start = c * part,
                           .stride = 8}},
        .iterations = elems,
        .gap_cycles = gap});
    w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(ph), c));
  }
  return w;
}

TEST(System, StridedStreamUsesSpmInHybrid) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = strided_workload(cfg, 4096, false, 2);
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.spm_hits, 16u * 4096u);
  EXPECT_EQ(m.l1_hits + m.l1_misses, 0u);  // nothing through the caches
  EXPECT_GT(m.dma_transfers, 0u);
  // 4096 elems x 8B = 32 KiB per core = 8 chunks.
  EXPECT_EQ(m.dma_transfers, 16u * 8u);
}

TEST(System, SameStreamThroughCachesInBaseline) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = strided_workload(cfg, 4096, false, 2);
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.spm_hits, 0u);
  // The stream prefetcher covers the stream after a short warmup: almost
  // everything hits, the lines arrive as prefetch fills.
  EXPECT_LT(m.l1_misses, 16u * 8u);
  EXPECT_GT(m.prefetch_fills, 16u * 4096u / 8u * 9u / 10u);
  EXPECT_EQ(m.l1_hits + m.l1_misses, 16u * 4096u);
}

TEST(System, HybridBeatsCacheOnlyOnStreams) {
  const SystemConfig cfg = small_cfg();
  auto wa = strided_workload(cfg, 8192, false, 2);
  auto wb = strided_workload(cfg, 8192, false, 2);
  System base{cfg, HierarchyMode::cache_only};
  System hyb{cfg, HierarchyMode::hybrid};
  const Metrics mb = base.run(wa);
  const Metrics mh = hyb.run(wb);
  EXPECT_LT(mh.cycles, mb.cycles);
  EXPECT_LT(mh.energy_pj(), mb.energy_pj());
  // Cold read-only streams are near NoC parity (the data crosses the mesh
  // once either way); the protocol's NoC wins come from write streams and
  // control elimination, covered by the kernel-level tests.
  EXPECT_LT(mh.noc_flit_hops, mb.noc_flit_hops * 1.25);
}

TEST(System, DirtyChunksAreWrittenBack) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = strided_workload(cfg, 1024, true, 2);
  const Metrics m = sys.run(w);
  // 1024 elems x 8B = 8 KiB = 2 chunks per core, all dirty; DMA is
  // L2-backed, so the writebacks land in the home banks (not DRAM).
  EXPECT_EQ(m.writebacks, 16u * 2u);
  EXPECT_EQ(m.dram_line_writes, 0u);  // L2 easily holds the working set
}

TEST(System, DoubleBufferingHidesDmaWhenComputeBound) {
  const SystemConfig cfg = small_cfg();
  // gap=16: plenty of compute per element; DMA latency ~ hundreds of cycles
  // per 64-line chunk while compute per chunk is 512*16 cycles.
  auto wa = strided_workload(cfg, 8192, false, 16);
  System hyb{cfg, HierarchyMode::hybrid};
  const Metrics m = hyb.run(wa);
  // Lower bound: pure compute+spm time; stalls should add <5%.
  const double ideal = 8192.0 * (16 + cfg.lat_spm_hit);
  EXPECT_LT(m.cycles, ideal * 1.05);
}

TEST(System, GuardedAccessFindsSpmMappedData) {
  SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "guarded";
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& r = as.add(w, "shared", 16 * 4096, RefClass::strided);

  // Core 0: strided writes over its chunk-aligned slice (SPM-mapped, slow
  // enough to still be mapped when core 1 probes).
  std::vector<Phase> p0;
  p0.push_back(Phase{
      .streams = {Stream{.region = &r, .store = true, .start = 0,
                         .stride = 8}},
      .iterations = 512,
      .gap_cycles = 4});
  // Core 1: guarded loads into core 0's slice, delayed so the mapping
  // exists.
  std::vector<Access> acc1;
  for (int i = 0; i < 64; ++i)
    acc1.push_back(Access{r.base + static_cast<std::uint64_t>(i) * 64, false,
                          RefClass::random_unknown,
                          i == 0 ? 800u : 4u});
  w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(p0), 1));
  w.programs.push_back(std::make_unique<ListProgram>(std::move(acc1)));
  for (unsigned c = 2; c < cfg.tiles; ++c)
    w.programs.push_back(std::make_unique<ListProgram>(std::vector<Access>{}));

  System sys{cfg, HierarchyMode::hybrid};
  const Metrics m = sys.run(w);
  EXPECT_GT(m.guarded_lookups, 0u);
  EXPECT_GT(m.guarded_to_spm, 0u);
  EXPECT_GT(m.remote_spm_accesses, 0u);
}

TEST(System, GuardedStoreToMappedChunkForcesWriteback) {
  SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "guarded_store";
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& r = as.add(w, "shared", 16 * 4096, RefClass::strided);

  // Core 0 reads its slice (clean chunk); core 1 guarded-stores into it;
  // the final flush must write the chunk back even though the owner never
  // stored.
  std::vector<Phase> p0;
  p0.push_back(Phase{
      .streams = {Stream{.region = &r, .start = 0, .stride = 8}},
      .iterations = 512,
      .gap_cycles = 4});
  std::vector<Access> acc1 = {
      Access{r.base + 128, true, RefClass::random_unknown, 600}};
  w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(p0), 1));
  w.programs.push_back(std::make_unique<ListProgram>(std::move(acc1)));
  for (unsigned c = 2; c < cfg.tiles; ++c)
    w.programs.push_back(std::make_unique<ListProgram>(std::vector<Access>{}));

  System sys{cfg, HierarchyMode::hybrid};
  const Metrics m = sys.run(w);
  EXPECT_GT(m.guarded_to_spm, 0u);
  EXPECT_GT(m.writebacks, 0u);  // dirty-tagged chunk flushed at unmap
}

TEST(System, GuardedFallsThroughToCacheWhenUnmapped) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = list_workload(
      cfg, {{Access{1 << 21, false, RefClass::random_unknown, 0},
             Access{1 << 21, true, RefClass::random_unknown, 0}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.guarded_lookups, 2u);
  EXPECT_EQ(m.guarded_to_spm, 0u);
  EXPECT_EQ(m.l1_misses, 1u);
  EXPECT_EQ(m.l1_hits, 1u);
}

// --- protocol property test -------------------------------------------

// FT-like random mixture: every core strided-walks its slice of a shared
// region (SPM-mapped in chunks) while scattering guarded stores/loads over
// the whole region, with random gaps. The System's internal oracle throws
// on any stale value, so "runs to completion" is the property.
class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, NoStaleDataUnderRandomInterleavings) {
  SystemConfig cfg = small_cfg();
  const std::uint64_t seed = GetParam();
  raa::Rng rng{seed};
  Workload w;
  w.name = "fuzz";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const Region& r = as.add(w, "shared", cfg.tiles * part, RefClass::strided);

  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    const unsigned rounds = 2 + static_cast<unsigned>(rng.below(3));
    for (unsigned k = 0; k < rounds; ++k) {
      // Strided pass over own slice (alternating load/store rounds).
      phases.push_back(Phase{
          .streams = {Stream{.region = &r, .store = (k % 2 == 1),
                             .start = c * part, .stride = 8}},
          .iterations = part / 8,
          .gap_cycles = static_cast<std::uint32_t>(rng.below(6))});
      // Guarded scatter over the whole region.
      phases.push_back(Phase{
          .streams = {Stream{.region = &r, .kind = StreamKind::random_rmw,
                             .ref = RefClass::random_unknown,
                             .elem_bytes = 8}},
          .iterations = 64 + rng.below(128),
          .gap_cycles = static_cast<std::uint32_t>(rng.below(8))});
    }
    w.programs.push_back(std::make_unique<ScriptedProgram>(
        std::move(phases), seed * 97 + c));
  }

  System sys{cfg, HierarchyMode::hybrid};
  Metrics m;
  ASSERT_NO_THROW(m = sys.run(w));  // oracle inside would throw on staleness
  EXPECT_GT(m.guarded_lookups, 0u);
  EXPECT_GT(m.spm_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- line table --------------------------------------------------------

TEST(LineTable, DefaultsEncodeAbsence) {
  LineTable t{64};
  EXPECT_EQ(t.peek(0), nullptr);  // untouched: no page allocated
  const LineInfo& li = t.at(1 << 20);
  EXPECT_EQ(li.dram, 0u);
  EXPECT_EQ(li.oracle, 0u);
  EXPECT_EQ(li.sharers, 0u);
  EXPECT_EQ(li.prefetch_mask, 0u);
  EXPECT_EQ(li.owner, -1);
  EXPECT_FALSE(li.spm_mapped);
  EXPECT_FALSE(li.spm_valid);
}

TEST(LineTable, RecordsArePerLineAndPersistent) {
  LineTable t{64};
  t.at(64 * 7).dram = 111;
  t.at(64 * 8).dram = 222;
  EXPECT_EQ(t.at(64 * 7).dram, 111u);
  EXPECT_EQ(t.at(64 * 8).dram, 222u);
  // peek sees the same records without allocating.
  ASSERT_NE(t.peek(64 * 7), nullptr);
  EXPECT_EQ(t.peek(64 * 7)->dram, 111u);
}

TEST(LineTable, PageBoundaryNeighboursAreDistinct) {
  LineTable t{64};
  // Last line of page 0 and first line of page 1.
  const std::uint64_t last = (LineTable::kPageLines - 1) * 64;
  const std::uint64_t first = LineTable::kPageLines * 64;
  t.at(last).oracle = 1;
  t.at(first).oracle = 2;
  EXPECT_EQ(t.at(last).oracle, 1u);
  EXPECT_EQ(t.at(first).oracle, 2u);
  EXPECT_EQ(t.pages_allocated(), 2u);
}

TEST(LineTable, SparseAddressesAllocateOnlyTouchedPages) {
  LineTable t{64};
  t.at(0);
  t.at(std::uint64_t{1} << 30);  // ~16M lines away
  EXPECT_EQ(t.pages_allocated(), 2u);
  EXPECT_GT(t.page_slots(), 2u);  // top-level vector is sparse (null slots)
  // A line between the two touched pages is still unallocated.
  EXPECT_EQ(t.peek(std::uint64_t{1} << 25), nullptr);
}

TEST(LineTable, UnmapSemanticsViaFlags) {
  LineTable t{64};
  LineInfo& li = t.at(4096);
  li.spm_mapped = true;
  li.spm_tile = 3;
  li.spm_chunk_tag = 42;
  li.spm_valid = true;
  li.spm_value = 7;
  // Unmap = clearing the flags; the record itself stays.
  li.spm_valid = false;
  li.spm_mapped = false;
  const LineInfo& again = t.at(4096);
  EXPECT_FALSE(again.spm_mapped);
  EXPECT_FALSE(again.spm_valid);
  EXPECT_EQ(again.spm_chunk_tag, 42u);  // stale tag is fine: gated by flags
}

TEST(LineTable, ClearDropsEverything) {
  LineTable t{64};
  t.at(128).dram = 9;
  t.clear();
  EXPECT_EQ(t.pages_allocated(), 0u);
  EXPECT_EQ(t.peek(128), nullptr);
  EXPECT_EQ(t.at(128).dram, 0u);
}

TEST(LineTable, NonPowerOfTwoLineSize) {
  LineTable t{96};
  t.at(96 * 5).dram = 5;
  t.at(96 * 6).dram = 6;
  EXPECT_EQ(t.at(96 * 5).dram, 5u);
  EXPECT_EQ(t.at(96 * 6).dram, 6u);
}

// --- line table vs a std::map model ------------------------------------
//
// The model holds one LineInfo per line `at()` touched since the last
// clear(); an absent key means a default record. Every field is compared.

auto fields(const LineInfo& l) {
  return std::tie(l.dram, l.oracle, l.spm_value, l.sharers, l.prefetch_mask,
                  l.spm_chunk_tag, l.owner, l.spm_tile, l.spm_mapped,
                  l.spm_valid);
}

void randomize(LineInfo& l, raa::Rng& rng) {
  l.dram = rng();
  l.oracle = rng();
  l.spm_value = rng();
  l.sharers = rng();
  l.prefetch_mask = rng();
  l.spm_chunk_tag = static_cast<std::uint32_t>(rng());
  l.owner = static_cast<std::int8_t>(static_cast<int>(rng.below(65)) - 1);
  l.spm_tile = static_cast<std::uint8_t>(rng.below(64));
  l.spm_mapped = rng.chance(0.5);
  l.spm_valid = rng.chance(0.5);
}

class LineTableModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LineTableModel, RandomOpsMatchMapModel) {
  constexpr std::uint64_t kPage = LineTable::kPageLines;
  for (const unsigned line_bytes : {64u, 96u}) {
    SCOPED_TRACE(line_bytes);
    raa::Rng rng{GetParam()};
    LineTable table{line_bytes};
    std::map<std::uint64_t, LineInfo> model;
    const auto model_pages = [&] {
      std::set<std::uint64_t> pages;
      for (const auto& [line, li] : model)
        pages.insert(line / line_bytes / kPage);
      return pages.size();
    };
    for (int op = 0; op < 4000; ++op) {
      // Half the lines sit within two lines of a page edge, where a wrong
      // page or slot index would alias a neighbour.
      const std::uint64_t idx =
          rng.chance(0.5) ? (1 + rng.below(8)) * kPage - 2 + rng.below(4)
                          : rng.below(16 * kPage);
      const std::uint64_t line = idx * line_bytes;
      const auto it = model.find(line);
      const LineInfo want = it == model.end() ? LineInfo{} : it->second;
      const std::uint64_t kind = rng.below(200);
      if (kind == 0) {
        table.clear();
        model.clear();
        ASSERT_EQ(table.pages_allocated(), 0u);
      } else if (kind < 80) {
        const std::size_t pages = table.pages_allocated();
        const LineInfo* got = table.peek(line);
        EXPECT_EQ(table.pages_allocated(), pages);  // peek never allocates
        if (got == nullptr)
          ASSERT_FALSE(model.contains(line));
        else
          ASSERT_EQ(fields(*got), fields(want));
      } else {
        LineInfo& li = table.at(line);
        ASSERT_EQ(fields(li), fields(want));
        if (rng.chance(0.7)) randomize(li, rng);
        model[line] = li;
      }
    }
    EXPECT_EQ(table.pages_allocated(), model_pages());
    for (const auto& [line, want] : model) {
      const LineInfo* got = table.peek(line);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(fields(*got), fields(want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineTableModel,
                         ::testing::Values(11, 23, 47, 95, 191));

TEST(LineTable, ReferencesSurviveLaterPageAllocation) {
  // The simulator holds a LineInfo& across evictions that touch other
  // lines; growing the top-level page vector must not move any record.
  constexpr std::uint64_t kPage = LineTable::kPageLines;
  for (const unsigned line_bytes : {64u, 96u}) {
    LineTable t{line_bytes};
    std::vector<std::uint64_t> lines;
    std::vector<LineInfo*> held;
    for (std::uint64_t p = 0; p < 4; ++p) {
      lines.push_back((p * kPage + kPage - 1) * line_bytes);
      held.push_back(&t.at(lines.back()));
      held.back()->dram = p + 1;
    }
    for (std::uint64_t p = 4; p < 260; p += 3)
      t.at(p * kPage * line_bytes).oracle = p;
    for (std::size_t i = 0; i < held.size(); ++i) {
      EXPECT_EQ(&t.at(lines[i]), held[i]);
      EXPECT_EQ(held[i]->dram, i + 1);
    }
  }
}

// --- the Metrics field list ---------------------------------------------

TEST(MetricsFields, VisitorCoversEveryFieldOnce) {
  std::set<std::string> names;
  std::size_t visited = 0;
  Metrics m;
  raa::mem::for_each_metric_field(
      [&]<class T>(const char* name, T Metrics::*field) {
        names.insert(name);
        m.*field = static_cast<T>(++visited);
      });
  EXPECT_EQ(names.size(), visited);  // unique names
  // Every field is 8 bytes: a field the visitor misses shows up here.
  EXPECT_EQ(visited * 8, sizeof(Metrics));
  // Distinct members: each one still holds the value written to it.
  std::size_t i = 0;
  raa::mem::for_each_metric_field([&](const char* name, auto field) {
    EXPECT_EQ(m.*field, ++i) << name;
  });
}

// --- sharded vs serial equivalence -------------------------------------
//
// System::run has one commit loop and two batch sources: the inline source
// (shards = 1) calls fill() on the commit thread; the shard source
// adopts batches that concurrent producer lanes generated ahead. These
// tests pin the contract that the Metrics are *field-identical* under both
// sources for any shard count — which proves determinism even on hosts
// where no parallel speedup is observable.

/// FT-like mixed-class workload: strided SPM streams over per-core slices,
/// guarded rmw scatter over the shared region, and random no-alias traffic
/// in a cache-served region. Exercises every access class plus DMA
/// map/unmap, guarded redirection, and the prefetcher.
Workload mixed_workload(const SystemConfig& cfg, std::uint64_t seed) {
  raa::Rng rng{seed};
  Workload w;
  w.name = "mixed";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const Region& shared =
      as.add(w, "shared", cfg.tiles * part, RefClass::strided);
  const Region& priv =
      as.add(w, "private", cfg.tiles * 2048, RefClass::random_noalias);

  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    const unsigned rounds = 2 + static_cast<unsigned>(rng.below(2));
    for (unsigned k = 0; k < rounds; ++k) {
      phases.push_back(Phase{
          .streams = {Stream{.region = &shared, .store = (k % 2 == 1),
                             .start = c * part, .stride = 8}},
          .iterations = part / 8,
          .gap_cycles = static_cast<std::uint32_t>(rng.below(6))});
      phases.push_back(Phase{
          .streams = {Stream{.region = &shared, .kind = StreamKind::random_rmw,
                             .ref = RefClass::random_unknown,
                             .elem_bytes = 8},
                      Stream{.region = &priv, .kind = StreamKind::random,
                             .ref = RefClass::random_noalias,
                             .slice_bytes = 2048, .slice_base = c * 2048,
                             .elem_bytes = 8}},
          .iterations = 64 + rng.below(96),
          .gap_cycles = static_cast<std::uint32_t>(rng.below(8))});
    }
    w.programs.push_back(std::make_unique<ScriptedProgram>(
        std::move(phases), seed * 131 + c));
  }
  return w;
}

class ShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardEquivalence, ShardedRunMatchesSerialInterleave) {
  const std::uint64_t seed = GetParam();
  const SystemConfig cfg = small_cfg();
  for (const auto mode :
       {HierarchyMode::cache_only, HierarchyMode::hybrid}) {
    auto ws = mixed_workload(cfg, seed);
    System serial{cfg, mode};
    const Metrics reference = serial.run(ws);
    ASSERT_GT(reference.accesses, 0u);
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
      auto w = mixed_workload(cfg, seed);
      System sys{cfg, mode};
      const Metrics m = sys.run(w, raa::mem::RunOptions{.shards = shards});
      expect_metrics_equal(reference, m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalence,
                         ::testing::Values(13, 29, 61, 127, 251));

TEST(ShardedRun, SystemAndPoolReuseAcrossRuns) {
  // Back-to-back runs on one System carry cache/DRAM state forward; the
  // sharded engine must match the serial engine's carried state exactly.
  const SystemConfig cfg = small_cfg();
  System serial{cfg, HierarchyMode::hybrid};
  System sharded{cfg, HierarchyMode::hybrid};
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    auto ws = mixed_workload(cfg, seed);
    auto wp = mixed_workload(cfg, seed);
    const Metrics a = serial.run(ws);
    const Metrics b = sharded.run(wp, raa::mem::RunOptions{.shards = 4});
    expect_metrics_equal(a, b);
  }
}

TEST(ShardedRun, ComparisonHalvesIndependentOfPool) {
  const SystemConfig cfg = small_cfg();
  const auto make = [&] { return mixed_workload(cfg, 17); };
  const auto serial = raa::mem::run_comparison(cfg, make);
  raa::exec::Pool pool{2};
  const auto parallel = raa::mem::run_comparison(
      cfg, make, raa::mem::ComparisonOptions{.shards = 2, .pool = &pool});
  expect_metrics_equal(serial.cache_only, parallel.cache_only);
  expect_metrics_equal(serial.hybrid, parallel.hybrid);
}

/// Thrown by ProbeProgram; distinct from CheckError on purpose.
struct ProducerFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Forwards to `inner`, recording the thread of every fill() into `threads`
/// and throwing ProducerFailure from fill() number `throw_on` (0: never).
class ProbeProgram final : public CoreProgram {
 public:
  using Threads = std::set<std::thread::id>;
  ProbeProgram(std::unique_ptr<CoreProgram> inner,
               std::shared_ptr<Threads> threads, unsigned throw_on = 0)
      : inner_(std::move(inner)),
        threads_(std::move(threads)),
        throw_on_(throw_on) {}
  bool next(Access& out) override { return inner_->next(out); }
  std::size_t fill(std::span<Access> out) override {
    threads_->insert(std::this_thread::get_id());
    if (++fills_ == throw_on_) throw ProducerFailure{"probe fill failed"};
    return inner_->fill(out);
  }

 private:
  std::unique_ptr<CoreProgram> inner_;
  std::shared_ptr<Threads> threads_;
  unsigned throw_on_;
  unsigned fills_ = 0;
};

TEST(ShardedRun, ProducerFailurePropagates) {
  // A fill() that throws on a producer lane must surface as itself, not
  // as the commit loop's "shard producer failed" reaction to it: the
  // helping wait exits on failed() and drive() rethrows the producer's
  // error first.
  const SystemConfig cfg = small_cfg();
  for (const unsigned shards : {2u, 4u}) {
    auto w = mixed_workload(cfg, 11);
    w.programs[0] = std::make_unique<ProbeProgram>(
        std::move(w.programs[0]), std::make_shared<ProbeProgram::Threads>(),
        /*throw_on=*/3);
    System sys{cfg, HierarchyMode::hybrid};
    EXPECT_THROW(sys.run(w, raa::mem::RunOptions{.shards = shards}),
                 ProducerFailure)
        << shards << " shards";
  }
}

TEST(ShardedRun, ComparisonPoolKeepsSingleShardInline) {
  // A comparison pool runs the two halves concurrently, but a one-shard
  // half must still use the inline source: every fill() of a program on
  // the thread that runs its commit loop.
  const SystemConfig cfg = small_cfg();
  std::mutex mutex;  // make_workload runs on both halves' threads
  std::vector<std::shared_ptr<ProbeProgram::Threads>> seen;
  const auto make = [&] {
    auto w = mixed_workload(cfg, 17);
    for (auto& p : w.programs) {
      auto threads = std::make_shared<ProbeProgram::Threads>();
      {
        const std::scoped_lock lock{mutex};
        seen.push_back(threads);
      }
      p = std::make_unique<ProbeProgram>(std::move(p), threads);
    }
    return w;
  };
  raa::exec::Pool pool{2};
  (void)raa::mem::run_comparison(
      cfg, make, raa::mem::ComparisonOptions{.shards = 1, .pool = &pool});
  ASSERT_EQ(seen.size(), 2u * cfg.tiles);
  for (const auto& threads : seen) EXPECT_EQ(threads->size(), 1u);
}

TEST(ShardedRun, PropagatesProtocolViolations) {
  // A protocol self-check failure inside the commit loop must unwind
  // cleanly through the producer machinery (drained, not deadlocked).
  const SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "conflict";
  // Two cores write the same strided chunk -> SPM map conflict check.
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& shared =
      as.add(w, "shared", cfg.dma_chunk_bytes, RefClass::strided);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .store = true, .start = 0,
                           .stride = 8}},
        .iterations = 16});
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(phases), 1));
  }
  System sys{cfg, HierarchyMode::hybrid};
  EXPECT_THROW(sys.run(w, raa::mem::RunOptions{.shards = 4}),
               std::logic_error);
}

TEST(System, CheckFailureIsCatchableAsTypedCheckError) {
  // The robustness contract the fleet engine is built on: a RAA_CHECK
  // failure inside System::run must surface as raa::CheckError — a typed,
  // catchable exception — never an abort(). The wrong-program-count check
  // in begin_run is the cheapest deterministic trigger.
  const SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "undersized";  // no programs at all, cfg.tiles expected
  System sys{cfg, HierarchyMode::hybrid};
  try {
    sys.run(w);
    FAIL() << "expected RAA_CHECK to throw";
  } catch (const raa::CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("one program per tile"),
              std::string::npos);
  }
  // CheckError derives from std::logic_error, so pre-existing catch
  // sites (e.g. PropagatesProtocolViolations above) keep working.
  Workload w2;
  System sys2{cfg, HierarchyMode::cache_only};
  EXPECT_THROW(sys2.run(w2), std::logic_error);
}

TEST(System, DeterministicMetrics) {
  const SystemConfig cfg = small_cfg();
  auto wa = strided_workload(cfg, 2048, true, 3);
  auto wb = strided_workload(cfg, 2048, true, 3);
  System s1{cfg, HierarchyMode::hybrid};
  System s2{cfg, HierarchyMode::hybrid};
  const Metrics a = s1.run(wa);
  const Metrics b = s2.run(wb);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.energy_pj(), b.energy_pj());
  EXPECT_DOUBLE_EQ(a.noc_flit_hops, b.noc_flit_hops);
}

}  // namespace
