#pragma once
/// \file system.hpp
/// The tiled-manycore memory-hierarchy simulator (§2, Figure 1).
///
/// Trace-driven, functional + timing + energy. Each core consumes its
/// access stream in program order, blocking on memory; cores interleave
/// deterministically (the core with the smallest local clock advances
/// next). Shared state — L2 banks, directory, SPM mappings — is updated
/// atomically per access.
///
/// Two configurations:
///  * cache_only: every access goes through L1 -> home L2 bank (+directory)
///    -> DRAM with an MSI invalidation protocol;
///  * hybrid: strided references run through DMA-managed SPM chunks,
///    random/no-alias references through the caches, and random/unknown
///    references are *guarded*: a filter decides at run time whether the
///    valid copy lives in an SPM or in the cache hierarchy (the paper's
///    co-designed coherence protocol).
///
/// The simulator keeps a functional value per line end-to-end (L1/L2/SPM/
/// DRAM) and checks on every load that the value served equals the value
/// of the last store in simulation order — i.e. that the protocol never
/// serves stale data. This check is what the protocol unit tests lean on,
/// and it stays enabled in benches (it would fail loudly on a protocol
/// bug).
///
/// Hot-path engineering: all per-line bookkeeping (DRAM/oracle/SPM values,
/// directory, SPM mappings, prefetch tags) lives in one flat line table
/// (linetable.hpp) fetched once per access; cores interleave through a
/// flat index-min heap sifted in place; access streams are pulled in
/// batches through CoreProgram::fill.
///
/// One commit loop serves every run. It is templated on where a core's
/// next batch comes from: an inline source calls fill() on the commit
/// thread (the serial engine), a shard source adopts batches that N
/// concurrent producer lanes (src/exec/) generated ahead. The protocol
/// commit is the same code in the same interleave order either way, so
/// the Metrics are field-identical for every N (pinned by the
/// ShardEquivalence suite; design note in docs/ARCHITECTURE.md).

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "memsim/access.hpp"
#include "memsim/backend.hpp"
#include "memsim/cache.hpp"
#include "memsim/config.hpp"
#include "memsim/linetable.hpp"
#include "memsim/noc.hpp"
#include "memsim/spm.hpp"

namespace raa::exec {
class Pool;
}  // namespace raa::exec

namespace raa::mem {

/// Execution options for System::run. The simulated outcome is a pure
/// function of the workload: *any* shard count produces Metrics
/// field-identical to the serial interleave (the ShardEquivalence suite
/// pins this). Sharding decouples the access-stream front end —
/// CoreProgram::fill batch generation into per-core double-buffered
/// channels — onto concurrent producer lanes, while the protocol commit
/// loop consumes the channels in the exact serial interleave order, so
/// every shared-state transition (L2 banks, directory, line values,
/// version/tag counters, metrics) happens in the identical sequence.
struct RunOptions {
  /// Concurrent front-end lanes. 1 = the serial engine: fills run inline
  /// on the commit thread, with no lock or pool call. N > 1 runs the
  /// producers on a private exec::Pool of N - 1 workers; the committing
  /// thread is the remaining lane.
  unsigned shards = 1;
};

/// See file comment.
class System {
 public:
  System(const SystemConfig& config, HierarchyMode mode);

  /// Run a workload to completion and return the metrics. The workload's
  /// programs are consumed. Requires programs.size() == config.tiles.
  /// `options` selects serial or sharded front-end execution; the result
  /// is the same either way (see RunOptions).
  Metrics run(Workload& workload, const RunOptions& options = {});

  HierarchyMode mode() const noexcept { return mode_; }
  const SystemConfig& config() const noexcept { return cfg_; }

 private:
  static std::uint64_t bit(unsigned tile) noexcept {
    return std::uint64_t{1} << tile;
  }

  std::uint64_t line_of(std::uint64_t addr) const {
    return line_pow2_ ? addr & ~std::uint64_t{cfg_.line_bytes - 1}
                      : addr / cfg_.line_bytes * cfg_.line_bytes;
  }
  /// Home L2 bank. Interleaved at DMA-chunk granularity so a chunk has a
  /// single home: the SPM-directory transaction is one message and DMA
  /// transfers are single bursts (per-line interleaving would shatter every
  /// chunk across all banks).
  unsigned home_of(std::uint64_t line_addr) const {
    const std::uint64_t chunk = chunk_pow2_
                                    ? line_addr >> chunk_shift_
                                    : line_addr / cfg_.dma_chunk_bytes;
    return static_cast<unsigned>(
        tiles_pow2_ ? chunk & (cfg_.tiles - 1) : chunk % cfg_.tiles);
  }

  /// Account one message (traffic + energy) and return its latency.
  unsigned send(unsigned from, unsigned to, unsigned flits);

  /// Blocking demand read on the DRAM backend: enqueue, tick until the
  /// completion fires, return the latency. Commit-thread only.
  unsigned dram_read(std::uint64_t line, unsigned mc);

  // --- value plumbing (functional coherence model) ---
  std::uint64_t fresh_version() { return ++version_counter_; }
  void check_load_value(const LineInfo& li, std::uint64_t served) const;

  // --- cache-path protocol actions (return latency in cycles) ---
  unsigned cache_access(unsigned core, std::uint64_t line, LineInfo& li,
                        bool store);
  /// Tagged next-line stream prefetch into `core`'s L1 (latency hidden,
  /// traffic and energy fully charged).
  void prefetch(unsigned core, std::uint64_t line);
  unsigned upgrade_to_modified(unsigned core, std::uint64_t line,
                               LineInfo& li);
  /// Fetch the line for `core`; fills `value` with the coherent data and
  /// returns latency. Handles owner forwarding / L2 / DRAM.
  unsigned fetch_line(unsigned core, std::uint64_t line, LineInfo& li,
                      std::uint64_t& value, bool for_store);
  void l1_install(unsigned core, std::uint64_t line, LineState st,
                  std::uint64_t value);
  void l2_install(std::uint64_t line, std::uint64_t value, bool dirty);
  /// l2_install for a line the caller just probed absent (skips re-probe).
  void l2_insert_absent(unsigned home, std::uint64_t line,
                        std::uint64_t value, bool dirty);
  /// Invalidate every L1 copy except `except_core` (-1: all); returns the
  /// latency of the farthest invalidation round trip from the home.
  unsigned invalidate_sharers(std::uint64_t line, LineInfo& li,
                              int except_core);

  // --- SPM path ---
  unsigned spm_access(unsigned core, std::size_t region_idx,
                      const Region& region, std::uint64_t addr,
                      std::uint64_t line, bool store);
  /// Map a chunk into `core`'s SPM slice. With `fetch`, DMA-in the valid
  /// copies (invalidating cached ones); without (write-allocated output
  /// chunk) only the coherence actions run and lines become valid in the
  /// SPM as they are written. Returns the DMA latency (before overlap).
  double dma_map_chunk(unsigned core, const Region& region,
                       std::uint64_t chunk_index, std::uint32_t chunk_tag,
                       bool fetch);
  void dma_unmap_chunk(unsigned core, const Region& region,
                       SoftwareCacheState& st);
  /// `line` is the (already line-aligned) address of the access.
  unsigned guarded_access(unsigned core, std::uint64_t line, bool store);

  // --- chunk-tag dirty bits (guarded remote stores) ---
  void mark_dirty_tag(std::uint32_t tag) {
    if (tag >= dirty_tags_.size()) {
      // Geometric growth, seeded from the tag counter: tags are handed
      // out sequentially, so one-element resize(tag + 1) steps would copy
      // the bitmap quadratically over a run.
      std::size_t n = std::max<std::size_t>(2 * dirty_tags_.size(), 64);
      n = std::max(n, std::size_t{tag} + 1);
      n = std::max(n, std::size_t{chunk_tag_counter_} + 1);
      dirty_tags_.resize(n, 0);
    }
    dirty_tags_[tag] = 1;
  }
  bool dirty_tag(std::uint32_t tag) const {
    return tag < dirty_tags_.size() && dirty_tags_[tag] != 0;
  }

  void flush_all_software_caches();

  // --- run engine (system.cpp) ---
  /// Reset per-run state and flatten the workload's region table.
  void begin_run(Workload& workload);
  /// Flush software caches, finalise cycles/static energy, detach.
  Metrics finish_run();
  /// Simulate one access of `core` end to end (clock advance + protocol).
  /// `last_region` memoises the core's region lookup across accesses.
  void step(unsigned core, const Access& acc, std::size_t& last_region);
  /// The commit loop: pick the core with the smallest clock, refill its
  /// batch (or retire it), step one access, re-seat it. The batch source
  /// `next_batch(core)` returns the core's next accesses, empty at the end.
  template <class NextBatch>
  void commit(NextBatch&& next_batch);

  SystemConfig cfg_;
  HierarchyMode mode_;
  Noc noc_;
  bool line_pow2_ = false;
  bool chunk_pow2_ = false;
  bool tiles_pow2_ = false;
  unsigned chunk_shift_ = 0;
  unsigned flits_line_ = 0;  ///< cfg_.flits_per_line(), cached

  std::vector<Cache> l1_;  ///< one per tile
  /// One bank per tile. L2 line state encodes cleanliness: shared = clean,
  /// modified = dirty w.r.t. DRAM.
  std::vector<Cache> l2_;
  /// All per-line state: DRAM/oracle/SPM values, directory entry, SPM
  /// mapping, prefetch tags. One record per line, one lookup per access.
  LineTable lines_;

  /// (core, region) software-cache states, flat: core * region_count + r.
  /// Sized at the start of run() from the workload's region table.
  std::vector<SoftwareCacheState> streams_;
  std::size_t region_count_ = 0;
  /// Flat copy of the workload's region deque for the run (hot lookups).
  std::vector<Region> run_regions_;
  /// Chunks dirtied by *remote* guarded stores, indexed by chunk tag
  /// (tags are handed out sequentially, so a flat bitmap replaces a set).
  std::vector<std::uint8_t> dirty_tags_;
  std::vector<SpmAllocator> spm_alloc_;
  const Workload* workload_ = nullptr;

  std::vector<double> core_clock_;
  std::uint64_t version_counter_ = 0;
  std::uint32_t chunk_tag_counter_ = 0;
  Metrics metrics_;

  /// DRAM timing model (memsim/backend.hpp). Only ever driven from the
  /// commit thread, so its state evolves identically for any shard count.
  std::unique_ptr<MemBackend> backend_;
  double now_ = 0.0;  ///< commit-loop clock handed to the backend
  bool read_done_ = false;
  double read_latency_ = 0.0;

  /// Row-counter snapshot at the previous backend completion: the delta
  /// classifies each completed request as row hit/miss/conflict for the
  /// dram.complete trace event (backend services are serial on the
  /// commit thread, so the delta is exact). Reset by begin_run.
  struct ObsRowSnap {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t conflicts = 0;
  } obs_rows_;

  // Stream-prefetcher state (per core): 8 sequential-stream trackers; the
  // prefetched-but-not-yet-used "tag" bit lives in LineInfo::prefetch_mask.
  std::vector<std::array<std::uint64_t, 8>> stream_trackers_;
  std::vector<std::size_t> tracker_rr_;
  /// Set by fetch_line when the last load fill was granted Exclusive.
  bool exclusive_grant_ = false;
};

/// Convenience: run `make_workload()` under both configurations and return
/// {cache_only, hybrid} metrics. Used by tests and the Figure 1 bench.
struct ComparisonResult {
  Metrics cache_only;
  Metrics hybrid;

  double time_speedup() const { return cache_only.cycles / hybrid.cycles; }
  double energy_speedup() const {
    return cache_only.energy_pj() / hybrid.energy_pj();
  }
  double noc_speedup() const {
    return cache_only.noc_flit_hops / hybrid.noc_flit_hops;
  }
};

/// Options for run_comparison.
struct ComparisonOptions {
  /// Forwarded to each half's System::run (front-end sharding; a sharded
  /// half owns its own producer pool, independent of `pool`).
  unsigned shards = 1;
  /// When set, the two halves — independent System instances over
  /// independently built workloads — run concurrently on this pool, with
  /// results assigned by submission index (cache_only first), never by
  /// completion order. `make_workload` must then be safe to call from two
  /// threads at once. Null runs the halves back to back.
  exec::Pool* pool = nullptr;
};

/// Build and run `make_workload()` under both hierarchy configurations.
/// Each half constructs its own System, so the halves are independent by
/// construction and the metrics are identical for every options
/// combination.
ComparisonResult run_comparison(const SystemConfig& config,
                                const std::function<Workload()>& make_workload,
                                const ComparisonOptions& options = {});

}  // namespace raa::mem
