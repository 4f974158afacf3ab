#include "memsim/system.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <span>

#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"

namespace raa::mem {

namespace {

/// Flat index-min tournament (loser) tree over the core ids, keyed by
/// (clock, core id) lexicographically — the same deterministic
/// interleaving order the old std::priority_queue<pair<double, unsigned>>
/// produced, without a pop/push pair per access. After the winning core's
/// clock advances, one replay along its leaf-to-root path (exactly
/// ceil(log2(n)) comparisons, no swaps of sibling subtrees) restores the
/// winner. Finished cores are retired by setting their key to +infinity.
class CoreHeap {
 public:
  CoreHeap(std::vector<double>& clock, unsigned n)
      : clock_(clock), remaining_(n) {
    // Round the leaf count up to a power of two; surplus leaves hold the
    // +inf sentinel so they lose every match.
    leaves_ = 1;
    while (leaves_ < n) leaves_ *= 2;
    key_.assign(leaves_, kInf);
    for (unsigned i = 0; i < n; ++i) key_[i] = 0.0;
    loser_.assign(leaves_, 0);
    init_tree();
  }

  bool empty() const noexcept { return remaining_ == 0; }
  unsigned top() const noexcept { return winner_; }

  /// Re-seat the winner after its clock increased.
  void sift_top() {
    key_[winner_] = clock_[winner_];
    replay();
  }

  /// Retire the winner (its stream ended).
  void pop_top() {
    key_[winner_] = kInf;
    --remaining_;
    if (remaining_ > 0) replay();
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Lexicographic (key, id); surplus/retired leaves carry +inf keys and
  /// n <= 64, so an id tie-break among +inf leaves is still total.
  /// Branchless on purpose: match outcomes are data-dependent and would
  /// mispredict roughly every other replay step otherwise.
  bool before(unsigned a, unsigned b) const noexcept {
    const double ka = key_[a];
    const double kb = key_[b];
    return (ka < kb) | ((ka == kb) & (a < b));
  }

  void init_tree() {
    // Play every pair bottom-up; node i of loser_ (i >= 1) stores the
    // loser of the match below it, winners propagate to the root.
    std::vector<unsigned> w(2 * leaves_);
    for (unsigned i = 0; i < leaves_; ++i) w[leaves_ + i] = i;
    for (unsigned i = leaves_ - 1; i >= 1; --i) {
      const unsigned a = w[2 * i];
      const unsigned b = w[2 * i + 1];
      const bool a_wins = before(a, b);
      w[i] = a_wins ? a : b;
      loser_[i] = a_wins ? b : a;
    }
    winner_ = w[1];
  }

  /// Replay the matches on the current winner's path to the root
  /// (branchless: unconditional store + conditional moves per level; the
  /// carried winner's key stays in a register).
  void replay() {
    unsigned w = winner_;
    double kw = key_[w];
    for (unsigned node = (leaves_ + w) / 2; node >= 1; node /= 2) {
      const unsigned other = loser_[node];
      const double ko = key_[other];
      const bool lose = (ko < kw) | ((ko == kw) & (other < w));
      loser_[node] = lose ? w : other;
      w = lose ? other : w;
      kw = lose ? ko : kw;
    }
    winner_ = w;
  }

  std::vector<double>& clock_;
  std::vector<double> key_;      ///< per-leaf key (+inf = retired/surplus)
  std::vector<unsigned> loser_;  ///< loser_[i]: losing leaf at node i
  unsigned leaves_ = 0;
  unsigned winner_ = 0;
  unsigned remaining_ = 0;
};

}  // namespace

System::System(const SystemConfig& config, HierarchyMode mode)
    : cfg_(config), mode_(mode), noc_(config), lines_(config.line_bytes) {
  RAA_CHECK(cfg_.tiles <= kMaxTiles);
  line_pow2_ = std::has_single_bit(cfg_.line_bytes);
  chunk_pow2_ = std::has_single_bit(cfg_.dma_chunk_bytes);
  tiles_pow2_ = std::has_single_bit(cfg_.tiles);
  if (chunk_pow2_)
    chunk_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.dma_chunk_bytes));
  flits_line_ = cfg_.flits_per_line();
  l1_.reserve(cfg_.tiles);
  l2_.reserve(cfg_.tiles);
  for (unsigned t = 0; t < cfg_.tiles; ++t) {
    l1_.emplace_back(cfg_.l1_bytes, cfg_.l1_assoc, cfg_.line_bytes);
    // Hashed set index: uniform under the chunk-granular bank interleaving.
    l2_.emplace_back(cfg_.l2_bank_bytes, cfg_.l2_assoc, cfg_.line_bytes,
                     /*hashed_index=*/true);
    spm_alloc_.emplace_back(cfg_.spm_bytes, cfg_.dma_chunk_bytes);
  }
  core_clock_.assign(cfg_.tiles, 0.0);
  stream_trackers_.assign(cfg_.tiles, {});
  tracker_rr_.assign(cfg_.tiles, 0);
  backend_ = make_backend(cfg_);
  backend_->set_completion([this](const LineReq& req, double latency) {
    // Demand reads are the only completions a core blocks on; writeback
    // and burst completions merely advance the backend's timing state.
    if (req.kind == LineReq::Kind::read && !req.burst) {
      read_done_ = true;
      read_latency_ = latency;
    }
#if RAA_OBS_ENABLED
    if (obs::enabled()) {
      // Classify this request's row outcome by the delta of the backend's
      // row counters since the previous completion — exact, because the
      // backend services requests one at a time on the commit thread and
      // updates its stats before firing the completion. FlatBackend never
      // moves the row counters, so flat traces carry "none".
      const BackendStats& bs = backend_->stats();
      std::uint8_t row = obs::kRowNone;
      if (bs.row_hits != obs_rows_.hits)
        row = obs::kRowHit;
      else if (bs.row_misses != obs_rows_.misses)
        row = obs::kRowMiss;
      else if (bs.row_conflicts != obs_rows_.conflicts)
        row = obs::kRowConflict;
      obs_rows_ = {bs.row_hits, bs.row_misses, bs.row_conflicts};
      obs::emit_sim(obs::Cat::memsim, obs::Name::dram_complete,
                    obs::Phase::instant, now_,
                    std::bit_cast<std::uint64_t>(latency), req.line,
                    static_cast<std::uint8_t>(row << obs::kRowShift));
    }
#endif
  });
}

unsigned System::dram_read(std::uint64_t line, unsigned mc) {
  read_done_ = false;
  RAA_OBS_SIM_EVENT(memsim, dram_enqueue, instant, now_, line,
                    static_cast<std::uint64_t>(mc));
  backend_->enqueue(LineReq{LineReq::Kind::read, line, mc, now_, false});
  while (!read_done_) backend_->tick();
  return static_cast<unsigned>(read_latency_);
}

unsigned System::send(unsigned from, unsigned to, unsigned flits) {
  const unsigned h = noc_.hops(from, to);
  metrics_.noc_flit_hops += noc_.traffic(h, flits);
  metrics_.e_noc += noc_.energy(h, flits);
  return noc_.latency(h, flits);
}

void System::check_load_value(const LineInfo& li,
                              std::uint64_t served) const {
  RAA_CHECK_MSG(served == li.oracle,
                "coherence violation: load served stale data");
}

void System::l2_install(std::uint64_t line, std::uint64_t value, bool dirty) {
  const unsigned home = home_of(line);
  Cache& bank = l2_[home];
  if (const std::size_t w = bank.probe(line); w != Cache::kMiss) {
    bank.set_value_of(w, value);
    if (dirty) bank.set_state_of(w, LineState::modified);
    return;
  }
  l2_insert_absent(home, line, value, dirty);
}

void System::l2_insert_absent(unsigned home, std::uint64_t line,
                              std::uint64_t value, bool dirty) {
  const auto victim =
      l2_[home].insert(line, dirty ? LineState::modified : LineState::shared,
                       value);
  if (victim && victim->dirty) {
    lines_.at(victim->line_addr).dram = victim->value;
    const unsigned mc = noc_.nearest_mc(home);
    RAA_OBS_SIM_EVENT(memsim, dram_enqueue, instant, now_, victim->line_addr,
                      static_cast<std::uint64_t>(mc) | (1u << 8));
    backend_->enqueue(
        LineReq{LineReq::Kind::write, victim->line_addr, mc, now_, false});
    send(home, mc, flits_line_);
  }
}

void System::l1_install(unsigned core, std::uint64_t line, LineState st,
                        std::uint64_t value) {
  const auto victim = l1_[core].insert(line, st, value);
  if (!victim) return;
  if (victim->dirty) {
    // Write the modified victim back to its home L2 bank.
    ++metrics_.writebacks;
    send(core, home_of(victim->line_addr), flits_line_);
    l2_install(victim->line_addr, victim->value, /*dirty=*/true);
    LineInfo& e = lines_.at(victim->line_addr);
    if (e.owner == static_cast<int>(core)) e.owner = -1;
  } else if (victim->state == LineState::exclusive) {
    // Clean-exclusive eviction: the directory thinks we own the line, so a
    // small eviction notice keeps it sound (no data payload).
    send(core, home_of(victim->line_addr), 1);
    LineInfo& e = lines_.at(victim->line_addr);
    if (e.owner == static_cast<int>(core)) e.owner = -1;
  }
  // Shared victims are dropped silently (no directory message, no line
  // record touched), leaving a stale sharer bit behind — as in real
  // sparse directories.
}

unsigned System::invalidate_sharers(std::uint64_t line, LineInfo& li,
                                    int except_core) {
  // Walk only the set sharer bits (ascending tile order, as before).
  std::uint64_t mask = li.sharers;
  if (except_core >= 0) mask &= ~bit(static_cast<unsigned>(except_core));
  li.sharers =
      except_core >= 0 ? bit(static_cast<unsigned>(except_core)) : 0;
  if (mask == 0) return 0;

  const unsigned home = home_of(line);
  unsigned worst = 0;
  while (mask != 0) {
    const unsigned t = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    // Invalidation + ack round trip.
    const unsigned rt = send(home, t, 1) + send(t, home, 1);
    worst = std::max(worst, rt);
    const auto dropped = l1_[t].invalidate(line);
    if (dropped) {
      ++metrics_.invalidations;
      RAA_CHECK_MSG(!dropped->dirty,
                    "protocol bug: invalidating a Modified sharer");
    }
  }
  return worst;
}

unsigned System::fetch_line(unsigned core, std::uint64_t line, LineInfo& li,
                            std::uint64_t& value, bool for_store) {
  const unsigned home = home_of(line);
  unsigned lat = send(core, home, 1) + cfg_.lat_dir;
  metrics_.e_dir += cfg_.e_dir;
  RAA_CHECK(li.owner != static_cast<int>(core));

  if (li.owner >= 0) {
    // Another L1 holds the line Modified or Exclusive: forward.
    const auto owner = static_cast<unsigned>(li.owner);
    Cache& oc = l1_[owner];
    const std::size_t ow = oc.probe(line);
    RAA_CHECK(ow != Cache::kMiss);
    const LineState owner_state = oc.state_of(ow);
    RAA_CHECK(owner_state == LineState::modified ||
              owner_state == LineState::exclusive);
    const bool was_dirty = owner_state == LineState::modified;
    value = oc.value_of(ow);
    lat += send(home, owner, 1) + cfg_.lat_l1_hit +
           send(owner, core, flits_line_);
    metrics_.e_l1 += cfg_.e_l1_hit;
    if (for_store) {
      oc.invalidate_way(ow);
      ++metrics_.invalidations;
      li.owner = static_cast<std::int8_t>(core);
      li.sharers = bit(core);
    } else {
      // Owner downgrades to Shared; dirty data is reflected to the home.
      oc.set_state_of(ow, LineState::shared);
      if (was_dirty) {
        send(owner, home, flits_line_);
        l2_install(line, value, /*dirty=*/true);
      }
      li.owner = -1;
      li.sharers |= bit(owner) | bit(core);
    }
    return lat;
  }

  if (const std::size_t lw = l2_[home].probe_touch(line);
      lw != Cache::kMiss) {
    // L2 hit at home.
    ++metrics_.l2_hits;
    metrics_.e_l2 += cfg_.e_l2;
    value = l2_[home].value_of(lw);
    lat += cfg_.lat_l2_hit + send(home, core, flits_line_);
  } else {
    // Fetch from DRAM through the nearest memory controller.
    ++metrics_.l2_misses;
    metrics_.e_l2 += cfg_.e_l2;  // tag probe
    const unsigned mc = noc_.nearest_mc(home);
    value = li.dram;
    lat += send(home, mc, 1) + dram_read(line, mc) +
           send(mc, home, flits_line_) +
           send(home, core, flits_line_);
    // The probe above just missed, so skip l2_install's redundant re-probe.
    l2_insert_absent(home, line, value, /*dirty=*/false);
  }

  if (for_store) {
    lat += invalidate_sharers(line, li, static_cast<int>(core));
    li.owner = static_cast<std::int8_t>(core);
    li.sharers = bit(core);
  } else if (li.sharers == 0) {
    // No other copy anywhere: grant clean-exclusive (MESI E).
    li.owner = static_cast<std::int8_t>(core);
    li.sharers = bit(core);
    exclusive_grant_ = true;
  } else {
    li.sharers |= bit(core);
  }
  return lat;
}

unsigned System::upgrade_to_modified(unsigned core, std::uint64_t line,
                                     LineInfo& li) {
  const unsigned home = home_of(line);
  unsigned lat = send(core, home, 1) + cfg_.lat_dir;
  metrics_.e_dir += cfg_.e_dir;
  lat += invalidate_sharers(line, li, static_cast<int>(core));
  lat += send(home, core, 1);  // upgrade ack
  li.owner = static_cast<std::int8_t>(core);
  li.sharers = bit(core);
  return lat;
}

unsigned System::cache_access(unsigned core, std::uint64_t line, LineInfo& li,
                              bool store) {
  unsigned lat = cfg_.lat_l1_hit;
  Cache& l1 = l1_[core];
  if (const std::size_t w = l1.probe_touch(line); w != Cache::kMiss) {
    ++metrics_.l1_hits;
    metrics_.e_l1 += cfg_.e_l1_hit;
    if (store) {
      const LineState st = l1.state_of(w);
      if (st == LineState::shared) {
        lat += upgrade_to_modified(core, line, li);
        l1.set_state_of(w, LineState::modified);
      } else if (st == LineState::exclusive) {
        // MESI silent upgrade.
        l1.set_state_of(w, LineState::modified);
      }
      const std::uint64_t v = fresh_version();
      l1.set_value_of(w, v);
      li.oracle = v;
      if (li.prefetch_mask & bit(core)) {
        li.prefetch_mask &= ~bit(core);
        prefetch(core, line + cfg_.line_bytes);
      }
    } else {
      check_load_value(li, l1.value_of(w));
      if (li.prefetch_mask & bit(core)) {
        // First demand hit on a prefetched line: keep the stream rolling.
        li.prefetch_mask &= ~bit(core);
        prefetch(core, line + cfg_.line_bytes);
      }
    }
    return lat;
  }

  ++metrics_.l1_misses;
  metrics_.e_l1 += cfg_.e_l1_probe;
  std::uint64_t value = 0;
  exclusive_grant_ = false;
  lat += fetch_line(core, line, li, value, store);
  if (store) {
    const std::uint64_t v = fresh_version();
    l1_install(core, line, LineState::modified, v);
    li.oracle = v;
  } else {
    l1_install(core, line,
               exclusive_grant_ ? LineState::exclusive : LineState::shared,
               value);
    check_load_value(li, value);
  }

  // Stream detection: a miss that continues a tracked sequential stream
  // triggers a next-line prefetch (tagged prefetcher).
  auto& trackers = stream_trackers_[core];
  const std::uint64_t next = line + cfg_.line_bytes;
  bool matched = false;
  for (std::uint64_t& t : trackers) {
    if (t == line) {
      t = next;
      matched = true;
      break;
    }
  }
  if (matched) {
    prefetch(core, next);
  } else {
    trackers[tracker_rr_[core]] = next;
    tracker_rr_[core] = (tracker_rr_[core] + 1) % trackers.size();
  }
  return lat;
}

void System::prefetch(unsigned core, std::uint64_t line) {
  if (l1_[core].contains(line)) return;
  LineInfo& li = lines_.at(line);
  if (mode_ == HierarchyMode::hybrid && li.spm_mapped)
    return;  // mapped data is served by the SPM side
  std::uint64_t value = 0;
  exclusive_grant_ = false;
  (void)fetch_line(core, line, li, value, /*for_store=*/false);  // hidden
  l1_install(core, line,
             exclusive_grant_ ? LineState::exclusive : LineState::shared,
             value);
  li.prefetch_mask |= bit(core);
  ++metrics_.prefetch_fills;
}

double System::dma_map_chunk(unsigned core, const Region& region,
                             std::uint64_t chunk_index,
                             std::uint32_t chunk_tag, bool fetch) {
  const std::uint64_t chunk_base =
      region.base + chunk_index * cfg_.dma_chunk_bytes;
  const std::uint64_t chunk_end =
      std::min(region.base + region.bytes, chunk_base + cfg_.dma_chunk_bytes);
  const unsigned mc = noc_.nearest_mc(core);
  const unsigned home = home_of(chunk_base);  // one home per chunk
  unsigned lines = 0;
  unsigned dram_lines = 0;
  unsigned l2_lines = 0;

  // One SPM-directory transaction covers the chunk.
  metrics_.e_dir += cfg_.e_dir;
  send(core, home, 1);
  backend_->begin_burst();

  for (std::uint64_t line = chunk_base; line < chunk_end;
       line += cfg_.line_bytes) {
    ++lines;
    LineInfo& li = lines_.at(line);
    RAA_CHECK_MSG(!li.spm_mapped,
                  "SPM map conflict: strided chunks of different cores "
                  "overlap (kernel classification bug)");
    std::uint64_t value = 0;
    bool from_cache_side = false;

    // DMA fills are L2-backed: take the line from the home bank when
    // present. The L2 copy is *kept* (it cannot be read while the line is
    // mapped — the filter redirects guarded accesses, and no-alias
    // references never touch mapped data); a dirty unmap overwrites it.
    if (fetch) {
      if (const std::size_t w = l2_[home].probe_touch(line);
          w != Cache::kMiss) {
        value = l2_[home].value_of(w);
        from_cache_side = true;
        ++l2_lines;
        metrics_.e_l2 += cfg_.e_l2;
      }
    }
    if (li.owner >= 0) {
      // A Modified/Exclusive L1 copy supersedes everything; collect it,
      // reflect it to the home bank, and invalidate the owner.
      const auto owner = static_cast<unsigned>(li.owner);
      Cache& oc = l1_[owner];
      const std::size_t ow = oc.probe(line);
      RAA_CHECK(ow != Cache::kMiss);
      value = oc.value_of(ow);
      from_cache_side = true;
      oc.invalidate_way(ow);
      ++metrics_.invalidations;
      send(home, owner, 1);
      if (fetch) send(owner, core, flits_line_);
      l2_install(line, value, /*dirty=*/true);
      li.owner = -1;
      li.sharers = 0;
    } else if (li.sharers != 0) {
      // Shared L1 copies would go stale behind SPM writes: invalidate now.
      invalidate_sharers(line, li, -1);
    }
    if (fetch) {
      if (!from_cache_side) {
        value = li.dram;
        ++dram_lines;
        RAA_OBS_SIM_EVENT(memsim, dram_enqueue, instant, now_, line,
                          static_cast<std::uint64_t>(mc) | (1u << 9));
        backend_->enqueue(
            LineReq{LineReq::Kind::read, line, mc, now_, /*burst=*/true});
        // The fill allocates in the home L2 bank on the way (L2-backed
        // DMA), so later re-maps of the same data stay on chip. The fetch
        // probe above already missed, so insert without re-probing.
        l2_insert_absent(home, line, value, /*dirty=*/false);
        metrics_.e_l2 += cfg_.e_l2;
      }
      li.spm_value = value;
      li.spm_valid = true;
      metrics_.e_spm += cfg_.e_spm;  // SPM fill write
    }
    // Write-allocated chunks: lines become valid in the SPM as they are
    // written (spm_valid is the per-line validity mask).
    li.spm_mapped = true;
    li.spm_tile = static_cast<std::uint8_t>(core);
    li.spm_chunk_tag = chunk_tag;
  }

  // Bulk data legs: DMA moves whole bursts (one header per burst), which is
  // where the protocol's NoC savings over per-line cache messages come from.
  const unsigned payload = cfg_.line_bytes / 8;
  if (dram_lines > 0) {
    send(mc, home, dram_lines * payload + 1);
    send(home, core, dram_lines * payload + 1);
  }
  if (l2_lines > 0) send(home, core, l2_lines * payload + 1);

  ++metrics_.dma_transfers;
  double lat = 0.0;
  if (!fetch) {
    // Write-allocate: only the directory transaction is on the path.
    lat = noc_.latency(noc_.hops(core, home), 1) * 2.0 + cfg_.lat_dir;
  } else {
    // Pipelined DMA latency: request + access latency of the slowest
    // source + per-line cadence + data head flight. The backend times the
    // DRAM half of the burst; L2-sourced lines cost lat_l2_hit at the head.
    while (!backend_->idle()) backend_->tick();
    const BurstTiming bt = backend_->finish_burst(lines, dram_lines);
    const double src_lat =
        dram_lines > 0 ? bt.service : static_cast<double>(cfg_.lat_l2_hit);
    lat = noc_.latency(noc_.hops(core, mc), 1) + src_lat + bt.cadence +
          noc_.latency(noc_.hops(mc, core), flits_line_);
  }
  // Complete-phase events are stamped at their END (exporter subtracts
  // the duration); the chunk's DMA occupies [now_, now_ + lat).
  RAA_OBS_SIM_EVENT(memsim, dma_chunk, complete, now_ + lat,
                    std::bit_cast<std::uint64_t>(lat),
                    static_cast<std::uint64_t>(lines) |
                        (static_cast<std::uint64_t>(dram_lines) << 16) |
                        (static_cast<std::uint64_t>(core) << 32));
  return lat;
}

void System::dma_unmap_chunk(unsigned core, const Region& region,
                             SoftwareCacheState& st) {
  if (st.current_chunk == SoftwareCacheState::kNoChunk) return;
  const std::uint64_t chunk_base =
      region.base + st.current_chunk * cfg_.dma_chunk_bytes;
  const std::uint64_t chunk_end =
      std::min(region.base + region.bytes, chunk_base + cfg_.dma_chunk_bytes);
  const bool dirty = st.dirty || dirty_tag(st.chunk_tag);
  const unsigned home = home_of(chunk_base);

  unsigned dirty_lines = 0;
  for (std::uint64_t line = chunk_base; line < chunk_end;
       line += cfg_.line_bytes) {
    LineInfo& li = lines_.at(line);
    if (dirty && li.spm_valid) {
      // Write back the valid lines to the home L2 bank (L2-backed DMA);
      // DRAM is updated lazily on L2 eviction like any other dirty line.
      // Write-allocated chunks write back only the lines actually written.
      metrics_.e_spm += cfg_.e_spm;  // SPM read for the writeback
      l2_install(line, li.spm_value, /*dirty=*/true);
      ++dirty_lines;
    }
    li.spm_valid = false;
    li.spm_mapped = false;
  }
  if (dirty_lines > 0)
    send(core, home, dirty_lines * (cfg_.line_bytes / 8) + 1);  // one burst
  // SPM-directory update for the chunk.
  metrics_.e_dir += cfg_.e_dir;
  send(core, home, 1);
  if (dirty) ++metrics_.writebacks;
  if (st.chunk_tag < dirty_tags_.size()) dirty_tags_[st.chunk_tag] = 0;
  st.current_chunk = SoftwareCacheState::kNoChunk;
  st.dirty = false;
}

unsigned System::spm_access(unsigned core, std::size_t region_idx,
                            const Region& region, std::uint64_t addr,
                            std::uint64_t line, bool store) {
  SoftwareCacheState& st = streams_[core * region_count_ + region_idx];
  if (!st.open) {
    st.open = true;
    spm_alloc_[core].reserve_stream();
    st.prefetch_done_cycle = -1.0;  // first touch: full DMA latency
  }

  const std::uint64_t chunk = chunk_pow2_
                                  ? (addr - region.base) >> chunk_shift_
                                  : (addr - region.base) / cfg_.dma_chunk_bytes;
  unsigned lat = 0;
  if (chunk != st.current_chunk) {
    dma_unmap_chunk(core, region, st);
    const double now = core_clock_[core];
    // A store-triggered switch marks an output chunk: write-allocate, no
    // DMA-in (the tiling software cache knows out() tiles are overwritten).
    const double dma_lat = dma_map_chunk(core, region, chunk,
                                         ++chunk_tag_counter_, !store);
    double stall = 0.0;
    if (st.prefetch_done_cycle < 0.0) {
      stall = dma_lat;  // nothing prefetched yet
    } else {
      stall = std::max(0.0, st.prefetch_done_cycle - now);
    }
    // Double buffering: the DMA for the *next* chunk is kicked off now and
    // overlaps with the compute on this chunk.
    st.prefetch_done_cycle = now + stall + dma_lat;
    st.current_chunk = chunk;
    st.chunk_tag = chunk_tag_counter_;
    st.dirty = false;
    lat += static_cast<unsigned>(stall);
  }

  LineInfo& li = lines_.at(line);
  lat += cfg_.lat_spm_hit;
  metrics_.e_spm += cfg_.e_spm;
  ++metrics_.spm_hits;
  if (store) {
    const std::uint64_t v = fresh_version();
    li.spm_value = v;
    li.spm_valid = true;
    li.oracle = v;
    st.dirty = true;
  } else {
    RAA_CHECK(li.spm_valid);
    check_load_value(li, li.spm_value);
  }
  return lat;
}

unsigned System::guarded_access(unsigned core, std::uint64_t line,
                                bool store) {
  unsigned lat = cfg_.lat_filter;
  metrics_.e_dir += cfg_.e_filter;
  ++metrics_.guarded_lookups;

  LineInfo& li = lines_.at(line);
  if (!li.spm_mapped) return lat + cache_access(core, line, li, store);

  ++metrics_.guarded_to_spm;
  if (store) {
    if (li.spm_tile != core) {
      ++metrics_.remote_spm_accesses;
      lat += send(core, li.spm_tile, 1) + send(li.spm_tile, core, 1);
    }
    lat += cfg_.lat_spm_hit;
    metrics_.e_spm += cfg_.e_spm;
    ++metrics_.spm_hits;
    const std::uint64_t v = fresh_version();
    li.spm_value = v;
    li.spm_valid = true;
    li.oracle = v;
    mark_dirty_tag(li.spm_chunk_tag);
    return lat;
  }

  if (li.spm_valid) {
    if (li.spm_tile != core) {
      ++metrics_.remote_spm_accesses;
      lat += send(core, li.spm_tile, 1) +
             send(li.spm_tile, core, flits_line_);
    }
    lat += cfg_.lat_spm_hit;
    metrics_.e_spm += cfg_.e_spm;
    ++metrics_.spm_hits;
    check_load_value(li, li.spm_value);
    return lat;
  }

  // Mapped write-allocated chunk, line not yet written: the valid copy is
  // still below (home L2 / DRAM). Served uncached so no stale L1 copy can
  // form behind the upcoming SPM write.
  const unsigned home = home_of(line);
  lat += send(core, home, 1) + cfg_.lat_dir;
  metrics_.e_dir += cfg_.e_dir;
  std::uint64_t value = 0;
  if (const std::size_t w = l2_[home].probe_touch(line);
      w != Cache::kMiss) {
    ++metrics_.l2_hits;
    metrics_.e_l2 += cfg_.e_l2;
    value = l2_[home].value_of(w);
    lat += cfg_.lat_l2_hit + send(home, core, flits_line_);
  } else {
    const unsigned mc = noc_.nearest_mc(home);
    value = li.dram;
    lat += send(home, mc, 1) + dram_read(line, mc) +
           send(mc, home, flits_line_) +
           send(home, core, flits_line_);
    l2_insert_absent(home, line, value, /*dirty=*/false);
  }
  check_load_value(li, value);
  return lat;
}

void System::flush_all_software_caches() {
  RAA_CHECK(workload_ != nullptr);
  // Deterministic (core, region) order — the old hash-map iteration order
  // was arbitrary; flush-time L2 evictions are now reproducible.
  for (unsigned core = 0; core < cfg_.tiles; ++core) {
    for (std::size_t r = 0; r < region_count_; ++r) {
      SoftwareCacheState& st = streams_[core * region_count_ + r];
      if (!st.open) continue;
      dma_unmap_chunk(core, run_regions_[r], st);
    }
  }
}

void System::begin_run(Workload& workload) {
  RAA_CHECK_MSG(workload.programs.size() == cfg_.tiles,
                "workload must provide one program per tile");
  workload_ = &workload;
  metrics_ = Metrics{};
  core_clock_.assign(cfg_.tiles, 0.0);
  backend_->begin_run();
  now_ = 0.0;
  obs_rows_ = {};
  RAA_OBS_SIM_EVENT(memsim, epoch, begin, 0.0,
                    static_cast<std::uint64_t>(cfg_.tiles),
                    static_cast<std::uint64_t>(mode_));
  region_count_ = workload.regions.size();
  streams_.assign(cfg_.tiles * std::max<std::size_t>(region_count_, 1), {});
  // Flatten the region deque: the per-access region checks index it hard.
  run_regions_.assign(workload.regions.begin(), workload.regions.end());
}

Metrics System::finish_run() {
  // Flush-time DMA/writeback traffic is issued at the makespan clock.
  now_ = *std::max_element(core_clock_.begin(), core_clock_.end());
  flush_all_software_caches();
  while (!backend_->idle()) backend_->tick();  // drain queued writebacks
  const BackendStats& bs = backend_->stats();
  metrics_.dram_line_reads = bs.line_reads;
  metrics_.dram_line_writes = bs.line_writes;
  metrics_.dram_row_hits = bs.row_hits;
  metrics_.dram_row_misses = bs.row_misses;
  metrics_.dram_row_conflicts = bs.row_conflicts;
  metrics_.dram_refreshes = bs.refreshes;
  metrics_.e_dram = bs.energy_pj;
  metrics_.cycles = now_;
  metrics_.e_static = metrics_.cycles * static_cast<double>(cfg_.tiles) *
                      cfg_.e_static_per_tile_cycle;
  RAA_OBS_SIM_EVENT(memsim, epoch, end, now_, metrics_.accesses,
                    metrics_.dram_line_reads);
  workload_ = nullptr;
  return metrics_;
}

void System::step(unsigned core, const Access& acc,
                  std::size_t& last_region) {
  core_clock_[core] += acc.gap_cycles;
  now_ = core_clock_[core];

  unsigned lat = 0;
  const std::uint64_t line = line_of(acc.addr);
  if (mode_ == HierarchyMode::hybrid) {
    switch (acc.ref) {
      case RefClass::strided: {
        // Resolve the region (streams revisit the same region, so the
        // memoised index almost always hits).
        std::size_t r = last_region;
        if (r >= region_count_ || !run_regions_[r].contains(acc.addr)) {
          r = 0;
          while (r < region_count_ && !run_regions_[r].contains(acc.addr))
            ++r;
          RAA_CHECK_MSG(r < region_count_,
                        "strided access outside any declared region");
          last_region = r;
        }
        lat = spm_access(core, r, run_regions_[r], acc.addr, line,
                         acc.is_store);
        break;
      }
      case RefClass::random_noalias: {
        // Compiler contract: no-alias references never touch SPM-mapped
        // data. A violation would be a kernel classification bug.
        LineInfo& li = lines_.at(line);
        RAA_CHECK(!li.spm_mapped);
        lat = cache_access(core, line, li, acc.is_store);
        break;
      }
      case RefClass::random_unknown:
        lat = guarded_access(core, line, acc.is_store);
        break;
    }
  } else {
    lat = cache_access(core, line, lines_.at(line), acc.is_store);
  }

  core_clock_[core] += lat;
}

namespace {

/// Accesses per fill() call. The inline source pulls kInlineBatch on the
/// commit thread; the shard source's producers fill kShardBatch, larger
/// because each generation crosses a mutex and the pool queue once.
/// Batch size never changes the stream content (fill() only chunks the
/// per-core sequence), so it is invisible in the Metrics.
constexpr unsigned kInlineBatch = 64;
constexpr unsigned kShardBatch = 256;

/// One core's double-buffered access channel between its producer lane
/// (fills generation g into slot g % 2) and the commit loop (consumes
/// generations in order). All cross-thread fields are guarded by `m`; the
/// buffer itself is handed off through the ready flag: a slot belongs to
/// exactly one side at a time.
struct ShardChannel {
  std::mutex m;
  std::array<Access, kShardBatch> buf[2];
  unsigned count[2] = {0, 0};
  bool ready[2] = {false, false};
  unsigned pending_gen = 0;  ///< next generation the producer will fill
  bool paused = false;       ///< no producer task queued or running
  bool ended = false;        ///< fill() returned 0 (terminal) or cancelled

  // Commit-thread-only fields (single thread, unguarded).
  unsigned gen = 0;      ///< generation currently consumed
  bool started = false;  ///< first generation adopted yet?
};

/// Batch source of the sharded engine: every core's stream is generated
/// ahead on concurrent producer lanes (pool tasks) into its ShardChannel;
/// next() releases the consumed slot, resumes a paused producer and
/// adopts the following generation, helping the pool while it waits.
class ShardSource {
 public:
  ShardSource(Workload& workload, unsigned tiles, unsigned shards)
      : workload_(workload),
        channels_(tiles),
        // The private pool contributes shards - 1 producer threads; the
        // commit thread is the remaining lane (it helps run fills while it
        // waits).
        pool_(shards - 1) {
    for (unsigned core = 0; core < tiles; ++core) submit(core);
  }
  // Producer tasks hold `this`.
  ShardSource(const ShardSource&) = delete;
  ShardSource& operator=(const ShardSource&) = delete;

  std::span<const Access> next(unsigned core) {
    ShardChannel& ch = channels_[core];
    // Release the consumed slot and wake its paused producer.
    if (ch.started) {
      bool resume = false;
      {
        const std::scoped_lock lock{ch.m};
        ch.ready[ch.gen & 1] = false;
        if (ch.paused && !ch.ended) {
          ch.paused = false;
          resume = true;
        }
      }
      if (resume) submit(core);
      ++ch.gen;
    }
    // Adopt the next generation (helping the pool while it is not ready;
    // a failed producer also ends the wait — see drive()).
    const unsigned slot = ch.gen & 1;
    pool_.help_while(group_, [&] {
      if (pool_.failed(group_)) return false;
      const std::scoped_lock lock{ch.m};
      return !ch.ready[slot];
    });
    unsigned count = 0;
    {
      const std::scoped_lock lock{ch.m};
      RAA_CHECK_MSG(ch.ready[slot], "shard producer failed");  // see drive()
      count = ch.count[slot];
    }
    ch.started = true;
    return {ch.buf[slot].data(), count};
  }

  /// Run `commit` (which drains this source) and join the producers.
  /// On failure, unwind without dangling references: stop the producer
  /// chains and drain the pool. A producer failure surfaces with priority
  /// (its exception index precedes the commit loop's reaction to it).
  template <class Commit>
  void drive(Commit&& commit) {
    try {
      commit();
    } catch (...) {
      cancel_.store(true, std::memory_order_relaxed);
      if (std::exception_ptr err = pool_.wait_collect(group_))
        std::rethrow_exception(err);
      throw;
    }
    pool_.wait(group_);
  }

 private:
  void submit(unsigned core) {
    pool_.submit(group_, [this, core] { produce(core); });
  }

  /// Producer lane for one generation of one core: fill the slot, publish
  /// it, and chain the next generation if its slot is already free. Each
  /// core has at most one producer task in flight, so its CoreProgram is
  /// only ever touched by one thread at a time.
  void produce(unsigned core) {
    ShardChannel& ch = channels_[core];
    unsigned gen;
    {
      const std::scoped_lock lock{ch.m};
      gen = ch.pending_gen;
    }
    const unsigned slot = gen & 1;
    const unsigned count =
        cancel_.load(std::memory_order_relaxed)
            ? 0
            : static_cast<unsigned>(
                  workload_.programs[core]->fill(ch.buf[slot]));
    bool chain = false;
    {
      const std::scoped_lock lock{ch.m};
      ch.count[slot] = count;
      ch.ready[slot] = true;
      ch.pending_gen = gen + 1;
      if (count == 0) {
        ch.ended = true;  // fill() stays 0 from here on; stop producing
        ch.paused = true;
      } else if (!ch.ready[(gen + 1) & 1]) {
        chain = true;  // next slot is free: keep this lane hot
      } else {
        ch.paused = true;  // both slots full; commit loop resumes us
      }
    }
    if (chain) submit(core);
  }

  Workload& workload_;
  std::vector<ShardChannel> channels_;
  exec::Pool::Group group_;
  std::atomic<bool> cancel_{false};
  exec::Pool pool_;  ///< last member: workers join before the state above
};

}  // namespace

template <class NextBatch>
void System::commit(NextBatch&& next_batch) {
  struct Cursor {
    const Access* next = nullptr;
    const Access* end = nullptr;
    std::size_t last_region = 0;  ///< streams are strongly region-local
  };
  std::vector<Cursor> cursors(cfg_.tiles);

  // Advance the core with the smallest local clock (deterministic
  // interleaving; ties resolved by core id).
  CoreHeap order{core_clock_, cfg_.tiles};
  while (!order.empty()) {
    const unsigned core = order.top();
    Cursor& c = cursors[core];
    if (c.next == c.end) {
      const std::span<const Access> batch = next_batch(core);
      if (batch.empty()) {  // core finished
        order.pop_top();
        continue;
      }
      metrics_.accesses += batch.size();  // counted per batch, not per access
      c.next = batch.data();
      c.end = c.next + batch.size();
    }
    step(core, *c.next++, c.last_region);
    order.sift_top();
  }
}

Metrics System::run(Workload& workload, const RunOptions& options) {
  begin_run(workload);
  const unsigned shards =
      std::clamp(options.shards, 1u, std::max(1u, cfg_.tiles));
  if (shards <= 1) {
    // Inline source: fill() on the commit thread, no lock, no pool call.
    std::vector<std::array<Access, kInlineBatch>> bufs(cfg_.tiles);
    commit([&](unsigned core) {
      auto& buf = bufs[core];
      return std::span<const Access>{
          buf.data(), workload.programs[core]->fill(buf)};
    });
  } else {
    ShardSource source{workload, cfg_.tiles, shards};
    source.drive(
        [&] { commit([&](unsigned core) { return source.next(core); }); });
  }
  return finish_run();
}

ComparisonResult run_comparison(const SystemConfig& config,
                                const std::function<Workload()>& make_workload,
                                const ComparisonOptions& options) {
  const auto half = [&](HierarchyMode mode) {
    Workload w = make_workload();
    System sys{config, mode};
    return sys.run(w, RunOptions{.shards = options.shards});
  };
  ComparisonResult result;
  if (options.pool == nullptr) {
    result.cache_only = half(HierarchyMode::cache_only);
    result.hybrid = half(HierarchyMode::hybrid);
    return result;
  }
  // Concurrent halves, assigned by submission index: index 0 is always
  // cache_only no matter which half finishes first.
  exec::ordered_reduce<Metrics>(
      *options.pool, 2,
      [&](std::size_t i) {
        return half(i == 0 ? HierarchyMode::cache_only
                           : HierarchyMode::hybrid);
      },
      [&](std::size_t i, Metrics&& m) {
        (i == 0 ? result.cache_only : result.hybrid) = std::move(m);
      });
  return result;
}

}  // namespace raa::mem
