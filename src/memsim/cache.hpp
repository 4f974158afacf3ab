#pragma once
/// \file cache.hpp
/// Set-associative write-back cache with exact LRU replacement. Used for the
/// private L1-D caches and the shared L2 banks. The cache tracks per-line
/// coherence state (MESI for L1s; L2 lines are either present or not, with
/// sharer bookkeeping held by the directory) and a functional value so the
/// protocol tests can assert that no access ever observes stale data.
///
/// Each set is one contiguous block of words: `assoc` tags, `assoc` values,
/// then one state byte and one LRU age byte per way, padded to whole words.
/// An 8-way set is 144 bytes (18 per way), so a modelled miss reads tags,
/// victim and metadata from one block, not from arrays that each span the
/// whole L2. A tag word holds `~line_addr` and state 0 is `invalid`, so an
/// all-zero block is an empty set.
///
/// Over a set's valid ways the ages are a permutation of 0..valid-1, 0 the
/// most recent: a touch or insert ages every younger valid way by one, an
/// invalidate closes the gap, and the victim is the oldest valid way; empty
/// ways fill first, lowest index first.
///
/// Accesses go through way handles (`probe` / `probe_touch`, `kMiss` on a
/// miss), so one associative scan serves all reads and writes of an access.
/// A handle is the block's word offset shifted left by 8, plus the way.

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "memsim/config.hpp"

namespace raa::mem {

/// L1 MESI state. `exclusive` is clean-exclusive: granted on a load when no
/// other cache holds the line, so a later store upgrades silently.
enum class LineState : std::uint8_t { invalid, shared, exclusive, modified };

/// Lookup/insert result describing a victim that had to be evicted.
struct Victim {
  std::uint64_t line_addr = 0;
  bool dirty = false;  ///< was Modified (needs writeback)
  LineState state = LineState::invalid;
  std::uint64_t value = 0;
};

/// A set-associative cache keyed by line address (addresses are already
/// line-aligned when they reach the cache).
class Cache {
 public:
  /// probe/probe_touch miss marker.
  static constexpr std::size_t kMiss = ~std::size_t{0};

  /// `hashed_index` selects the set by hashing the line index instead of a
  /// plain modulo — what LLC banks do to stay uniform under arbitrary
  /// address interleavings (chunk-granular banking would otherwise alias
  /// all of a bank's chunks into a small set window).
  Cache(unsigned capacity_bytes, unsigned assoc, unsigned line_bytes,
        bool hashed_index = false)
      : assoc_(assoc), line_bytes_(line_bytes), hashed_index_(hashed_index) {
    // check_config rejects every geometry these checks catch.
    RAA_CHECK(assoc > 0 && assoc <= kMaxAssoc && line_bytes > 0);
    const std::uint64_t set_bytes = std::uint64_t{assoc} * line_bytes;
    RAA_CHECK(capacity_bytes % set_bytes == 0 && capacity_bytes > 0);
    sets_ = static_cast<unsigned>(capacity_bytes / set_bytes);
    line_pow2_ = std::has_single_bit(line_bytes);
    if (line_pow2_)
      line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    sets_pow2_ = std::has_single_bit(sets_);
    stride_ = 2 * assoc_ + (2 * assoc_ + 7) / 8;
    words_.assign(static_cast<std::size_t>(sets_) * stride_, 0);
  }

  unsigned sets() const noexcept { return sets_; }
  unsigned assoc() const noexcept { return assoc_; }

  /// Way-handle lookup: the resident way's handle, or kMiss. No LRU touch.
  std::size_t probe(std::uint64_t line_addr) const {
    const std::size_t base = set_base(line_addr);
    const std::uint64_t tag = ~line_addr;
    for (unsigned i = 0; i < assoc_; ++i)
      if (words_[base + i] == tag) return base << kWayBits | i;
    return kMiss;
  }

  /// Way-handle lookup that touches LRU on hit (a demand access).
  std::size_t probe_touch(std::uint64_t line_addr) {
    const std::size_t w = probe(line_addr);
    if (w == kMiss) return w;
    unsigned char* st = meta(w >> kWayBits);
    // Age 0 is already the most recent: the common re-hit costs nothing.
    if (const unsigned age = st[assoc_ + (w & kWayMask)])
      make_recent(st, w & kWayMask, age);
    return w;
  }

  // Way-handle accessors. `way` must come from a probe hit on this cache;
  // handles stay valid until the way is evicted or invalidated.
  LineState state_of(std::size_t way) const {
    return static_cast<LineState>(meta(way >> kWayBits)[way & kWayMask]);
  }
  void set_state_of(std::size_t way, LineState s) {
    RAA_CHECK(s != LineState::invalid);  // use invalidate_way()
    meta(way >> kWayBits)[way & kWayMask] = static_cast<unsigned char>(s);
  }
  std::uint64_t value_of(std::size_t way) const {
    return words_[(way >> kWayBits) + assoc_ + (way & kWayMask)];
  }
  void set_value_of(std::size_t way, std::uint64_t value) {
    words_[(way >> kWayBits) + assoc_ + (way & kWayMask)] = value;
  }
  /// Drop a resident way (its victim record is the caller's to assemble).
  void invalidate_way(std::size_t way) {
    const unsigned i = way & kWayMask, n = assoc_;
    words_[(way >> kWayBits) + i] = 0;
    unsigned char* st = meta(way >> kWayBits);
    unsigned char* age = st + n;
    const unsigned a = age[i];
    st[i] = age[i] = 0;
    for (unsigned j = 0; j < n; ++j) age[j] -= st[j] != 0 && age[j] > a;
  }

  /// True when the line is present (state != invalid).
  bool contains(std::uint64_t line_addr) const {
    return probe(line_addr) != kMiss;
  }

  /// Insert a line (must not be present); returns the evicted victim, if
  /// any. The inserted line becomes MRU. The duplicate check rides the
  /// empty-way scan, so insertion costs a single pass over the set's tags.
  std::optional<Victim> insert(std::uint64_t line_addr, LineState s,
                               std::uint64_t value) {
    RAA_CHECK(s != LineState::invalid);
    const std::size_t base = set_base(line_addr);
    const std::uint64_t tag = ~line_addr;
    const unsigned n = assoc_;
    unsigned slot = n;
    for (unsigned i = 0; i < n; ++i) {
      const std::uint64_t t = words_[base + i];
      RAA_CHECK(t != tag);  // must not already be present
      if (t == 0 && slot == n) slot = i;
    }
    unsigned char* st = meta(base);
    std::optional<Victim> victim;
    if (slot == n) {  // full set: the ages are 0..n-1, evict the oldest
      slot = 0;
      while (slot < n && st[n + slot] != n - 1) ++slot;
      RAA_CHECK(slot < n);
      const auto vs = static_cast<LineState>(st[slot]);
      victim = Victim{~words_[base + slot], vs == LineState::modified, vs,
                      words_[base + n + slot]};
    }
    make_recent(st, slot, victim ? n - 1 : n);  // an empty way is oldest
    words_[base + slot] = tag;
    words_[base + n + slot] = value;
    st[slot] = static_cast<unsigned char>(s);
    return victim;
  }

  /// Drop a line if present; returns its victim record (for writeback).
  std::optional<Victim> invalidate(std::uint64_t line_addr) {
    const std::size_t w = probe(line_addr);
    if (w == kMiss) return std::nullopt;
    const LineState s = state_of(w);
    const Victim v{line_addr, s == LineState::modified, s, value_of(w)};
    invalidate_way(w);
    return v;
  }

 private:
  /// A handle's low byte is the way; kMaxAssoc keeps every way inside it.
  static constexpr unsigned kWayBits = 8;
  static constexpr std::size_t kWayMask = (std::size_t{1} << kWayBits) - 1;
  static_assert(kMaxAssoc <= kWayMask + 1);

  /// The word offset of the block holding `line_addr`'s set.
  std::size_t set_base(std::uint64_t line_addr) const {
    std::uint64_t index =
        line_pow2_ ? line_addr >> line_shift_ : line_addr / line_bytes_;
    if (hashed_index_) {
      std::uint64_t h = index;  // SplitMix64 finalizer as index hash
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      index = h ^ (h >> 31);
    }
    const std::uint64_t set =
        sets_pow2_ ? index & (sets_ - 1) : index % sets_;
    return static_cast<std::size_t>(set) * stride_;
  }

  /// The block's metadata: `assoc` state bytes, then `assoc` age bytes.
  unsigned char* meta(std::size_t base) {
    return reinterpret_cast<unsigned char*>(&words_[base + 2 * assoc_]);
  }
  const unsigned char* meta(std::size_t base) const {
    return reinterpret_cast<const unsigned char*>(&words_[base + 2 * assoc_]);
  }

  /// Make way `i` the most recent: every valid way younger than `age`, the
  /// way's old age, ages by one. `st` is the block's metadata.
  void make_recent(unsigned char* st, unsigned i, unsigned age) {
    const unsigned n = assoc_;  // a local: byte stores may alias members
    for (unsigned j = 0; j < n; ++j) st[n + j] += st[j] != 0 && st[n + j] < age;
    st[n + i] = 0;
  }

  unsigned sets_ = 0;
  unsigned assoc_ = 0;
  unsigned stride_ = 0;  ///< words per set block
  unsigned line_bytes_ = 0;
  unsigned line_shift_ = 0;
  bool line_pow2_ = false;
  bool sets_pow2_ = false;
  bool hashed_index_ = false;
  std::vector<std::uint64_t> words_;  ///< the set blocks (see file comment)
};

}  // namespace raa::mem
