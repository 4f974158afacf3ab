// Unit tests for the set-associative cache model: set mapping, LRU order,
// eviction/dirty victims, hashed set index, and a randomized comparison
// against a stamp-based reference model of exact LRU.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "memsim/cache.hpp"

namespace {

using raa::mem::Cache;
using raa::mem::LineState;
using raa::mem::Victim;

constexpr unsigned kLine = 64;

/// Resident lines among `lines`, counted by probing.
std::size_t resident(const Cache& c, const std::vector<std::uint64_t>& lines) {
  std::size_t n = 0;
  for (const std::uint64_t l : lines) n += c.contains(l);
  return n;
}

TEST(Cache, Geometry) {
  const Cache c{8 * 1024, 4, kLine};
  EXPECT_EQ(c.sets(), 32u);
  EXPECT_EQ(c.assoc(), 4u);
}

TEST(Cache, MissThenHit) {
  Cache c{1024, 2, kLine};
  EXPECT_EQ(c.probe_touch(0), Cache::kMiss);
  c.insert(0, LineState::shared, 7);
  const std::size_t w = c.probe_touch(0);
  ASSERT_NE(w, Cache::kMiss);
  EXPECT_EQ(c.state_of(w), LineState::shared);
  EXPECT_EQ(c.value_of(w), 7u);
  EXPECT_EQ(c.probe(0), w);  // a handle is stable while the line stays
}

TEST(Cache, SameSetConflictEvictsLru) {
  // 1 KiB, 2-way, 64B lines -> 8 sets. Lines 0, 8*64, 16*64 share set 0.
  Cache c{1024, 2, kLine};
  const std::uint64_t a = 0, b = 8 * kLine, d = 16 * kLine;
  c.insert(a, LineState::shared, 1);
  c.insert(b, LineState::shared, 2);
  c.probe_touch(a);  // make b the LRU
  const auto victim = c.insert(d, LineState::shared, 3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, b);
  EXPECT_FALSE(victim->dirty);
  EXPECT_TRUE(c.contains(a));
  EXPECT_TRUE(c.contains(d));
  EXPECT_FALSE(c.contains(b));
}

TEST(Cache, DirtyVictimCarriesValue) {
  Cache c{1024, 2, kLine};
  c.insert(0, LineState::modified, 42);
  c.insert(8 * kLine, LineState::shared, 1);
  const auto victim = c.insert(16 * kLine, LineState::shared, 2);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 0u);
  EXPECT_TRUE(victim->dirty);
  EXPECT_EQ(victim->value, 42u);
}

TEST(Cache, InsertPrefersInvalidWay) {
  Cache c{1024, 2, kLine};
  c.insert(0, LineState::shared, 1);
  // Second way of the set is free; no victim.
  EXPECT_FALSE(c.insert(8 * kLine, LineState::shared, 2).has_value());
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c{1024, 2, kLine};
  c.insert(0, LineState::modified, 9);
  const auto dropped = c.invalidate(0);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_TRUE(dropped->dirty);
  EXPECT_EQ(dropped->value, 9u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.invalidate(0).has_value());  // idempotent
}

TEST(Cache, StateTransitions) {
  Cache c{1024, 2, kLine};
  c.insert(0, LineState::shared, 1);
  const std::size_t w = c.probe(0);
  ASSERT_NE(w, Cache::kMiss);
  c.set_state_of(w, LineState::modified);
  EXPECT_EQ(c.state_of(c.probe(0)), LineState::modified);
  c.set_value_of(w, 5);
  EXPECT_EQ(c.value_of(c.probe(0)), 5u);
  c.invalidate_way(w);
  EXPECT_EQ(c.probe(0), Cache::kMiss);
}

TEST(Cache, OccupancyTracksResidentLines) {
  Cache c{1024, 2, kLine};
  const std::vector<std::uint64_t> lines{0, 64};
  EXPECT_EQ(resident(c, lines), 0u);
  c.insert(0, LineState::shared, 0);
  c.insert(64, LineState::shared, 0);
  EXPECT_EQ(resident(c, lines), 2u);
  c.invalidate(0);
  EXPECT_EQ(resident(c, lines), 1u);
}

TEST(Cache, HashedIndexSpreadsStridedLines) {
  // A bank that only sees every 8th line (stride == set count): without
  // hashing everything aliases into set 0 (2-way keeps only 2 of 16 lines);
  // with index hashing the lines spread across sets.
  Cache flat{1024, 2, kLine, /*hashed_index=*/false};
  Cache hashed{1024, 2, kLine, /*hashed_index=*/true};
  std::vector<std::uint64_t> lines;
  for (std::uint64_t i = 0; i < 16; ++i) {
    lines.push_back(i * 8 * kLine);
    flat.insert(lines.back(), LineState::shared, i);
    hashed.insert(lines.back(), LineState::shared, i);
  }
  EXPECT_EQ(resident(flat, lines), 2u);
  EXPECT_GT(resident(hashed, lines), 8u);
}

TEST(Cache, FullAssocSweepParam) {
  for (const unsigned assoc : {1u, 2u, 4u, 8u, raa::mem::kMaxAssoc}) {
    Cache c{4 * assoc * kLine, assoc, kLine};
    const unsigned sets = c.sets();
    // Fill one set completely, then one more insert must evict.
    for (unsigned i = 0; i < assoc; ++i)
      c.insert(static_cast<std::uint64_t>(i) * sets * kLine,
               LineState::shared, i);
    const auto victim = c.insert(
        static_cast<std::uint64_t>(assoc) * sets * kLine, LineState::shared,
        99);
    EXPECT_TRUE(victim.has_value()) << "assoc=" << assoc;
    EXPECT_EQ(victim->line_addr, 0u) << "LRU should be the first insert";
  }
}

/// Exact LRU written the obvious way: a monotonic stamp per way, the
/// victim is the valid way with the smallest stamp, empty ways fill lowest
/// index first. The set index is re-derived from Cache's documented rule.
class RefCache {
 public:
  struct Way {
    std::uint64_t line = 0;
    LineState state = LineState::invalid;
    std::uint64_t value = 0;
    std::uint64_t stamp = 0;
  };

  RefCache(unsigned sets, unsigned assoc, bool hashed)
      : sets_(sets), assoc_(assoc), hashed_(hashed), ways_(sets * assoc) {}

  Way* find(std::uint64_t line) {
    Way* set = &ways_[set_of(line) * assoc_];
    for (unsigned i = 0; i < assoc_; ++i)
      if (set[i].state != LineState::invalid && set[i].line == line)
        return &set[i];
    return nullptr;
  }
  void touch(Way& w) { w.stamp = ++clock_; }
  std::span<Way> set_ways(std::uint64_t line) {
    return {&ways_[set_of(line) * assoc_], assoc_};
  }

  std::optional<Victim> insert(std::uint64_t line, LineState s,
                               std::uint64_t value) {
    Way* set = &ways_[set_of(line) * assoc_];
    Way* slot = nullptr;
    for (unsigned i = 0; i < assoc_ && !slot; ++i)
      if (set[i].state == LineState::invalid) slot = &set[i];
    std::optional<Victim> victim;
    if (!slot) {
      slot = &set[0];
      for (unsigned i = 1; i < assoc_; ++i)
        if (set[i].stamp < slot->stamp) slot = &set[i];
      victim = Victim{slot->line, slot->state == LineState::modified,
                      slot->state, slot->value};
    }
    *slot = Way{line, s, value, ++clock_};
    return victim;
  }

 private:
  std::size_t set_of(std::uint64_t line) const {
    std::uint64_t index = line / kLine;
    if (hashed_) {  // SplitMix64 finalizer, as Cache documents
      index = (index ^ (index >> 30)) * 0xbf58476d1ce4e5b9ULL;
      index = (index ^ (index >> 27)) * 0x94d049bb133111ebULL;
      index ^= index >> 31;
    }
    return static_cast<std::size_t>(index % sets_);
  }

  unsigned sets_;
  unsigned assoc_;
  bool hashed_;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
};

void expect_same_victim(const std::optional<Victim>& got,
                        const std::optional<Victim>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->line_addr, want->line_addr);
  EXPECT_EQ(got->dirty, want->dirty);
  EXPECT_EQ(got->state, want->state);
  EXPECT_EQ(got->value, want->value);
}

TEST(Cache, MatchesStampLruReferenceModel) {
  constexpr unsigned kSets = 3;  // not a power of two: the modulo path
  for (const bool hashed : {false, true}) {
    for (const unsigned assoc :
         {1u, 2u, 3u, 4u, 8u, 12u, 16u, raa::mem::kMaxAssoc}) {
      SCOPED_TRACE(::testing::Message()
                   << "assoc=" << assoc << " hashed=" << hashed);
      Cache c{kSets * assoc * kLine, assoc, kLine, hashed};
      ASSERT_EQ(c.sets(), kSets);
      RefCache ref{kSets, assoc, hashed};
      std::map<std::uint64_t, std::size_t> handles;  // resident -> handle
      std::mt19937_64 rng{assoc * 2 + hashed};
      // Three lines per way of capacity: every set sees hits, misses and
      // evictions.
      const std::uint64_t pool = 3ull * kSets * assoc;
      const LineState states[] = {LineState::shared, LineState::exclusive,
                                  LineState::modified};
      const auto check_hit = [&](std::uint64_t line,
                                 std::size_t w) -> RefCache::Way* {
        RefCache::Way* rw = ref.find(line);
        EXPECT_EQ(w != Cache::kMiss, rw != nullptr) << "line " << line;
        if (!rw || w == Cache::kMiss) return nullptr;
        EXPECT_EQ(c.state_of(w), rw->state);
        EXPECT_EQ(c.value_of(w), rw->value);
        const auto [it, fresh] = handles.emplace(line, w);
        EXPECT_EQ(it->second, w) << "handle moved while resident";
        return rw;
      };
      for (unsigned op = 0; op < 20000; ++op) {
        const std::uint64_t line = (rng() % pool) * kLine;
        const std::uint64_t value = rng();
        switch (rng() % 6) {
          case 0:
          case 1: {  // insert on miss, as the hierarchy does
            if (c.contains(line)) break;
            const LineState s = states[rng() % 3];
            const auto got = c.insert(line, s, value);
            const auto want = ref.insert(line, s, value);
            expect_same_victim(got, want);
            if (got) handles.erase(got->line_addr);
            // Handles order a set's ways by index (the way is the low
            // byte), which makes the chosen way observable: it must be
            // the model's, the lowest empty way or the LRU one.
            const std::size_t w = c.probe(line);
            const RefCache::Way* rw = check_hit(line, w);
            if (!rw) break;
            for (const RefCache::Way& o : ref.set_ways(line)) {
              if (o.state != LineState::invalid && &o != rw) {
                EXPECT_EQ(c.probe(o.line) < w, &o < rw) << "line " << line;
              }
            }
            break;
          }
          case 2: {  // demand access: touch, maybe write
            const std::size_t w = c.probe_touch(line);
            RefCache::Way* rw = check_hit(line, w);
            if (!rw) break;
            ref.touch(*rw);
            if (value % 2) {
              c.set_value_of(w, value);
              c.set_state_of(w, LineState::modified);
              rw->value = value;
              rw->state = LineState::modified;
            }
            break;
          }
          case 3:  // snoop: no LRU touch
            check_hit(line, c.probe(line));
            break;
          case 4: {  // invalidate by address
            RefCache::Way* rw = ref.find(line);
            std::optional<Victim> want;
            if (rw) {
              want = Victim{line, rw->state == LineState::modified,
                            rw->state, rw->value};
              rw->state = LineState::invalid;
            }
            expect_same_victim(c.invalidate(line), want);
            handles.erase(line);
            break;
          }
          default: {  // invalidate through the handle
            const std::size_t w = c.probe(line);
            RefCache::Way* rw = check_hit(line, w);
            if (!rw) break;
            c.invalidate_way(w);
            rw->state = LineState::invalid;
            handles.erase(line);
            break;
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
