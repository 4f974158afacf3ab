#pragma once
/// \file linetable.hpp
/// Flat, line-indexed storage for every per-line fact the hierarchy
/// simulator tracks. The simulated address space is bump-allocated and
/// dense (kern::AddressSpace), so the per-access hash maps the simulator
/// historically paid for — DRAM values, the store oracle, SPM values, the
/// coherence directory, the SPM-mapping directory and the per-core
/// prefetch-tag sets — collapse into ONE consolidated `LineInfo` record
/// per line, stored in demand-allocated dense pages. A typical access then
/// does a single shift+index instead of 4–6 hash probes.
///
/// Storage is a sparse top-level vector of dense fixed-size pages. The
/// LineTable test checks it against a std::map model.
///
/// Reference stability: a `LineInfo&` returned by `at()` stays valid until
/// `clear()` — pages are never moved or freed while the table lives. The
/// simulator relies on this to hold a line's record across victim
/// evictions that create other lines.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace raa::mem {

/// Everything the simulator knows about one cache line, consolidated.
/// Defaults encode absence exactly like a missing hash-map entry used to:
/// DRAM/oracle values default to 0, no SPM mapping, no directory state,
/// no prefetch tags.
struct LineInfo {
  std::uint64_t dram = 0;    ///< functional DRAM value
  std::uint64_t oracle = 0;  ///< value of the last store in simulation order
  std::uint64_t spm_value = 0;      ///< valid only when `spm_valid`
  std::uint64_t sharers = 0;        ///< directory sharer bitmask (<=64 tiles)
  std::uint64_t prefetch_mask = 0;  ///< cores holding the line prefetch-tagged
  std::uint32_t spm_chunk_tag = 0;  ///< software-cache chunk id when mapped
  /// Tile holding the line Modified/Exclusive, or -1. int8 keeps the
  /// record at exactly 48 bytes (tiles <= 64).
  std::int8_t owner = -1;
  std::uint8_t spm_tile = 0;  ///< SPM slice holding the line when mapped
  bool spm_mapped = false;    ///< line currently mapped to some SPM
  bool spm_valid = false;     ///< SPM holds a valid copy (per-line validity)
};
static_assert(sizeof(LineInfo) == 48);

/// See file comment.
class LineTable {
 public:
  /// Lines per page. 4096 lines x 64 B = a 256 KiB address span per page;
  /// one page is ~224 KiB of LineInfo, so dense workload regions amortise
  /// the allocation while sparse address spaces stay cheap.
  static constexpr unsigned kPageLineBits = 12;
  static constexpr std::size_t kPageLines = std::size_t{1} << kPageLineBits;

  explicit LineTable(unsigned line_bytes) : line_bytes_(line_bytes) {
    RAA_CHECK(line_bytes > 0);
    line_pow2_ = std::has_single_bit(line_bytes);
    if (line_pow2_)
      line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
  }

  /// Get-or-create the record for a (line-aligned) address.
  LineInfo& at(std::uint64_t line_addr) {
    const std::uint64_t idx = index_of(line_addr);
    const std::size_t page = static_cast<std::size_t>(idx >> kPageLineBits);
    if (page >= pages_.size()) pages_.resize(page + 1);
    auto& p = pages_[page];
    if (!p) p = std::make_unique<Page>();
    return (*p)[idx & (kPageLines - 1)];
  }

  /// Read-only lookup that never allocates. Returns nullptr when the line's
  /// page was never allocated; a null result is equivalent to a
  /// default-constructed LineInfo.
  const LineInfo* peek(std::uint64_t line_addr) const {
    const std::uint64_t idx = index_of(line_addr);
    const std::size_t page = static_cast<std::size_t>(idx >> kPageLineBits);
    if (page >= pages_.size() || !pages_[page]) return nullptr;
    return &(*pages_[page])[idx & (kPageLines - 1)];
  }

  /// Drop every record (invalidates all references).
  void clear() { pages_.clear(); }

  /// Allocated page count. Diagnostics.
  std::size_t pages_allocated() const noexcept {
    std::size_t n = 0;
    for (const auto& p : pages_)
      if (p) ++n;
    return n;
  }

  /// Size of the top-level page vector. Diagnostics.
  std::size_t page_slots() const noexcept { return pages_.size(); }

 private:
  using Page = std::array<LineInfo, kPageLines>;

  std::uint64_t index_of(std::uint64_t line_addr) const {
    return line_pow2_ ? line_addr >> line_shift_ : line_addr / line_bytes_;
  }

  unsigned line_bytes_;
  unsigned line_shift_ = 0;
  bool line_pow2_ = false;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace raa::mem
