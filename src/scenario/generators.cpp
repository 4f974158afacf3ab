#include "scenario/generators.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace raa::scen {

namespace {

std::uint64_t slice_elems(const Slice& s, std::uint32_t elem_bytes) {
  RAA_CHECK(elem_bytes > 0);
  const std::uint64_t n = s.bytes / elem_bytes;
  RAA_CHECK_MSG(n > 0, "slice smaller than one element");
  return n;
}

}  // namespace

// --- zipf hot-set ---------------------------------------------------------

ZipfProgram::ZipfProgram(const ZipfParams& p, std::uint64_t seed)
    : p_(p), rng_(seed) {
  const std::uint64_t elems = slice_elems(p_.slice, p_.elem_bytes);
  RAA_CHECK(p_.hot_fraction > 0.0 && p_.hot_fraction < 1.0);
  RAA_CHECK(p_.hot_weight >= 0.0 && p_.hot_weight <= 1.0);
  hot_elems_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(p_.hot_fraction * static_cast<double>(elems)),
      1, elems - 1);
  cold_elems_ = elems - hot_elems_;
}

std::size_t ZipfProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  while (n < out.size() && done_ < p_.accesses) {
    const bool hot = rng_.chance(p_.hot_weight);
    const std::uint64_t idx =
        hot ? rng_.below(hot_elems_) : hot_elems_ + rng_.below(cold_elems_);
    const bool store =
        p_.store_fraction > 0.0 && rng_.chance(p_.store_fraction);
    out[n++] = mem::Access{p_.slice.base + idx * p_.elem_bytes, store, p_.ref,
                           p_.gap_cycles};
    ++done_;
  }
  return n;
}

// --- pointer chase --------------------------------------------------------

PointerChaseProgram::PointerChaseProgram(const PointerChaseParams& p,
                                         std::uint64_t seed)
    : p_(p) {
  const std::uint64_t elems = slice_elems(p_.slice, p_.elem_bytes);
  RAA_CHECK_MSG(elems >= 2, "pointer chase needs at least two elements");
  RAA_CHECK_MSG(elems <= kMaxPointerChaseElems,
                "pointer-chase slice too large to materialise the cycle");
  // Sattolo's algorithm: a uniformly random single-cycle permutation, so
  // the walk visits every element exactly once per lap.
  next_.resize(elems);
  for (std::uint64_t i = 0; i < elems; ++i)
    next_[i] = static_cast<std::uint32_t>(i);
  Rng rng{seed};
  for (std::uint64_t i = elems - 1; i > 0; --i)
    std::swap(next_[i], next_[rng.below(i)]);
}

std::size_t PointerChaseProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  while (n < out.size() && done_ < p_.accesses) {
    out[n++] = mem::Access{p_.slice.base + pos_ * p_.elem_bytes, false, p_.ref,
                           p_.gap_cycles};
    pos_ = next_[pos_];
    ++done_;
  }
  return n;
}

// --- stencil halo ---------------------------------------------------------

StencilProgram::StencilProgram(const StencilParams& p) : p_(p) {
  in_elems_ = slice_elems(p_.in_region, p_.elem_bytes);
  RAA_CHECK(p_.elems > 0);
  RAA_CHECK_MSG(p_.elem_offset + p_.elems <= in_elems_,
                "stencil slice runs past the input region");
  RAA_CHECK_MSG(
      (p_.elem_offset + p_.elems) * p_.elem_bytes <= p_.out_region.bytes,
      "stencil slice runs past the output region");
}

std::size_t StencilProgram::fill(std::span<mem::Access> out) {
  const std::uint64_t taps = 2 * std::uint64_t{p_.halo} + 1;
  std::size_t n = 0;
  while (n < out.size() && sweep_ < p_.sweeps) {
    const std::uint64_t g = p_.elem_offset + i_;  // global element index
    if (tap_ < taps) {
      // Tap window around g, clamped to the grid: edge taps of interior
      // cores land in the neighbouring core's slice (the halo).
      std::uint64_t t = g + tap_;
      t = t < p_.halo ? 0 : t - p_.halo;
      t = std::min(t, in_elems_ - 1);
      const bool local = t >= p_.elem_offset && t < p_.elem_offset + p_.elems;
      out[n++] =
          mem::Access{p_.in_region.base + t * p_.elem_bytes, false,
                      local ? p_.in_ref : p_.halo_ref,
                      tap_ == 0 ? p_.gap_cycles : 0};
      ++tap_;
    } else {
      out[n++] = mem::Access{p_.out_region.base + g * p_.elem_bytes, true,
                             p_.out_ref, 0};
      tap_ = 0;
      if (++i_ >= p_.elems) {
        i_ = 0;
        ++sweep_;
      }
    }
  }
  return n;
}

// --- producer / consumer --------------------------------------------------

ProducerConsumerProgram::ProducerConsumerProgram(
    const ProducerConsumerParams& p)
    : p_(p) {
  RAA_CHECK(p_.cores > 0 && p_.core < p_.cores);
  RAA_CHECK(p_.slot_bytes > 0);
  RAA_CHECK_MSG(p_.slot_bytes * p_.cores <= p_.ring.bytes,
                "ring region smaller than cores * slot_bytes");
  slot_elems_ = slice_elems(Slice{0, p_.slot_bytes}, p_.elem_bytes);
  own_base_ = p_.ring.base + std::uint64_t{p_.core} * p_.slot_bytes;
  const unsigned peer = (p_.core + p_.cores - 1) % p_.cores;
  peer_base_ = p_.ring.base + std::uint64_t{peer} * p_.slot_bytes;
}

std::size_t ProducerConsumerProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  while (n < out.size() && it_ < p_.iterations) {
    const std::uint64_t off = (it_ % slot_elems_) * p_.elem_bytes;
    if (!consuming_) {
      out[n++] = mem::Access{own_base_ + off, true, p_.ref, p_.gap_cycles};
      consuming_ = true;
    } else {
      out[n++] = mem::Access{peer_base_ + off, false, p_.ref, 0};
      consuming_ = false;
      ++it_;
    }
  }
  return n;
}

// --- bursty on/off --------------------------------------------------------

BurstyProgram::BurstyProgram(const BurstyParams& p, std::uint64_t seed)
    : p_(p), rng_(seed) {
  elems_ = slice_elems(p_.slice, p_.elem_bytes);
  RAA_CHECK(p_.burst_len > 0);
}

std::size_t BurstyProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  while (n < out.size() && burst_ < p_.bursts) {
    const bool store =
        p_.store_fraction > 0.0 && rng_.chance(p_.store_fraction);
    out[n++] = mem::Access{p_.slice.base + rng_.below(elems_) * p_.elem_bytes,
                           store, p_.ref, i_ == 0 ? p_.gap_off : p_.gap_on};
    if (++i_ >= p_.burst_len) {
      i_ = 0;
      ++burst_;
    }
  }
  return n;
}

}  // namespace raa::scen
