#pragma once
/// \file generators.hpp
/// Parameterized access-pattern generators for the scenario subsystem.
///
/// The NAS factories (kernels/nas.cpp) hard-code six access structures;
/// these generators open the space up: each is a `mem::CoreProgram` whose
/// pattern is a pure function of a small parameter struct plus a 64-bit
/// seed, so a scenario file can describe workloads the repo never compiled
/// in. All of them implement the batched `fill` entry point directly (the
/// simulator's stream-side hot path); `next()` is the one-access shim over
/// the same generator, so both entry points yield the identical sequence.
///
/// The five patterns:
///  * zipf hot-set        — skewed reuse: a hot fraction of the region
///                          absorbs most accesses (contended tables,
///                          caches-love-it / SPM-tiling-hates-it);
///  * pointer chase       — a random permutation cycle walked one element
///                          at a time (linked-list traversal, no locality);
///  * stencil halo        — per-core grid sweeps whose edge taps cross into
///                          the neighbouring cores' slices (halo exchange);
///  * producer/consumer   — each core writes its slot of a shared ring and
///                          reads its left neighbour's (pipeline sharing);
///  * bursty on/off       — bursts of back-to-back random accesses
///                          separated by long idle gaps (interactive or
///                          phase-changing load).

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "memsim/access.hpp"

namespace raa::scen {

/// Base for all generators: `next()` as the single-access shim over the
/// batched `fill` every subclass implements.
class GenProgram : public mem::CoreProgram {
 public:
  bool next(mem::Access& out) final { return fill({&out, 1}) == 1; }
};

/// A resolved address window inside a region: the span a generator draws
/// from (the whole region, or one core's slice of it).
struct Slice {
  std::uint64_t base = 0;   ///< absolute byte address of the window start
  std::uint64_t bytes = 0;  ///< window length
};

// --- zipf hot-set ---------------------------------------------------------

struct ZipfParams {
  Slice slice;
  std::uint64_t accesses = 0;
  std::uint32_t elem_bytes = 8;
  /// Leading fraction of the slice that forms the hot set (elements
  /// [0, hot_fraction * elems)); must leave both sets non-empty.
  double hot_fraction = 0.1;
  /// Probability an access lands in the hot set.
  double hot_weight = 0.9;
  double store_fraction = 0.0;
  std::uint32_t gap_cycles = 0;
  mem::RefClass ref = mem::RefClass::random_noalias;
};

class ZipfProgram final : public GenProgram {
 public:
  ZipfProgram(const ZipfParams& p, std::uint64_t seed);
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  ZipfParams p_;
  Rng rng_;
  std::uint64_t hot_elems_ = 0;
  std::uint64_t cold_elems_ = 0;
  std::uint64_t done_ = 0;
};

// --- pointer chase --------------------------------------------------------

/// Largest pointer-chase slice, in elements. The walk materialises its
/// successor permutation as 32-bit indices: 256 MiB at this limit. Each
/// core builds its own, so the scenario parser caps the total over every
/// core of every pointer_chase program before anything is allocated.
inline constexpr std::uint64_t kMaxPointerChaseElems = 1ull << 26;

struct PointerChaseParams {
  Slice slice;
  std::uint64_t accesses = 0;
  std::uint32_t elem_bytes = 8;
  std::uint32_t gap_cycles = 0;
  mem::RefClass ref = mem::RefClass::random_noalias;
};

/// Walks a seed-determined Sattolo cycle over the slice's elements: every
/// element is visited before any repeats, and consecutive addresses are
/// decorrelated — the classic latency-bound linked-list traversal.
class PointerChaseProgram final : public GenProgram {
 public:
  PointerChaseProgram(const PointerChaseParams& p, std::uint64_t seed);
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  PointerChaseParams p_;
  std::vector<std::uint32_t> next_;  ///< permutation: element -> successor
  std::uint64_t pos_ = 0;
  std::uint64_t done_ = 0;
};

// --- stencil halo ---------------------------------------------------------

struct StencilParams {
  /// Input grid: the full region (taps clamp to it) ...
  Slice in_region;
  /// ... of which this core sweeps [elem_offset, elem_offset + elems).
  std::uint64_t elem_offset = 0;
  std::uint64_t elems = 0;
  /// Output grid; the core writes its own [elem_offset, ...) slice.
  Slice out_region;
  std::uint32_t halo = 1;  ///< taps per side: reads i-halo .. i+halo
  std::uint32_t sweeps = 1;
  std::uint32_t elem_bytes = 8;
  std::uint32_t gap_cycles = 0;
  mem::RefClass in_ref = mem::RefClass::strided;
  mem::RefClass out_ref = mem::RefClass::strided;
  /// Class of taps that land outside this core's own slice. The compiler
  /// can prove interior taps stay in the local tile, but boundary taps may
  /// alias chunks other cores have SPM-mapped — so they default to the
  /// guarded class (strided would break the no-overlap tiling contract).
  mem::RefClass halo_ref = mem::RefClass::random_unknown;
};

/// (2*halo+1)-point 1-D stencil: per element, reads the tap window from
/// the input grid (edge taps reach into the neighbouring cores' slices —
/// the halo exchange), then writes the output element. No RNG: the
/// sequence is a pure function of the parameters.
class StencilProgram final : public GenProgram {
 public:
  explicit StencilProgram(const StencilParams& p);
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  StencilParams p_;
  std::uint64_t in_elems_ = 0;  ///< total elements in the input region
  std::uint32_t sweep_ = 0;
  std::uint64_t i_ = 0;    ///< element index within this core's slice
  std::uint64_t tap_ = 0;  ///< 0..2*halo reads, then the write
};

// --- producer / consumer --------------------------------------------------

struct ProducerConsumerParams {
  /// The shared ring region; core c owns slot [c*slot_bytes, (c+1)*...).
  Slice ring;
  std::uint64_t slot_bytes = 0;
  unsigned core = 0;
  unsigned cores = 1;
  std::uint64_t iterations = 0;
  std::uint32_t elem_bytes = 8;
  std::uint32_t gap_cycles = 0;
  mem::RefClass ref = mem::RefClass::random_unknown;
};

/// Per iteration: store the next element of the core's own slot, then load
/// the same offset from the left neighbour's slot (offsets rotate through
/// the slot). Models neighbour pipelines; with ref = random_unknown the
/// traffic goes through the guarded-access filter.
class ProducerConsumerProgram final : public GenProgram {
 public:
  explicit ProducerConsumerProgram(const ProducerConsumerParams& p);
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  ProducerConsumerParams p_;
  std::uint64_t own_base_ = 0;
  std::uint64_t peer_base_ = 0;
  std::uint64_t slot_elems_ = 0;
  std::uint64_t it_ = 0;
  bool consuming_ = false;  ///< second half of the store/load pair
};

// --- bursty on/off --------------------------------------------------------

struct BurstyParams {
  Slice slice;
  std::uint64_t bursts = 0;
  std::uint64_t burst_len = 0;     ///< accesses per burst
  std::uint32_t gap_on = 0;        ///< gap between accesses inside a burst
  std::uint32_t gap_off = 1000;    ///< idle gap carried by each burst head
  double store_fraction = 0.0;
  std::uint32_t elem_bytes = 8;
  mem::RefClass ref = mem::RefClass::random_noalias;
};

class BurstyProgram final : public GenProgram {
 public:
  BurstyProgram(const BurstyParams& p, std::uint64_t seed);
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  BurstyParams p_;
  Rng rng_;
  std::uint64_t elems_ = 0;
  std::uint64_t burst_ = 0;
  std::uint64_t i_ = 0;  ///< access index within the current burst
};

}  // namespace raa::scen
