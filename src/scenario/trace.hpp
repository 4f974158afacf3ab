#pragma once
/// \file trace.hpp
/// Compact binary access traces: record any CoreProgram's stream while it
/// runs, persist the whole run (config + mode + regions + per-core
/// streams) as one self-contained file, and replay it later through the
/// batched CoreProgram::fill path.
///
/// Why per-core streams and not one interleaved log: the simulator's
/// interleave is *derived* (the core with the smallest local clock runs
/// next), so the per-core program-order streams are the complete, minimal
/// description of a run — replaying them through the same System
/// reproduces every interleave decision, hence Metrics field-identical to
/// the recorded run (pinned by tests/test_scenario.cpp). Recording works
/// under any shard count: each core's program is only ever pulled by one
/// lane at a time, and the bytes captured are identical for every N.
///
/// Encoding (little-endian, unsigned LEB128 varints): one flags byte per
/// access — store bit, 2-bit ref class, has-gap bit, repeat-delta bit —
/// followed by a zigzag varint address delta (omitted when the delta
/// repeats the previous one) and a varint gap (when present). Linear
/// streams therefore cost ~1 byte/access; random streams ~4-6.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "memsim/access.hpp"
#include "memsim/config.hpp"

namespace raa::scen {

/// Version 3 added the banked backend's bank mapping to the header.
inline constexpr std::uint32_t kTraceVersion = 3;

/// A fully self-contained recorded run: everything System::run needs to
/// reproduce the simulation bit-for-bit.
struct TraceData {
  mem::SystemConfig config;
  mem::HierarchyMode mode = mem::HierarchyMode::cache_only;
  std::string name;
  std::vector<mem::Region> regions;

  struct CoreStream {
    std::uint64_t count = 0;  ///< accesses encoded in `bytes`
    std::vector<std::uint8_t> bytes;
  };
  std::vector<CoreStream> cores;

  /// Serialize / deserialize the single-file format. Both return false and
  /// fill `error` (when non-null) on I/O or format problems.
  bool write_file(const std::string& path, std::string* error = nullptr) const;
  static std::optional<TraceData> read_file(const std::string& path,
                                            std::string* error = nullptr);
};

/// Encode a raw access sequence with the per-access trace codec (the same
/// encoder record_workload drives); exposed so property tests and tools
/// can exercise the codec without a simulation run.
TraceData::CoreStream encode_accesses(std::span<const mem::Access> accesses);

/// Decode one encoded core stream back into accesses. Throws
/// (std::logic_error via RAA_CHECK) on a malformed stream; streams loaded
/// through TraceData::read_file are pre-validated and never throw here.
std::vector<mem::Access> decode_stream(const TraceData::CoreStream& cs);

/// Wrap every program of `w` so a subsequent System::run records each
/// core's access stream into `trace` (whose regions/cores are reset from
/// the workload). `trace` must outlive the run and must not be moved while
/// recording. config/mode/name are captured for the file header.
void record_workload(mem::Workload& w, const mem::SystemConfig& config,
                     mem::HierarchyMode mode, TraceData& trace);

/// Build a workload that replays `trace` (regions copied, one TraceProgram
/// per recorded core). The returned programs share ownership of the trace.
mem::Workload make_replay_workload(std::shared_ptr<const TraceData> trace);

/// CoreProgram streaming one recorded core stream back in batches.
class TraceProgram final : public mem::CoreProgram {
 public:
  TraceProgram(std::shared_ptr<const TraceData> trace, std::size_t core);

  bool next(mem::Access& out) override { return fill({&out, 1}) == 1; }
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  std::shared_ptr<const TraceData> trace_;  ///< keeps the bytes alive
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t remaining_ = 0;
  std::uint64_t prev_addr_ = 0;
  std::int64_t prev_delta_ = 0;
};

}  // namespace raa::scen
