#pragma once
/// \file backend.hpp
/// The memsim/DRAM boundary: a narrow, pluggable memory-timing back end
/// in the shape of DRAMsim3's `MemorySystem` and Ramulator's `Memory`
/// front end — `enqueue(LineReq)` / `tick()` / a completion callback —
/// so the protocol simulator never reads timing constants directly.
///
/// Two implementations:
///  * FlatBackend — fixed per-line latency/energy, the original model.
///    Completes requests synchronously at enqueue; with the default
///    parameters every gated metric is bit-identical to the pre-backend
///    simulator (pinned by the BackendEquivalence suite).
///  * BankedBackend — per-channel/bank FSMs with an open-row policy
///    (row-buffer hit / miss / conflict timing), an FR-FCFS command
///    queue per channel, and periodic all-bank refresh.
///
/// Determinism contract: a backend instance is only ever driven from the
/// simulator's serial commit loop (the same thread that owns all protocol
/// state), so its timing state evolves in the exact commit order for any
/// `--shards` value — banked runs are field-identical serial vs sharded,
/// exactly like every other metric (ShardEquivalence + the fuzzer's
/// backend oracle pin this). Backends hold no global/static state.
///
/// Ownership split: the backend owns the DRAM counters and DRAM energy
/// (BackendStats); System folds them into Metrics in finish_run. NoC
/// legs to/from the memory controller stay on the System side.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "memsim/config.hpp"

namespace raa::mem {

/// One line-granular request crossing the memsim/DRAM boundary.
struct LineReq {
  enum class Kind : std::uint8_t {
    read,   ///< demand fill — the core blocks on the completion latency
    write,  ///< eviction writeback — latency-hidden, still occupies timing
  };
  Kind kind = Kind::read;
  std::uint64_t line = 0;  ///< line-aligned address
  unsigned mc = 0;         ///< memory controller the request enters at
  double issue = 0.0;      ///< commit-loop clock at issue
  bool burst = false;      ///< DMA-burst member, timed via finish_burst
};

/// Aggregate timing of one DMA burst (System::dma_map_chunk): the burst
/// stalls the core for `service` (request to first line available) and
/// then streams at `cadence` cycles total for the remaining lines.
struct BurstTiming {
  double service = 0.0;
  double cadence = 0.0;
};

/// Counters and energy owned by the backend; System copies them into the
/// corresponding Metrics fields at finish_run.
struct BackendStats {
  std::uint64_t line_reads = 0;
  std::uint64_t line_writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t refreshes = 0;
  double energy_pj = 0.0;

  friend bool operator==(const BackendStats&, const BackendStats&) = default;
};

/// See file comment. Completion callbacks fire from enqueue() or tick(),
/// always on the calling (commit) thread, and report the request's
/// latency in cycles relative to its issue time.
class MemBackend {
 public:
  using Completion = std::function<void(const LineReq&, double latency)>;

  virtual ~MemBackend() = default;

  virtual MemBackendKind kind() const noexcept = 0;
  /// Reset all timing/queue state and stats. Systems are reused across
  /// runs and core clocks restart at 0, so backends must fully reset.
  virtual void begin_run() = 0;
  /// Queue one request. May complete it synchronously.
  virtual void enqueue(const LineReq& req) = 0;
  /// Service queued commands; fires completions for finished requests.
  /// Guaranteed to make progress while requests are pending.
  virtual void tick() = 0;
  virtual bool idle() const noexcept = 0;
  /// Bracket a DMA burst: begin_burst() before the burst's enqueues,
  /// finish_burst() after the backend drained (idle()). `total_lines`
  /// counts every line of the chunk, `dram_lines` the subset that came
  /// from DRAM (the rest streamed from the home L2 bank).
  virtual void begin_burst() = 0;
  virtual BurstTiming finish_burst(unsigned total_lines,
                                   unsigned dram_lines) = 0;

  void set_completion(Completion cb) { complete_ = std::move(cb); }
  const BackendStats& stats() const noexcept { return stats_; }

 protected:
  void completed(const LineReq& req, double latency) {
    if (complete_) complete_(req, latency);
  }

  Completion complete_;
  BackendStats stats_;
};

/// Fixed-latency DRAM: every read costs Params::lat_dram, bursts stream
/// at dram_cycles_per_line, writes are free in time; each line moved
/// costs e_dram_line. Synchronous: enqueue() completes the request.
class FlatBackend final : public MemBackend {
 public:
  using Params = FlatBackendParams;

  explicit FlatBackend(const Params& params) : p_(params) {}

  MemBackendKind kind() const noexcept override {
    return MemBackendKind::flat;
  }
  void begin_run() override { stats_ = BackendStats{}; }
  void enqueue(const LineReq& req) override;
  void tick() override {}
  bool idle() const noexcept override { return true; }
  void begin_burst() override {}
  BurstTiming finish_burst(unsigned total_lines,
                           unsigned dram_lines) override;

 private:
  Params p_;
};

/// Banked DRAM. Address interleave below the controller: row-buffer-sized
/// blocks rotate across the controller's channels, then across the banks
/// of a channel — so a linear sweep streams whole rows per bank while
/// spreading consecutive rows over channels.
///
/// Per request (FR-FCFS pick: oldest row hit, else oldest):
///   ready     = max(issue, bank busy; pending refreshes applied first)
///   row_lat   = t_cas (hit) | t_rcd+t_cas (closed) | t_rp+t_rcd+t_cas
///               (conflict — a different row is open)
///   done      = max(ready + row_lat, channel bus free) + line_cycles
/// Every refresh_interval cycles a channel closes all rows and blocks its
/// banks for refresh_cycles (0 disables refresh).
class BankedBackend final : public MemBackend {
 public:
  using Params = BankedBackendParams;

  BankedBackend(const Params& params, unsigned mem_controllers);

  MemBackendKind kind() const noexcept override {
    return MemBackendKind::banked;
  }
  void begin_run() override;
  void enqueue(const LineReq& req) override;
  void tick() override;
  bool idle() const noexcept override { return pending_ == 0; }
  void begin_burst() override;
  BurstTiming finish_burst(unsigned total_lines,
                           unsigned dram_lines) override;

 private:
  static constexpr std::uint64_t kNoRow =
      std::numeric_limits<std::uint64_t>::max();

  struct Bank {
    std::uint64_t open_row = kNoRow;
    double busy_until = 0.0;
  };
  struct Pending {
    LineReq req;
    std::uint64_t seq = 0;  ///< arrival order (the FCFS half of FR-FCFS)
    std::uint64_t row = 0;
    unsigned bank = 0;
  };
  struct Channel {
    std::vector<Bank> banks;
    std::vector<Pending> queue;
    double bus_free = 0.0;
    double next_refresh = 0.0;
  };

  void service_one(Channel& ch);

  Params p_;
  unsigned mem_controllers_;
  std::vector<Channel> channels_;  ///< mem_controllers * p_.channels
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  // Burst window (one burst in flight at a time, commit-loop invariant).
  double burst_issue_ = 0.0;
  double burst_first_done_ = 0.0;
  double burst_last_done_ = 0.0;
  bool burst_seen_ = false;
};

/// Instantiate the backend selected by `config.memory`.
std::unique_ptr<MemBackend> make_backend(const SystemConfig& config);

}  // namespace raa::mem
