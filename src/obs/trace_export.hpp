#pragma once
/// \file trace_export.hpp
/// Chrome trace-event JSON exporter for drained obs::Trace sessions.
/// The emitted files load in chrome://tracing and Perfetto (legacy JSON
/// importer). Three clock modes:
///
///  - sim:  only events carrying a simulated timestamp, ts = cycles
///          (rendered in the viewer as microseconds). These events are
///          all emitted by the serial commit loop, so for a fixed
///          scenario the exported bytes are identical for any --shards /
///          worker count — the TraceDeterminism contract. Host
///          timestamps and thread identities are deliberately omitted.
///  - host: every event on the host steady clock (ts = ns / 1000), one
///          trace tid per emitting thread. Not deterministic, by nature.
///  - dual: both of the above in one file as two trace "processes"
///          (pid 0 = simulated clock, pid 1 = host clock).

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "common/enum_names.hpp"
#include "obs/obs.hpp"

namespace raa::obs {

enum class TraceClock { sim, host, dual };

constexpr std::array<EnumName<TraceClock>, 3> enum_names(TraceClock) noexcept {
  return {{{TraceClock::sim, "sim"},
           {TraceClock::host, "host"},
           {TraceClock::dual, "dual"}}};
}

inline const char* to_string(TraceClock c) noexcept { return enum_name(c); }

/// Render the trace as Chrome trace-event JSON text.
std::string chrome_trace_json(const Trace& trace, TraceClock clock);

/// chrome_trace_json + write to `path`. Returns false and fills `error`
/// (when non-null) on I/O failure.
bool write_chrome_trace(const Trace& trace, const std::string& path,
                        TraceClock clock, std::string* error = nullptr);

/// The tools' tracing bracket, closed: stop() the session the caller
/// started, write its Chrome trace to `path` and, unless `quiet`, print
/// the kept/dropped event summary. A write failure is reported on stderr
/// (prefixed with `tool`) and returns false.
bool stop_and_export(const std::string& path, TraceClock clock,
                     const char* tool, bool quiet);

}  // namespace raa::obs
