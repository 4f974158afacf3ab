/// \file trace_export.cpp
/// Trace -> Chrome trace-event JSON. Events are decoded name-by-name
/// into human-readable args (the ring stores two opaque payload words;
/// the packing contract lives in the instrumentation sites and here).
/// Rendering goes through raa::json::Value so the number formatting is
/// the one deterministic formatter the whole repo shares.

#include "obs/trace_export.hpp"

#include <bit>
#include <cstdio>
#include <utility>

#include "report/json.hpp"

namespace raa::obs {

namespace {

const char* row_str(std::uint8_t flags) noexcept {
  switch ((flags >> kRowShift) & 0x3) {
    case kRowHit:
      return "hit";
    case kRowMiss:
      return "miss";
    case kRowConflict:
      return "conflict";
    default:
      return "none";
  }
}

/// Decode the per-name payload packing into trace args; returns the span
/// duration (in the event's own clock units) for complete-phase events.
double decode_args(const Event& e, json::Value& args) {
  double dur = 0.0;
  switch (e.name) {
    case Name::epoch:
      if (e.phase == Phase::begin) {
        args.set("tiles", static_cast<double>(e.a0));
        args.set("mode", static_cast<double>(e.a1));
      } else {
        args.set("accesses", static_cast<double>(e.a0));
        args.set("dram_line_reads", static_cast<double>(e.a1));
      }
      break;
    case Name::dram_enqueue:
      args.set("line", static_cast<double>(e.a0));
      args.set("mc", static_cast<double>(e.a1 & 0xff));
      args.set("kind", ((e.a1 >> 8) & 1) ? "write" : "read");
      args.set("burst", ((e.a1 >> 9) & 1) != 0);
      break;
    case Name::dram_complete:
      args.set("lat_cycles", std::bit_cast<double>(e.a0));
      args.set("line", static_cast<double>(e.a1));
      args.set("row", row_str(e.flags));
      break;
    case Name::dma_chunk:
      dur = std::bit_cast<double>(e.a0);
      args.set("lines", static_cast<double>(e.a1 & 0xffff));
      args.set("dram_lines", static_cast<double>((e.a1 >> 16) & 0xffff));
      args.set("core", static_cast<double>(e.a1 >> 32));
      break;
    case Name::task_run:
      dur = static_cast<double>(e.a0) / 1000.0;  // ns -> us
      args.set("task", static_cast<double>(e.a1));
      break;
    case Name::task_spawn:
      args.set("task", static_cast<double>(e.a0));
      args.set("deps", static_cast<double>(e.a1));
      break;
    case Name::steal_attempt:
      args.set("worker", static_cast<double>(e.a0));
      break;
    case Name::steal_success:
      args.set("thief", static_cast<double>(e.a0));
      args.set("victim", static_cast<double>(e.a1));
      break;
    case Name::worker_park:
      args.set("worker", static_cast<double>(e.a0));
      break;
    case Name::job:
      args.set("job", static_cast<double>(e.a0));
      if (e.phase == Phase::end) {
        args.set("status", static_cast<double>(e.a1 & 0xff));
        args.set("attempts", static_cast<double>(e.a1 >> 8));
      }
      break;
    case Name::job_retry:
      args.set("job", static_cast<double>(e.a0));
      args.set("attempt", static_cast<double>(e.a1));
      break;
    case Name::job_timeout:
      args.set("job", static_cast<double>(e.a0));
      break;
    case Name::mark:
      args.set("a0", static_cast<double>(e.a0));
      args.set("a1", static_cast<double>(e.a1));
      break;
  }
  return dur;
}

/// One trace-event object. `ts` is in the clock's display unit (cycles
/// for sim, microseconds for host); complete-phase events are stamped at
/// their END in the ring, so the start is ts - dur.
json::Value event_json(const Event& e, double ts, int pid, int tid) {
  json::Value args;
  const double dur = decode_args(e, args);
  json::Value out;
  out.set("name", name_str(e.name));
  out.set("cat", cat_str(e.cat));
  switch (e.phase) {
    case Phase::begin:
      out.set("ph", "B");
      break;
    case Phase::end:
      out.set("ph", "E");
      break;
    case Phase::complete:
      out.set("ph", "X");
      break;
    case Phase::instant:
      out.set("ph", "i");
      out.set("s", "t");
      break;
  }
  out.set("ts", e.phase == Phase::complete ? ts - dur : ts);
  if (e.phase == Phase::complete) out.set("dur", dur);
  out.set("pid", pid);
  out.set("tid", tid);
  out.set("args", std::move(args));
  return out;
}

json::Value meta_json(const char* kind, const std::string& name, int pid,
                      int tid) {
  json::Value args;
  args.set("name", name);
  json::Value out;
  out.set("name", kind);
  out.set("ph", "M");
  out.set("pid", pid);
  out.set("tid", tid);
  out.set("args", std::move(args));
  return out;
}

void append_sim_events(const Trace& trace, int pid, json::Value& events) {
  events.push_back(
      meta_json("process_name", "raa simulated clock (cycles)", pid, 0));
  events.push_back(meta_json("thread_name", "protocol-commit", pid, 0));
  for (const Event& e : trace.events) {
    if (!(e.flags & kFlagHasSim)) continue;
    events.push_back(event_json(e, e.sim_ts, pid, 0));
  }
}

void append_host_events(const Trace& trace, int pid, json::Value& events) {
  events.push_back(meta_json("process_name", "raa host clock", pid, 0));
  for (std::size_t slot = 0; slot < trace.threads.size(); ++slot)
    events.push_back(meta_json("thread_name", trace.threads[slot], pid,
                               static_cast<int>(slot)));
  for (const Event& e : trace.events)
    events.push_back(event_json(e, static_cast<double>(e.host_ns) / 1000.0,
                                pid, static_cast<int>(e.slot)));
}

}  // namespace

std::string chrome_trace_json(const Trace& trace, TraceClock clock) {
  json::Value events{json::Array{}};
  switch (clock) {
    case TraceClock::sim:
      append_sim_events(trace, 0, events);
      break;
    case TraceClock::host:
      append_host_events(trace, 0, events);
      break;
    case TraceClock::dual:
      append_sim_events(trace, 0, events);
      append_host_events(trace, 1, events);
      break;
  }
  json::Value other;
  other.set("schema", "raa-trace");
  other.set("schema_version", 1);
  other.set("clock", to_string(clock));
  other.set("dropped", static_cast<double>(trace.dropped));
  json::Value doc;
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", std::move(other));
  return doc.dump(1) + "\n";
}

bool write_chrome_trace(const Trace& trace, const std::string& path,
                        TraceClock clock, std::string* error) {
  const std::string text = chrome_trace_json(trace, clock);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

bool stop_and_export(const std::string& path, TraceClock clock,
                     const char* tool, bool quiet) {
  const Trace trace = stop();
  std::string error;
  if (!write_chrome_trace(trace, path, clock, &error)) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return false;
  }
  if (!quiet)
    std::printf("%s: wrote trace %s (%zu events, %llu dropped, clock=%s)\n",
                tool, path.c_str(), trace.events.size(),
                static_cast<unsigned long long>(trace.dropped),
                to_string(clock));
  return true;
}

}  // namespace raa::obs
