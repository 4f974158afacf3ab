#include "scenario/trace.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/check.hpp"

namespace raa::scen {

namespace {

constexpr char kMagic[4] = {'R', 'A', 'A', 'T'};

// Per-access flags byte.
constexpr std::uint8_t kFlagStore = 1u << 0;
constexpr std::uint8_t kFlagRefShift = 1;  // bits 1-2
constexpr std::uint8_t kFlagRefMask = 0x3;
constexpr std::uint8_t kFlagHasGap = 1u << 3;
constexpr std::uint8_t kFlagRepeatDelta = 1u << 4;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    RAA_CHECK_MSG(p < end, "truncated trace stream");
    const std::uint8_t b = *p++;
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    RAA_CHECK_MSG(shift < 64, "overlong varint in trace stream");
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Encoder for one core's stream (also the recorder's per-core state).
struct Encoder {
  TraceData::CoreStream* out = nullptr;
  std::uint64_t prev_addr = 0;
  std::int64_t prev_delta = 0;

  void encode(const mem::Access& a) {
    const std::int64_t delta =
        static_cast<std::int64_t>(a.addr - prev_addr);  // wrapping
    std::uint8_t flags =
        static_cast<std::uint8_t>((static_cast<unsigned>(a.ref) & kFlagRefMask)
                                  << kFlagRefShift);
    if (a.is_store) flags |= kFlagStore;
    if (a.gap_cycles != 0) flags |= kFlagHasGap;
    if (delta == prev_delta) flags |= kFlagRepeatDelta;
    out->bytes.push_back(flags);
    if (delta != prev_delta) put_varint(out->bytes, zigzag(delta));
    if (a.gap_cycles != 0) put_varint(out->bytes, a.gap_cycles);
    prev_addr = a.addr;
    prev_delta = delta;
    ++out->count;
  }
};

/// Pass-through CoreProgram that encodes everything the inner program
/// produces. Owns the inner program; the encoder writes into the
/// TraceData's per-core stream (stable storage owned by the caller).
class RecordingProgram final : public mem::CoreProgram {
 public:
  RecordingProgram(std::unique_ptr<mem::CoreProgram> inner,
                   TraceData::CoreStream* out)
      : inner_(std::move(inner)) {
    enc_.out = out;
  }

  bool next(mem::Access& out) override { return fill({&out, 1}) == 1; }

  std::size_t fill(std::span<mem::Access> out) override {
    const std::size_t n = inner_->fill(out);
    for (std::size_t i = 0; i < n; ++i) enc_.encode(out[i]);
    return n;
  }

 private:
  std::unique_ptr<mem::CoreProgram> inner_;
  Encoder enc_;
};

// --- fixed-width file-header helpers (little-endian) ----------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  std::string err;

  bool fail(const char* msg) {
    if (err.empty()) err = msg;
    return false;
  }
  bool need(std::size_t n, const char* what) {
    return static_cast<std::size_t>(end - p) >= n ? true : fail(what);
  }
  bool u32(std::uint32_t& v) {
    if (!need(4, "truncated header")) return false;
    v = 0;
    for (int k = 0; k < 4; ++k) v |= std::uint32_t{p[k]} << (8 * k);
    p += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (!need(8, "truncated header")) return false;
    v = 0;
    for (int k = 0; k < 8; ++k) v |= std::uint64_t{p[k]} << (8 * k);
    p += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool varint(std::uint64_t& v) {
    v = 0;
    unsigned shift = 0;
    while (true) {
      if (!need(1, "truncated varint")) return false;
      const std::uint8_t b = *p++;
      v |= std::uint64_t{b & 0x7Fu} << shift;
      if (!(b & 0x80)) return true;
      shift += 7;
      if (shift >= 64) return fail("overlong varint");
    }
  }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!varint(n)) return false;
    if (!need(n, "truncated string")) return false;
    s.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }
};

/// Validate that an encoded core stream decodes cleanly: exactly `count`
/// accesses, every varint complete, and no trailing bytes. read_file runs
/// this over every stream so a truncated or bit-flipped file fails with a
/// diagnostic at load time instead of tripping RAA_CHECK (or worse) deep
/// inside a replay run.
const char* validate_stream(const TraceData::CoreStream& cs) {
  const std::uint8_t* p = cs.bytes.data();
  const std::uint8_t* end = p + cs.bytes.size();
  const auto skip_varint = [&]() -> const char* {
    unsigned shift = 0;
    while (true) {
      if (p >= end) return "truncated varint";
      const std::uint8_t b = *p++;
      if (!(b & 0x80)) return nullptr;
      shift += 7;
      if (shift >= 64) return "overlong varint";
    }
  };
  for (std::uint64_t i = 0; i < cs.count; ++i) {
    if (p >= end) return "stream ends before its access count";
    const std::uint8_t flags = *p++;
    if (!(flags & kFlagRepeatDelta))
      if (const char* e = skip_varint()) return e;
    if (flags & kFlagHasGap)
      if (const char* e = skip_varint()) return e;
  }
  if (p != end) return "trailing bytes after the last access";
  return nullptr;
}

/// Route one of memsim/config.hpp's field lists to a u32 or f64 codec, in
/// list order — the writer and reader cannot drift apart. Enum fields (the
/// banked mapping) travel as u32 through the same codec.
template <typename U32, typename F64>
auto by_type(U32 u32, F64 f64) {
  return [=](const char*, auto& v, bool = false) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, double>) f64(v);
    else u32(v);
  };
}

}  // namespace

bool TraceData::write_file(const std::string& path, std::string* error) const {
  std::vector<std::uint8_t> buf;
  for (const char m : kMagic) buf.push_back(static_cast<std::uint8_t>(m));
  put_u32(buf, kTraceVersion);
  mem::SystemConfig c = config;
  const auto write = by_type(
      [&](auto v) { put_u32(buf, static_cast<std::uint32_t>(v)); },
      [&](double v) { put_f64(buf, v); });
  mem::for_each_config_field(c, write);
  put_u32(buf, static_cast<std::uint32_t>(c.memory.kind));
  mem::for_each_banked_field(c.memory.banked, write);
  buf.push_back(mode == mem::HierarchyMode::hybrid ? 1 : 0);
  put_str(buf, name);
  put_u32(buf, static_cast<std::uint32_t>(regions.size()));
  for (const auto& r : regions) {
    put_str(buf, r.name);
    put_u64(buf, r.base);
    put_u64(buf, r.bytes);
    buf.push_back(static_cast<std::uint8_t>(r.ref));
  }
  put_u32(buf, static_cast<std::uint32_t>(cores.size()));
  for (const auto& cs : cores) {
    put_u64(buf, cs.count);
    put_varint(buf, cs.bytes.size());
    buf.insert(buf.end(), cs.bytes.begin(), cs.bytes.end());
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<TraceData> TraceData::read_file(const std::string& path,
                                              std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<TraceData> {
    if (error) *error = path + ": " + msg;
    return std::nullopt;
  };

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return fail("cannot open for reading");
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.insert(buf.end(), chunk, chunk + got);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return fail("read error");

  Reader rd{buf.data(), buf.data() + buf.size()};
  if (!rd.need(4, "truncated magic") || std::memcmp(rd.p, kMagic, 4) != 0)
    return fail("not a RAA trace file (bad magic)");
  rd.p += 4;
  std::uint32_t version = 0;
  if (!rd.u32(version)) return fail(rd.err);
  if (version != kTraceVersion)
    return fail("unsupported trace version " + std::to_string(version) +
                " (want " + std::to_string(kTraceVersion) + ")");

  TraceData t;
  bool ok = true;
  const auto read_u32 = [&](auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    std::uint32_t x = 0;
    ok = ok && rd.u32(x);
    if constexpr (std::is_enum_v<T>)
      ok = ok && (x < enum_names(T{}).size() ||
                  rd.fail("enum field out of range"));
    v = static_cast<T>(x);
  };
  const auto read_f64 = [&](double& v) { ok = ok && rd.f64(v); };
  mem::for_each_config_field(t.config, by_type(read_u32, read_f64));
  std::uint32_t backend_kind = 0;
  ok = ok && rd.u32(backend_kind);
  if (!ok) return fail(rd.err);
  if (backend_kind > 1) return fail("bad memory backend kind");
  t.config.memory.kind = static_cast<mem::MemBackendKind>(backend_kind);
  mem::for_each_banked_field(t.config.memory.banked,
                             by_type(read_u32, read_f64));
  if (!ok) return fail(rd.err);
  // Config sanity: these fields come from an untrusted file but feed
  // straight into System setup (divisions, mesh construction). Apply the
  // rules the scenario parser reads off the same field lists: unsigned
  // fields positive unless zero_ok, doubles non-negative.
  bool bad = false;
  const auto in_range = [&](const char*, auto& v, bool zero_ok = false) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, double>)
      bad = bad || !(v >= 0.0);
    else if constexpr (std::is_same_v<T, unsigned>)
      bad = bad || (v == 0 && !zero_ok);
  };
  mem::for_each_config_field(t.config, in_range);
  mem::for_each_banked_field(t.config.memory.banked, in_range);
  if (bad) return fail("config field out of range (zero or negative)");
  if (const auto e = mem::check_config(t.config))
    return fail("config " + e->message);
  if (!rd.need(1, "truncated mode")) return fail(rd.err);
  const std::uint8_t mode_byte = *rd.p++;
  if (mode_byte > 1) return fail("bad hierarchy mode byte");
  t.mode = mode_byte ? mem::HierarchyMode::hybrid
                     : mem::HierarchyMode::cache_only;
  if (!rd.str(t.name)) return fail(rd.err);

  std::uint32_t region_count = 0;
  if (!rd.u32(region_count)) return fail(rd.err);
  for (std::uint32_t i = 0; i < region_count; ++i) {
    mem::Region r;
    if (!rd.str(r.name) || !rd.u64(r.base) || !rd.u64(r.bytes))
      return fail(rd.err);
    if (!rd.need(1, "truncated region class")) return fail(rd.err);
    const std::uint8_t ref = *rd.p++;
    if (ref > 2) return fail("bad region class byte");
    r.ref = static_cast<mem::RefClass>(ref);
    t.regions.push_back(std::move(r));
  }

  std::uint32_t core_count = 0;
  if (!rd.u32(core_count)) return fail(rd.err);
  if (core_count != t.config.tiles)
    return fail("core stream count (" + std::to_string(core_count) +
                ") does not match config tiles (" +
                std::to_string(t.config.tiles) + ")");
  for (std::uint32_t i = 0; i < core_count; ++i) {
    CoreStream cs;
    std::uint64_t nbytes = 0;
    if (!rd.u64(cs.count) || !rd.varint(nbytes)) return fail(rd.err);
    if (!rd.need(nbytes, "truncated core stream")) return fail(rd.err);
    cs.bytes.assign(rd.p, rd.p + nbytes);
    rd.p += nbytes;
    if (const char* e = validate_stream(cs))
      return fail("core stream " + std::to_string(i) + " is corrupt: " + e);
    t.cores.push_back(std::move(cs));
  }
  if (rd.p != rd.end) return fail("trailing bytes after last core stream");
  return t;
}

TraceData::CoreStream encode_accesses(std::span<const mem::Access> accesses) {
  TraceData::CoreStream cs;
  Encoder enc;
  enc.out = &cs;
  for (const mem::Access& a : accesses) enc.encode(a);
  return cs;
}

std::vector<mem::Access> decode_stream(const TraceData::CoreStream& cs) {
  auto trace = std::make_shared<TraceData>();
  trace->cores.push_back(cs);
  TraceProgram prog{std::move(trace), 0};
  std::vector<mem::Access> out(cs.count);
  const std::size_t n = prog.fill({out.data(), out.size()});
  RAA_CHECK_MSG(n == cs.count, "stream decoded short of its access count");
  return out;
}

void record_workload(mem::Workload& w, const mem::SystemConfig& config,
                     mem::HierarchyMode mode, TraceData& trace) {
  trace.config = config;
  trace.mode = mode;
  trace.name = w.name;
  trace.regions.assign(w.regions.begin(), w.regions.end());
  trace.cores.clear();
  trace.cores.resize(w.programs.size());
  for (std::size_t c = 0; c < w.programs.size(); ++c)
    w.programs[c] = std::make_unique<RecordingProgram>(
        std::move(w.programs[c]), &trace.cores[c]);
}

mem::Workload make_replay_workload(std::shared_ptr<const TraceData> trace) {
  RAA_CHECK(trace != nullptr);
  mem::Workload w;
  w.name = trace->name;
  for (const auto& r : trace->regions) w.regions.push_back(r);
  for (std::size_t c = 0; c < trace->cores.size(); ++c)
    w.programs.push_back(std::make_unique<TraceProgram>(trace, c));
  return w;
}

TraceProgram::TraceProgram(std::shared_ptr<const TraceData> trace,
                           std::size_t core)
    : trace_(std::move(trace)) {
  RAA_CHECK(trace_ != nullptr && core < trace_->cores.size());
  const auto& cs = trace_->cores[core];
  p_ = cs.bytes.data();
  end_ = p_ + cs.bytes.size();
  remaining_ = cs.count;
}

std::size_t TraceProgram::fill(std::span<mem::Access> out) {
  std::size_t n = 0;
  while (n < out.size() && remaining_ > 0) {
    RAA_CHECK_MSG(p_ < end_, "trace stream ends before its access count");
    const std::uint8_t flags = *p_++;
    std::int64_t delta = prev_delta_;
    if (!(flags & kFlagRepeatDelta)) delta = unzigzag(get_varint(p_, end_));
    std::uint32_t gap = 0;
    if (flags & kFlagHasGap)
      gap = static_cast<std::uint32_t>(get_varint(p_, end_));
    const std::uint64_t addr =
        prev_addr_ + static_cast<std::uint64_t>(delta);  // wrapping
    out[n++] = mem::Access{
        addr, (flags & kFlagStore) != 0,
        static_cast<mem::RefClass>((flags >> kFlagRefShift) & kFlagRefMask),
        gap};
    prev_addr_ = addr;
    prev_delta_ = delta;
    --remaining_;
  }
  return n;
}

}  // namespace raa::scen
