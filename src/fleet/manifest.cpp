#include "fleet/manifest.hpp"

#include <algorithm>
#include <filesystem>

#include "common/rng.hpp"
#include "report/json_fields.hpp"
#include "report/report.hpp"

namespace raa::fleet {

namespace {

using json::check_keys;
using json::Ctx;
using json::to_enum;
using json::to_str;
using json::to_u32;
using json::to_u64;
using json::Value;

bool filesystem_safe_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  return std::all_of(id.begin(), id.end(), [](char ch) {
    return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
           (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' || ch == '-';
  });
}

/// Parse the limit keys shared by "defaults" and each job entry.
bool parse_limits(Ctx& c, const Value& obj, const std::string& path,
                  JobLimits& out) {
  if (const Value* v = obj.find("mode"))
    if (!to_enum(c, *v, path + ".mode", "mode", out.mode)) return false;
  if (const Value* v = obj.find("backend"))
    if (!to_enum(c, *v, path + ".backend", "backend", out.backend))
      return false;
  if (const Value* v = obj.find("shards")) {
    unsigned s = 0;
    if (!to_u32(c, *v, path + ".shards", s)) return false;
    if (s < 1) return c.fail(path + ".shards", "expected shards >= 1");
    out.shards = s;
  }
  if (const Value* v = obj.find("timeout_ms")) {
    std::uint64_t t = 0;
    if (!to_u64(c, *v, path + ".timeout_ms", t)) return false;
    out.timeout_ms = t;
  }
  if (const Value* v = obj.find("retries")) {
    unsigned r = 0;
    if (!to_u32(c, *v, path + ".retries", r)) return false;
    out.retries = r;
  }
  return true;
}

}  // namespace

JobLimits JobLimits::or_else(const JobLimits& over) const {
  JobLimits merged = *this;
  if (!merged.mode) merged.mode = over.mode;
  if (!merged.backend) merged.backend = over.backend;
  if (!merged.shards) merged.shards = over.shards;
  if (!merged.timeout_ms) merged.timeout_ms = over.timeout_ms;
  if (!merged.retries) merged.retries = over.retries;
  return merged;
}

std::optional<Manifest> Manifest::parse(const json::Value& doc,
                                        std::string* error) {
  Ctx c{error};
  if (!doc.is_object()) {
    c.fail("manifest", "expected a JSON object");
    return std::nullopt;
  }
  if (!check_keys(c, doc, "manifest",
                  {"schema", "schema_version", "name", "seed", "defaults",
                   "jobs"}))
    return std::nullopt;

  Manifest m;
  if (const Value* v = doc.find("schema")) {
    std::string s;
    if (!to_str(c, *v, "manifest.schema", s)) return std::nullopt;
    if (s != report::kFleetManifestSchemaName) {
      c.fail("manifest.schema",
             "expected \"" + std::string{report::kFleetManifestSchemaName} +
                 "\", got '" + s + "'");
      return std::nullopt;
    }
  }
  if (const Value* v = doc.find("name"))
    if (!to_str(c, *v, "manifest.name", m.name)) return std::nullopt;
  if (const Value* v = doc.find("seed"))
    if (!to_u64(c, *v, "manifest.seed", m.seed)) return std::nullopt;
  if (const Value* v = doc.find("defaults")) {
    if (!v->is_object()) {
      c.fail("manifest.defaults", "expected an object");
      return std::nullopt;
    }
    if (!check_keys(c, *v, "manifest.defaults",
                    {"mode", "backend", "shards", "timeout_ms", "retries"}) ||
        !parse_limits(c, *v, "manifest.defaults", m.defaults))
      return std::nullopt;
  }

  const Value* jobs = doc.find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    c.fail("manifest.jobs", "missing required job array");
    return std::nullopt;
  }
  if (jobs->as_array().empty()) {
    c.fail("manifest.jobs", "a fleet needs at least one job");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < jobs->as_array().size(); ++i) {
    const Value& jv = jobs->as_array()[i];
    const std::string path = "manifest.jobs[" + std::to_string(i) + "]";
    if (!jv.is_object()) {
      c.fail(path, "expected an object");
      return std::nullopt;
    }
    if (!check_keys(c, jv, path,
                    {"id", "scenario", "trace", "seed", "mode", "backend",
                     "shards", "timeout_ms", "retries"}))
      return std::nullopt;
    JobSpec job;
    const Value* idv = jv.find("id");
    if (idv == nullptr || !to_str(c, *idv, path + ".id", job.id)) {
      if (idv == nullptr) c.fail(path, "missing required key \"id\"");
      return std::nullopt;
    }
    if (!filesystem_safe_id(job.id)) {
      c.fail(path + ".id",
             "id '" + job.id +
                 "' must be 1-128 chars of [A-Za-z0-9._-] (it names the "
                 "per-job result file)");
      return std::nullopt;
    }
    if (const Value* v = jv.find("scenario"))
      if (!to_str(c, *v, path + ".scenario", job.scenario))
        return std::nullopt;
    if (const Value* v = jv.find("trace"))
      if (!to_str(c, *v, path + ".trace", job.trace)) return std::nullopt;
    if (job.scenario.empty() == job.trace.empty()) {
      c.fail(path, "give exactly one of \"scenario\" or \"trace\"");
      return std::nullopt;
    }
    if (const Value* v = jv.find("seed")) {
      std::uint64_t s = 0;
      if (!to_u64(c, *v, path + ".seed", s)) return std::nullopt;
      job.seed = s;
    }
    if (!parse_limits(c, jv, path, job.limits)) return std::nullopt;
    m.jobs.push_back(std::move(job));
  }

  for (std::size_t i = 0; i < m.jobs.size(); ++i)
    for (std::size_t j = i + 1; j < m.jobs.size(); ++j)
      if (m.jobs[i].id == m.jobs[j].id) {
        c.fail("manifest.jobs[" + std::to_string(j) + "].id",
               "duplicate job id '" + m.jobs[j].id + "'");
        return std::nullopt;
      }
  return m;
}

std::optional<Manifest> Manifest::load_file(const std::string& path,
                                            std::string* error) {
  const auto doc = json::Value::parse_file(path, error);
  if (!doc) return std::nullopt;
  auto m = parse(*doc, error);
  if (!m) {
    if (error && !error->empty()) *error = path + ": " + *error;
    return std::nullopt;
  }
  // Relative job inputs are manifest-relative, so a manifest plus its
  // scenario files move around as one self-contained bundle.
  const std::filesystem::path base =
      std::filesystem::path{path}.parent_path();
  if (!base.empty())
    for (JobSpec& job : m->jobs) {
      for (std::string* p : {&job.scenario, &job.trace})
        if (!p->empty() && std::filesystem::path{*p}.is_relative())
          *p = (base / *p).lexically_normal().string();
    }
  return m;
}

std::optional<Manifest> Manifest::from_directory(const std::string& dir,
                                                 std::string* error) {
  std::error_code ec;
  std::filesystem::directory_iterator it{dir, ec};
  if (ec) {
    if (error) *error = dir + ": cannot read directory (" + ec.message() + ")";
    return std::nullopt;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it)
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  if (files.empty()) {
    if (error) *error = dir + ": no *.json scenario files found";
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());

  Manifest m;
  m.name = std::filesystem::path{dir}.filename().string();
  if (m.name.empty()) m.name = "fleet";
  for (const auto& f : files) {
    JobSpec job;
    job.id = f.stem().string();
    job.scenario = f.string();
    m.jobs.push_back(std::move(job));
  }
  return m;
}

json::Value Manifest::to_json() const {
  Value doc;
  doc.set("schema", report::kFleetManifestSchemaName);
  doc.set("schema_version", report::kFleetManifestSchemaVersion);
  doc.set("name", name);
  doc.set("seed", static_cast<double>(seed));
  const auto emit_limits = [](Value& obj, const JobLimits& l) {
    if (l.mode) obj.set("mode", scen::to_string(*l.mode));
    if (l.backend) obj.set("backend", mem::to_string(*l.backend));
    if (l.shards) obj.set("shards", *l.shards);
    if (l.timeout_ms)
      obj.set("timeout_ms", static_cast<double>(*l.timeout_ms));
    if (l.retries) obj.set("retries", *l.retries);
  };
  if (defaults != JobLimits{}) {
    Value d{json::Object{}};
    emit_limits(d, defaults);
    doc.set("defaults", std::move(d));
  }
  Value arr{json::Array{}};
  for (const JobSpec& job : jobs) {
    Value jv;
    jv.set("id", job.id);
    if (!job.scenario.empty()) jv.set("scenario", job.scenario);
    if (!job.trace.empty()) jv.set("trace", job.trace);
    if (job.seed) jv.set("seed", static_cast<double>(*job.seed));
    emit_limits(jv, job.limits);
    arr.push_back(std::move(jv));
  }
  doc.set("jobs", std::move(arr));
  return doc;
}

std::uint64_t derive_job_seed(std::uint64_t fleet_seed, std::string_view id) {
  // FNV-1a over the id folded into the fleet seed, finalized through
  // SplitMix64 — position-independent by construction.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : id) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t state = fleet_seed ^ h;
  return splitmix64(state);
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative backtracking over the last '*' — linear in practice.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace raa::fleet
