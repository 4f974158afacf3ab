#include "fuzz/shrink.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

namespace raa::fuzz {

namespace {

using scen::GenKind;
using scen::Scenario;

/// Validity bar for candidates: the serialized form must re-parse. This is
/// exactly what a written repro artifact must satisfy, and it re-checks
/// every semantic constraint (window sizes, chunk tiling, core ranges)
/// that an edit may have broken.
bool parse_valid(const Scenario& c) {
  std::string err;
  return scen::Scenario::parse(c.to_json(), &err).has_value();
}

std::uint64_t halve(std::uint64_t x) { return std::max<std::uint64_t>(x / 2, 1); }

enum class Edit : std::uint8_t { halve, zero };

/// The shrinkable entries of a spec's field list, in candidate order:
/// halve its kHalve counts and sizes, then zero its kZero integers (gaps),
/// then its kZero fractions; nested phases and streams are visited in
/// place of their list entry, during the first pass.
template <class S, class F>
void field_edits(S& s, F&& f) {
  for (int pass = 0; pass < 3; ++pass)
    scen::for_each_field(s, [&](const char*, auto& x, unsigned rule) {
      using T = std::remove_cvref_t<decltype(x)>;
      if constexpr (scen::is_spec_list<T>) {
        if (pass == 0)
          for (auto& e : x) field_edits(e, f);
      } else if constexpr (std::is_arithmetic_v<T> &&
                           !std::is_same_v<T, bool>) {
        if (pass == 0 && (rule & scen::kHalve)) f(x, Edit::halve);
        if (pass == (std::is_integral_v<T> ? 1 : 2) && (rule & scen::kZero))
          f(x, Edit::zero);
      }
    });
}

/// Shrink the mesh along one axis, discarding cores that fall out of
/// range. Returns false (candidate unusable) when an explicit core list
/// would become empty.
bool shrink_mesh(Scenario& s, bool along_x) {
  unsigned& axis = along_x ? s.config.mesh_x : s.config.mesh_y;
  if (axis <= 1) return false;
  axis /= 2;
  s.config.tiles = s.config.mesh_x * s.config.mesh_y;
  for (auto& p : s.programs) {
    if (p.cores.empty()) continue;  // implicit all-cores tracks the mesh
    std::erase_if(p.cores,
                  [&](unsigned c) { return c >= s.config.tiles; });
    if (p.cores.empty()) return false;
  }
  return true;
}

/// Renumber the claimed cores to 0..k-1 (order-preserving by id), which
/// unblocks mesh shrinking when the surviving cores have high ids.
bool compact_cores(Scenario& s) {
  std::vector<unsigned> claimed;
  for (const auto& p : s.programs)
    for (const unsigned c : p.cores) claimed.push_back(c);
  if (claimed.empty()) return false;
  std::sort(claimed.begin(), claimed.end());
  bool changed = false;
  for (auto& p : s.programs)
    for (unsigned& c : p.cores) {
      const auto rank = static_cast<unsigned>(
          std::lower_bound(claimed.begin(), claimed.end(), c) -
          claimed.begin());
      changed = changed || rank != c;
      c = rank;
    }
  return changed;
}

/// All single-edit candidates, most aggressive first. Regenerated after
/// every accepted edit, so indices always refer to the current scenario.
std::vector<Scenario> propose(const Scenario& s) {
  std::vector<Scenario> out;
  const auto with = [&](auto&& edit) {
    Scenario c = s;
    if (edit(c)) out.push_back(std::move(c));
  };

  // Whole-program deletions.
  if (s.programs.size() > 1)
    for (std::size_t i = 0; i < s.programs.size(); ++i)
      with([&](Scenario& c) {
        c.programs.erase(c.programs.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });

  // Phase / stream deletions inside scripted programs.
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    const auto& p = s.programs[i];
    if (p.kind != GenKind::scripted) continue;
    if (p.phases.size() > 1)
      for (std::size_t j = 0; j < p.phases.size(); ++j)
        with([&](Scenario& c) {
          auto& ph = c.programs[i].phases;
          ph.erase(ph.begin() + static_cast<std::ptrdiff_t>(j));
          return true;
        });
    for (std::size_t j = 0; j < p.phases.size(); ++j)
      if (p.phases[j].streams.size() > 1)
        for (std::size_t k = 0; k < p.phases[j].streams.size(); ++k)
          with([&](Scenario& c) {
            auto& st = c.programs[i].phases[j].streams;
            st.erase(st.begin() + static_cast<std::ptrdiff_t>(k));
            return true;
          });
  }

  // Chip shrinking: halve an axis, or renumber cores to unblock it.
  with([&](Scenario& c) { return shrink_mesh(c, /*along_x=*/true); });
  with([&](Scenario& c) { return shrink_mesh(c, /*along_x=*/false); });
  with([&](Scenario& c) { return compact_cores(c); });

  // Core deletions: drop the last core of any multi-core program, and
  // collapse the implicit all-cores form to a single core.
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    if (s.programs[i].cores.size() > 1)
      with([&](Scenario& c) {
        c.programs[i].cores.pop_back();
        return true;
      });
    if (s.programs[i].cores.empty() && s.config.tiles > 1)
      with([&](Scenario& c) {
        c.programs[i].cores = {0};
        return true;
      });
  }

  // Region pruning (programs dropped above leave orphans behind).
  with([&](Scenario& c) { return c.drop_unreferenced_regions() > 0; });

  // Size halvings and gap/fraction zeroing, one field per candidate, in
  // field_edits order: the programs', then the regions'. A candidate
  // re-walks its copy of the spec to the same ordinal, so indices always
  // match the original's walk.
  const auto field_candidates = [&](auto list) {
    for (std::size_t i = 0; i < (s.*list).size(); ++i) {
      std::size_t n = 0;
      field_edits((s.*list)[i], [&](const auto& x, Edit e) {
        const std::size_t at = n++;
        if (e == Edit::halve ? x <= 1 : x == 0) return;
        with([&](Scenario& c) {
          std::size_t m = 0;
          field_edits((c.*list)[i], [&](auto& y, Edit) {
            using T = std::remove_cvref_t<decltype(y)>;
            if (m++ != at) return;
            if constexpr (std::is_integral_v<T>)
              y = static_cast<T>(e == Edit::halve ? halve(y) : 0);
            else
              y = 0;
          });
          return true;
        });
      });
    }
  };
  field_candidates(&Scenario::programs);
  field_candidates(&Scenario::regions);

  return out;
}

}  // namespace

scen::Scenario shrink_scenario(scen::Scenario s, const StillFails& still_fails,
                               ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st = {};
  bool progress = true;
  while (progress) {
    progress = false;
    ++st.rounds;
    for (auto& cand : propose(s)) {
      ++st.attempts;
      if (!parse_valid(cand)) continue;
      if (!still_fails(cand)) continue;
      s = std::move(cand);
      ++st.accepted;
      progress = true;
      break;  // re-propose against the smaller scenario
    }
  }
  return s;
}

}  // namespace raa::fuzz
