#include "amr/hierarchy.hpp"

#include "amr/interp.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace xl::amr {

namespace {

/// The cells of each box of `coarse` outside every coarsened box of `fine`,
/// as maximal x-runs in BoxIterator order; box i's runs are
/// runs[begin[i], begin[i+1]). A cell p is covered exactly when p lies in
/// coarsen(B) for a fine box B, which is is_finest_at's child-box test.
void coverage_runs(const BoxLayout& coarse, const BoxLayout& fine, int ratio,
                   std::vector<Box>& runs, std::vector<std::size_t>& begin) {
  std::vector<Box> covers;                 // coarsened fine boxes over one box
  std::vector<std::pair<int, int>> spans;  // their x-intervals on one row
  begin.reserve(coarse.num_boxes() + 1);
  for (const Box& valid : coarse.boxes()) {
    begin.push_back(runs.size());
    covers.clear();
    for (const Box& b : fine.boxes()) {
      const Box c = b.coarsen(ratio) & valid;
      if (!c.empty()) covers.push_back(c);
    }
    mesh::for_each_row(valid, [&](int j, int k) {
      spans.clear();
      for (const Box& c : covers) {
        if (j >= c.lo()[1] && j <= c.hi()[1] && k >= c.lo()[2] && k <= c.hi()[2]) {
          spans.emplace_back(c.lo()[0], c.hi()[0]);
        }
      }
      std::sort(spans.begin(), spans.end());
      int x = valid.lo()[0];
      for (const auto& [lo, hi] : spans) {
        if (lo > x) runs.emplace_back(IntVect{x, j, k}, IntVect{lo - 1, j, k});
        x = std::max(x, hi + 1);
      }
      if (x <= valid.hi()[0]) runs.emplace_back(IntVect{x, j, k}, IntVect{valid.hi()[0], j, k});
    });
  }
  begin.push_back(runs.size());
}

}  // namespace

AmrHierarchy::AmrHierarchy(const AmrConfig& config, int ncomp)
    : config_(config), ncomp_(ncomp) {
  XL_REQUIRE(!config.base_domain.empty(), "base domain must be non-empty");
  XL_REQUIRE(config.max_levels >= 1, "need at least the base level");
  XL_REQUIRE(config.ref_ratio >= 2, "refinement ratio must be >= 2");
  XL_REQUIRE(ncomp >= 1, "need at least one component");
  AmrLevel base;
  base.domain = config.base_domain;
  base.layout = mesh::balance(mesh::decompose(config.base_domain, config.max_box_size),
                              config.nranks, config.balance);
  base.data = LevelData(base.layout, ncomp, config.nghost);
  levels_.push_back(std::move(base));
  build_plans(0);
}

Box AmrHierarchy::domain_of(std::size_t l) const {
  Box d = config_.base_domain;
  for (std::size_t i = 0; i < l; ++i) d = d.refine(config_.ref_ratio);
  return d;
}

void AmrHierarchy::regrid(const std::vector<BoxLayout>& fine_layouts) {
  XL_REQUIRE(fine_layouts.size() + 1 <= static_cast<std::size_t>(config_.max_levels),
             "too many levels in regrid");
  std::vector<AmrLevel> old_levels = std::move(levels_);
  levels_.clear();
  levels_.push_back(std::move(old_levels[0]));

  for (std::size_t l = 0; l < fine_layouts.size(); ++l) {
    const std::size_t lev = l + 1;
    AmrLevel next;
    next.domain = domain_of(lev);
    next.layout = fine_layouts[l];
    next.data = LevelData(next.layout, ncomp_, config_.nghost);
    levels_.push_back(std::move(next));

    // Initialize from coarse, then overwrite with old same-level data where
    // the old level existed and overlaps.
    prolong_constant(levels_[lev - 1], levels_[lev], config_.ref_ratio);
    if (lev < old_levels.size()) {
      const AmrLevel& old = old_levels[lev];
      for (std::size_t ni = 0; ni < levels_[lev].layout.num_boxes(); ++ni) {
        for (std::size_t oi = 0; oi < old.layout.num_boxes(); ++oi) {
          const Box overlap = levels_[lev].layout.box(ni) & old.layout.box(oi);
          if (!overlap.empty()) {
            levels_[lev].data[ni].copy_from(old.data[oi], overlap);
          }
        }
      }
    }
  }
  build_plans(1);
}

void AmrHierarchy::build_plans(std::size_t first) {
  plans_.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    LevelPlans& plan = plans_[l];
    const AmrLevel& level = levels_[l];
    if (l >= first) {
      plan.copier = mesh::Copier(level.layout, config_.nghost, level.domain,
                                 config_.periodic);
      if (l > 0) {
        plan.cf_ghosts =
            build_cf_ghost_plan(levels_[l - 1], level, config_.ref_ratio, config_.nghost);
      }
    }
    plan.runs.clear();
    plan.run_begin.clear();
    if (l + 1 < levels_.size()) {
      coverage_runs(level.layout, levels_[l + 1].layout, config_.ref_ratio, plan.runs,
                    plan.run_begin);
    }
    plan.runs.shrink_to_fit();
    plan.run_begin.shrink_to_fit();
  }
}

void AmrHierarchy::fill_ghosts(std::size_t l) {
  AmrLevel& level = this->level(l);
  level.data.exchange(plans_[l].copier);
  if (l > 0) {
    apply_cf_ghost_plan(plans_[l].cf_ghosts, levels_[l - 1], level, config_.ref_ratio);
  }
}

std::span<const Box> AmrHierarchy::uncovered_runs(std::size_t l, std::size_t box) const {
  XL_REQUIRE(l + 1 < levels_.size(), "the finest level has no coverage runs");
  const LevelPlans& plan = plans_[l];
  XL_REQUIRE(box + 1 < plan.run_begin.size(), "box index out of range");
  return std::span<const Box>(plan.runs).subspan(
      plan.run_begin[box], plan.run_begin[box + 1] - plan.run_begin[box]);
}

std::int64_t AmrHierarchy::total_cells() const noexcept {
  std::int64_t total = 0;
  for (const AmrLevel& lev : levels_) total += lev.layout.total_cells();
  return total;
}

std::size_t AmrHierarchy::bytes() const noexcept {
  std::size_t total = 0;
  for (const AmrLevel& lev : levels_) total += lev.data.bytes();
  return total;
}

bool AmrHierarchy::is_finest_at(std::size_t l, const IntVect& cell) const {
  if (l + 1 >= levels_.size()) return true;
  const IntVect fine = cell.refine(IntVect::uniform(config_.ref_ratio));
  const Box child(fine, fine + (config_.ref_ratio - 1));
  for (const Box& b : levels_[l + 1].layout.boxes()) {
    if (b.intersects(child)) return false;
  }
  return true;
}

}  // namespace xl::amr
