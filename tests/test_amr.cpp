// Tests for the AMR machinery: tagging, Berger-Rigoutsos clustering,
// inter-level interpolation, hierarchy regridding, the memory model and the
// synthetic geometry evolution.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

#include <unordered_set>

#include "amr/berger_rigoutsos.hpp"
#include "amr/hierarchy.hpp"
#include "amr/interp.hpp"
#include "amr/memory_model.hpp"
#include "amr/synthetic.hpp"
#include "amr/tagging.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "seed_geometry.hpp"
#include "workflow/experiment.hpp"

namespace xl::amr {
namespace {

using mesh::BoxIterator;
using mesh::IntVectHash;

// --- Berger-Rigoutsos ------------------------------------------------------

std::vector<IntVect> sphere_shell_tags(const Box& domain, double r_lo, double r_hi) {
  std::vector<IntVect> tags;
  const IntVect c{domain.size()[0] / 2, domain.size()[1] / 2, domain.size()[2] / 2};
  for (BoxIterator it(domain); it.ok(); ++it) {
    const IntVect d = *it - c;
    const double r = std::sqrt(double(d[0]) * d[0] + double(d[1]) * d[1] +
                               double(d[2]) * d[2]);
    if (r >= r_lo && r <= r_hi) tags.push_back(*it);
  }
  return tags;
}

TEST(BergerRigoutsos, CoversEveryTag) {
  const Box domain = Box::domain({32, 32, 32});
  const auto tags = sphere_shell_tags(domain, 8.0, 11.0);
  ASSERT_FALSE(tags.empty());
  BrConfig cfg;
  cfg.fill_ratio = 0.7;
  cfg.max_box_size = 16;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  for (const IntVect& t : tags) {
    bool covered = false;
    for (const Box& b : boxes) covered = covered || b.contains(t);
    EXPECT_TRUE(covered) << "tag " << t << " uncovered";
  }
}

TEST(BergerRigoutsos, BoxesDisjointWithinDomainAndSized) {
  const Box domain = Box::domain({32, 32, 32});
  const auto tags = sphere_shell_tags(domain, 8.0, 11.0);
  BrConfig cfg;
  cfg.max_box_size = 8;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_TRUE(domain.contains(boxes[i]));
    EXPECT_LE(boxes[i].size()[boxes[i].longest_dim()], 8);
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
    }
  }
}

TEST(BergerRigoutsos, AchievesFillRatioOnClusteredTags) {
  // Two well-separated dense clusters must produce tight boxes, not one hull.
  const Box domain = Box::domain({64, 16, 16});
  std::vector<IntVect> tags;
  for (BoxIterator it(Box::cube({2, 2, 2}, 6)); it.ok(); ++it) tags.push_back(*it);
  for (BoxIterator it(Box::cube({50, 8, 8}, 6)); it.ok(); ++it) tags.push_back(*it);
  BrConfig cfg;
  cfg.fill_ratio = 0.8;
  cfg.max_box_size = 32;
  cfg.min_box_size = 2;
  const auto boxes = berger_rigoutsos(tags, domain, cfg);
  std::int64_t box_cells = 0;
  for (const Box& b : boxes) box_cells += b.num_cells();
  const double fill = static_cast<double>(tags.size()) / static_cast<double>(box_cells);
  EXPECT_GE(fill, 0.8);
  EXPECT_GE(boxes.size(), 2u);
}

TEST(BergerRigoutsos, SingleTagGivesSingleCellBox) {
  const Box domain = Box::domain({16, 16, 16});
  const auto boxes = berger_rigoutsos({{5, 6, 7}}, domain, {});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], Box({5, 6, 7}, {5, 6, 7}));
}

TEST(BergerRigoutsos, IgnoresTagsOutsideDomain) {
  const Box domain = Box::domain({8, 8, 8});
  const auto boxes = berger_rigoutsos({{100, 100, 100}}, domain, {});
  EXPECT_TRUE(boxes.empty());
}

// Tag clouds for the seed-replica oracle. Each one is a named list of tags in
// (or, for some, partly outside) `domain`.
struct TagCloud {
  const char* name;
  Box domain;
  std::vector<IntVect> tags;
};

std::vector<TagCloud> oracle_clouds() {
  std::vector<TagCloud> clouds;
  const Box cube = Box::domain({40, 36, 32});
  clouds.push_back({"thin shell", cube, sphere_shell_tags(cube, 9.0, 10.5)});
  clouds.push_back({"thick shell", cube, sphere_shell_tags(cube, 4.0, 14.0)});

  std::vector<IntVect> blobs;
  const IntVect centers[] = {{6, 7, 8}, {30, 28, 10}, {20, 10, 24}, {23, 12, 26}};
  const int radii[] = {4, 6, 3, 5};
  for (int b = 0; b < 4; ++b) {
    for (BoxIterator it(cube); it.ok(); ++it) {
      const IntVect d = *it - centers[b];
      if (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= radii[b] * radii[b]) {
        blobs.push_back(*it);  // overlapping blobs tag some cells twice.
      }
    }
  }
  clouds.push_back({"blobs", cube, blobs});

  // Scatter over a box larger than the domain: some tags fall outside and are
  // dropped, some repeat.
  Rng rng(2024);
  const Box offset({-7, 3, -12}, {25, 30, 9});
  std::vector<IntVect> scatter;
  for (int i = 0; i < 400; ++i) {
    scatter.push_back({static_cast<int>(rng.uniform_int(-9, 27)),
                       static_cast<int>(rng.uniform_int(1, 32)),
                       static_cast<int>(rng.uniform_int(-14, 11))});
  }
  clouds.push_back({"random scatter", offset, scatter});

  clouds.push_back({"single tag", offset, {{3, 17, -4}}});

  // Every cell on the domain's faces, so cuts and boxes touch each edge.
  std::vector<IntVect> edge;
  for (BoxIterator it(offset); it.ok(); ++it) {
    for (int d = 0; d < mesh::kDim; ++d) {
      if ((*it)[d] == offset.lo()[d] || (*it)[d] == offset.hi()[d]) {
        edge.push_back(*it);
        break;
      }
    }
  }
  clouds.push_back({"domain edge", offset, edge});
  return clouds;
}

TEST(SeedIdentity, BergerRigoutsosMatchesCopyingRecursion) {
  for (const TagCloud& cloud : oracle_clouds()) {
    for (int max_box : {1, 2, 4, 32}) {
      for (int min_box : {1, 2, 4}) {
        for (double fill : {0.5, 0.7, 1.0}) {
          BrConfig cfg;
          cfg.max_box_size = max_box;
          cfg.min_box_size = min_box;
          cfg.fill_ratio = fill;
          const std::vector<Box> want =
              seed::seed_berger_rigoutsos(cloud.tags, cloud.domain, cfg);
          EXPECT_EQ(berger_rigoutsos(cloud.tags, cloud.domain, cfg), want)
              << cloud.name << ": max " << max_box << ", min " << min_box << ", fill "
              << fill;
        }
      }
    }
  }
}

// --- Tagging ---------------------------------------------------------------

TEST(Tagging, TagsSteepGradientOnly) {
  const Box domain = Box::domain({16, 16, 16});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 16), 1);
  AmrLevel level;
  level.domain = domain;
  level.layout = layout;
  level.data = mesh::LevelData(layout, 1, 2);
  // Step function at x == 8 (fill ghosts consistently).
  for (BoxIterator it(level.data[0].box()); it.ok(); ++it) {
    level.data[0](*it) = (*it)[0] < 8 ? 1.0 : 2.0;
  }
  TagCriterion crit;
  crit.rel_threshold = 0.1;
  const auto tags = tag_cells(level, crit);
  ASSERT_FALSE(tags.empty());
  for (const IntVect& t : tags) {
    EXPECT_TRUE(t[0] == 7 || t[0] == 8) << "tag at " << t;
  }
}

TEST(Tagging, ConstantFieldProducesNoTags) {
  const Box domain = Box::domain({8, 8, 8});
  const mesh::BoxLayout layout = mesh::balance(mesh::decompose(domain, 8), 1);
  AmrLevel level{domain, layout, mesh::LevelData(layout, 1, 2)};
  level.data.set_all(3.0);
  EXPECT_TRUE(tag_cells(level, {}).empty());
}

TEST(Tagging, BufferGrowsAndClipsToDomain) {
  const Box domain = Box::domain({8, 8, 8});
  const auto grown = buffer_tags({{0, 0, 0}}, 1, domain);
  // Corner cell + buffer 1 clipped to domain: 2x2x2 = 8 cells.
  EXPECT_EQ(grown.size(), 8u);
  std::unordered_set<IntVect, IntVectHash> set(grown.begin(), grown.end());
  EXPECT_TRUE(set.count({1, 1, 1}));
  EXPECT_FALSE(set.count({2, 0, 0}));
}

// --- Interpolation ---------------------------------------------------------

AmrLevel make_level(const Box& domain, int max_box, int ncomp, int nghost) {
  AmrLevel lev;
  lev.domain = domain;
  lev.layout = mesh::balance(mesh::decompose(domain, max_box), 1);
  lev.data = mesh::LevelData(lev.layout, ncomp, nghost);
  return lev;
}

TEST(Interp, ProlongConstantCopiesParentValue) {
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 1);
  for (BoxIterator it(coarse.data[0].box()); it.ok(); ++it) {
    coarse.data[0](*it) = (*it)[0];
  }
  AmrLevel fine = make_level(Box::domain({16, 16, 16}), 16, 1, 1);
  prolong_constant(coarse, fine, 2);
  for (BoxIterator it(fine.layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(fine.data[0](*it), (*it)[0] / 2);
  }
}

TEST(Interp, RestrictAverageIsExactForLinear) {
  // Restriction of a (cell-centered) linear function reproduces the coarse
  // cell-centered values exactly.
  AmrLevel fine = make_level(Box::domain({16, 16, 16}), 16, 1, 0);
  for (BoxIterator it(fine.layout.box(0)); it.ok(); ++it) {
    fine.data[0](*it) = (*it)[0] + 0.5;  // linear in fine index
  }
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  restrict_average(fine, coarse, 2);
  for (BoxIterator it(coarse.layout.box(0)); it.ok(); ++it) {
    // Average of fine values 2i+0.5 and 2i+1.5 is 2i+1.
    EXPECT_DOUBLE_EQ(coarse.data[0](*it), 2.0 * (*it)[0] + 1.0);
  }
}

TEST(Interp, RestrictThenProlongPreservesConstant) {
  AmrLevel fine = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  fine.data.set_all(7.0);
  AmrLevel coarse = make_level(Box::domain({4, 4, 4}), 4, 1, 0);
  restrict_average(fine, coarse, 2);
  AmrLevel fine2 = make_level(Box::domain({8, 8, 8}), 8, 1, 0);
  prolong_constant(coarse, fine2, 2);
  for (BoxIterator it(fine2.layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(fine2.data[0](*it), 7.0);
  }
}

TEST(Interp, CfGhostsFilledFromCoarse) {
  AmrLevel coarse = make_level(Box::domain({8, 8, 8}), 8, 1, 2);
  for (BoxIterator it(coarse.data[0].box()); it.ok(); ++it) {
    coarse.data[0](*it) = 100.0 + (*it)[2];
  }
  // Fine level covers only the middle of the domain.
  AmrLevel fine;
  fine.domain = Box::domain({16, 16, 16});
  std::vector<Box> fboxes{Box({4, 4, 4}, {11, 11, 11})};
  fine.layout = mesh::BoxLayout(fboxes, {0}, 1);
  fine.data = mesh::LevelData(fine.layout, 1, 2);
  fine.data.set_all(-1.0);
  fill_cf_ghosts(coarse, fine, 2, 2);
  // A ghost just outside the fine box maps to coarse cell (ghost>>1).
  const IntVect ghost{3, 8, 8};
  EXPECT_DOUBLE_EQ(fine.data[0](ghost), 100.0 + 4.0);
  // Valid cells untouched.
  EXPECT_DOUBLE_EQ(fine.data[0](IntVect{5, 5, 5}), -1.0);
}

// --- Hierarchy -------------------------------------------------------------

AmrConfig small_config() {
  AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 3;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.nghost = 2;
  cfg.nranks = 2;
  return cfg;
}

TEST(Hierarchy, ConstructionBuildsBaseLevel) {
  AmrHierarchy h(small_config(), 1);
  EXPECT_EQ(h.num_levels(), 1u);
  EXPECT_EQ(h.level(0).layout.total_cells(), 16 * 16 * 16);
  EXPECT_EQ(h.domain_of(2), Box::domain({64, 64, 64}));
}

TEST(Hierarchy, RegridAddsLevelAndProlongsData) {
  AmrHierarchy h(small_config(), 1);
  h.level(0).data.set_all(4.0);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  ASSERT_EQ(h.num_levels(), 2u);
  for (BoxIterator it(h.level(1).layout.box(0)); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(h.level(1).data[0](*it), 4.0);
  }
  EXPECT_EQ(h.total_cells(), 16 * 16 * 16 + 8 * 8 * 8);
}

TEST(Hierarchy, RegridPreservesOldFineDataWhereOverlapping) {
  AmrHierarchy h(small_config(), 1);
  h.level(0).data.set_all(1.0);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  h.level(1).data.set_all(9.0);
  // Shift the fine level; overlap keeps the old value, fresh cells prolong.
  std::vector<Box> moved{Box({12, 8, 8}, {19, 15, 15})};
  h.regrid({mesh::BoxLayout(moved, {0}, 2)});
  EXPECT_DOUBLE_EQ(h.level(1).data[0](IntVect{12, 8, 8}), 9.0);   // kept
  EXPECT_DOUBLE_EQ(h.level(1).data[0](IntVect{19, 15, 15}), 1.0);  // prolonged
}

TEST(Hierarchy, IsFinestAtRespectsFinerCoverage) {
  AmrHierarchy h(small_config(), 1);
  std::vector<Box> fboxes{Box({8, 8, 8}, {15, 15, 15})};
  h.regrid({mesh::BoxLayout(fboxes, {0}, 2)});
  EXPECT_FALSE(h.is_finest_at(0, {4, 4, 4}));  // covered: fine box 8..15 = coarse 4..7
  EXPECT_TRUE(h.is_finest_at(0, {0, 0, 0}));
  EXPECT_TRUE(h.is_finest_at(1, {8, 8, 8}));  // finest level
}

// --- Memory model ----------------------------------------------------------

TEST(MemoryModel, MoreCellsMoreMemoryAndImbalanceShows) {
  const Box domain = Box::domain({32, 32, 32});
  const mesh::BoxLayout balanced = mesh::balance(mesh::decompose(domain, 8), 4);
  MemoryModelConfig cfg;
  cfg.ncomp = 5;
  cfg.nghost = 2;
  const auto bytes = per_rank_peak_bytes({balanced}, cfg);
  ASSERT_EQ(bytes.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_GT(bytes[r], cfg.base_runtime_bytes);

  // All boxes on rank 0 -> rank 0 holds everything.
  std::vector<int> ranks(balanced.num_boxes(), 0);
  const mesh::BoxLayout skewed(balanced.boxes(), ranks, 4);
  const auto skewed_bytes = per_rank_peak_bytes({skewed}, cfg);
  EXPECT_GT(skewed_bytes[0], bytes[0]);
  EXPECT_EQ(skewed_bytes[1], cfg.base_runtime_bytes);
}

TEST(MemoryModel, AvailableClampsAtZero) {
  const mesh::BoxLayout layout =
      mesh::balance(mesh::decompose(Box::domain({32, 32, 32}), 8), 1);
  MemoryModelConfig cfg;
  const auto avail = per_rank_available_bytes({layout}, cfg, 1);  // 1 byte capacity
  EXPECT_EQ(avail[0], 0u);
}

// --- Synthetic geometry evolution ------------------------------------------

TEST(Synthetic, DeterministicAndGrowing) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({128, 64, 64});
  cfg.max_levels = 3;
  cfg.nranks = 16;
  cfg.tile_size = 4;
  cfg.max_box_size = 16;
  SyntheticAmrEvolution evo(cfg), evo2(cfg);
  const SyntheticStep s0 = evo.at(0);
  const SyntheticStep s0b = evo2.at(0);
  EXPECT_EQ(s0.total_cells, s0b.total_cells);
  ASSERT_GE(s0.levels.size(), 2u);  // front refines from step 0

  const SyntheticStep s20 = evo.at(20);
  EXPECT_GT(s20.total_cells, s0.total_cells);  // front grew + blobs appeared
  EXPECT_EQ(s0.cells_per_level[0], s20.cells_per_level[0]);  // base static
}

TEST(Synthetic, LevelsBalancedOverConfiguredRanks) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({64, 64, 64});
  cfg.nranks = 8;
  cfg.tile_size = 4;
  SyntheticAmrEvolution evo(cfg);
  const SyntheticStep s = evo.at(5);
  for (const auto& layout : s.levels) {
    EXPECT_EQ(layout.num_ranks(), 8);
    EXPECT_GT(layout.total_cells(), 0);
  }
}

TEST(Synthetic, RefinedBoxesInsideRefinedDomain) {
  SyntheticAmrConfig cfg;
  cfg.base_domain = Box::domain({64, 32, 32});
  cfg.nranks = 4;
  cfg.tile_size = 4;
  cfg.max_levels = 3;
  SyntheticAmrEvolution evo(cfg);
  const SyntheticStep s = evo.at(12);
  for (std::size_t lev = 1; lev < s.levels.size(); ++lev) {
    Box domain = cfg.base_domain;
    for (std::size_t l = 0; l < lev; ++l) domain = domain.refine(cfg.ref_ratio);
    for (const Box& b : s.levels[lev].boxes()) {
      EXPECT_TRUE(domain.contains(b)) << "level " << lev << " box " << b;
    }
  }
}

// Every step of the Titan scale-0 geometry, rebuilt from the same tags with
// the frozen clustering and balancing, equals what at() returns.
TEST(SeedIdentity, TitanSyntheticStepsMatchSeedGeometry) {
  const SyntheticAmrConfig cfg =
      workflow::titan_middleware_experiment(0, workflow::Mode::StaticInSitu).geometry;
  ASSERT_EQ(cfg.balance, mesh::BalanceMethod::MortonRoundRobin);
  const SyntheticAmrEvolution evo(cfg);
  const mesh::BoxLayout base = seed::seed_balance_morton(
      mesh::decompose(cfg.base_domain, cfg.max_box_size), cfg.nranks);
  const Box tile_domain = cfg.base_domain.coarsen(cfg.tile_size);
  for (int step = 0; step < 50; ++step) {
    const SyntheticStep got = evo.at(step);
    std::vector<mesh::BoxLayout> want{base};
    int level_ratio = cfg.ref_ratio;
    for (int lev = 0; lev + 1 < cfg.max_levels; ++lev) {
      const std::vector<IntVect> tags = evo.tile_tags(step, lev);
      if (tags.empty()) break;
      const int cells_per_tile = cfg.tile_size * level_ratio;
      BrConfig br;
      br.fill_ratio = cfg.fill_ratio;
      br.max_box_size = std::max(1, cfg.max_box_size / cells_per_tile);
      br.min_box_size = 1;
      const Box fine_domain = cfg.base_domain.refine(IntVect::uniform(level_ratio));
      std::vector<Box> boxes;
      for (const Box& tb : seed::seed_berger_rigoutsos(tags, tile_domain, br)) {
        const Box fine = tb.refine(IntVect::uniform(cells_per_tile)) & fine_domain;
        if (!fine.empty()) boxes.push_back(fine);
      }
      if (boxes.empty()) break;
      want.push_back(seed::seed_balance_morton(std::move(boxes), cfg.nranks));
      level_ratio *= cfg.ref_ratio;
    }
    ASSERT_EQ(got.levels.size(), want.size()) << "step " << step;
    for (std::size_t lev = 0; lev < want.size(); ++lev) {
      EXPECT_TRUE(seed::same_layout(got.levels[lev], want[lev]))
          << "step " << step << " level " << lev;
    }
  }
}

}  // namespace
}  // namespace xl::amr
