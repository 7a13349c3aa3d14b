// The AMR mesh hierarchy: a stack of properly-nested levels, each a disjoint
// box layout refined from the one below. Mirrors the part of Chombo's
// AMR/AMRLevel machinery the paper's workloads exercise.
//
// This library uses non-subcycled time stepping (all levels advance with the
// shared stable dt); Chombo subcycles, but the data-management behaviour the
// paper studies — dynamic per-step data volumes and imbalanced layouts — is
// identical, and non-subcycling keeps the driver simple (documented in
// DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/lookup.hpp"
#include "mesh/layout.hpp"
#include "mesh/level_data.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::BoxLayout;
using mesh::IntVect;
using mesh::LevelData;

/// Static description of the hierarchy shape.
struct AmrConfig {
  Box base_domain;              ///< level-0 problem domain.
  int max_levels = 3;           ///< including the base level.
  int ref_ratio = 2;            ///< uniform per-level refinement ratio.
  int max_box_size = 32;        ///< decomposition limit per side.
  int nghost = 2;               ///< ghost width for solver stencils.
  int blocking_factor = 4;      ///< grid coarsenability requirement.
  int tag_buffer = 1;           ///< cells to grow tags before clustering.
  double fill_ratio = 0.7;      ///< Berger-Rigoutsos efficiency target.
  int nranks = 4;               ///< ranks to balance each level over.
  bool periodic = true;
  /// Subcycled time stepping (Chombo's scheme): each finer level takes
  /// ref_ratio substeps per coarse step, with coarse-fine ghosts held at the
  /// coarse time (piecewise-constant in time; Chombo interpolates linearly).
  /// false = non-subcycled: all levels advance with the shared stable dt.
  bool subcycle = false;
  mesh::BalanceMethod balance = mesh::BalanceMethod::MortonRoundRobin;
};

/// One level: its layout, domain (in its own index space), and field data.
struct AmrLevel {
  Box domain;
  BoxLayout layout;
  LevelData data;
};

/// One step of a coarse-fine ghost plan: fill `target` (fine index space) of
/// fine fab `fine` with the coarse parents held in coarse fab `coarse`, read
/// through that fab's ghosts. Ops run in plan order; where two coarse fabs'
/// ghosted boxes both hold a target cell's parent, the later op wins.
struct CfGhostOp {
  std::size_t fine = 0;
  std::size_t coarse = 0;
  Box target;
};

class AmrHierarchy {
 public:
  explicit AmrHierarchy(const AmrConfig& config, int ncomp);

  const AmrConfig& config() const noexcept { return config_; }
  int ncomp() const noexcept { return ncomp_; }
  std::size_t num_levels() const noexcept { return levels_.size(); }

  /// Callers may write a level's data but never its layout or domain: the
  /// cached plans follow the layouts, which change only through regrid().
  AmrLevel& level(std::size_t l) { return at_index(levels_, l, "AmrHierarchy level"); }
  const AmrLevel& level(std::size_t l) const {
    return at_index(levels_, l, "AmrHierarchy level");
  }

  /// Domain of level l (level-0 domain refined l times).
  Box domain_of(std::size_t l) const;

  /// Replace the layouts of levels [1, new_layouts.size()] and re-allocate
  /// their data, prolonging from the next-coarser level and copying from the
  /// previous data where it overlaps. Level 0 never changes. Rebuilds every
  /// plan derived from the layouts (see fill_ghosts and uncovered_runs).
  void regrid(const std::vector<BoxLayout>& fine_layouts);

  /// Fill level l's ghost cells: exchange within the level, then, on a fine
  /// level, the ghosts outside the level's valid union from level l-1, whose
  /// own ghosts must be filled already. Runs plans built at regrid.
  void fill_ghosts(std::size_t l);

  /// The cells of box `box` of level l not covered by level l+1 (where
  /// is_finest_at holds), as maximal x-runs in BoxIterator order. Level l
  /// must be below the finest level, which is uncovered everywhere.
  std::span<const Box> uncovered_runs(std::size_t l, std::size_t box) const;

  /// Total valid (non-ghost) cells over all levels.
  std::int64_t total_cells() const noexcept;

  /// Payload bytes of all level data (ghosts included).
  std::size_t bytes() const noexcept;

  /// Valid-region mask: true where level l's cell is NOT covered by level l+1.
  /// A point query of the mask uncovered_runs lists run by run.
  bool is_finest_at(std::size_t l, const IntVect& cell) const;

 private:
  /// What the live step derives from the layouts. Built in the constructor
  /// and in regrid(), the only places the layouts change, never per step.
  struct LevelPlans {
    mesh::Copier copier;                ///< ghost exchange within the level.
    std::vector<CfGhostOp> cf_ghosts;   ///< empty on level 0.
    std::vector<Box> runs;              ///< uncovered x-runs, box by box.
    std::vector<std::size_t> run_begin; ///< box i owns runs [begin[i], begin[i+1]).
  };

  /// Rebuild the copiers and coarse-fine plans of levels >= `first` and the
  /// coverage runs of every level.
  void build_plans(std::size_t first);

  AmrConfig config_;
  int ncomp_;
  std::vector<AmrLevel> levels_;
  std::vector<LevelPlans> plans_;
};

}  // namespace xl::amr
