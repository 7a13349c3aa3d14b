// The AMR time-stepping driver: owns the hierarchy, advances all levels with
// the shared stable dt (non-subcycled), restricts fine onto coarse after each
// step, and regrids on a fixed cadence using gradient tags clustered by
// Berger-Rigoutsos. Equivalent in role to Chombo's AMR class for the paper's
// workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "amr/berger_rigoutsos.hpp"
#include "amr/hierarchy.hpp"
#include "amr/physics.hpp"
#include "amr/tagging.hpp"

namespace xl::amr {

/// Per-step observables consumed by the runtime Monitor and the benches.
struct StepStats {
  int step = 0;
  double time = 0.0;
  double dt = 0.0;
  bool regridded = false;
  std::vector<std::int64_t> cells_per_level;
  std::int64_t total_cells = 0;
  std::size_t bytes = 0;          ///< hierarchy payload after the step.
  double wall_seconds = 0.0;      ///< measured advance time on this machine.
};

class AmrSimulation {
 public:
  AmrSimulation(const AmrConfig& config, std::shared_ptr<Physics> physics,
                const TagCriterion& criterion, double cfl = 0.4,
                int regrid_interval = 4);

  /// Build the initial hierarchy: initialize level 0 from the physics, then
  /// repeatedly tag/cluster/refine until max_levels (or no tags).
  void initialize();

  /// Advance one step; returns the step's observables.
  StepStats advance();

  AmrHierarchy& hierarchy() { return hierarchy_; }
  const AmrHierarchy& hierarchy() const { return hierarchy_; }
  const Physics& physics() const { return *physics_; }

  int step() const noexcept { return step_; }
  double time() const noexcept { return time_; }
  double dx(std::size_t level) const;

 private:
  void init_level_from_physics(std::size_t lev);
  double stable_dt() const;
  void advance_level(std::size_t lev, double dt);
  /// Subcycled recursion: advance level `lev` by dt, then the finer level by
  /// ref_ratio substeps of dt/ref_ratio, then restrict.
  void advance_recursive(std::size_t lev, double dt);
  void regrid_all();
  /// Tags of level `lev` converted into a refined-level layout; empty
  /// optional when there are no tags.
  std::vector<Box> boxes_from_tags(std::size_t lev);

  AmrConfig config_;
  std::shared_ptr<Physics> physics_;
  TagCriterion criterion_;
  double cfl_;
  int regrid_interval_;
  AmrHierarchy hierarchy_;
  int step_ = 0;
  double time_ = 0.0;
};

}  // namespace xl::amr
