// Inter-level data transfer: prolongation (coarse -> fine) and restriction
// (fine -> coarse volume average), plus coarse-fine ghost filling.
#pragma once

#include <span>
#include <vector>

#include "amr/hierarchy.hpp"

namespace xl::amr {

/// Piecewise-constant prolongation of the overlap of `coarse` onto `fine`'s
/// valid regions (each fine cell copies its coarse parent).
void prolong_constant(const AmrLevel& coarse, AmrLevel& fine, int ratio);

/// Volume-average restriction of `fine`'s valid regions onto `coarse`.
void restrict_average(const AmrLevel& fine, AmrLevel& coarse, int ratio);

/// Fill `fine`'s ghost cells that lie outside the fine level's valid union by
/// piecewise-constant interpolation from `coarse`. Ghosts interior to the
/// fine level must already be filled by exchange(). Builds the plan below and
/// applies it; AmrHierarchy keeps the plan across steps instead.
void fill_cf_ghosts(const AmrLevel& coarse, AmrLevel& fine, int ratio, int nghost);

/// The ops fill_cf_ghosts runs, in its order: for each fine box, each piece
/// of its `nghost` halo outside every fine valid box, and each coarse fab
/// whose ghosted box holds parents of that piece. Depends only on the two
/// layouts and the ghost widths.
std::vector<CfGhostOp> build_cf_ghost_plan(const AmrLevel& coarse, const AmrLevel& fine,
                                           int ratio, int nghost);

/// Run `plan` (from build_cf_ghost_plan over the same layouts) as row copies.
void apply_cf_ghost_plan(std::span<const CfGhostOp> plan, const AmrLevel& coarse,
                         AmrLevel& fine, int ratio);

}  // namespace xl::amr
