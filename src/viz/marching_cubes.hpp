// Marching-cubes isosurface extraction over a Fab, the paper's visualization
// analysis kernel: each cell is triangulated locally from the 256-case
// tables, so the algorithm needs no communication — exactly the property the
// paper exploits to run it either in-situ or in-transit.
#pragma once

#include <cstddef>
#include <vector>

#include "mesh/fab.hpp"

namespace xl::viz {

struct Vec3 {
  double x = 0, y = 0, z = 0;
};

/// Indexed triangle mesh (no vertex sharing across cells: marching cubes
/// output is a triangle soup; welding is an optional post-pass).
struct TriangleMesh {
  std::vector<Vec3> vertices;         ///< 3 consecutive vertices per triangle.
  std::size_t triangle_count() const noexcept { return vertices.size() / 3; }

  void append(const TriangleMesh& other) {
    vertices.insert(vertices.end(), other.vertices.begin(), other.vertices.end());
  }

  /// Payload bytes (what a transfer of this mesh costs).
  std::size_t bytes() const noexcept { return vertices.size() * sizeof(Vec3); }
};

/// Extract the isosurface of `comp` of `fab` at `isovalue` over the cells of
/// `region` (cell corners sample the field at cell centers; `region` must be
/// shrinkable by 1 in each dim within fab's box so corner stencils resolve).
/// `dx` scales vertices to physical coordinates; `origin` offsets them.
TriangleMesh extract_isosurface(const mesh::Fab& fab, const mesh::Box& region,
                                double isovalue, int comp = 0, double dx = 1.0,
                                const Vec3& origin = {});

/// Serial extract_isosurface (origin 0) appended to `mesh` in cell order.
/// Returns count_active_cells over the same region. Callers walking many
/// small regions (the masked AMR levels) use this to fill one mesh in place.
std::size_t append_isosurface(const mesh::Fab& fab, const mesh::Box& region,
                              double isovalue, int comp, double dx,
                              TriangleMesh& mesh);

/// Count the cells of `region` whose cube configuration is non-trivial (used
/// by the cost model: marching-cubes time ~ cells scanned + k * active cells).
std::size_t count_active_cells(const mesh::Fab& fab, const mesh::Box& region,
                               double isovalue, int comp = 0);

}  // namespace xl::viz
