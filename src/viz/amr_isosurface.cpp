#include "viz/amr_isosurface.hpp"

#include "common/thread_pool.hpp"

namespace xl::viz {

using amr::AmrHierarchy;
using mesh::Box;

TriangleMesh extract_amr_isosurface(const AmrHierarchy& hierarchy, double isovalue,
                                    int comp, double dx0, IsosurfaceStats* stats) {
  TriangleMesh mesh;
  double dx = dx0;
  ThreadPool& pool = ThreadPool::global();
  for (std::size_t lev = 0; lev < hierarchy.num_levels(); ++lev) {
    const amr::AmrLevel& level = hierarchy.level(lev);
    const std::size_t nboxes = level.layout.num_boxes();
    const bool finest = lev + 1 == hierarchy.num_levels();
    // Boxes are independent: extract each into its own part mesh, then append
    // in box order — identical to the serial traversal for any thread count.
    // With few boxes the box loop runs on the caller and the per-box
    // extraction parallelizes internally instead (nested loops run inline).
    std::vector<TriangleMesh> parts(nboxes);
    std::vector<std::size_t> scanned(nboxes, 0);
    std::vector<std::size_t> active(nboxes, 0);
    parallel_for(pool, 0, nboxes, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t i = blo; i < bhi; ++i) {
        const Box valid = level.layout.box(i);
        if (finest) {
          // Finest level: extract over the whole valid region at once.
          parts[i] = extract_isosurface(level.data[i], valid, isovalue, comp, dx);
          if (stats) {
            scanned[i] = static_cast<std::size_t>(valid.num_cells());
            active[i] = count_active_cells(level.data[i], valid, isovalue, comp);
          }
        } else {
          // Masked extraction over the x-runs of cells finer data leaves
          // uncovered, in cell order. A cell's triangles do not depend on the
          // region it is extracted with, so this equals a per-cell walk.
          for (const Box& run : hierarchy.uncovered_runs(lev, i)) {
            active[i] += append_isosurface(level.data[i], run, isovalue, comp, dx,
                                           parts[i]);
            scanned[i] += static_cast<std::size_t>(run.num_cells());
          }
        }
      }
    });
    // Reserve the level's full contribution before the ordered merge so the
    // cumulative mesh grows once per level, not once per re-allocation.
    std::size_t level_vertices = 0;
    for (const TriangleMesh& part : parts) level_vertices += part.vertices.size();
    mesh.vertices.reserve(mesh.vertices.size() + level_vertices);
    for (std::size_t i = 0; i < nboxes; ++i) {
      mesh.append(parts[i]);
      if (stats) {
        stats->cells_scanned += scanned[i];
        stats->active_cells += active[i];
      }
    }
    dx /= static_cast<double>(hierarchy.config().ref_ratio);
  }
  if (stats) stats->triangles = mesh.triangle_count();
  return mesh;
}

}  // namespace xl::viz
