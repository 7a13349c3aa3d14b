// Frozen replicas of the live AMR step as it ran before its plans were built
// once per regrid, kept as bit-identity oracles (the SeedIdentity pattern):
//  * seed_extract_amr_isosurface: the masked isosurface that asks, for every
//    cell of a non-finest level, whether any next-level box covers it, and
//    extracts each uncovered cell on its own;
//  * seed_fill_cf_ghosts: the coarse-fine ghost fill that redoes the halo
//    subtraction on every call and copies cell by cell;
//  * SeedStepper: the non-subcycled AmrSimulation step with a fresh Copier
//    and a fresh coarse-fine search on every ghost fill.
// The library's cached plans must reproduce these byte for byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "amr/amr_simulation.hpp"
#include "amr/interp.hpp"
#include "viz/amr_isosurface.hpp"

namespace xl::seed {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;
using mesh::IntVect;

/// True where no box of level l+1 has a child of level-l cell `cell`.
inline bool seed_is_finest_at(const amr::AmrHierarchy& h, std::size_t l,
                              const IntVect& cell) {
  if (l + 1 >= h.num_levels()) return true;
  const int r = h.config().ref_ratio;
  const IntVect fine = cell.refine(IntVect::uniform(r));
  const Box child(fine, fine + (r - 1));
  for (const Box& b : h.level(l + 1).layout.boxes()) {
    if (b.intersects(child)) return false;
  }
  return true;
}

inline viz::TriangleMesh seed_extract_amr_isosurface(const amr::AmrHierarchy& h,
                                                     double isovalue, int comp,
                                                     double dx0,
                                                     viz::IsosurfaceStats& stats) {
  viz::TriangleMesh mesh;
  double dx = dx0;
  for (std::size_t lev = 0; lev < h.num_levels(); ++lev) {
    const amr::AmrLevel& level = h.level(lev);
    const bool finest = lev + 1 == h.num_levels();
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const Box valid = level.layout.box(i);
      if (finest) {
        mesh.append(viz::extract_isosurface(level.data[i], valid, isovalue, comp, dx));
        stats.cells_scanned += static_cast<std::size_t>(valid.num_cells());
        stats.active_cells += viz::count_active_cells(level.data[i], valid, isovalue, comp);
        continue;
      }
      for (BoxIterator it(valid); it.ok(); ++it) {
        if (!seed_is_finest_at(h, lev, *it)) continue;
        const Box cell(*it, *it);
        mesh.append(viz::extract_isosurface(level.data[i], cell, isovalue, comp, dx));
        ++stats.cells_scanned;
        stats.active_cells += viz::count_active_cells(level.data[i], cell, isovalue, comp);
      }
    }
    dx /= static_cast<double>(h.config().ref_ratio);
  }
  stats.triangles = mesh.triangle_count();
  return mesh;
}

inline void seed_fill_cf_ghosts(const amr::AmrLevel& coarse, amr::AmrLevel& fine,
                                int ratio, int nghost) {
  const IntVect rvec = IntVect::uniform(ratio);
  for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
    Fab& ffab = fine.data[fi];
    const Box ghosted = fine.layout.box(fi).grow(nghost);
    std::vector<Box> halo;
    ghosted.subtract(fine.layout.box(fi), halo);
    for (const Box& piece : halo) {
      std::vector<Box> uncovered{piece};
      for (std::size_t fj = 0; fj < fine.layout.num_boxes(); ++fj) {
        if (fj == fi) continue;
        std::vector<Box> next;
        for (const Box& u : uncovered) u.subtract(fine.layout.box(fj), next);
        uncovered = std::move(next);
        if (uncovered.empty()) break;
      }
      for (const Box& u : uncovered) {
        const Box cneeded = u.coarsen(rvec);
        for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
          const Box coverlap = cneeded & coarse.data[ci].box();
          if (coverlap.empty()) continue;
          const Fab& cfab = coarse.data[ci];
          const Box ftarget = coverlap.refine(rvec) & u;
          for (int c = 0; c < ffab.ncomp(); ++c) {
            for (BoxIterator it(ftarget); it.ok(); ++it) {
              ffab(*it, c) = cfab((*it).coarsen(rvec), c);
            }
          }
        }
      }
    }
  }
}

/// Non-subcycled stepping of an already initialized hierarchy, serial, with
/// every exchange and coarse-fine plan rebuilt on each ghost fill.
class SeedStepper {
 public:
  SeedStepper(amr::AmrHierarchy hierarchy, std::shared_ptr<const amr::Physics> physics,
              const amr::TagCriterion& criterion, double cfl, int regrid_interval)
      : h_(std::move(hierarchy)),
        physics_(std::move(physics)),
        criterion_(criterion),
        cfl_(cfl),
        regrid_interval_(regrid_interval) {}

  const amr::AmrHierarchy& hierarchy() const { return h_; }

  void advance() {
    const double dt = stable_dt();
    for (std::size_t lev = 0; lev < h_.num_levels(); ++lev) fill_ghosts(lev);
    for (std::size_t lev = 0; lev < h_.num_levels(); ++lev) {
      amr::AmrLevel& level = h_.level(lev);
      std::vector<Fab> updated;
      for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
        Fab out(level.data[i].box(), physics_->ncomp());
        out.copy_from(level.data[i], level.data[i].box());
        amr::godunov_update(*physics_, level.data[i], level.layout.box(i), dx(lev), dt,
                            out);
        updated.push_back(std::move(out));
      }
      for (std::size_t i = 0; i < updated.size(); ++i) level.data[i] = std::move(updated[i]);
    }
    const int r = h_.config().ref_ratio;
    for (std::size_t lev = h_.num_levels(); lev-- > 1;) {
      amr::restrict_average(h_.level(lev), h_.level(lev - 1), r);
    }
    if (++step_ % regrid_interval_ == 0 && h_.config().max_levels > 1) regrid_all();
  }

 private:
  void fill_ghosts(std::size_t lev) {
    const amr::AmrConfig& cfg = h_.config();
    amr::AmrLevel& level = h_.level(lev);
    level.data.exchange(level.domain, cfg.periodic);
    if (lev > 0) seed_fill_cf_ghosts(h_.level(lev - 1), level, cfg.ref_ratio, cfg.nghost);
  }

  double dx(std::size_t lev) const {
    double d = 1.0 / static_cast<double>(h_.config().base_domain.size()[0]);
    for (std::size_t l = 0; l < lev; ++l) d /= static_cast<double>(h_.config().ref_ratio);
    return d;
  }

  double stable_dt() const {
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t lev = 0; lev < h_.num_levels(); ++lev) {
      const amr::AmrLevel& level = h_.level(lev);
      for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
        const double speed =
            physics_->max_wave_speed(level.data[i], level.layout.box(i), dx(lev));
        if (speed > 0.0) dt = std::min(dt, cfl_ * dx(lev) / speed);
      }
    }
    return dt;
  }

  std::vector<Box> boxes_from_tags(std::size_t lev) {
    const amr::AmrConfig& cfg = h_.config();
    fill_ghosts(lev);
    std::vector<IntVect> tags = amr::tag_cells(h_.level(lev), criterion_);
    if (tags.empty()) return {};
    tags = amr::buffer_tags(tags, cfg.tag_buffer, h_.level(lev).domain);
    amr::BrConfig br;
    br.fill_ratio = cfg.fill_ratio;
    br.max_box_size = std::max(1, cfg.max_box_size / cfg.ref_ratio);
    br.min_box_size = std::max(1, cfg.blocking_factor / cfg.ref_ratio);
    std::vector<Box> fine;
    for (const Box& b : amr::berger_rigoutsos(tags, h_.level(lev).domain, br)) {
      fine.push_back(b.refine(cfg.ref_ratio));
    }
    return fine;
  }

  void regrid_all() {
    const amr::AmrConfig& cfg = h_.config();
    std::vector<mesh::BoxLayout> layouts;
    std::vector<Box> parent_union;
    const std::size_t old_levels = h_.num_levels();
    for (std::size_t lev = 0; lev + 1 < static_cast<std::size_t>(cfg.max_levels); ++lev) {
      if (lev >= old_levels) break;
      std::vector<Box> boxes = boxes_from_tags(lev);
      if (lev > 0) {
        std::vector<Box> clipped;
        for (const Box& b : boxes) {
          for (const Box& p : parent_union) {
            const Box inter = b & p.refine(cfg.ref_ratio);
            if (!inter.empty()) clipped.push_back(inter);
          }
        }
        boxes = std::move(clipped);
      }
      if (boxes.empty()) break;
      parent_union = boxes;
      layouts.push_back(mesh::balance(std::move(boxes), cfg.nranks, cfg.balance));
    }
    h_.regrid(layouts);
    for (std::size_t lev = 1; lev < h_.num_levels(); ++lev) fill_ghosts(lev);
  }

  amr::AmrHierarchy h_;
  std::shared_ptr<const amr::Physics> physics_;
  amr::TagCriterion criterion_;
  double cfl_;
  int regrid_interval_;
  int step_ = 0;
};

}  // namespace xl::seed
