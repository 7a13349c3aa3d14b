#include "mesh/level_data.hpp"

#include <algorithm>
#include <limits>

namespace xl::mesh {

Copier::Copier(const BoxLayout& layout, int nghost, const Box& domain, bool periodic) {
  XL_REQUIRE(nghost >= 0, "ghost width must be non-negative");
  if (nghost == 0) return;
  const IntVect dsize = domain.size();
  // Candidate shifts: identity plus, when periodic, the 26 wrap images.
  std::vector<IntVect> shifts{IntVect::zero()};
  if (periodic) {
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        for (int sz = -1; sz <= 1; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          shifts.push_back({sx * dsize[0], sy * dsize[1], sz * dsize[2]});
        }
      }
    }
  }
  for (std::size_t dst = 0; dst < layout.num_boxes(); ++dst) {
    const Box ghosted = layout.box(dst).grow(nghost);
    for (std::size_t src = 0; src < layout.num_boxes(); ++src) {
      for (const IntVect& shift : shifts) {
        if (src == dst && shift == IntVect::zero()) continue;
        // Source valid region, imaged by the shift, intersected with the
        // destination's ghosted region gives the cells this op fills.
        const Box imaged = layout.box(src).shift(shift);
        const Box region = ghosted & imaged;
        if (region.empty()) continue;
        // Never overwrite the destination's own valid cells.
        const Box clipped = region & layout.box(dst);
        if (clipped == region) continue;
        ops_.push_back(CopyOp{src, dst, region, shift});
      }
    }
  }
  ops_.shrink_to_fit();  // plans are kept across steps; hold no growth slack.
}

std::size_t Copier::off_rank_bytes(const BoxLayout& layout, int ncomp) const {
  std::size_t bytes = 0;
  for (const CopyOp& op : ops_) {
    if (layout.rank_of(op.src) != layout.rank_of(op.dst)) {
      bytes += static_cast<std::size_t>(op.region.num_cells()) *
               static_cast<std::size_t>(ncomp) * sizeof(double);
    }
  }
  return bytes;
}

LevelData::LevelData(const BoxLayout& layout, int ncomp, int nghost)
    : layout_(layout), ncomp_(ncomp), nghost_(nghost) {
  XL_REQUIRE(ncomp > 0, "need at least one component");
  XL_REQUIRE(nghost >= 0, "ghost width must be non-negative");
  fabs_.reserve(layout.num_boxes());
  for (std::size_t i = 0; i < layout.num_boxes(); ++i) {
    fabs_.emplace_back(layout.box(i).grow(nghost), ncomp);
  }
}

void LevelData::exchange(const Copier& copier) {
  for (const CopyOp& op : copier.ops()) {
    if (op.shift == IntVect::zero()) {
      // An unshifted op's region is ghosted(dst) & box(src): it already lies
      // in the source's valid cells.
      fabs_[op.dst].copy_from(fabs_[op.src], op.region);
    } else {
      fabs_[op.dst].copy_from_shifted(fabs_[op.src], op.region, op.shift);
    }
  }
}

void LevelData::exchange(const Box& domain, bool periodic) {
  Copier copier(layout_, nghost_, domain, periodic);
  exchange(copier);
}

std::size_t LevelData::bytes() const noexcept {
  std::size_t total = 0;
  for (const Fab& f : fabs_) total += f.bytes();
  return total;
}

template <typename Fn>
void LevelData::for_each_valid(int c, Fn&& fn) const {
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    const Fab& fab = fabs_[i];
    const Box& valid = layout_.box(i);
    const auto nx = static_cast<std::size_t>(valid.size()[0]);
    const auto xoff = static_cast<std::size_t>(valid.lo()[0] - fab.box().lo()[0]);
    for_each_row(valid, [&](int j, int k) {
      const double* r = fab.row(c, j, k) + xoff;
      for (std::size_t x = 0; x < nx; ++x) fn(r[x]);
    });
  }
}

double LevelData::sum(int c) const {
  double total = 0.0;
  for_each_valid(c, [&](double v) { total += v; });
  return total;
}

std::pair<double, double> LevelData::min_max(int c) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for_each_valid(c, [&](double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  });
  return {lo, hi};
}

void LevelData::set_all(double value) {
  for (Fab& f : fabs_) f.set_all(value);
}

}  // namespace xl::mesh
