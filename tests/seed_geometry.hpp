// Frozen replicas of the synthetic-geometry kernels as they were before the
// in-place rewrite, kept as bit-identity oracles (the SeedIdentity pattern):
//  * seed_berger_rigoutsos: the copying Berger-Rigoutsos recursion, which
//    moves each node's tags into two fresh vectors and runs decompose() on
//    every output box;
//  * seed_balance_morton: the Morton balancer that computes both keys inside
//    every sort comparison.
// The library versions must produce the same boxes, in the same order, with
// the same ranks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "amr/berger_rigoutsos.hpp"
#include "common/contract.hpp"
#include "mesh/layout.hpp"

namespace xl::seed {

using mesh::Box;
using mesh::IntVect;
using mesh::kDim;

namespace detail {

inline Box bounding_box(const std::vector<IntVect>& tags) {
  IntVect lo = tags[0], hi = tags[0];
  for (const IntVect& t : tags) {
    lo = lo.min(t);
    hi = hi.max(t);
  }
  return Box(lo, hi);
}

inline std::vector<int> signature(const std::vector<IntVect>& tags, const Box& box,
                                  int dim) {
  std::vector<int> sig(static_cast<std::size_t>(box.size()[dim]), 0);
  for (const IntVect& t : tags) {
    ++sig[static_cast<std::size_t>(t[dim] - box.lo()[dim])];
  }
  return sig;
}

struct Cut {
  int dim = -1;
  int at = 0;
  int quality = -1;
};

inline Cut find_hole(const std::vector<std::vector<int>>& sigs, const Box& box,
                     int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < sig.size(); ++i) {
      if (sig[i] != 0) continue;
      const int at = box.lo()[d] + static_cast<int>(i);
      const int left = at - box.lo()[d];
      const int right = box.hi()[d] - at;
      if (left < min_size || right + 1 < min_size) continue;
      const int quality = std::min(left, right + 1);
      if (quality > best.quality) best = Cut{d, at, quality};
    }
  }
  return best;
}

inline Cut find_inflection(const std::vector<std::vector<int>>& sigs, const Box& box,
                           int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    const int n = static_cast<int>(sig.size());
    for (int i = 1; i + 2 < n; ++i) {
      const int d2a = sig[static_cast<std::size_t>(i - 1)] -
                      2 * sig[static_cast<std::size_t>(i)] +
                      sig[static_cast<std::size_t>(i + 1)];
      const int d2b = sig[static_cast<std::size_t>(i)] -
                      2 * sig[static_cast<std::size_t>(i + 1)] +
                      sig[static_cast<std::size_t>(i + 2)];
      if (static_cast<long>(d2a) * d2b >= 0) continue;
      const int strength = std::abs(d2a - d2b);
      const int at = box.lo()[d] + i + 1;
      const int left = at - box.lo()[d];
      const int right = box.hi()[d] - at;
      if (left < min_size || right + 1 < min_size) continue;
      if (strength > best.quality) best = Cut{d, at, strength};
    }
  }
  return best;
}

inline Cut find_bisection(const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const int len = box.size()[d];
    if (len < 2 * min_size) continue;
    if (best.dim < 0 || len > box.size()[best.dim]) {
      best = Cut{d, box.lo()[d] + len / 2, len};
    }
  }
  return best;
}

inline void cluster(std::vector<IntVect> tags, const Box& domain,
                    const amr::BrConfig& config, std::vector<Box>& out) {
  if (tags.empty()) return;
  const Box bb = bounding_box(tags) & domain;
  const double fill = static_cast<double>(tags.size()) /
                      static_cast<double>(bb.num_cells());
  const bool small_enough = bb.size()[bb.longest_dim()] <= config.max_box_size;
  if (small_enough && fill >= config.fill_ratio) {
    out.push_back(bb);
    return;
  }
  const bool splittable = bb.size()[bb.longest_dim()] >= 2 * config.min_box_size;
  if (!splittable) {
    out.push_back(bb);
    return;
  }
  std::vector<std::vector<int>> sigs;
  sigs.reserve(kDim);
  for (int d = 0; d < kDim; ++d) sigs.push_back(signature(tags, bb, d));
  Cut cut = find_hole(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_inflection(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_bisection(bb, config.min_box_size);
  if (cut.dim < 0) {
    out.push_back(bb);
    return;
  }
  std::vector<IntVect> left, right;
  left.reserve(tags.size());
  right.reserve(tags.size());
  for (const IntVect& t : tags) {
    (t[cut.dim] < cut.at ? left : right).push_back(t);
  }
  cluster(std::move(left), domain, config, out);
  cluster(std::move(right), domain, config, out);
}

}  // namespace detail

inline std::vector<Box> seed_berger_rigoutsos(const std::vector<IntVect>& tags,
                                              const Box& domain,
                                              const amr::BrConfig& config) {
  std::vector<Box> out;
  std::vector<IntVect> inside;
  for (const IntVect& t : tags) {
    if (domain.contains(t)) inside.push_back(t);
  }
  detail::cluster(std::move(inside), domain, config, out);
  std::vector<Box> sized;
  for (const Box& b : out) {
    auto pieces = mesh::decompose(b, config.max_box_size);
    sized.insert(sized.end(), pieces.begin(), pieces.end());
  }
  return sized;
}

inline mesh::BoxLayout seed_balance_morton(std::vector<Box> boxes, int nranks) {
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mesh::morton_key(boxes[a].lo()) < mesh::morton_key(boxes[b].lo());
  });
  std::int64_t total = 0;
  for (const Box& b : boxes) total += b.num_cells();
  const double share = static_cast<double>(total) / static_cast<double>(nranks);
  std::vector<Box> ordered;
  std::vector<int> ranks;
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Box& b = boxes[order[k]];
    ranks.push_back(std::min(nranks - 1, f2i<int>(static_cast<double>(acc) / share)));
    acc += b.num_cells();
    ordered.push_back(b);
  }
  return mesh::BoxLayout(std::move(ordered), std::move(ranks), nranks);
}

/// Boxes, order, ranks and rank count of two layouts agree exactly.
inline bool same_layout(const mesh::BoxLayout& a, const mesh::BoxLayout& b) {
  if (a.num_ranks() != b.num_ranks() || a.boxes() != b.boxes()) return false;
  for (std::size_t i = 0; i < a.num_boxes(); ++i) {
    if (a.rank_of(i) != b.rank_of(i)) return false;
  }
  return true;
}

}  // namespace xl::seed
