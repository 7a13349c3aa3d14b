#include "amr/berger_rigoutsos.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "common/error.hpp"
#include "mesh/layout.hpp"

namespace xl::amr {

using mesh::Box;
using mesh::IntVect;
using mesh::kDim;

namespace {

using TagIter = std::vector<IntVect>::iterator;

/// Tag count per plane along each dimension of a node's bounding box. One
/// instance serves a whole clustering: a node's signatures are dead once its
/// cut is chosen, so its children refill the same buffers.
using Signatures = std::array<std::vector<int>, kDim>;

/// Minimal box containing the tags in [first, last).
Box bounding_box(TagIter first, TagIter last) {
  XL_CHECK(first != last, "bounding box of no tags");
  IntVect lo = *first, hi = *first;
  for (TagIter t = first; t != last; ++t) {
    lo = lo.min(*t);
    hi = hi.max(*t);
  }
  return Box(lo, hi);
}

/// Fill all three signatures of `box` in one pass over the tags.
void fill_signatures(TagIter first, TagIter last, const Box& box, Signatures& sigs) {
  static_assert(kDim == 3, "the fused pass fills three signatures");
  const IntVect lo = box.lo();
  for (int d = 0; d < kDim; ++d) {
    sigs[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(box.size()[d]), 0);
  }
  int* sx = sigs[0].data();
  int* sy = sigs[1].data();
  int* sz = sigs[2].data();
  for (TagIter t = first; t != last; ++t) {
    ++sx[(*t)[0] - lo[0]];
    ++sy[(*t)[1] - lo[1]];
    ++sz[(*t)[2] - lo[2]];
  }
}

struct Cut {
  int dim = -1;
  int at = 0;       ///< absolute coordinate; cells < at go left.
  int quality = -1; ///< larger is better.
};

/// Look for a zero plane (hole) in any signature — the best possible cut.
Cut find_hole(const Signatures& sigs, const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < sig.size(); ++i) {
      if (sig[i] != 0) continue;
      const int at = box.lo()[d] + static_cast<int>(i);
      const int left = at - box.lo()[d];
      const int right = box.hi()[d] - at;
      if (left < min_size || right + 1 < min_size) continue;
      // Prefer the hole most central in its dimension.
      const int quality = std::min(left, right + 1);
      if (quality > best.quality) best = Cut{d, at, quality};
    }
  }
  return best;
}

/// Otherwise cut at the strongest inflection of the signature Laplacian.
Cut find_inflection(const Signatures& sigs, const Box& box, int min_size) {
  Cut best;
  for (int d = 0; d < kDim; ++d) {
    const auto& sig = sigs[static_cast<std::size_t>(d)];
    const int n = static_cast<int>(sig.size());
    // Second derivative of the signature; a sign change with large magnitude
    // marks the edge of a tag cluster.
    for (int i = 1; i + 2 < n; ++i) {
      const int d2a = sig[static_cast<std::size_t>(i - 1)] - 2 * sig[static_cast<std::size_t>(i)] +
                      sig[static_cast<std::size_t>(i + 1)];
      const int d2b = sig[static_cast<std::size_t>(i)] - 2 * sig[static_cast<std::size_t>(i + 1)] +
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

/// Fallback: bisect the longest splittable dimension.
Cut find_bisection(const Box& box, int min_size) {
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

/// Cluster the tags in [first, last), appending boxes to `out`. A node's
/// box, fill, signatures and cut depend only on the set of its tags, never on
/// their order, so the split partitions the range in place and each child
/// recurses over its own sub-range (left first).
void cluster(TagIter first, TagIter last, const BrConfig& config, Signatures& sigs,
             std::vector<Box>& out) {
  if (first == last) return;
  const Box bb = bounding_box(first, last);
  const double fill = static_cast<double>(last - first) /
                      static_cast<double>(bb.num_cells());
  const bool small_enough = bb.size()[bb.longest_dim()] <= config.max_box_size;
  if (small_enough && fill >= config.fill_ratio) {
    out.push_back(bb);
    return;
  }
  // Cannot split further -> accept regardless of fill.
  const bool splittable = bb.size()[bb.longest_dim()] >= 2 * config.min_box_size;
  if (!splittable) {
    out.push_back(bb);
    return;
  }

  fill_signatures(first, last, bb, sigs);
  Cut cut = find_hole(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_inflection(sigs, bb, config.min_box_size);
  if (cut.dim < 0) cut = find_bisection(bb, config.min_box_size);
  if (cut.dim < 0) {
    out.push_back(bb);  // genuinely unsplittable
    return;
  }

  const TagIter mid = std::partition(
      first, last, [&cut](const IntVect& t) { return t[cut.dim] < cut.at; });
  cluster(first, mid, config, sigs, out);
  cluster(mid, last, config, sigs, out);
}

}  // namespace

std::vector<Box> berger_rigoutsos(const std::vector<IntVect>& tags, const Box& domain,
                                  const BrConfig& config) {
  XL_REQUIRE(config.fill_ratio > 0.0 && config.fill_ratio <= 1.0,
             "fill ratio must be in (0,1]");
  XL_REQUIRE(config.min_box_size >= 1, "min box size must be positive");
  std::vector<Box> out;
  std::vector<IntVect> inside;
  inside.reserve(tags.size());
  for (const IntVect& t : tags) {
    if (domain.contains(t)) inside.push_back(t);
  }
  Signatures sigs;
  cluster(inside.begin(), inside.end(), config, sigs, out);
  // Guarantee max_box_size: the fill-ratio early-accept can return oversized
  // boxes only when they were unsplittable, but decompose() enforces the cap.
  // A box already within the cap decomposes to itself, so only longer ones
  // are chopped.
  std::vector<Box> sized;
  sized.reserve(out.size());
  for (const Box& b : out) {
    if (b.size()[b.longest_dim()] <= config.max_box_size) {
      sized.push_back(b);
      continue;
    }
    auto pieces = mesh::decompose(b, config.max_box_size);
    sized.insert(sized.end(), pieces.begin(), pieces.end());
  }
  return sized;
}

}  // namespace xl::amr
