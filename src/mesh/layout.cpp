#include "mesh/layout.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <utility>

#include "common/contract.hpp"

namespace xl::mesh {

BoxLayout::BoxLayout(std::vector<Box> boxes, std::vector<int> ranks, int nranks)
    : boxes_(std::move(boxes)), ranks_(std::move(ranks)), nranks_(nranks) {
  XL_REQUIRE(boxes_.size() == ranks_.size(), "one rank per box");
  XL_REQUIRE(nranks_ > 0, "layout needs at least one rank");
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    XL_REQUIRE(!boxes_[i].empty(), "layout contains an empty box");
    XL_REQUIRE(ranks_[i] >= 0 && ranks_[i] < nranks_, "rank out of range");
  }
  // Disjointness is verified pairwise for small layouts (the ones tests and
  // in-process runs build by hand). Large layouts — the machine-scale
  // synthetic runs with 10^4..10^5 boxes — come from decompose() and
  // berger_rigoutsos(), which produce disjoint boxes by construction, and an
  // O(n^2) check would dominate the experiment wall time.
  if (boxes_.size() <= kVerifyDisjointLimit) {
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
      for (std::size_t j = i + 1; j < boxes_.size(); ++j) {
        XL_REQUIRE(!boxes_[i].intersects(boxes_[j]), "layout boxes overlap");
      }
    }
  }
}

std::int64_t BoxLayout::total_cells() const noexcept {
  std::int64_t total = 0;
  for (const Box& b : boxes_) total += b.num_cells();
  return total;
}

std::vector<std::int64_t> BoxLayout::cells_per_rank() const {
  std::vector<std::int64_t> cells(static_cast<std::size_t>(nranks_), 0);
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    cells[static_cast<std::size_t>(ranks_[i])] += boxes_[i].num_cells();
  }
  return cells;
}

double BoxLayout::imbalance() const {
  const auto cells = cells_per_rank();
  const std::int64_t total = std::accumulate(cells.begin(), cells.end(), std::int64_t{0});
  if (total == 0) return 1.0;
  const std::int64_t peak = *std::max_element(cells.begin(), cells.end());
  const double mean = static_cast<double>(total) / static_cast<double>(nranks_);
  return static_cast<double>(peak) / mean;
}

std::vector<std::size_t> BoxLayout::boxes_of_rank(int rank) const {
  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    if (ranks_[i] == rank) mine.push_back(i);
  }
  return mine;
}

Box BoxLayout::bounding_box() const noexcept {
  Box hull;
  for (const Box& b : boxes_) hull = hull.hull(b);
  return hull;
}

std::vector<Box> decompose(const Box& domain, int max_box_size) {
  XL_REQUIRE(max_box_size > 0, "max box size must be positive");
  std::vector<Box> out;
  if (domain.empty()) return out;
  std::vector<Box> work{domain};
  while (!work.empty()) {
    Box b = work.back();
    work.pop_back();
    const int dim = b.longest_dim();
    if (b.size()[dim] <= max_box_size) {
      out.push_back(b);
      continue;
    }
    // Cut at a multiple of max_box_size from the low side so most boxes end up
    // exactly max_box_size long (regular tiling).
    const int at = b.lo()[dim] + max_box_size;
    const Box lower = b.chop(dim, at);
    work.push_back(lower);
    work.push_back(b);
  }
  return out;
}

std::uint64_t morton_key(const IntVect& p) {
  // Offset so negative coordinates (ghost-adjacent boxes) still order sanely.
  // Outside [-bias, bias) a biased coordinate would not fit its 21 bits and
  // distinct points would share a key.
  constexpr int bias = 1 << 20;
  for (int d = 0; d < kDim; ++d) {
    XL_REQUIRE(p[d] >= -bias && p[d] < bias,
               "coordinate outside the Morton key range [-2^20, 2^20)");
  }
  auto spread = [](std::uint64_t x) {
    // Spread the 21 bits of x so there are two zero bits between each.
    x = (x | (x << 32)) & 0x1F00000000FFFFull;
    x = (x | (x << 16)) & 0x1F0000FF0000FFull;
    x = (x | (x << 8)) & 0x100F00F00F00F00Full;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3ull;
    x = (x | (x << 2)) & 0x1249249249249249ull;
    return x;
  };
  const auto ux = spread(static_cast<std::uint64_t>(p[0] + bias));
  const auto uy = spread(static_cast<std::uint64_t>(p[1] + bias));
  const auto uz = spread(static_cast<std::uint64_t>(p[2] + bias));
  return ux | (uy << 1) | (uz << 2);
}

namespace {

BoxLayout balance_morton(std::vector<Box> boxes, int nranks) {
  // One key per box, sorted with the index alongside. Disjoint boxes have
  // distinct lo corners and morton_key is injective on its range, so the
  // keys are unique and the index never breaks a tie.
  std::vector<std::pair<std::uint64_t, std::size_t>> order(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    order[i] = {morton_key(boxes[i].lo()), i};
  }
  std::sort(order.begin(), order.end());
  // Walk the Morton order accumulating cells; advance to the next rank once
  // the running share exceeds the ideal per-rank share.
  std::int64_t total = 0;
  for (const Box& b : boxes) total += b.num_cells();
  const double share = static_cast<double>(total) / static_cast<double>(nranks);

  std::vector<Box> ordered;
  std::vector<int> ranks;
  ordered.reserve(boxes.size());
  ranks.reserve(boxes.size());
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Box& b = boxes[order[k].second];
    int rank = std::min(nranks - 1, f2i<int>(static_cast<double>(acc) / share));
    acc += b.num_cells();
    ordered.push_back(b);
    ranks.push_back(rank);
  }
  return BoxLayout(std::move(ordered), std::move(ranks), nranks);
}

BoxLayout balance_knapsack(std::vector<Box> boxes, int nranks) {
  // Longest-processing-time: heaviest box goes to the lightest rank.
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return boxes[a].num_cells() > boxes[b].num_cells();
  });
  using Load = std::pair<std::int64_t, int>;  // (cells, rank)
  std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
  for (int r = 0; r < nranks; ++r) heap.emplace(0, r);
  std::vector<int> ranks(boxes.size(), 0);
  for (std::size_t idx : order) {
    auto [cells, rank] = heap.top();
    heap.pop();
    ranks[idx] = rank;
    heap.emplace(cells + boxes[idx].num_cells(), rank);
  }
  return BoxLayout(std::move(boxes), std::move(ranks), nranks);
}

}  // namespace

BoxLayout balance(std::vector<Box> boxes, int nranks, BalanceMethod method) {
  XL_REQUIRE(nranks > 0, "need at least one rank");
  switch (method) {
    case BalanceMethod::MortonRoundRobin:
      return balance_morton(std::move(boxes), nranks);
    case BalanceMethod::KnapsackLpt:
      return balance_knapsack(std::move(boxes), nranks);
  }
  XL_UNREACHABLE("unknown balance method");
}

}  // namespace xl::mesh
