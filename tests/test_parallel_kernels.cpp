// Determinism contract of the threaded kernels (see common/thread_pool.hpp):
// every kernel that runs on the shared pool must produce BIT-IDENTICAL output
// for any worker count, because the adaptation experiments compare traces and
// goldens across machines and thread settings. Each test runs a kernel
// serially and at several awkward worker counts (2, 3, 5 — never dividing the
// range evenly) and compares raw bytes.
#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "amr/advection_diffusion.hpp"
#include "amr/amr_simulation.hpp"
#include "amr/interp.hpp"
#include "amr/polytropic_gas.hpp"
#include "amr/tagging.hpp"
#include "analysis/compress.hpp"
#include "analysis/downsample.hpp"
#include "analysis/entropy.hpp"
#include "common/thread_pool.hpp"
#include "viz/amr_isosurface.hpp"
#include "viz/marching_cubes.hpp"
#include "seed_amr_plans.hpp"

namespace xl {
namespace {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;
using mesh::IntVect;

/// Restores the global pool to serial even when a test fails mid-way.
struct GlobalWorkersGuard {
  ~GlobalWorkersGuard() { ThreadPool::set_global_workers(0); }
};

const std::vector<std::size_t> kWorkerCounts = {0, 2, 3, 5};

/// Runs `make` once per worker count and checks every result's bytes against
/// the serial run via `as_bytes`.
template <typename T>
void expect_invariant_under_threading(
    const std::function<T()>& make,
    const std::function<std::vector<std::uint8_t>(const T&)>& as_bytes) {
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(kWorkerCounts[0]);
  const T serial = make();
  const std::vector<std::uint8_t> want = as_bytes(serial);
  for (std::size_t i = 1; i < kWorkerCounts.size(); ++i) {
    ThreadPool::set_global_workers(kWorkerCounts[i]);
    const T threaded = make();
    EXPECT_EQ(as_bytes(threaded), want)
        << "output changed with " << kWorkerCounts[i] << " workers";
  }
}

std::vector<std::uint8_t> fab_bytes(const Fab& fab) {
  const std::span<const double> flat = fab.flat();
  std::vector<std::uint8_t> bytes(flat.size_bytes());
  std::memcpy(bytes.data(), flat.data(), flat.size_bytes());
  return bytes;
}

Fab wavy_field(int n, int ncomp = 1) {
  Fab fab(Box::domain({n, n, n}), ncomp);
  for (int c = 0; c < ncomp; ++c) {
    for (BoxIterator it(fab.box()); it.ok(); ++it) {
      const auto& p = *it;
      fab(p, c) = std::sin(0.3 * p[0] + c) * std::cos(0.2 * p[1]) +
                  0.05 * p[2] + 1e-3 * c;
    }
  }
  return fab;
}

TEST(ParallelKernels, BlockEntropyIsThreadCountInvariant) {
  const Fab field = wavy_field(19);  // odd size: uneven slabs
  expect_invariant_under_threading<double>(
      [&] { return analysis::block_entropy(field, field.box()); },
      [](const double& e) {
        std::vector<std::uint8_t> bytes(sizeof(double));
        std::memcpy(bytes.data(), &e, sizeof(double));
        return bytes;
      });
}

TEST(ParallelKernels, EntropyPlanIsThreadCountInvariant) {
  const Fab field = wavy_field(24);
  expect_invariant_under_threading<std::vector<analysis::BlockDecision>>(
      [&] {
        return analysis::entropy_downsample_plan(field, 8, {2.0, 4.0}, {4, 2, 1});
      },
      [](const std::vector<analysis::BlockDecision>& plan) {
        std::vector<std::uint8_t> bytes;
        for (const analysis::BlockDecision& d : plan) {
          const auto* p = reinterpret_cast<const std::uint8_t*>(&d.entropy);
          bytes.insert(bytes.end(), p, p + sizeof(double));
          bytes.push_back(static_cast<std::uint8_t>(d.factor));
          for (int dim = 0; dim < mesh::kDim; ++dim) {
            bytes.push_back(static_cast<std::uint8_t>(d.block.lo()[dim] & 0xff));
            bytes.push_back(static_cast<std::uint8_t>(d.block.hi()[dim] & 0xff));
          }
        }
        return bytes;
      });
}

TEST(ParallelKernels, DownsampleIsThreadCountInvariant) {
  const Fab field = wavy_field(21, 2);
  for (const auto method :
       {analysis::DownsampleMethod::Stride, analysis::DownsampleMethod::Average}) {
    expect_invariant_under_threading<Fab>(
        [&] { return analysis::downsample(field, 2, method); }, fab_bytes);
  }
}

TEST(ParallelKernels, CompressedStreamIsThreadCountInvariant) {
  const Fab field = wavy_field(17);
  analysis::CompressConfig cfg;
  expect_invariant_under_threading<analysis::CompressedField>(
      [&] { return analysis::compress(field, cfg); },
      [](const analysis::CompressedField& c) { return c.payload; });
  // Round trip decodes identically at any worker count, too.
  const analysis::CompressedField stream = analysis::compress(field, cfg);
  expect_invariant_under_threading<Fab>(
      [&] { return analysis::decompress(stream); }, fab_bytes);
}

TEST(ParallelKernels, MarchingCubesIsThreadCountInvariant) {
  const Fab field = wavy_field(23);
  const Box cells(field.box().lo(), field.box().hi() - 1);
  expect_invariant_under_threading<viz::TriangleMesh>(
      [&] { return viz::extract_isosurface(field, cells, 0.5); },
      [](const viz::TriangleMesh& mesh) {
        std::vector<std::uint8_t> bytes(mesh.vertices.size() * sizeof(viz::Vec3));
        std::memcpy(bytes.data(), mesh.vertices.data(), bytes.size());
        return bytes;
      });
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(0);
  const std::size_t serial_active = viz::count_active_cells(field, cells, 0.5);
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool::set_global_workers(workers);
    EXPECT_EQ(viz::count_active_cells(field, cells, 0.5), serial_active);
  }
}

amr::AmrConfig shock_config() {
  amr::AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = 2;
  cfg.ref_ratio = 2;
  cfg.max_box_size = 8;
  cfg.blocking_factor = 4;
  cfg.nghost = 2;
  cfg.nranks = 2;
  cfg.fill_ratio = 0.7;
  return cfg;
}

std::vector<std::uint8_t> hierarchy_bytes(const amr::AmrHierarchy& h) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t lev = 0; lev < h.num_levels(); ++lev) {
    const amr::AmrLevel& level = h.level(lev);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      const std::vector<std::uint8_t> fb = fab_bytes(level.data[i]);
      bytes.insert(bytes.end(), fb.begin(), fb.end());
    }
  }
  return bytes;
}

TEST(ParallelKernels, AmrAdvanceIsThreadCountInvariant) {
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  expect_invariant_under_threading<std::vector<std::uint8_t>>(
      [&]() -> std::vector<std::uint8_t> {
        amr::AmrSimulation sim(shock_config(),
                               std::make_shared<amr::PolytropicGas>(), crit, 0.3,
                               /*regrid_interval=*/2);
        sim.initialize();
        for (int s = 0; s < 3; ++s) sim.advance();
        return hierarchy_bytes(sim.hierarchy());
      },
      [](const std::vector<std::uint8_t>& b) { return b; });
}

TEST(ParallelKernels, TaggingIsThreadCountInvariant) {
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         {}, 0.3);
  sim.initialize();
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  expect_invariant_under_threading<std::vector<mesh::IntVect>>(
      [&] { return amr::tag_cells(sim.hierarchy().level(0), crit); },
      [](const std::vector<mesh::IntVect>& tags) {
        // Tag ORDER matters: Berger-Rigoutsos consumes the list as-is.
        std::vector<std::uint8_t> bytes(tags.size() * sizeof(mesh::IntVect));
        std::memcpy(bytes.data(), tags.data(), bytes.size());
        return bytes;
      });
}

TEST(ParallelKernels, AmrIsosurfaceIsThreadCountInvariant) {
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         crit, 0.3);
  sim.initialize();
  const double dx0 = 1.0 / 16.0;
  expect_invariant_under_threading<viz::TriangleMesh>(
      [&] {
        return viz::extract_amr_isosurface(sim.hierarchy(), 0.6,
                                           amr::PolytropicGas::kRho, dx0);
      },
      [](const viz::TriangleMesh& mesh) {
        std::vector<std::uint8_t> bytes(mesh.vertices.size() * sizeof(viz::Vec3));
        std::memcpy(bytes.data(), mesh.vertices.data(), bytes.size());
        return bytes;
      });
  // The per-level statistics are integer sums: also invariant.
  GlobalWorkersGuard guard;
  ThreadPool::set_global_workers(0);
  viz::IsosurfaceStats serial_stats;
  viz::extract_amr_isosurface(sim.hierarchy(), 0.6, amr::PolytropicGas::kRho, dx0,
                              &serial_stats);
  ThreadPool::set_global_workers(3);
  viz::IsosurfaceStats threaded_stats;
  viz::extract_amr_isosurface(sim.hierarchy(), 0.6, amr::PolytropicGas::kRho, dx0,
                              &threaded_stats);
  EXPECT_EQ(threaded_stats.cells_scanned, serial_stats.cells_scanned);
  EXPECT_EQ(threaded_stats.active_cells, serial_stats.active_cells);
  EXPECT_EQ(threaded_stats.triangles, serial_stats.triangles);
}

// --- seed-reference bit-identity suite ---------------------------------------
// DESIGN.md §3.10: the flat-row / SIMD kernel rewrites must be
// indistinguishable from the seed per-cell formulations — not merely
// thread-invariant, but bit-identical to the original bounds-checked
// fab(p, c) code. The replicas below freeze the seed semantics (every access
// through operator(), streams packed one bit at a time); each test compares
// the library kernel against its replica at 0, 2, and 5 workers.
// bench_kernel_scaling keeps its own timed copies; these are the suite's
// oracles.

const std::vector<std::size_t> kSeedWorkerCounts = {0, 2, 5};

template <typename T>
void expect_matches_seed(
    const std::vector<std::uint8_t>& want, const std::function<T()>& make,
    const std::function<std::vector<std::uint8_t>(const T&)>& as_bytes) {
  GlobalWorkersGuard guard;
  for (std::size_t workers : kSeedWorkerCounts) {
    ThreadPool::set_global_workers(workers);
    EXPECT_EQ(as_bytes(make()), want)
        << "row kernel diverged from the seed per-cell path at " << workers
        << " workers";
  }
}

std::vector<std::uint8_t> double_bytes(const double& v) {
  std::vector<std::uint8_t> bytes(sizeof(double));
  std::memcpy(bytes.data(), &v, sizeof(double));
  return bytes;
}

double seed_block_entropy(const Fab& fab, const Box& region,
                          const analysis::EntropyConfig& config = {}) {
  const Box scan = fab.box() & region;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (BoxIterator it(scan); it.ok(); ++it) {
    const double v = fab(*it, config.comp);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return 0.0;
  const auto bins = static_cast<std::size_t>(config.bins);
  const double scale = static_cast<double>(config.bins) / (hi - lo);
  const double last_bin = static_cast<double>(config.bins - 1);
  std::vector<std::size_t> counts(bins, 0);
  std::size_t total = 0;
  for (BoxIterator it(scan); it.ok(); ++it) {
    const double idx = (fab(*it, config.comp) - lo) * scale;
    if (std::isnan(idx)) continue;
    // xl-lint: allow(float-cast): NaN dropped and range clamped above.
    ++counts[static_cast<std::size_t>(std::clamp(idx, 0.0, last_bin))];
    ++total;
  }
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] == 0) continue;
    const double p = static_cast<double>(counts[b]) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

Fab seed_downsample(const Fab& src, int factor, analysis::DownsampleMethod method) {
  const mesh::IntVect rvec = mesh::IntVect::uniform(factor);
  Fab out(src.box().coarsen(rvec), src.ncomp());
  const double inv_vol = 1.0 / static_cast<double>(factor) / factor / factor;
  const std::size_t full = static_cast<std::size_t>(factor) * factor * factor;
  const mesh::IntVect slo = src.box().lo(), shi = src.box().hi();
  for (int c = 0; c < src.ncomp(); ++c) {
    for (BoxIterator it(out.box()); it.ok(); ++it) {
      if (method == analysis::DownsampleMethod::Stride) {
        mesh::IntVect p;
        for (int d = 0; d < mesh::kDim; ++d) {
          p[d] = std::clamp(factor * (*it)[d], slo[d], shi[d]);
        }
        out(*it, c) = src(p, c);
        continue;
      }
      const mesh::IntVect base = (*it).refine(rvec);
      const Box children = Box(base, base + (factor - 1)) & src.box();
      double sum = 0.0;
      for (BoxIterator fit(children); fit.ok(); ++fit) sum += src(*fit, c);
      out(*it, c) = static_cast<std::size_t>(children.num_cells()) == full
                        ? sum * inv_vol
                        : sum / static_cast<double>(children.num_cells());
    }
  }
  return out;
}

void seed_linear_fit(const double* v, std::size_t n, double& a, double& b) {
  if (n == 1) {
    a = v[0];
    b = 0.0;
    return;
  }
  double sum_v = 0.0, sum_iv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_v += v[i];
    sum_iv += static_cast<double>(i) * v[i];
  }
  const double nn = static_cast<double>(n);
  const double sum_i = nn * (nn - 1.0) / 2.0;
  const double sum_ii = (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0;
  const double denom = nn * sum_ii - sum_i * sum_i;
  b = denom != 0.0 ? (nn * sum_iv - sum_i * sum_v) / denom : 0.0;
  a = (sum_v - b * sum_i) / nn;
}

/// Seed encoder: scalar quantize straight off the residual expression, the
/// packed stream set one bit at a time.
std::vector<std::uint8_t> seed_compress_payload(
    const Fab& fab, const analysis::CompressConfig& config) {
  const std::span<const double> data = fab.flat();
  const auto levels = (1u << config.residual_bits) - 1u;
  const auto block = static_cast<std::size_t>(config.block);
  const int bits = config.residual_bits;
  const std::size_t header = 4 * sizeof(double);
  const auto payload_bytes = [&](std::size_t n) {
    return (n * static_cast<std::size_t>(bits) + 7) / 8;
  };
  const std::size_t nblocks = (data.size() + block - 1) / block;
  const std::size_t full_bytes = header + payload_bytes(block);
  const std::size_t tail_n = data.size() - (nblocks - 1) * block;
  std::vector<std::uint8_t> payload(
      (nblocks - 1) * full_bytes + header + payload_bytes(tail_n), 0);
  std::vector<std::uint32_t> q(block);
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const std::size_t n = bi + 1 == nblocks ? tail_n : block;
    const double* v = data.data() + bi * block;
    std::uint8_t* dst = payload.data() + bi * full_bytes;
    double a, b;
    seed_linear_fit(v, n, a, b);
    double rmin = 0.0, rmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = v[i] - (a + b * static_cast<double>(i));
      rmin = i == 0 ? r : std::min(rmin, r);
      rmax = i == 0 ? r : std::max(rmax, r);
    }
    const double step = rmax > rmin ? (rmax - rmin) / levels : 0.0;
    std::memcpy(dst + 0 * sizeof(double), &a, sizeof(double));
    std::memcpy(dst + 1 * sizeof(double), &b, sizeof(double));
    std::memcpy(dst + 2 * sizeof(double), &rmin, sizeof(double));
    std::memcpy(dst + 3 * sizeof(double), &step, sizeof(double));
    for (std::size_t i = 0; i < n; ++i) {
      if (step > 0.0) {
        const double r = v[i] - (a + b * static_cast<double>(i));
        // xl-lint: allow(float-cast): lround of a value in [0, levels].
        q[i] = static_cast<std::uint32_t>(std::lround((r - rmin) / step));
        if (q[i] > levels) q[i] = levels;
      } else {
        q[i] = 0;
      }
    }
    std::uint8_t* packed = dst + header;
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < bits; ++bit) {
        if ((q[i] >> bit) & 1u) {
          const std::size_t bitpos =
              i * static_cast<std::size_t>(bits) + static_cast<std::size_t>(bit);
          packed[bitpos >> 3] |= static_cast<std::uint8_t>(1u << (bitpos & 7));
        }
      }
    }
  }
  return payload;
}

void seed_face_flux(const Fab& u, const Box& faces, int dim, double vel,
                    double d_over_dx, Fab& flux) {
  for (BoxIterator it(faces); it.ok(); ++it) {
    mesh::IntVect lo = *it;
    lo[dim] -= 1;
    const double ul = u(lo, 0);
    const double ur = u(*it, 0);
    const double advective = vel * (vel >= 0.0 ? ul : ur);
    const double diffusive = -d_over_dx * (ur - ul);
    flux(*it, 0) = advective + diffusive;
  }
}

/// Seed conservative update: seed fluxes plus the per-cell difference loop.
Fab seed_godunov(const amr::AdvectionDiffusion& model, const Fab& u,
                 const Box& valid, double dx, double dt) {
  Fab u_new(u.box(), u.ncomp());
  u_new.copy_from(u, valid);
  const double lambda = dt / dx;
  for (int d = 0; d < mesh::kDim; ++d) {
    mesh::IntVect fhi = valid.hi();
    fhi[d] += 1;
    const Box faces(valid.lo(), fhi);
    Fab flux(faces, 1);
    seed_face_flux(u, faces, d, model.config().velocity[d],
                   model.config().diffusivity / dx, flux);
    for (BoxIterator it(valid); it.ok(); ++it) {
      mesh::IntVect hi = *it;
      hi[d] += 1;
      u_new(*it, 0) -= lambda * (flux(hi, 0) - flux(*it, 0));
    }
  }
  return u_new;
}

std::vector<mesh::IntVect> seed_tag_cells(const amr::AmrLevel& level,
                                          const amr::TagCriterion& criterion) {
  std::vector<mesh::IntVect> tags;
  for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
    const Fab& fab = level.data[i];
    for (BoxIterator it(level.layout.box(i)); it.ok(); ++it) {
      double grad = 0.0;
      for (int d = 0; d < mesh::kDim; ++d) {
        mesh::IntVect lo = *it, hi = *it;
        lo[d] -= 1;
        hi[d] += 1;
        const double diff = 0.5 * (fab(hi, criterion.comp) - fab(lo, criterion.comp));
        grad += diff * diff;
      }
      grad = std::sqrt(grad);
      const double scale =
          std::max(std::fabs(fab(*it, criterion.comp)), criterion.abs_floor);
      if (grad / scale > criterion.rel_threshold) tags.push_back(*it);
    }
  }
  return tags;
}

TEST(SeedIdentity, BlockEntropyMatchesSeedPerCellPath) {
  Fab field = wavy_field(19);
  field({3, 4, 5}, 0) = std::nan("");  // NaN cells drop out of the histogram
  // Full box and an offset sub-region (exercises the row x-offset path).
  const Box sub({2, 1, 3}, {14, 17, 11});
  for (const Box& region : {field.box(), sub}) {
    expect_matches_seed<double>(
        double_bytes(seed_block_entropy(field, region)),
        [&] { return analysis::block_entropy(field, region); }, double_bytes);
  }
}

TEST(SeedIdentity, DownsampleMatchesSeedPerCellPath) {
  const Fab field = wavy_field(21, 2);
  // factor 2: clipped children at the high edge (21 odd); factor 3: exact.
  for (int factor : {2, 3}) {
    for (const auto method : {analysis::DownsampleMethod::Stride,
                              analysis::DownsampleMethod::Average}) {
      expect_matches_seed<Fab>(
          fab_bytes(seed_downsample(field, factor, method)),
          [&] { return analysis::downsample(field, factor, method); },
          fab_bytes);
    }
  }
}

TEST(SeedIdentity, CompressedPayloadMatchesSeedBitPacker) {
  const Fab field = wavy_field(17);
  analysis::CompressConfig cfg;
  expect_matches_seed<analysis::CompressedField>(
      seed_compress_payload(field, cfg),
      [&] { return analysis::compress(field, cfg); },
      [](const analysis::CompressedField& c) { return c.payload; });
}

TEST(SeedIdentity, FaceFluxAndGodunovMatchSeedPerCellPath) {
  const amr::AdvectionDiffusion model;
  const Box valid = Box::domain({12, 12, 12});
  const double dx = 1.0 / 12.0;
  Fab u(valid.grow(model.nghost()), 1);
  for (BoxIterator it(u.box()); it.ok(); ++it) {
    const auto& p = *it;
    u(p) = std::sin(0.4 * p[0]) * std::cos(0.3 * p[1]) + 0.07 * p[2];
  }
  for (int d = 0; d < mesh::kDim; ++d) {
    mesh::IntVect fhi = valid.hi();
    fhi[d] += 1;
    const Box faces(valid.lo(), fhi);
    Fab want(faces, 1);
    seed_face_flux(u, faces, d, model.config().velocity[d],
                   model.config().diffusivity * 12.0, want);
    expect_matches_seed<Fab>(
        fab_bytes(want),
        [&] {
          Fab flux(faces, 1);
          model.face_flux(u, faces, d, dx, flux);
          return flux;
        },
        fab_bytes);
  }
  const double dt = 0.4 * dx / model.max_wave_speed(u, valid, dx);
  expect_matches_seed<Fab>(
      fab_bytes(seed_godunov(model, u, valid, dx, dt)),
      [&] {
        Fab u_new(u.box(), 1);
        amr::godunov_update(model, u, valid, dx, dt, u_new);
        return u_new;
      },
      fab_bytes);
}

TEST(SeedIdentity, TagCellsMatchSeedPerCellPath) {
  amr::AmrSimulation sim(shock_config(), std::make_shared<amr::PolytropicGas>(),
                         {}, 0.3);
  sim.initialize();
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  const std::vector<mesh::IntVect> want_tags =
      seed_tag_cells(sim.hierarchy().level(0), crit);
  std::vector<std::uint8_t> want(want_tags.size() * sizeof(mesh::IntVect));
  std::memcpy(want.data(), want_tags.data(), want.size());
  expect_matches_seed<std::vector<mesh::IntVect>>(
      want, [&] { return amr::tag_cells(sim.hierarchy().level(0), crit); },
      [](const std::vector<mesh::IntVect>& tags) {
        std::vector<std::uint8_t> bytes(tags.size() * sizeof(mesh::IntVect));
        std::memcpy(bytes.data(), tags.data(), bytes.size());
        return bytes;
      });
}

// --- plans built once per regrid --------------------------------------------

std::vector<std::uint8_t> mesh_bytes(const viz::TriangleMesh& mesh) {
  std::vector<std::uint8_t> bytes(mesh.vertices.size() * sizeof(viz::Vec3));
  std::memcpy(bytes.data(), mesh.vertices.data(), bytes.size());
  return bytes;
}

/// A 16^3 base level in 8^3 boxes under hand-placed finer levels, every fab
/// (ghosts too) filled with a smooth field of the physical cell centre.
amr::AmrHierarchy placed_hierarchy(int ratio, const std::vector<std::vector<Box>>& fine,
                                   bool periodic) {
  amr::AmrConfig cfg;
  cfg.base_domain = Box::domain({16, 16, 16});
  cfg.max_levels = static_cast<int>(fine.size()) + 1;
  cfg.ref_ratio = ratio;
  cfg.max_box_size = 8;
  cfg.nghost = 2;
  cfg.nranks = 2;
  cfg.periodic = periodic;
  amr::AmrHierarchy h(cfg, 1);
  std::vector<mesh::BoxLayout> layouts;
  for (const std::vector<Box>& boxes : fine) layouts.push_back(mesh::balance(boxes, 2));
  h.regrid(layouts);
  double dx = 1.0 / 16.0;
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    amr::AmrLevel& level = h.level(l);
    for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
      for (BoxIterator it(level.data[i].box()); it.ok(); ++it) {
        const double x = ((*it)[0] + 0.5) * dx, y = ((*it)[1] + 0.5) * dx;
        const double z = ((*it)[2] + 0.5) * dx;
        level.data[i](*it) = std::sin(7.0 * x) * std::cos(5.0 * y) + 0.6 * z;
      }
    }
    dx /= static_cast<double>(ratio);
  }
  return h;
}

/// Fine boxes (in level-1 index space for ratio r) that straddle the coarse
/// box edge at 8, touch the domain boundary, and start or end mid-parent.
std::vector<Box> awkward_fine_boxes(int r) {
  return {Box(IntVect{5, 3, 6} * r, IntVect{10, 6, 9} * r + (r - 1)),
          Box(IntVect{0, 12, 0} * r, IntVect{3, 15, 2} * r + (r - 1)),
          Box(IntVect{11, 9, 12} * r + 1, IntVect{15, 11, 15} * r + (r - 1))};
}

TEST(SeedIdentity, MaskedAmrIsosurfaceMatchesPerCellScan) {
  // Two levels at ratio 2 and 4, and three levels at ratio 2 with level 2
  // starting mid-parent and touching the domain edge as well.
  std::vector<amr::AmrHierarchy> cases;
  cases.push_back(placed_hierarchy(2, {awkward_fine_boxes(2)}, true));
  cases.push_back(placed_hierarchy(4, {awkward_fine_boxes(4)}, true));
  cases.push_back(placed_hierarchy(
      2, {awkward_fine_boxes(2), {Box({21, 13, 25}, {30, 20, 33}), Box({0, 56, 0}, {5, 63, 3})}},
      false));
  for (const amr::AmrHierarchy& h : cases) {
    viz::IsosurfaceStats want_stats;
    const viz::TriangleMesh want =
        seed::seed_extract_amr_isosurface(h, 0.2, 0, 1.0 / 16.0, want_stats);
    ASSERT_GT(want_stats.triangles, 0u);
    ASSERT_LT(want_stats.cells_scanned,
              static_cast<std::size_t>(h.total_cells()));  // the mask bites
    GlobalWorkersGuard guard;
    for (std::size_t workers : kSeedWorkerCounts) {
      ThreadPool::set_global_workers(workers);
      viz::IsosurfaceStats stats;
      const viz::TriangleMesh got =
          viz::extract_amr_isosurface(h, 0.2, 0, 1.0 / 16.0, &stats);
      EXPECT_EQ(mesh_bytes(got), mesh_bytes(want)) << workers << " workers";
      EXPECT_EQ(stats.cells_scanned, want_stats.cells_scanned);
      EXPECT_EQ(stats.active_cells, want_stats.active_cells);
      EXPECT_EQ(stats.triangles, want_stats.triangles);
    }
  }
}

TEST(SeedIdentity, CfGhostPlanMatchesPerCellFill) {
  for (const int r : {2, 4}) {
    for (const bool periodic : {false, true}) {
      amr::AmrHierarchy h = placed_hierarchy(r, {awkward_fine_boxes(r)}, periodic);
      // Each coarse fab, ghosts included, holds values of its own, so a fine
      // ghost cell whose parent lies in two fabs' ghosted boxes tells which
      // fab wrote last. Off a non-periodic domain edge no exchange evens
      // them out.
      amr::AmrLevel& coarse = h.level(0);
      for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
        for (BoxIterator it(coarse.data[ci].box()); it.ok(); ++it) {
          coarse.data[ci](*it) = 1000.0 * static_cast<double>(ci + 1) + (*it)[0] +
                                 0.01 * (*it)[1] + 1e-4 * (*it)[2];
        }
      }
      std::size_t contested = 0;
      const amr::AmrLevel& fine = h.level(1);
      for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
        for (BoxIterator it(fine.data[fi].box()); it.ok(); ++it) {
          const IntVect parent = (*it).coarsen(IntVect::uniform(r));
          std::size_t holders = 0;
          for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
            holders += coarse.data[ci].box().contains(parent) ? 1 : 0;
          }
          contested += holders > 1 && !fine.layout.box(fi).contains(*it) ? 1 : 0;
        }
      }
      ASSERT_GT(contested, 0u) << "no fine ghost has two coarse holders";

      amr::AmrHierarchy want = h;
      seed::seed_fill_cf_ghosts(want.level(0), want.level(1), r, 2);
      amr::AmrHierarchy free_fn = h;
      amr::fill_cf_ghosts(free_fn.level(0), free_fn.level(1), r, 2);
      EXPECT_EQ(hierarchy_bytes(free_fn), hierarchy_bytes(want))
          << "ratio " << r << (periodic ? " periodic" : " non-periodic");

      // The hierarchy's cached plans: exchange, then the coarse-fine plan.
      want = h;
      want.level(1).data.exchange(want.level(1).domain, periodic);
      seed::seed_fill_cf_ghosts(want.level(0), want.level(1), r, 2);
      amr::AmrHierarchy cached = h;
      cached.fill_ghosts(1);
      EXPECT_EQ(hierarchy_bytes(cached), hierarchy_bytes(want))
          << "ratio " << r << (periodic ? " periodic" : " non-periodic");
    }
  }
}

TEST(SeedIdentity, SteppingAcrossRegridsMatchesPerCallPlans) {
  amr::TagCriterion crit;
  crit.comp = amr::PolytropicGas::kRho;
  crit.rel_threshold = 0.05;
  auto physics = std::make_shared<amr::PolytropicGas>();
  constexpr int kSteps = 7;
  constexpr int kRegridInterval = 2;

  // The replica: per-call plans, serial, one snapshot per step.
  amr::AmrSimulation start(shock_config(), physics, crit, 0.3, kRegridInterval);
  start.initialize();
  seed::SeedStepper replica(start.hierarchy(), physics, crit, 0.3, kRegridInterval);
  std::vector<std::vector<std::uint8_t>> want;
  std::vector<std::vector<Box>> fine_layouts;
  for (int s = 0; s < kSteps; ++s) {
    replica.advance();
    want.push_back(hierarchy_bytes(replica.hierarchy()));
    fine_layouts.push_back(replica.hierarchy().level(1).layout.boxes());
  }
  // The test needs regrids that actually move the fine level.
  std::size_t layout_changes = 0;
  for (std::size_t s = 1; s < fine_layouts.size(); ++s) {
    layout_changes += fine_layouts[s] != fine_layouts[s - 1] ? 1 : 0;
  }
  ASSERT_GE(layout_changes, 2u);

  GlobalWorkersGuard guard;
  for (std::size_t workers : kSeedWorkerCounts) {
    ThreadPool::set_global_workers(workers);
    amr::AmrSimulation sim(shock_config(), physics, crit, 0.3, kRegridInterval);
    sim.initialize();
    for (int s = 0; s < kSteps; ++s) {
      sim.advance();
      ASSERT_EQ(hierarchy_bytes(sim.hierarchy()), want[static_cast<std::size_t>(s)])
          << "step " << s + 1 << " at " << workers << " workers";
    }
  }
}

TEST(ParallelKernels, EntropyIgnoresNaNCells) {
  Fab field = wavy_field(8);
  field({1, 1, 1}, 0) = std::nan("");
  const double with_nan = analysis::block_entropy(field, field.box());
  EXPECT_TRUE(std::isfinite(with_nan));
  // An all-NaN block histograms nothing and reports zero entropy.
  Fab poisoned(Box::domain({4, 4, 4}), 1);
  for (BoxIterator it(poisoned.box()); it.ok(); ++it) poisoned(*it) = std::nan("");
  EXPECT_EQ(analysis::block_entropy(poisoned, poisoned.box()), 0.0);
}

}  // namespace
}  // namespace xl
