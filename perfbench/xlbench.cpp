// Benchmark harness for the coupled workflow. One process runs one workload
// for a fixed measuring time, repeating the workload's fixed unit of work,
// checks every unit's outputs, and prints the metrics as its last line:
//
//   modeled_sweep   titan_global_experiment at Titan scale 0 in all six
//                   Modes, one CoupledWorkflow::run() each (AnalyticSubstrate).
//   live_insitu     the Polytropic Gas AmrSimulation with an in-situ
//                   extract_amr_isosurface every step, global pool 2 workers.
//   live_intransit  the same simulation, serial; every level's valid boxes
//                   are subset + downsampled and staged into a 2-server
//                   StagingService, one analyze_async per (step, level)
//                   once that version's puts are acknowledged.
//
//   xlbench --workload W --seed N --seconds S --trace 0|1
//           [--pins FILE] [--spans FILE] [--print-pins]
//
// With --trace 0 the end-to-end metrics are printed. With --trace 1 the
// process alternates untraced and traced units: traced units record spans
// around the calls into each module and run probes on the side, and the
// per-layer metrics are computed from those spans. The result line holds the
// metrics that every workload reports; the table above it also lists those
// that only this workload has.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/amr_simulation.hpp"
#include "amr/interp.hpp"
#include "amr/memory_model.hpp"
#include "amr/polytropic_gas.hpp"
#include "amr/synthetic.hpp"
#include "analysis/downsample.hpp"
#include "analysis/statistics.hpp"
#include "common/buffer_pool.hpp"
#include "common/thread_pool.hpp"
#include "runtime/adaptation_engine.hpp"
#include "runtime/monitor.hpp"
#include "staging/service.hpp"
#include "viz/amr_isosurface.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/experiment.hpp"
#include "workflow/step_pipeline.hpp"

using namespace xl;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

constexpr std::uint64_t kDefaultSeed = 1234;  // the Titan experiments' geometry seed
constexpr int kTitanScale = 0;                // 2K simulation cores
constexpr int kLiveSteps = 20;                // steps per live unit
constexpr int kMinUnits = 3;                  // per process, whatever --seconds says
constexpr int kMinSteps = 100;                // step quantiles: p90 has 10 steps beyond it
constexpr int kLiveMaxLevels = 2;
constexpr int kModeledSetupRepeats = 2000;

const workflow::Mode kModes[] = {
    workflow::Mode::StaticInSitu,       workflow::Mode::StaticInTransit,
    workflow::Mode::StaticHybrid,       workflow::Mode::AdaptiveMiddleware,
    workflow::Mode::AdaptiveResource,   workflow::Mode::Global,
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory by traced units, written out at exit.

struct Span {
  const char* name;
  double start;
  double end;
  int parent;  ///< index of the enclosing span, -1 at top level.
  int step;
  int unit;
};

class Tracer {
 public:
  bool on = false;
  int unit = 0;
  std::vector<Span> spans;

  int begin(const char* name, int step) {
    if (!on) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({name, now_s(), 0.0, parent, step, unit});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }

  void end(int index) {
    if (index < 0) return;
    spans[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans)
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write spans to " + path);
    f.precision(9);
    for (const Span& s : spans) {
      f << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start
        << ",\"end_s\":" << s.end << ",\"parent\":" << s.parent
        << ",\"step\":" << s.step << ",\"unit\":" << s.unit << "}\n";
    }
  }

 private:
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int step)
      : tracer_(tracer), index_(tracer.begin(name, step)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Host speed.
//
// On a shared host, other tenants slow every workload by up to 60% at once,
// in phases that last minutes, so no statistic over the units of one run
// removes it. A fixed reference computation timed right after every unit
// slows with it: it sorts and allocates many small vectors and fills a
// std::map, code of the same kind (branchy, allocating, cache-bound) as the
// program's. Its code is the benchmark's own, so a change to the program does
// not move it. Each unit's times are multiplied by kReferenceS over the
// reference's time after that unit, and so read as seconds on a host where the
// reference takes kReferenceS.

constexpr double kReferenceS = 0.040;  // the reference, unloaded 4-vCPU 2.0 GHz Xeon

double host_reference() {
  const double t0 = now_s();
  std::uint64_t x = 12345;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> lists(64);
  std::size_t check = 0;
  for (auto& v : lists) {
    for (std::uint32_t i = 0; i < 4000; ++i) v.emplace_back(static_cast<std::uint32_t>(next()), i);
    std::sort(v.begin(), v.end());
    check += v[v.size() / 2].second;
  }
  std::map<std::uint64_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < 60000; ++i) counts[next() % 100000] += i;
  for (const auto& [k, v] : counts) check += k ^ v;
  volatile std::size_t sink = check;  // keeps the work from being optimised away
  (void)sink;
  return now_s() - t0;
}

// ---------------------------------------------------------------------------
// One unit of a workload's fixed work.

using Outputs = std::map<std::string, double>;  // checked outputs, exact

struct Unit {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;          ///< resident high-water mark of the unit.
  double host_scale = 1.0;           ///< kReferenceS over the reference's time after the unit.
  std::vector<double> step_s;        ///< host time per step (modeled: untraced only).
  std::vector<bool> step_regrid;     ///< live: the step regridded.
  std::vector<double> step_cells;    ///< live: cells after the step.
  Outputs out;                       ///< deterministic outputs.
  // Staging accounting (live_intransit).
  std::size_t puts = 0, analyses = 0, rejected = 0, consumed = 0, unconsumed = 0;
  std::size_t leftover_bytes = 0, in_transit_triangles = 0;
  std::size_t queue_max = 0;
  double busy_s = 0.0;
  std::vector<staging::ServiceEvent> events;  ///< traced: the service tap.
  // Modeled accounting.
  std::size_t transfers = 0, transfer_failures = 0;
  PoolStats pool_delta;
};

PoolStats pool_delta(const PoolStats& a, const PoolStats& b) {
  PoolStats d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.copied_bytes = b.copied_bytes - a.copied_bytes;
  return d;
}

// --- modeled_sweep ----------------------------------------------------------

/// Forwards to AnalyticSubstrate, recording a span around every call that
/// does work (the clock getters are forwarded untimed).
class TracedSubstrate final : public workflow::ExecutionSubstrate {
 public:
  TracedSubstrate(Tracer& tracer, int step) : tracer_(tracer), step_(step) {}
  void set_step(int step) { step_ = step; }

  const char* name() const noexcept override { return inner_.name(); }
  double sim_now() const noexcept override { return inner_.sim_now(); }
  double staging_free_at() const noexcept override { return inner_.staging_free_at(); }
  std::size_t staging_mem_used() const noexcept override {
    return inner_.staging_mem_used();
  }
  void advance_sim(double seconds) override {
    ScopedSpan s(tracer_, kName, step_);
    inner_.advance_sim(seconds);
  }
  void release_completed() override {
    ScopedSpan s(tracer_, kName, step_);
    inner_.release_completed();
  }
  double wait_for_staging_memory(std::size_t bytes, std::size_t capacity) override {
    ScopedSpan s(tracer_, kName, step_);
    return inner_.wait_for_staging_memory(bytes, capacity);
  }
  double enqueue_intransit(double arrive, double analysis_seconds,
                           std::size_t bytes) override {
    ScopedSpan s(tracer_, kName, step_);
    return inner_.enqueue_intransit(arrive, analysis_seconds, bytes);
  }
  workflow::ShedReport shed_staged(double lost_fraction) override {
    ScopedSpan s(tracer_, kName, step_);
    return inner_.shed_staged(lost_fraction);
  }
  double finish() override {
    ScopedSpan s(tracer_, kName, step_);
    return inner_.finish();
  }

  static constexpr const char* kName = "workflow.substrate";

 private:
  workflow::AnalyticSubstrate inner_;
  Tracer& tracer_;
  int step_;
};

/// Times the steps of CoupledWorkflow::run() from outside: the pipeline hands
/// its event batch to the observer once at start-up (RunBegin), once at the
/// end of every step (StepEnd) and once in finish().
class StepClock final : public workflow::WorkflowObserver {
 public:
  explicit StepClock(std::vector<double>& step_s) : step_s_(step_s) {}

  void on_event(const workflow::WorkflowEvent&) override {}
  void on_events(std::span<const workflow::WorkflowEvent> events) override {
    const double t = now_s();
    for (const workflow::WorkflowEvent& e : events) {
      if (e.kind == workflow::EventKind::StepEnd) {
        step_s_.push_back(t - last_);
        break;
      }
    }
    last_ = t;
  }

 private:
  std::vector<double>& step_s_;
  double last_ = now_s();
};

workflow::WorkflowResult traced_run(const workflow::WorkflowConfig& config, Tracer& tr) {
  TracedSubstrate substrate(tr, -1);
  workflow::StepPipeline pipeline(config, substrate, nullptr);
  for (int step = 0; step < config.steps; ++step) {
    substrate.set_step(step);
    ScopedSpan s(tr, "workflow.run_step", step);
    pipeline.run_step(step);
  }
  substrate.set_step(config.steps);
  return pipeline.finish();
}

Unit modeled_unit(std::uint64_t seed, Tracer& tr) {
  Unit u;
  u.traced = tr.on;
  const PoolStats pool0 = BufferPool::global().stats();

  // Building the configs and workflows takes microseconds, too little to
  // time one at a time, so the whole loop is timed and its mean taken; the
  // last set is the one that runs.
  std::vector<workflow::CoupledWorkflow> flows;
  const double t_setup = now_s();
  for (int r = 0; r < kModeledSetupRepeats; ++r) {
    flows.clear();
    for (workflow::Mode mode : kModes) {
      workflow::WorkflowConfig config = workflow::titan_global_experiment(kTitanScale, mode);
      config.geometry.seed = seed;
      flows.emplace_back(config);
    }
  }
  u.setup_s = (now_s() - t_setup) / kModeledSetupRepeats;

  StepClock clock(u.step_s);
  const double t0 = now_s();
  std::vector<workflow::WorkflowResult> results;
  for (workflow::CoupledWorkflow& flow : flows) {
    if (tr.on) {
      results.push_back(traced_run(flow.config(), tr));
    } else {
      flow.set_observer(&clock);
      results.push_back(flow.run());
    }
  }
  u.wall_s = now_s() - t0;
  std::size_t steps = 0;
  for (const workflow::CoupledWorkflow& flow : flows)
    steps += static_cast<std::size_t>(flow.config().steps);
  if (!tr.on && u.step_s.size() != steps)
    throw std::runtime_error("the step clock saw " + std::to_string(u.step_s.size()) +
                             " steps of " + std::to_string(steps));
  u.pool_delta = pool_delta(pool0, BufferPool::global().stats());

  for (std::size_t m = 0; m < results.size(); ++m) {
    const workflow::WorkflowResult& r = results[m];
    const std::string key = workflow::mode_name(kModes[m]);
    std::size_t step_bytes = 0;
    for (const workflow::StepRecord& s : r.steps) {
      step_bytes += s.moved_bytes;
      u.transfers += s.moved_bytes > 0;
    }
    u.transfer_failures += static_cast<std::size_t>(r.transfer_failures);
    u.out[key + ".tts_s"] = r.end_to_end_seconds;
    u.out[key + ".moved_bytes"] = static_cast<double>(r.bytes_moved);
    u.out[key + ".step_moved_bytes"] = static_cast<double>(step_bytes);
    u.out[key + ".insitu_steps"] = r.insitu_count;
    u.out[key + ".intransit_steps"] = r.intransit_count;
    u.out[key + ".skipped_steps"] = r.skipped_count;
  }

  if (tr.on) {
    // Geometry probe, off the timed path: the six runs share one geometry
    // config, so time its per-step generation and memory pricing once.
    const workflow::WorkflowConfig& config = flows.back().config();
    const amr::SyntheticAmrEvolution evolution(config.geometry);
    double boxes = 0.0, cells = 0.0;
    for (int step = 0; step < config.steps; ++step) {
      amr::SyntheticStep geom;
      {
        ScopedSpan s(tr, "amr.geometry_at", step);
        geom = evolution.at(step);
      }
      {
        ScopedSpan s(tr, "amr.per_rank_peak_bytes", step);
        const auto peaks = amr::per_rank_peak_bytes(geom.levels, config.memory_model);
        if (peaks.empty()) throw std::runtime_error("per_rank_peak_bytes returned no ranks");
      }
      for (const mesh::BoxLayout& level : geom.levels)
        boxes += static_cast<double>(level.num_boxes());
      cells += static_cast<double>(geom.total_cells);
    }
    u.out["probe.boxes"] = boxes;
    u.out["probe.cells"] = cells;
  }
  return u;
}

// --- live_insitu / live_intransit ---------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The blast centre for `seed`: each coordinate moves from 0.5 by one of
/// {-3, ..., +3} x 1e-4 of the domain, 1% of a base cell at most. That
/// changes the initial field, and so every output count, but keeps the box
/// layout: offsets of a few hundredths re-shape the refined boxes and move
/// the step times and the peak RSS by up to 25% from one seed to the next.
amr::PolytropicGasConfig gas_config(std::uint64_t seed) {
  amr::PolytropicGasConfig gas;
  std::uint64_t h = splitmix64(seed);
  for (double& c : gas.center) {
    c = 0.5 + 1e-4 * (static_cast<double>(h % 7) - 3.0);
    h /= 7;
  }
  return gas;
}

/// Mesh probes on a deep copy of the hierarchy: ghost exchange and
/// coarse-fine ghost filling must not touch the live data, because the
/// isosurface reads ghost cells.
void mesh_probes(const amr::AmrHierarchy& live, int step, Tracer& tr, double& copy_ops) {
  amr::AmrHierarchy copy = live;
  const amr::AmrConfig& cfg = copy.config();
  for (std::size_t lev = 0; lev < copy.num_levels(); ++lev) {
    amr::AmrLevel& level = copy.level(lev);
    mesh::Copier copier;
    {
      ScopedSpan s(tr, "mesh.copier_build", step);
      copier = mesh::Copier(level.layout, cfg.nghost, level.domain, cfg.periodic);
    }
    copy_ops += static_cast<double>(copier.ops().size());
    {
      ScopedSpan s(tr, "mesh.exchange", step);
      level.data.exchange(copier);
    }
    if (lev > 0) {
      ScopedSpan s(tr, "mesh.fill_cf_ghosts", step);
      amr::fill_cf_ghosts(copy.level(lev - 1), level, cfg.ref_ratio, cfg.nghost);
    }
  }
}

Unit live_unit(bool insitu, std::uint64_t seed, Tracer& tr) {
  Unit u;
  u.traced = tr.on;
  const PoolStats pool0 = BufferPool::global().stats();

  // --- Set-up: pool sizing, initial hierarchy, staging start-up. ---
  const double t_setup = now_s();
  ThreadPool::set_global_workers(insitu ? 2 : 0);
  amr::AmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({32, 32, 32});
  cfg.max_levels = kLiveMaxLevels;
  cfg.max_box_size = 16;
  cfg.nghost = 2;
  cfg.nranks = 4;
  auto physics = std::make_shared<amr::PolytropicGas>(gas_config(seed));
  amr::TagCriterion criterion;
  criterion.comp = amr::PolytropicGas::kRho;
  criterion.rel_threshold = 0.05;
  amr::AmrSimulation sim(cfg, physics, criterion, 0.3, 4);
  sim.initialize();

  staging::ServiceEventLog log;  // outlives the service, whose workers call it
  std::unique_ptr<staging::StagingService> service;
  staging::ServiceConfig service_cfg;
  service_cfg.num_servers = 2;
  service_cfg.memory_per_server = std::size_t{8} << 20;
  if (tr.on) service_cfg.observer = log.observer();
  if (!insitu) service = std::make_unique<staging::StagingService>(service_cfg);
  u.setup_s = now_s() - t_setup;

  // Fixed placement: the application layer picks the factor from memory
  // headroom; the middleware and resource layers are off.
  runtime::Monitor monitor;
  runtime::EngineConfig engine_cfg;
  engine_cfg.hints.factor_phases = {{0, {1, 2, 4}}};
  engine_cfg.enable_middleware = false;
  engine_cfg.enable_resource = false;
  runtime::EngineHooks hooks;
  hooks.analysis_seconds = [&](runtime::Placement p, std::size_t cells, int cores) {
    return monitor.estimate_analysis_seconds(p, cells, cores);
  };
  hooks.send_seconds = [](std::size_t bytes) { return bytes / 8.0e9; };
  hooks.recv_seconds = [](std::size_t bytes, int) { return bytes / 8.0e9; };
  hooks.next_sim_seconds = [&](std::size_t cells) { return monitor.estimate_sim_seconds(cells); };
  hooks.insitu_analysis_mem = [](std::size_t bytes) { return bytes; };
  const runtime::AdaptationEngine engine(engine_cfg, hooks);
  const std::size_t sim_mem_capacity = std::size_t{24} << 20;

  std::vector<std::future<staging::PutAck>> acks;
  std::vector<std::future<staging::AnalysisResult>> results;
  struct PendingAnalysis {
    int version;
    mesh::Box region;
    double isovalue;
    std::size_t acks_end;  ///< the version's puts are acks[0, acks_end).
  };
  std::vector<PendingAnalysis> pending;
  std::size_t acked = 0;
  auto issue_analyses = [&] {
    for (const PendingAnalysis& p : pending) {
      for (; acked < p.acks_end; ++acked) acks[acked].wait();
      results.push_back(
          service->analyze_async(p.version, p.region, p.isovalue, amr::PolytropicGas::kRho));
    }
    pending.clear();
  };
  double triangles = 0.0, cells_scanned = 0.0, factor_sum = 0.0, cells_sum = 0.0;
  double boxes_sum = 0.0, reduced_bytes = 0.0, copy_ops = 0.0, probe_s = 0.0;

  const double t_run = now_s();
  for (int step = 0; step < kLiveSteps; ++step) {
    const double t_step = now_s();
    amr::StepStats stats;
    {
      ScopedSpan s(tr, "amr.advance", step);
      stats = sim.advance();
    }
    const auto cells = static_cast<std::size_t>(stats.total_cells);
    monitor.record_sim_step(step, now_s() - t_step, cells);

    runtime::OperationalState state;
    state.step = step;
    state.sim_cells = cells;
    state.raw_cells = cells;
    state.raw_bytes = stats.bytes;
    state.ncomp = amr::PolytropicGas::kNcomp;
    state.sim_cores = cfg.nranks;
    state.insitu_mem_available =
        stats.bytes < sim_mem_capacity ? sim_mem_capacity - stats.bytes : 0;
    state.intransit_cores = service_cfg.num_servers;
    state.intransit_mem_free = service ? service->free_bytes() : 0;
    state.intransit_mem_per_core = service_cfg.memory_per_server;
    state.last_sim_step_seconds = stats.wall_seconds;
    runtime::EngineDecisions dec;
    {
      ScopedSpan s(tr, "runtime.adapt", step);
      dec = engine.adapt(state);
    }
    const int factor = dec.app ? dec.app->factor : 1;

    const auto [lo, hi] = sim.hierarchy().level(0).data.min_max(amr::PolytropicGas::kRho);
    const double isovalue = 0.5 * (lo + hi);
    if (insitu) {
      viz::IsosurfaceStats istats;
      {
        ScopedSpan s(tr, "viz.extract_amr_isosurface", step);
        viz::extract_amr_isosurface(sim.hierarchy(), isovalue, amr::PolytropicGas::kRho,
                                    1.0 / 32.0, &istats);
      }
      triangles += static_cast<double>(istats.triangles);
      cells_scanned += static_cast<double>(istats.cells_scanned);
    } else {
      // The service does not order an analyze_async after earlier put_async
      // calls of its version, so the analyses of the previous step are issued
      // only now, once its puts are acknowledged (they were, while this step
      // advanced). A put rejected or left unconsumed still shows up below.
      issue_analyses();
      for (std::size_t lev = 0; lev < sim.hierarchy().num_levels(); ++lev) {
        const amr::AmrLevel& level = sim.hierarchy().level(lev);
        const int version = step * kLiveMaxLevels + static_cast<int>(lev);
        for (std::size_t i = 0; i < level.layout.num_boxes(); ++i) {
          mesh::Fab reduced;
          {
            ScopedSpan s(tr, "analysis.reduce", step);
            reduced = analysis::downsample(
                analysis::subset(level.data[i], level.layout.box(i)), factor);
          }
          reduced_bytes += static_cast<double>(reduced.bytes());
          const mesh::Box box = reduced.box();
          ScopedSpan s(tr, "staging.put_async", step);
          acks.push_back(service->put_async(version, box, std::move(reduced)));
        }
        pending.push_back({version, level.domain.coarsen(factor).grow(2), isovalue, acks.size()});
      }
      if (tr.on) u.queue_max = std::max(u.queue_max, service->pending_requests());
    }
    u.step_s.push_back(now_s() - t_step);
    u.step_regrid.push_back(stats.regridded);
    u.step_cells.push_back(static_cast<double>(cells));
    factor_sum += factor;
    cells_sum += static_cast<double>(cells);
    for (std::size_t lev = 0; lev < sim.hierarchy().num_levels(); ++lev)
      boxes_sum += static_cast<double>(sim.hierarchy().level(lev).layout.num_boxes());

    if (tr.on) {
      const double t_probe = now_s();
      mesh_probes(sim.hierarchy(), step, tr, copy_ops);
      probe_s += now_s() - t_probe;
    }
  }
  if (service) {
    issue_analyses();
    {
      ScopedSpan s(tr, "staging.drain", kLiveSteps);
      service->drain();
    }
    std::size_t consumed = 0;
    for (auto& f : results) {
      const staging::AnalysisResult r = f.get();
      consumed += r.objects;
      u.in_transit_triangles += r.triangles;
    }
    u.wall_s = now_s() - t_run - probe_s;
    for (auto& f : acks) {
      const staging::PutAck ack = f.get();
      u.rejected += !ack.accepted;
    }
    u.puts = acks.size();
    u.analyses = results.size();
    u.consumed = consumed;
    const std::size_t accepted = u.puts - u.rejected;
    u.unconsumed = accepted > consumed ? accepted - consumed : 0;
    u.leftover_bytes = service->used_bytes();
    u.busy_s = service->busy_seconds();
    service.reset();  // joins the service threads
    u.events = log.snapshot();
    u.out["puts"] = static_cast<double>(u.puts);
    u.out["analyses"] = static_cast<double>(u.analyses);
    u.out["reduced_bytes"] = reduced_bytes;
    u.out["in_transit_triangles"] = static_cast<double>(u.in_transit_triangles);
  } else {
    u.wall_s = now_s() - t_run - probe_s;
    u.out["triangles"] = triangles;
    u.out["cells_scanned"] = cells_scanned;
  }
  u.out["cells_sum"] = cells_sum;
  u.out["boxes_sum"] = boxes_sum;
  u.out["factor_sum"] = factor_sum;
  if (tr.on) u.out["probe.copy_ops"] = copy_ops;
  u.pool_delta = pool_delta(pool0, BufferPool::global().stats());
  return u;
}

// ---------------------------------------------------------------------------
// Output checks.

struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Pinned outputs: lines "workload seed key value"; '#' starts a comment.
Outputs load_pins(const std::string& path, const std::string& workload, std::uint64_t seed) {
  Outputs pins;
  if (path.empty()) return pins;
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read pins file " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string w, key, value;
    std::uint64_t s = 0;
    if (!(is >> w >> s >> key >> value)) throw std::runtime_error("bad pins line: " + line);
    if (w == workload && s == seed) pins[key] = std::strtod(value.c_str(), nullptr);
  }
  return pins;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every unit repeats the first unit's outputs (probe outputs only among
/// traced units), and the first matches the pins for this seed.
void check_outputs(const std::vector<Unit>& units, const Outputs& pins, Checks& checks) {
  const Unit& ref = units.front();
  const Unit* traced_ref = nullptr;
  for (const Unit& u : units) {
    if (u.traced && traced_ref == nullptr) traced_ref = &u;
    for (const auto& [key, value] : ref.out) {
      const auto it = u.out.find(key);
      checks.require(it != u.out.end() && it->second == value,
                     "unit output " + key + " differs between units");
    }
    if (u.traced && traced_ref != nullptr) {
      for (const auto& [key, value] : traced_ref->out) {
        const auto it = u.out.find(key);
        checks.require(it != u.out.end() && it->second == value,
                       "traced output " + key + " differs between traced units");
      }
    }
  }
  for (const auto& [key, value] : pins) {
    const auto it = ref.out.find(key);
    checks.require(it != ref.out.end() && it->second == value,
                   "output " + key + " = " + (it == ref.out.end() ? "missing" : fmt(it->second)) +
                       ", pinned " + fmt(value));
  }
}

/// The staged path: bytes left staged after drain() go with unconsumed objects.
void check_staging(const std::vector<Unit>& units, Checks& checks) {
  for (const Unit& u : units) {
    checks.require(u.consumed <= u.puts - u.rejected,
                   "analyses consumed more objects than were staged");
    checks.require((u.unconsumed == 0) == (u.leftover_bytes == 0),
                   "staged bytes left after drain() do not match unconsumed objects");
  }
}

/// p50 and p90 of the step times should each sit inside one population
/// (plain or regrid steps), not on the edge where the order of the two
/// populations decides the value: at least 80% of the steps ranked within 5%
/// of the sample count on either side should be of one kind.
/// Host noise can break this without any output being wrong, so it warns
/// instead of failing the run.
void warn_population_edges(const std::vector<double>& step_s, const std::vector<bool>& regrid) {
  const std::size_t n = step_s.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return step_s[a] < step_s[b];
  });
  const std::size_t w = std::max<std::size_t>(2, n / 20);
  for (double q : {0.5, 0.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) - 1;
    std::size_t same = 0, total = 0;
    for (std::size_t r = rank >= w ? rank - w : 0; r <= std::min(n - 1, rank + w); ++r) {
      same += regrid[order[r]];
      ++total;
    }
    same = std::max(same, total - same);
    if (static_cast<double>(same) < 0.8 * static_cast<double>(total))
      std::fprintf(stderr,
                   "warning: p%d of the step times lies on the edge between plain and regrid "
                   "steps (%zu of %zu neighbours are of one kind)\n",
                   static_cast<int>(q * 100), same, total);
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// The result line holds the metrics every workload reports, as
/// BENCHMARK.json lists them. Metrics that only one workload has are printed
/// in the table above it.
struct Report {
  std::vector<Metric> common;
  std::vector<Metric> workload_only;
};

/// Reset the resident high-water mark to the current RSS (Linux: writing 5
/// to clear_refs). Where that is refused the mark spans the whole process.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<double> field(const std::vector<Unit>& units, bool traced,
                          const std::function<double(const Unit&)>& f) {
  std::vector<double> v;
  for (const Unit& u : units)
    if (u.traced == traced) v.push_back(f(u));
  return v;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Step times (ms) of the untraced units, each scaled by its unit's host_scale.
std::vector<double> scaled_steps_ms(const std::vector<Unit>& units) {
  std::vector<double> out;
  for (const Unit& u : units)
    if (!u.traced)
      for (double s : u.step_s) out.push_back(1e3 * s * u.host_scale);
  return out;
}

// Times are medians over the untraced units, or quantiles over all their
// steps, after scaling by each unit's host_scale (see host_reference).
Report end_to_end(const std::string& workload, const std::vector<Unit>& units) {
  Report r;
  std::vector<Metric>& m = r.common;
  const auto walls = field(units, false, [](const Unit& u) { return u.wall_s * u.host_scale; });
  const auto setups = field(units, false, [](const Unit& u) { return u.setup_s * u.host_scale; });
  const auto steps_ms = scaled_steps_ms(units);
  m.push_back({"wall_s", median(walls), "s", walls.size()});
  m.push_back({"step_p50_ms", quantile(steps_ms, 0.5), "ms", steps_ms.size()});
  m.push_back({"step_p90_ms", quantile(steps_ms, 0.9), "ms", steps_ms.size()});
  m.push_back({"setup_s", median(setups), "s", setups.size()});
  const auto rss = field(units, false, [](const Unit& u) { return u.peak_rss_mb; });
  m.push_back({"peak_rss_MB", median(rss), "MB", rss.size()});
  const auto raw_walls = field(units, false, [](const Unit& u) { return u.wall_s; });
  const auto refs =
      field(units, false, [](const Unit& u) { return 1e3 * kReferenceS / u.host_scale; });
  r.workload_only.push_back({"wall_s.unscaled", median(raw_walls), "s", raw_walls.size()});
  r.workload_only.push_back({"host.reference_ms", median(refs), "ms", refs.size()});
  if (workload == "modeled_sweep") {
    const std::string g = workflow::mode_name(workflow::Mode::Global);
    r.workload_only.push_back({"virtual_tts_s", units.front().out.at(g + ".tts_s"), "s", 1});
    r.workload_only.push_back(
        {"moved_GB", units.front().out.at(g + ".moved_bytes") / 1e9, "GB", 1});
  }
  return r;
}

// The amr metrics time the module's one call per step on every workload:
// SyntheticAmrEvolution::at on modeled_sweep, AmrSimulation::advance on the
// live ones. The rest are workload-only.
Report per_layer(const std::string& workload, const std::vector<Unit>& units,
                 const Tracer& tr) {
  Report r;
  std::vector<Metric>& m = r.workload_only;
  auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  const auto traced_walls = field(units, true, [](const Unit& u) { return u.wall_s; });
  const auto plain_walls = field(units, false, [](const Unit& u) { return u.wall_s; });
  const Unit* traced = nullptr;
  std::size_t traced_units = 0;
  for (const Unit& u : units) {
    if (u.traced && traced == nullptr) traced = &u;
    traced_units += u.traced;
  }

  std::vector<double> amr_ms;  // one sample per call
  double amr_cells = 0.0;      // cells produced by those calls
  if (workload == "modeled_sweep") {
    amr_ms = ms(tr.durations("amr.geometry_at"));
    amr_cells = traced->out.at("probe.cells") * static_cast<double>(traced_units);
  } else {
    amr_ms = ms(tr.durations("amr.advance"));
    for (const Unit& u : units)
      if (u.traced) amr_cells += sum(u.step_cells);
  }
  r.common.push_back({"amr.step_ms_p50", quantile(amr_ms, 0.5), "ms", amr_ms.size()});
  r.common.push_back({"amr.step_ms_p90", quantile(amr_ms, 0.9), "ms", amr_ms.size()});
  r.common.push_back({"amr.cells_per_s", amr_cells / (1e-3 * sum(amr_ms)), "1/s", amr_ms.size()});
  r.common.push_back({"amr.boxes",
                      traced->out.at(workload == "modeled_sweep" ? "probe.boxes" : "boxes_sum"),
                      "count", 1});
  r.common.push_back({"trace.overhead_share", min_of(traced_walls) / min_of(plain_walls) - 1.0,
                      "ratio", traced_walls.size()});

  if (workload == "modeled_sweep") {
    const auto at = ms(tr.durations("amr.geometry_at"));
    const auto step = ms(tr.durations("workflow.run_step"));
    const auto peaks = ms(tr.durations("amr.per_rank_peak_bytes"));
    const auto substrate = tr.durations(TracedSubstrate::kName);
    m.push_back({"amr.geometry_ms", mean(at), "ms", at.size()});
    m.push_back({"amr.geometry_share", mean(at) / mean(step), "ratio", at.size()});
    m.push_back({"amr.peak_bytes_ms", mean(peaks), "ms", peaks.size()});
    m.push_back({"workflow.run_step_ms_p50", quantile(step, 0.5), "ms", step.size()});
    m.push_back({"workflow.run_step_ms_p90", quantile(step, 0.9), "ms", step.size()});
    m.push_back({"workflow.substrate_us",
                 1e6 * sum(substrate) / static_cast<double>(step.size()), "us", step.size()});
    for (workflow::Mode mode : kModes) {
      const std::string key = workflow::mode_name(mode);
      m.push_back({"runtime.virtual_tts_s." + key, traced->out.at(key + ".tts_s"), "s", 1});
      m.push_back({"runtime.moved_GB." + key, traced->out.at(key + ".moved_bytes") / 1e9,
                   "GB", 1});
      m.push_back({"runtime.intransit_steps." + key,
                   traced->out.at(key + ".intransit_steps"), "count", 1});
    }
  } else {
    const auto& adv = amr_ms;
    const auto adapt = tr.durations("runtime.adapt");
    std::vector<double> regrid_ms, plain_ms;
    std::size_t k = 0;
    for (const Unit& u : units) {
      if (!u.traced) continue;
      for (std::size_t i = 0; i < u.step_regrid.size(); ++i, ++k)
        (u.step_regrid[i] ? regrid_ms : plain_ms).push_back(adv[k]);
    }
    m.push_back({"amr.regrid_step_ms", mean(regrid_ms), "ms", regrid_ms.size()});
    m.push_back({"amr.plain_step_ms", mean(plain_ms), "ms", plain_ms.size()});
    m.push_back({"amr.advance_share", 1e-3 * sum(adv) / sum(traced_walls), "ratio",
                 traced_walls.size()});
    m.push_back({"runtime.adapt_us", 1e6 * mean(adapt), "us", adapt.size()});

    const auto copier = ms(tr.durations("mesh.copier_build"));
    const auto exchange = ms(tr.durations("mesh.exchange"));
    const auto cf = ms(tr.durations("mesh.fill_cf_ghosts"));
    m.push_back({"mesh.copier_build_ms", mean(copier), "ms", copier.size()});
    m.push_back({"mesh.exchange_ms", mean(exchange), "ms", exchange.size()});
    m.push_back({"mesh.fill_cf_ghosts_ms", mean(cf), "ms", cf.size()});
    m.push_back({"mesh.copy_ops", traced->out.at("probe.copy_ops"), "count", 1});

    if (workload == "live_insitu") {
      const auto iso = ms(tr.durations("viz.extract_amr_isosurface"));
      m.push_back({"viz.isosurface_ms_p50", quantile(iso, 0.5), "ms", iso.size()});
      m.push_back({"viz.cells_scanned", traced->out.at("cells_scanned"), "count", 1});
      m.push_back({"viz.triangles", traced->out.at("triangles"), "count", 1});
    } else {
      const auto reduce = tr.durations("analysis.reduce");
      const auto put_call = tr.durations("staging.put_async");
      const auto drain = ms(tr.durations("staging.drain"));
      std::vector<double> put_ms, analysis_ms;
      double busy_share = 0.0;
      std::size_t queue_max = 0;
      for (const Unit& u : units) {
        if (!u.traced) continue;
        for (const staging::ServiceEvent& e : u.events) {
          if (e.kind == staging::ServiceEvent::Kind::Put) put_ms.push_back(1e3 * e.seconds);
          if (e.kind == staging::ServiceEvent::Kind::Analysis)
            analysis_ms.push_back(1e3 * e.seconds);
        }
        busy_share += u.busy_s / (2.0 * u.wall_s);
        queue_max = std::max(queue_max, u.queue_max);
      }
      const auto steps = static_cast<double>(kLiveSteps * traced_units);
      m.push_back({"analysis.reduce_ms", 1e3 * sum(reduce) / steps, "ms", reduce.size()});
      m.push_back({"analysis.reduced_MB", traced->out.at("reduced_bytes") / 1e6, "MB", 1});
      m.push_back({"staging.put_call_us", 1e6 * mean(put_call), "us", put_call.size()});
      m.push_back({"staging.put_ms_p50", quantile(put_ms, 0.5), "ms", put_ms.size()});
      m.push_back({"staging.analysis_ms_p50", quantile(analysis_ms, 0.5), "ms",
                   analysis_ms.size()});
      m.push_back({"staging.analysis_ms_p90", quantile(analysis_ms, 0.9), "ms",
                   analysis_ms.size()});
      m.push_back({"staging.busy_share", busy_share / static_cast<double>(traced_units),
                   "ratio", traced_units});
      m.push_back({"staging.queue_max", static_cast<double>(queue_max), "count", traced_units});
      m.push_back({"staging.drain_ms", mean(drain), "ms", drain.size()});
      double rejected = 0, unconsumed = 0, leftover = 0;
      for (const Unit& u : units) {
        rejected += static_cast<double>(u.rejected);
        unconsumed += static_cast<double>(u.unconsumed);
        leftover += static_cast<double>(u.leftover_bytes);
      }
      m.push_back({"staging.rejected_puts", rejected, "count", units.size()});
      m.push_back({"staging.unconsumed_objects", unconsumed, "count", units.size()});
      m.push_back({"staging.leftover_bytes", leftover, "bytes", units.size()});
    }
  }

  // Pool counters over the untraced units (the probes copy data).
  const auto hits = field(units, false, [](const Unit& u) { return double(u.pool_delta.hits); });
  const auto misses =
      field(units, false, [](const Unit& u) { return double(u.pool_delta.misses); });
  const auto copied =
      field(units, false, [](const Unit& u) { return double(u.pool_delta.copied_bytes); });
  const double acquires = sum(hits) + sum(misses);
  m.push_back({"common.pool_hit_ratio", acquires > 0 ? sum(hits) / acquires : 0.0, "ratio",
               hits.size()});
  m.push_back({"common.heap_acquires", median(misses), "count", misses.size()});
  m.push_back({"common.copied_MB", median(copied) / 1e6, "MB", copied.size()});
  return r;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Report& report) {
  for (const Metric& m : report.common)
    std::printf("%-44s %18.10g %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  if (!report.workload_only.empty()) std::printf("this workload only:\n");
  for (const Metric& m : report.workload_only)
    std::printf("%-44s %18.10g %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  const std::vector<Metric>& metrics = report.common;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string pins;
  std::string spans;
  bool print_pins = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--pins") a.pins = value();
    else if (k == "--spans") a.spans = value();
    else if (k == "--print-pins") a.print_pins = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "modeled_sweep" && a.workload != "live_insitu" &&
      a.workload != "live_intransit")
    throw std::invalid_argument("--workload must be modeled_sweep, live_insitu or live_intransit");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& a) {
  Tracer tr;
  std::vector<Unit> units;
  // Untraced units only, or untraced and traced units alternating. A new unit
  // starts only while it is expected to end within --seconds.
  // Live units have kLiveSteps steps each; enough of them for kMinSteps.
  const int live_units = std::max(kMinUnits, (kMinSteps + kLiveSteps - 1) / kLiveSteps);
  const auto base_units =
      static_cast<std::size_t>(a.workload == "modeled_sweep" ? kMinUnits : live_units);
  const std::size_t min_units = a.trace ? 2 * base_units : base_units;
  host_reference();  // warm-up: its first run pays for first-touch page faults
  const double deadline = now_s() + a.seconds;
  double last = 0.0;
  while (units.size() < min_units || now_s() + last < deadline) {
    const double t0 = now_s();
    tr.on = a.trace && units.size() % 2 == 1;
    tr.unit = static_cast<int>(units.size());
    reset_peak_rss();
    if (a.workload == "modeled_sweep") units.push_back(modeled_unit(a.seed, tr));
    else units.push_back(live_unit(a.workload == "live_insitu", a.seed, tr));
    units.back().peak_rss_mb = peak_rss_mb();
    units.back().host_scale = kReferenceS / host_reference();
    malloc_trim(0);  // hand the reference's freed heap back, out of the next unit's peak RSS
    last = now_s() - t0;
  }
  tr.on = false;

  Checks checks;
  const Outputs pins = load_pins(a.pins, a.workload, a.seed);
  check_outputs(units, pins, checks);
  std::size_t attempted = 0, failed = 0;
  if (a.workload == "modeled_sweep") {
    for (const Unit& u : units) {
      for (workflow::Mode mode : kModes) {
        const std::string key = workflow::mode_name(mode);
        checks.require(u.out.at(key + ".moved_bytes") == u.out.at(key + ".step_moved_bytes"),
                       key + ": bytes moved differ from the sum over its steps");
      }
      attempted += u.transfers;
      failed += u.transfer_failures;
    }
  } else {
    const std::vector<double> steps = scaled_steps_ms(units);
    std::vector<bool> regrid;
    for (const Unit& u : units)
      if (!u.traced) regrid.insert(regrid.end(), u.step_regrid.begin(), u.step_regrid.end());
    for (const Unit& u : units) {
      if (a.workload == "live_insitu") {
        attempted += u.step_s.size();
      } else {
        attempted += u.puts + u.analyses;
        failed += u.rejected + u.unconsumed;
      }
    }
    warn_population_edges(steps, regrid);
    if (a.workload == "live_intransit") check_staging(units, checks);
  }
  failed += checks.failures.size();
  for (const std::string& f : checks.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  if (a.print_pins) {
    for (const auto& [key, value] : units.front().out)
      if (key.rfind("probe.", 0) != 0)
        std::printf("%s %llu %s %s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), key.c_str(), fmt(value).c_str());
  }
  if (a.trace && !a.spans.empty()) tr.write(a.spans);

  std::printf("workload %s seed %llu: %zu units (%zu traced), %zu/%zu operations failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), units.size(),
              field(units, true, [](const Unit&) { return 0.0; }).size(), failed, attempted);
  const bool correct = checks.failures.empty();
  print_result(correct, std::max<std::size_t>(attempted, 1), failed,
               a.trace ? per_layer(a.workload, units, tr) : end_to_end(a.workload, units));
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlbench: %s\n", e.what());
    return 2;
  }
}
