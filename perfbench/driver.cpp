// greenvis benchmark driver.
//
// Runs one named workload as a closed loop with a single client: the next op
// starts when the previous one has finished, from this one process, with the
// library's thread pools at their default size. Every op's modeled output
// (virtual seconds, joules, peak watts, frame and delivery digests) is
// checked against a reference; a mismatch counts the op as failed.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--reference-dir DIR] [--spans-out FILE] [--commit ID]
//   perfbench_driver --workload NAME --seed N --dump-outputs [--traced]
//                    [--threads N] [--fleet VIEWERSxVIEWS]
//
// Untraced ops call the public entry points users run (core::Experiment::run,
// serve::run_serve_with_baseline) and give the end-to-end metrics. The traced
// run (--trace 1) performs each op itself through the layers' public
// functions, in the order core/pipeline.cpp and core/experiment.cpp use
// them, and times every call from outside with a steady clock and a
// getrusage delta. Its modeled outputs must equal the untraced ones bit for
// bit, or the run is void.
//
// The last line of standard output is the result object (correct,
// attempted, failed, metrics); the line before it is the full record
// (fingerprint, seed, sample counts, tail percentile). See
// perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/core/experiment.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/io/dataset.hpp"
#include "src/obs/energy.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/tracer.hpp"
#include "src/sched/staging.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/arena.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd/simd.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/contour.hpp"
#include "src/vis/pipeline.hpp"
#include "src/vis/rasterizer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace greenvis;
using Clock = std::chrono::steady_clock;

/// Warm-up ops per run; setup_s is the median of their set-up times.
constexpr int kSetupReps = 3;
/// Samples a tail percentile must leave above it.
constexpr std::size_t kTailBeyond = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (all threads).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Share of the machine's CPU time stolen by the hypervisor since boot, as
/// {steal, total} jiffies from /proc/stat (zeros where unavailable).
std::pair<double, double> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) {
    in >> x;
  }
  double total = 0.0;
  for (double x : v) {
    total += x;
  }
  return {v[7], total};
}

/// Resident memory of one op at its peak. Before the op, free heap pages go
/// back to the system and the kernel's high-water mark is reset to the
/// current RSS; after it, the mark is read. Without the trim, how much freed
/// memory earlier ops leave resident depends on which malloc arena each pool
/// thread drew, and peak RSS swings 2x between identical runs. Trimmed, each
/// op starts like a fresh `greenvis` process does.
class OpPeakRss {
 public:
  void before_op() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    reset_ = clear.good();
  }

  /// VmHWM in MB; the process's lifetime peak where the reset is
  /// unavailable.
  [[nodiscard]] double after_op_mb() const {
    if (reset_) {
      std::ifstream status("/proc/self/status");
      std::string key;
      while (status >> key) {
        if (key == "VmHWM:") {
          double kb = 0.0;
          status >> kb;
          return kb / 1024.0;
        }
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  }

 private:
  bool reset_{false};
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Workloads and seeded inputs
// ---------------------------------------------------------------------------

enum class Workload { kPaperCases, kInsituSolver, kSnapshotIo, kServeFleet };

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper_cases") return Workload::kPaperCases;
  if (name == "insitu_solver") return Workload::kInsituSolver;
  if (name == "snapshot_io") return Workload::kSnapshotIo;
  if (name == "serve_fleet") return Workload::kServeFleet;
  return std::nullopt;
}

/// One core::Experiment::run call of an op.
struct PipelineRun {
  std::string label;
  core::PipelineKind kind;
  core::CaseStudyConfig config;
};

/// Everything one op needs. The program receives only these configs.
struct OpSpec {
  std::vector<PipelineRun> runs;
  std::optional<serve::ServeConfig> serve;
};

/// Heat sources for a grid `scale` times the paper's 128^2. Seed 0 is
/// core::case_study's hot-spot pair (scaled). Other seeds draw 2-3 sources
/// with random positions, radii and temperatures; the radii are then scaled
/// so the sources cover the default pair's total area. The hot area sets
/// the contour and codec work, so seeds change the picture, not the amount
/// of work an op does.
std::vector<heat::HeatSource> seeded_sources(std::uint64_t seed, double scale) {
  std::vector<heat::HeatSource> sources = core::case_study(1).problem.sources;
  if (seed != 0) {
    double default_area = 0.0;
    for (const heat::HeatSource& s : sources) {
      default_area += s.radius * s.radius;
    }
    util::Xoshiro256 rng(seed);
    sources.assign(2 + rng.uniform_index(2), heat::HeatSource{});
    double area = 0.0;
    for (heat::HeatSource& s : sources) {
      s.cx = rng.uniform(0.15, 0.85) * 128.0;
      s.cy = rng.uniform(0.15, 0.85) * 128.0;
      s.radius = rng.uniform(4.0, 10.0);
      s.temperature = rng.uniform(60.0, 100.0);
      area += s.radius * s.radius;
    }
    for (heat::HeatSource& s : sources) {
      s.radius *= std::sqrt(default_area / area);
    }
  }
  for (heat::HeatSource& s : sources) {
    s.cx *= scale;
    s.cy *= scale;
    s.radius *= scale;
  }
  return sources;
}

/// Fisher-Yates shuffle driven by the benchmark's own generator.
template <typename T>
void shuffle(std::vector<T>& v, util::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
  }
}

core::CaseStudyConfig seeded_case(int n, std::uint64_t seed, std::size_t grid) {
  core::CaseStudyConfig c = core::case_study(n);
  c.problem.nx = grid;
  c.problem.ny = grid;
  c.problem.sources = seeded_sources(seed, static_cast<double>(grid) / 128.0);
  return c;
}

/// Viewer fleet and steer schedule. Seed 0 is serve::default_fleet plus the
/// `greenvis serve` CLI's mid-run steer of viewer 0. Other seeds shuffle the
/// default fleet's iso counts, palettes and ROI origins across the view
/// groups (jittering each origin), and draw the steered viewer, region and
/// palette and a step near the middle of the run. Shuffling keeps the
/// fleet's total render and contour work that of the default fleet.
serve::ServeConfig seeded_fleet(std::uint64_t seed, int viewers, int views) {
  serve::ServeConfig config;
  config.base = seeded_case(1, seed, 128);
  config.viewers = serve::default_fleet(viewers, views);
  serve::SteerCommand steer;
  steer.step = config.base.iterations / 2;
  steer.viewer = 0;
  steer.kind = serve::SteerKind::kRegion;
  steer.x0 = 0.25;
  steer.y0 = 0.25;
  steer.x1 = 0.75;
  steer.y1 = 0.75;
  vis::Palette steer_palette = vis::Palette::kGrayscale;
  if (seed != 0) {
    util::Xoshiro256 rng(seed ^ 0x5e57e5e57e5eULL);
    const auto group_params = [&] {
      std::vector<serve::ViewParams> p;
      for (int g = 0; g < views; ++g) {
        p.push_back(config.viewers[static_cast<std::size_t>(g)].params);
      }
      return p;
    };
    std::vector<serve::ViewParams> iso = group_params();
    std::vector<serve::ViewParams> palette = group_params();
    std::vector<serve::ViewParams> roi = group_params();
    shuffle(iso, rng);
    shuffle(palette, rng);
    shuffle(roi, rng);
    std::vector<serve::ViewParams> groups(static_cast<std::size_t>(views));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      groups[g].iso_levels = iso[g].iso_levels;
      groups[g].palette = palette[g].palette;
      groups[g].roi_x0 = roi[g].roi_x0 + rng.uniform(0.0, 0.02);
      groups[g].roi_y0 = roi[g].roi_y0 + rng.uniform(0.0, 0.02);
    }
    for (serve::ViewerSchedule& v : config.viewers) {
      v.params = groups[static_cast<std::size_t>(v.viewer % views)];
    }
    constexpr vis::Palette kPalettes[] = {
        vis::Palette::kCoolWarm, vis::Palette::kHot, vis::Palette::kGrayscale};
    const int half = config.base.iterations / 2;
    steer.viewer = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(viewers)));
    steer.step = half - 5 + static_cast<int>(rng.uniform_index(11));
    steer.x0 = rng.uniform(0.1, 0.35);
    steer.y0 = rng.uniform(0.1, 0.35);
    steer.x1 = steer.x0 + 0.5;
    steer.y1 = steer.y0 + 0.5;
    steer_palette = kPalettes[rng.uniform_index(3)];
  }
  config.commands.push_back(steer);
  steer.kind = serve::SteerKind::kPalette;
  steer.palette = steer_palette;
  config.commands.push_back(steer);
  return config;
}

OpSpec make_spec(Workload w, std::uint64_t seed, int viewers, int views) {
  using core::PipelineKind;
  OpSpec spec;
  switch (w) {
    case Workload::kPaperCases:
      // The paper's figure set: what `greenvis compare` and `verify` run.
      for (int n = 1; n <= 3; ++n) {
        const core::CaseStudyConfig c = seeded_case(n, seed, 128);
        const std::string p = "case" + std::to_string(n) + ".";
        spec.runs.push_back({p + "sync", PipelineKind::kPostProcessing, c});
        spec.runs.push_back({p + "async", PipelineKind::kPostProcessingAsync, c});
        spec.runs.push_back({p + "insitu", PipelineKind::kInSitu, c});
      }
      break;
    case Workload::kInsituSolver: {
      core::CaseStudyConfig c = seeded_case(1, seed, 1024);
      c.name = "insitu_solver";
      c.iterations = 100;
      c.io_period = 50;
      spec.runs.push_back({"insitu", PipelineKind::kInSitu, c});
      break;
    }
    case Workload::kSnapshotIo: {
      core::CaseStudyConfig c = seeded_case(1, seed, 512);
      c.name = "snapshot_io";
      spec.runs.push_back({"raw_sync", PipelineKind::kPostProcessing, c});
      c.snapshot_codec.kind = codec::Kind::kDelta;
      spec.runs.push_back(
          {"delta_async", PipelineKind::kPostProcessingAsync, c});
      break;
    }
    case Workload::kServeFleet:
      spec.serve = seeded_fleet(seed, viewers, views);
      break;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Modeled outputs (the correctness check)
// ---------------------------------------------------------------------------

/// One op's modeled output as (label, exact text) lines: doubles in 17
/// significant digits (round-trip exact), digests in hex.
using Outputs = std::vector<std::pair<std::string, std::string>>;

void add_pipeline_outputs(Outputs& out, const std::string& label,
                          const core::PipelineMetrics& m) {
  out.emplace_back(label + ".virtual_s", fmt_double(m.duration.value()));
  out.emplace_back(label + ".energy_j", fmt_double(m.energy.value()));
  out.emplace_back(label + ".peak_w", fmt_double(m.peak_power.value()));
  out.emplace_back(label + ".attributed_j",
                   fmt_double(m.attribution.total().value()));
  std::string digests = std::to_string(m.output.image_digests.size());
  for (std::uint64_t d : m.output.image_digests) {
    digests += ' ' + fmt_hex(d);
  }
  out.emplace_back(label + ".frame_digests", digests);
}

void add_serve_outputs(Outputs& out, const serve::ServeReport& r) {
  out.emplace_back("serve.virtual_s", fmt_double(r.duration.value()));
  out.emplace_back("serve.energy_j", fmt_double(r.energy.value()));
  out.emplace_back("serve.peak_w", fmt_double(r.peak_power.value()));
  out.emplace_back("serve.single_viewer_j", fmt_double(r.single_viewer_j));
  out.emplace_back("serve.frames_delivered",
                   std::to_string(r.frames_delivered));
  // Every delivery digest, folded per viewer (FNV-1a over step, key, frame
  // digest and bytes, in delivery order).
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> folds;
  for (const serve::Delivery& d : r.deliveries) {
    auto& [count, h] = folds.try_emplace(d.viewer, 0, 0xcbf29ce484222325ULL)
                           .first->second;
    for (std::uint64_t v : {static_cast<std::uint64_t>(d.step), d.key,
                            d.digest, d.bytes}) {
      h = (h ^ v) * 0x100000001b3ULL;
    }
    ++count;
  }
  for (const serve::ViewerEnergy& v : r.viewers) {
    const std::string p = "serve.viewer." + std::to_string(v.viewer);
    out.emplace_back(p + ".total_j", fmt_double(v.total_j()));
    const auto& [count, h] = folds[v.viewer];
    out.emplace_back(p + ".deliveries",
                     std::to_string(count) + ' ' + fmt_hex(h));
  }
}

/// Empty when equal; otherwise a description of the first difference.
std::string diff_outputs(const Outputs& got, const Outputs& want) {
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size() || i >= want.size() || got[i] != want[i]) {
      const auto show = [](const Outputs& o, std::size_t k) {
        return k < o.size() ? o[k].first + " = " + o[k].second.substr(0, 60)
                            : std::string("(missing)");
      };
      return "got " + show(got, i) + ", want " + show(want, i);
    }
  }
  return {};
}

Outputs read_outputs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read reference " + path);
  }
  Outputs out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      throw std::runtime_error("malformed reference line in " + path);
    }
    out.emplace_back(line.substr(0, sp), line.substr(sp + 1));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Untraced op: the public entry points users run
// ---------------------------------------------------------------------------

struct OpResult {
  Outputs outputs;
  double virtual_s{0.0};
};

OpResult run_op(const OpSpec& spec, std::size_t host_threads) {
  OpResult r;
  if (spec.serve) {
    serve::ServeConfig config = *spec.serve;
    config.host_threads = host_threads;
    const serve::ServeReport report = serve::run_serve_with_baseline(config);
    add_serve_outputs(r.outputs, report);
    r.virtual_s = report.duration.value();
    return r;
  }
  const core::Experiment experiment;
  core::PipelineOptions options;
  options.host_threads = host_threads;
  for (const PipelineRun& run : spec.runs) {
    const core::PipelineMetrics m =
        experiment.run(run.kind, run.config, options);
    add_pipeline_outputs(r.outputs, run.label, m);
    r.virtual_s += m.duration.value();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced op: spans around each call into a layer's public functions
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int id{0};
  int parent{-1};
  int op{0};
  int thread{0};  // 0 = the driver's thread, 1 = the staging writer
  double start{0.0};
  double end{0.0};
  double cpu{0.0};   // process CPU seconds (all threads) during the span
  double work{0.0};  // layer work units (cells, pixels, bytes)
};

/// In-memory span store. Parents come from a per-thread stack of open
/// spans; a span opened on an empty stack parents to the current run span
/// (-1 before an op starts), so the staging writer's spans land under the
/// pipeline run that owns the stager.
class SpanRecorder {
 public:
  void begin_op(int op) { op_.store(op); }
  [[nodiscard]] int op() const { return op_.load(); }
  void set_run(int id) { run_.store(id); }

  /// Opens a span on the calling thread; returns {id, parent}.
  std::pair<int, int> open() {
    std::vector<int>& s = stack();
    const int parent = s.empty() ? run_.load() : s.back();
    const int id = next_id_.fetch_add(1);
    s.push_back(id);
    return {id, parent};
  }

  void close(Span span) {
    stack().pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

  static int& thread_tag() {
    thread_local int tag = 0;
    return tag;
  }

 private:
  static std::vector<int>& stack() {
    thread_local std::vector<int> s;
    return s;
  }

  Clock::time_point epoch_{Clock::now()};
  std::atomic<int> next_id_{0};
  std::atomic<int> op_{0};
  std::atomic<int> run_{-1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanRecorder* g_recorder = nullptr;

/// RAII span: records [construction, destruction) with a getrusage delta.
class Scope {
 public:
  explicit Scope(const char* name, double work = 0.0) {
    span_.name = name;
    span_.work = work;
    std::tie(span_.id, span_.parent) = g_recorder->open();
    span_.op = g_recorder->op();
    span_.thread = SpanRecorder::thread_tag();
    span_.cpu = process_cpu_s();
    span_.start = seconds_between(g_recorder->epoch(), Clock::now());
  }
  explicit Scope(const std::string& name) : Scope(name.c_str()) {}
  ~Scope() {
    span_.end = seconds_between(g_recorder->epoch(), Clock::now());
    span_.cpu = process_cpu_s() - span_.cpu;
    g_recorder->close(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return span_.id; }
  void add_work(double w) { span_.work += w; }

 private:
  Span span_;
};

/// Per-op counts the spans cannot see (taken from the layers' own results).
struct TracedCounts {
  double storage_requests{0.0};
  double power_samples{0.0};
  double codec_raw_bytes{0.0};
  double codec_encoded_bytes{0.0};
  double serve_hits{0.0};
  double serve_lookups{0.0};
  double serve_host_renders{0.0};
  double serve_frames{0.0};
};

/// vis::VisPipeline::render_into, split into its raster and contour calls.
/// The frame digest check proves the split renders the same pixels.
class TracedRenderer {
 public:
  TracedRenderer(const vis::VisConfig& config, util::ThreadPool* pool)
      : config_(config), pool_(pool), cmap_(vis::make_palette(config.palette)),
        pipeline_(config, pool) {}

  void render_into(const util::Field2D& field, vis::Image& image) {
    Scope render("vis.render", static_cast<double>(config_.width) *
                                   static_cast<double>(config_.height));
    arena_.reset();
    double lo = config_.range_lo;
    double hi = config_.range_hi;
    if (lo >= hi) {
      lo = field.min_value();
      hi = field.max_value();
    }
    {
      Scope raster("vis.raster");
      vis::render_pseudocolor_into(field, cmap_, config_.width, config_.height,
                                   lo, hi, pool_, image);
    }
    Scope contour("vis.contour");
    const std::span<double> levels =
        arena_.alloc<double>(config_.contour_levels);
    vis::iso_levels_into(field, levels);
    for (double level : levels) {
      util::ArenaVec<vis::Segment> segments(arena_, 256);
      vis::marching_squares_into(field, level, segments);
      vis::draw_segments(image, segments.span(), field.nx(), field.ny(),
                         config_.contour_color);
    }
  }

  [[nodiscard]] machine::ActivityRecord render_activity() const {
    return pipeline_.render_activity();
  }

 private:
  vis::VisConfig config_;
  util::ThreadPool* pool_;
  vis::ColorMap cmap_;
  vis::VisPipeline pipeline_;  // only for the modeled render activity
  util::ScratchArena arena_;
};

void account_compute(core::Testbed& bed, const machine::ActivityRecord& a,
                     const std::string& phase) {
  Scope s("machine.account");
  bed.run_compute(a, phase);
}

/// Testbed::run_io with the storage call inside timed as its own span.
void account_io(core::Testbed& bed, const core::CaseStudyConfig& config,
                const std::string& phase, const std::function<void()>& body) {
  Scope s("machine.account");
  bed.run_io(phase, config.io_stage_cores, config.io_stage_utilization, body);
}

double heat_work(const core::CaseStudyConfig& c) {
  return static_cast<double>(c.problem.nx * c.problem.ny) *
         static_cast<double>(c.problem.executed_sweeps);
}

machine::ActivityRecord codec_activity(const core::CaseStudyConfig& c) {
  const double cells = static_cast<double>(c.problem.nx * c.problem.ny);
  machine::ActivityRecord a;
  a.flops = cells * 12.0;
  a.active_cores = 1;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(cells * 16)};
  return a;
}

struct TracedPipeline {
  core::Testbed& bed;
  const core::CaseStudyConfig& config;
  std::size_t host_threads;
  TracedCounts& counts;
  core::PipelineOutput out;

  void simulate(heat::HeatSolver& solver) {
    {
      Scope s("heat.step", heat_work(config));
      solver.step();
    }
    account_compute(bed, solver.step_activity(), core::stage::kSimulation);
  }

  void visualize(TracedRenderer& renderer, const util::Field2D& field,
                 vis::Image& frame) {
    renderer.render_into(field, frame);
    account_compute(bed, renderer.render_activity(),
                    core::stage::kVisualization);
    out.image_digests.push_back(frame.digest());
    ++out.visualized_steps;
  }

  void encode(codec::FieldCodec& c, const util::Field2D& field,
              std::vector<std::uint8_t>& payload) {
    Scope s("codec.encode");
    c.encode(field, payload);
    s.add_work(static_cast<double>(c.last_stats().raw_bytes));
    counts.codec_raw_bytes += static_cast<double>(c.last_stats().raw_bytes);
    counts.codec_encoded_bytes += static_cast<double>(payload.size());
  }

  void drop_caches() {
    account_io(bed, config, core::stage::kWrite, [&] {
      Scope s("storage.drop");
      bed.fs().drop_caches();
    });
  }

  /// Phase 2 of both post-processing pipelines: read back, decode, render.
  void read_and_render(codec::FieldCodec& snap_codec, util::ScratchArena& arena,
                       TracedRenderer& renderer, vis::Image& frame) {
    io::TimestepReader reader(bed.fs(), config.dataset);
    util::Field2D field;
    std::vector<std::uint8_t> payload;
    for (int step = 0; step < config.iterations; ++step) {
      if (!config.is_io_step(step)) {
        continue;
      }
      account_io(bed, config, core::stage::kRead, [&] {
        Scope s("storage.read");
        payload = reader.read_step(step);
        s.add_work(static_cast<double>(payload.size()));
      });
      arena.reset();
      {
        Scope s("codec.decode", static_cast<double>(config.problem.nx *
                                                    config.problem.ny * 8));
        snap_codec.decode_into(payload, field);
      }
      if (snap_codec.active()) {
        account_compute(bed, codec_activity(config), core::stage::kRead);
      }
      out.snapshot_bytes_read += util::Bytes{payload.size()};
      visualize(renderer, field, frame);
    }
  }

  void post_processing() {
    util::ThreadPool pool(host_threads);
    heat::HeatSolver solver(config.problem, &pool);
    TracedRenderer renderer(config.vis, &pool);
    vis::Image frame;
    io::TimestepWriter writer(bed.fs(), config.dataset);
    util::ScratchArena arena;
    codec::FieldCodec snap_codec(config.snapshot_codec, &arena);
    std::vector<std::uint8_t> payload;
    for (int step = 0; step < config.iterations; ++step) {
      simulate(solver);
      if (config.is_io_step(step)) {
        arena.reset();
        encode(snap_codec, solver.temperature(), payload);
        if (snap_codec.active()) {
          account_compute(bed, codec_activity(config),
                          core::stage::kSimulation);
        }
        out.snapshot_bytes_written += util::Bytes{payload.size()};
        account_io(bed, config, core::stage::kWrite, [&] {
          Scope s("storage.write", static_cast<double>(payload.size()));
          writer.write_step(step, payload);
        });
      }
    }
    out.steps = config.iterations;
    out.final_field = solver.temperature();
    drop_caches();
    read_and_render(snap_codec, arena, renderer, frame);
  }

  void post_processing_async() {
    util::ThreadPool pool(host_threads);
    heat::HeatSolver solver(config.problem, &pool);
    TracedRenderer renderer(config.vis, &pool);
    vis::Image frame;
    io::TimestepWriter writer(bed.fs(), config.dataset);
    codec::FieldCodec snap_codec(config.snapshot_codec);
    snap_codec.set_pool(&pool);
    const core::PipelineOptions defaults;
    machine::LoadTimeline writer_loads;
    trace::Timeline writer_phases;
    sched::AsyncStager stager(
        sched::StagingConfig{defaults.stage_buffers,
                             std::min(defaults.stage_queue_depth,
                                      defaults.stage_buffers)},
        [&](std::span<sched::StagedSnapshot* const> batch, util::Seconds start) {
          SpanRecorder::thread_tag() = 1;
          util::Seconds t = start;
          for (sched::StagedSnapshot* snap : batch) {
            Scope s("machine.account");
            t = bed.run_io_at(
                std::max(t, snap->ready), core::stage::kWrite,
                config.io_stage_cores, config.io_stage_utilization,
                [&] {
                  Scope w("storage.write",
                          static_cast<double>(snap->payload.size()));
                  writer.write_step(snap->step, snap->payload);
                },
                &writer_loads, &writer_phases);
          }
          return t;
        });

    util::Seconds cpu = bed.clock().now();
    for (int step = 0; step < config.iterations; ++step) {
      {
        Scope s("heat.step", heat_work(config));
        solver.step();
      }
      {
        Scope s("machine.account");
        cpu = bed.run_compute_at(cpu, solver.step_activity(),
                                 core::stage::kSimulation);
      }
      if (!config.is_io_step(step)) {
        continue;
      }
      sched::AsyncStager::Slot slot;
      {
        Scope s("sched.acquire");
        slot = stager.acquire();
      }
      if (slot.freed_at > cpu) {
        Scope s("machine.account");
        bed.record_stall(core::stage::kWrite, cpu, slot.freed_at,
                         config.io_stage_cores, config.io_stage_utilization);
        cpu = slot.freed_at;
      }
      sched::StagedSnapshot& snap = *slot.snapshot;
      snap.arena.reset();
      snap_codec.set_arena(&snap.arena);
      encode(snap_codec, solver.temperature(), snap.payload);
      if (snap_codec.active()) {
        Scope s("machine.account");
        cpu = bed.run_compute_at(cpu, codec_activity(config),
                                 core::stage::kSimulation);
      }
      snap.step = step;
      snap.raw_bytes = snap_codec.last_stats().raw_bytes;
      out.snapshot_bytes_written += util::Bytes{snap.payload.size()};
      stager.submit(cpu);
    }
    out.steps = config.iterations;
    out.final_field = solver.temperature();
    util::Seconds io_end{0.0};
    {
      Scope s("sched.drain");
      io_end = stager.drain();
    }
    cpu = std::max(cpu, io_end);
    if (cpu > bed.clock().now()) {
      bed.clock().advance_to(cpu);
    }
    bed.loads().merge(writer_loads);
    for (const auto& iv : writer_phases.intervals()) {
      bed.phases().record(iv.category, iv.begin, iv.end);
    }
    drop_caches();
    util::ScratchArena arena;
    snap_codec.set_arena(&arena);
    read_and_render(snap_codec, arena, renderer, frame);
  }

  void in_situ() {
    util::ThreadPool pool(host_threads);
    heat::HeatSolver solver(config.problem, &pool);
    TracedRenderer renderer(config.vis, &pool);
    vis::Image frame;
    for (int step = 0; step < config.iterations; ++step) {
      simulate(solver);
      if (config.is_io_step(step)) {
        visualize(renderer, solver.temperature(), frame);
      }
    }
    out.steps = config.iterations;
    out.final_field = solver.temperature();
  }
};

/// core::Experiment::run, performed call by call.
core::PipelineMetrics traced_experiment(const PipelineRun& run,
                                        std::size_t host_threads,
                                        TracedCounts& counts) {
  core::Testbed bed{core::TestbedConfig{}};
  TracedPipeline p{bed, run.config, host_threads, counts, {}};
  switch (run.kind) {
    case core::PipelineKind::kPostProcessing:
      p.out.pipeline_name = "Post-processing";
      p.post_processing();
      break;
    case core::PipelineKind::kPostProcessingAsync:
      p.out.pipeline_name = "Post-processing (async staging)";
      p.post_processing_async();
      break;
    case core::PipelineKind::kInSitu:
      p.out.pipeline_name = "In-situ";
      p.in_situ();
      break;
  }
  core::PipelineMetrics m;
  m.pipeline_name = p.out.pipeline_name;
  m.case_name = run.config.name;
  m.duration = bed.clock().now();
  m.timeline = bed.phases();
  {
    Scope s("power.profile");
    m.trace = bed.profile();
    m.energy = m.trace.energy(&power::PowerSample::system);
    m.average_power = m.trace.average(&power::PowerSample::system);
    m.peak_power = m.trace.peak(&power::PowerSample::system);
  }
  counts.power_samples += static_cast<double>(m.trace.samples().size());
  const double cells = static_cast<double>((run.config.problem.nx - 2) *
                                           (run.config.problem.ny - 2));
  m.efficiency =
      cells * static_cast<double>(run.config.iterations) / m.energy.value();
  m.output = std::move(p.out);
  {
    Scope s("obs.attribute");
    m.attribution = obs::EnergyAttributor(bed.power_model())
                        .attribute(m.timeline, bed.loads(),
                                   bed.device().activity(), m.duration);
  }
  const storage::DeviceCounters& dc = bed.device().counters();
  counts.storage_requests += static_cast<double>(dc.reads + dc.writes);
  return m;
}

/// The program's own spans inside serve (the session renders on pool
/// workers where no outside timer reaches); collected per op.
struct InnerSpans {
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      intervals;  // name -> [begin_ns, end_ns)
};

OpResult run_traced_op(const OpSpec& spec, std::size_t host_threads,
                       TracedCounts& counts, InnerSpans& inner) {
  OpResult r;
  if (spec.serve) {
    serve::ServeConfig config = *spec.serve;
    config.host_threads = host_threads;
    obs::Tracer::global().clear();
    obs::set_enabled(true);
    serve::ServeReport report;
    {
      Scope run("serve.session");
      report = serve::run_serve_with_baseline(config);
    }
    obs::set_enabled(false);
    for (const obs::SpanEvent& e : obs::Tracer::global().events()) {
      if (e.name == "vis.render" || e.name == "vis.raster" ||
          e.name == "vis.contour") {
        inner.intervals[e.name].emplace_back(e.begin_ns, e.begin_ns + e.dur_ns);
      }
    }
    obs::Tracer::global().clear();
    counts.serve_hits += static_cast<double>(report.cache.hits);
    counts.serve_lookups +=
        static_cast<double>(report.cache.hits + report.cache.misses);
    counts.serve_host_renders += static_cast<double>(report.host_renders);
    counts.serve_frames += static_cast<double>(report.frames_delivered);
    add_serve_outputs(r.outputs, report);
    r.virtual_s = report.duration.value();
    return r;
  }
  for (const PipelineRun& run : spec.runs) {
    const std::string name = "run." + run.label;
    Scope s(name);
    g_recorder->set_run(s.id());
    const core::PipelineMetrics m = traced_experiment(run, host_threads, counts);
    add_pipeline_outputs(r.outputs, run.label, m);
    r.virtual_s += m.duration.value();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tail {
  double value{0.0};
  double percentile{0.0};
  std::size_t beyond{0};  // samples strictly above `value`
};

/// The highest percentile of `v` with at least kTailBeyond samples above it,
/// but never below the upper quartile. Until a run holds 40 ops the rule's
/// percentile falls under 75 (with 11 ops it is the fastest op), so shorter
/// runs report the upper quartile, interpolated like Python's
/// statistics.quantiles(v, n=4) but kept inside the sample range.
Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail t;
  const std::size_t n = v.size();
  if (n > kTailBeyond && 4 * (n - kTailBeyond) >= 3 * n) {
    const std::size_t idx = n - kTailBeyond - 1;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  } else if (n > 0) {
    const double pos = 0.75 * static_cast<double>(n + 1) - 1.0;
    const std::size_t lo = std::min(
        n - 1, static_cast<std::size_t>(std::max(0.0, pos)));
    const std::size_t hi = std::min(n - 1, lo + 1);
    const double frac = std::clamp(pos - static_cast<double>(lo), 0.0, 1.0);
    t.value = v[lo] + (v[hi] - v[lo]) * frac;
    t.percentile = 75.0;
  }
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

struct LayerAgg {
  double calls{0.0};
  double busy{0.0};  // inclusive span time
  double self{0.0};  // minus same-thread children
  double cpu{0.0};
  double work{0.0};
};

/// Union length of [begin, end) intervals, in seconds.
double union_seconds(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (!open || b > hi) {
      if (open) total += static_cast<double>(hi - lo) * 1e-9;
      lo = b;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) total += static_cast<double>(hi - lo) * 1e-9;
  return total;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

Metrics layer_metrics(const std::vector<Span>& spans, const TracedCounts& c,
                      const InnerSpans& inner, double traced_ops,
                      double traced_p50, double untraced_p50) {
  std::map<int, double> child_time;  // same-thread children per span
  std::map<int, int> thread_of;
  for (const Span& s : spans) {
    thread_of[s.id] = s.thread;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0 && thread_of[s.parent] == s.thread) {
      child_time[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, LayerAgg> agg;
  double op_time = 0.0;
  double glue_self = 0.0;
  for (const Span& s : spans) {
    const double dur = s.end - s.start;
    const double self = dur - child_time[s.id];
    if (s.name == "op") {
      op_time += dur;
    }
    if (s.name == "op" || s.name.rfind("run.", 0) == 0) {
      glue_self += self;
      continue;
    }
    LayerAgg& a = agg[s.name];
    a.calls += 1.0;
    a.busy += dur;
    a.self += self;
    a.cpu += s.cpu;
    a.work += s.work;
  }
  // Serve renders happen inside the program: use its own vis spans, summed
  // over worker threads; parallelism = summed time / wall-clock union.
  double serve_parallelism = 0.0;
  for (const auto& [name, iv] : inner.intervals) {
    LayerAgg& a = agg[name];
    for (const auto& [b, e] : iv) {
      a.calls += 1.0;
      a.busy += static_cast<double>(e - b) * 1e-9;
    }
    if (name == "vis.render") {
      // Serve views are 256x256 (no resolution steering in the fleet).
      a.work = a.calls * 256.0 * 256.0;
      const double wall = union_seconds(iv);
      serve_parallelism = wall > 0.0 ? a.busy / wall : 0.0;
    }
  }
  const double ops = std::max(traced_ops, 1.0);
  const auto per_op = [&](double v) { return v / ops; };
  const auto rate = [](double work, double busy, double scale) {
    return busy > 0.0 ? work / busy / scale : 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  LayerAgg& heat = agg["heat.step"];
  LayerAgg& render = agg["vis.render"];
  LayerAgg& enc = agg["codec.encode"];
  LayerAgg& dec = agg["codec.decode"];
  LayerAgg& wr = agg["storage.write"];
  LayerAgg& rd = agg["storage.read"];
  LayerAgg& machine = agg["machine.account"];
  Metrics m;
  const auto add = [&](const char* name, double v, const char* unit) {
    m.emplace_back(name, v, unit);
  };
  add("heat.step.calls", per_op(heat.calls), "count");
  add("heat.step.busy_s", per_op(heat.busy), "s");
  add("heat.step.mcups", rate(heat.work, heat.busy, 1e6), "Mcell/s");
  add("heat.step.parallelism", ratio(heat.cpu, heat.busy), "cores");
  add("vis.render.calls", per_op(render.calls), "count");
  add("vis.render.busy_s", per_op(render.busy), "s");
  add("vis.render.mpix_per_s", rate(render.work, render.busy, 1e6), "MPix/s");
  add("vis.render.parallelism",
      inner.intervals.empty() ? ratio(render.cpu, render.busy)
                              : serve_parallelism,
      "cores");
  add("vis.raster.busy_s", per_op(agg["vis.raster"].busy), "s");
  add("vis.contour.busy_s", per_op(agg["vis.contour"].busy), "s");
  add("codec.encode.busy_s", per_op(enc.busy), "s");
  add("codec.encode.mb_per_s", rate(enc.work, enc.busy, 1e6), "MB/s");
  add("codec.decode.busy_s", per_op(dec.busy), "s");
  add("codec.decode.mb_per_s", rate(dec.work, dec.busy, 1e6), "MB/s");
  add("codec.ratio", ratio(c.codec_raw_bytes, c.codec_encoded_bytes), "ratio");
  add("storage.write.calls", per_op(wr.calls), "count");
  add("storage.write.busy_s", per_op(wr.busy), "s");
  add("storage.write.mb_per_s", rate(wr.work, wr.busy, 1e6), "MB/s");
  add("storage.read.calls", per_op(rd.calls), "count");
  add("storage.read.busy_s", per_op(rd.busy), "s");
  add("storage.read.mb_per_s", rate(rd.work, rd.busy, 1e6), "MB/s");
  add("storage.drop.busy_s", per_op(agg["storage.drop"].busy), "s");
  add("storage.requests", per_op(c.storage_requests), "count");
  add("sched.acquire.wait_s", per_op(agg["sched.acquire"].busy), "s");
  add("sched.drain.wait_s", per_op(agg["sched.drain"].busy), "s");
  add("machine.account.calls", per_op(machine.calls), "count");
  add("machine.account.busy_s", per_op(machine.self), "s");
  add("power.profile.busy_s", per_op(agg["power.profile"].busy), "s");
  add("power.samples", per_op(c.power_samples), "count");
  add("obs.attribute.busy_s", per_op(agg["obs.attribute"].busy), "s");
  add("serve.session.busy_s", per_op(agg["serve.session"].busy), "s");
  add("serve.cache.hit_ratio", ratio(c.serve_hits, c.serve_lookups), "ratio");
  add("serve.renders_per_frame", ratio(c.serve_host_renders, c.serve_frames),
      "ratio");
  add("serve.frames", per_op(c.serve_frames), "count");
  add("core.unattributed_frac", ratio(glue_self, op_time), "ratio");
  add("trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0, "ratio");
  return m;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  for (const Span& s : spans) {
    out << "{\"name\": " << json_string(s.name) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"thread\": " << s.thread << ", \"start_s\": "
        << fmt_double(s.start) << ", \"end_s\": " << fmt_double(s.end)
        << ", \"cpu_s\": " << fmt_double(s.cpu) << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string fingerprint_json(const std::string& commit) {
  const util::ThreadPool pool;
  std::ostringstream os;
  os << "{\"cpu_model\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << pool.size() << ", \"simd_path\": "
     << json_string(util::simd::path_name(util::simd::active_path()))
     << ", \"compiler\": " << json_string(std::string("c++ ") + __VERSION__)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << json_string(commit) << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string reference_dir{"perfbench/reference"};
  std::string spans_out;
  std::string commit{"unknown"};
  bool dump_outputs{false};
  bool traced{false};
  std::size_t threads{0};
  int viewers{64};
  int views{16};
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload "
               "paper_cases|insitu_solver|snapshot_io|serve_fleet --seed N "
               "--seconds S --trace 0|1 [--reference-dir DIR] "
               "[--spans-out FILE] [--commit ID]\n"
            << "       perfbench_driver --workload NAME --seed N "
               "--dump-outputs [--traced] [--threads N] [--fleet VxG]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        o.workload = value();
      } else if (key == "--seed") {
        o.seed = std::stoull(value());
      } else if (key == "--seconds") {
        o.seconds = std::stod(value());
      } else if (key == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (key == "--reference-dir") {
        o.reference_dir = value();
      } else if (key == "--spans-out") {
        o.spans_out = value();
      } else if (key == "--commit") {
        o.commit = value();
      } else if (key == "--dump-outputs") {
        o.dump_outputs = true;
      } else if (key == "--traced") {
        o.traced = true;
      } else if (key == "--threads") {
        o.threads = std::stoul(value());
      } else if (key == "--fleet") {
        const std::string v = value();
        const std::size_t x = v.find('x');
        if (x == std::string::npos) usage("--fleet takes VIEWERSxVIEWS");
        o.viewers = std::stoi(v.substr(0, x));
        o.views = std::stoi(v.substr(x + 1));
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (!parse_workload(o.workload)) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.views < 1 || o.views > o.viewers) usage("--fleet needs 1 <= VIEWS <= VIEWERS");
  return o;
}

int dump(const Options& o, const OpSpec& spec) {
  OpResult r;
  if (o.traced) {
    SpanRecorder recorder;
    g_recorder = &recorder;
    TracedCounts counts;
    InnerSpans inner;
    Scope op("op");
    r = run_traced_op(spec, o.threads, counts, inner);
  } else {
    r = run_op(spec, o.threads);
  }
  std::cout << "# perfbench reference: workload " << o.workload << ", seed "
            << o.seed << "\n";
  for (const auto& [label, value] : r.outputs) {
    std::cout << label << ' ' << value << '\n';
  }
  return 0;
}

int bench(const Options& o, Workload w) {
  const Clock::time_point start = Clock::now();
  // The reference: recorded values for the default seed, otherwise a
  // one-host-thread run of the same input (host thread count is invisible
  // to modeled results — the pipeline.serial_vs_pool oracle pins it).
  const Outputs reference =
      o.seed == 0 ? read_outputs(o.reference_dir + "/" + o.workload + ".txt")
                  : run_op(make_spec(w, o.seed, o.viewers, o.views), 1).outputs;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const OpResult& r, const char* what) {
    ++attempted;
    const std::string diff = diff_outputs(r.outputs, reference);
    if (!diff.empty()) {
      ++failed;
      std::cerr << "perfbench: " << what << " op output differs from the "
                << "reference: " << diff << "\n";
    }
  };

  // Set-up: input generation plus one untimed warm-up op, several times.
  std::vector<double> setup_times;
  OpPeakRss rss;
  std::vector<double> rss_mb;  // per warm-up and timed op
  OpSpec spec;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rss.before_op();
    const Clock::time_point t0 = Clock::now();
    spec = make_spec(w, o.seed, o.viewers, o.views);
    const OpResult warm = run_op(spec, 0);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    rss_mb.push_back(rss.after_op_mb());
    check(warm, "warm-up");
  }

  // Timed closed loop, tracing off. With --trace 1 the first half of the
  // run is untraced (the overhead baseline), the second half traced.
  const double untraced_budget = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<double> op_times;
  double virtual_s = 0.0;
  const double cpu0 = process_cpu_s();
  const auto [steal0, jiffies0] = steal_jiffies();
  const Clock::time_point loop0 = Clock::now();
  while (op_times.empty() ||
         seconds_between(loop0, Clock::now()) < untraced_budget) {
    rss.before_op();
    const Clock::time_point t0 = Clock::now();
    const OpResult r = run_op(spec, 0);
    op_times.push_back(seconds_between(t0, Clock::now()));
    rss_mb.push_back(rss.after_op_mb());
    virtual_s += r.virtual_s;
    check(r, "timed");
  }
  const double cpu_s = process_cpu_s() - cpu0;
  // Time the hypervisor gave to other guests during the timed loop: wall
  // metrics of pooled ops swing with it on a shared host.
  const auto [steal1, jiffies1] = steal_jiffies();
  const double steal_frac =
      jiffies1 > jiffies0 ? (steal1 - steal0) / (jiffies1 - jiffies0) : 0.0;
  double host_s = 0.0;
  for (double t : op_times) host_s += t;

  Metrics metrics;
  const double ops = static_cast<double>(op_times.size());
  const Tail tail = tail_of(op_times);
  if (!o.trace) {
    metrics.emplace_back("setup_s", median(setup_times), "s");
    metrics.emplace_back("op_p50_s", median(op_times), "s");
    metrics.emplace_back("op_tail_s", tail.value, "s");
    metrics.emplace_back("cpu_s_per_op", cpu_s / ops, "s");
    metrics.emplace_back("virtual_s_per_host_s", virtual_s / host_s, "ratio");
    metrics.emplace_back("peak_rss_mb", median(rss_mb), "MB");
  } else {
    SpanRecorder recorder;
    g_recorder = &recorder;
    TracedCounts counts;
    InnerSpans inner;
    std::vector<double> traced_times;
    int op_id = 0;
    while (traced_times.empty() ||
           seconds_between(loop0, Clock::now()) < o.seconds) {
      recorder.begin_op(op_id++);
      const Clock::time_point t0 = Clock::now();
      OpResult r;
      {
        recorder.set_run(-1);
        Scope op("op");
        r = run_traced_op(spec, 0, counts, inner);
      }
      traced_times.push_back(seconds_between(t0, Clock::now()));
      check(r, "traced");
    }
    metrics = layer_metrics(recorder.spans(), counts, inner,
                            static_cast<double>(traced_times.size()),
                            median(traced_times), median(op_times));
    if (!o.spans_out.empty()) {
      write_spans(o.spans_out, recorder.spans());
    }
  }
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  // Full record, then the result line.
  std::ostringstream rec;
  rec << "{\"record\": \"greenvis.perfbench.v1\", \"workload\": "
      << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << fmt_double(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"fingerprint\": " << fingerprint_json(o.commit)
      << ", \"samples\": " << op_times.size()
      << ", \"op_tail_percentile\": " << fmt_double(tail.percentile)
      << ", \"op_tail_beyond\": " << tail.beyond
      << ", \"setup_samples\": " << setup_times.size()
      << ", \"failed_op_frac\": " << fmt_double(failed_frac)
      << ", \"host_steal_frac\": " << fmt_double(steal_frac)
      << ", \"wall_s\": " << fmt_double(seconds_between(start, Clock::now()))
      << ", \"op_times_s\": [";
  for (std::size_t i = 0; i < op_times.size(); ++i) {
    rec << (i ? ", " : "") << fmt_double(op_times[i]);
  }
  rec << "]}";
  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    result << (i ? ", " : "") << json_string(name) << ": {\"value\": "
           << fmt_double(value) << ", \"unit\": " << json_string(unit) << "}";
  }
  result << "}}";
  std::cout << rec.str() << "\n" << result.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = *parse_workload(o.workload);
    if (o.dump_outputs) {
      return dump(o, make_spec(w, o.seed, o.viewers, o.views));
    }
    return bench(o, w);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: error: " << e.what() << "\n";
    return 1;
  }
}
