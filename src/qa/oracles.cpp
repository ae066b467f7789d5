// Built-in differential oracles: paired implementations that must agree.
//
// Each oracle drives a deterministic workload through two implementations
// of the same contract and diffs the structured results. Comparisons are
// bitwise wherever the contract is bitwise (serial vs pool, obs on/off,
// raw codec vs legacy serialization) and tolerance-based only where the
// contract itself is a tolerance (the delta codec).
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/core/batch_runner.hpp"
#include "src/core/experiment.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/heat/solver.hpp"
#include "src/io/dataset.hpp"
#include "src/heat/solver3d.hpp"
#include "src/obs/obs.hpp"
#include "src/qa/oracle.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/storage/async_device.hpp"
#include "src/storage/fault.hpp"
#include "src/storage/filesystem.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/raid.hpp"
#include "src/storage/solid_state.hpp"
#include "src/trace/clock.hpp"
#include "src/util/checksum.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd/simd.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/volume.hpp"

namespace greenvis::qa {

namespace {

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

OracleResult pass(std::string detail) {
  return OracleResult{{}, true, std::move(detail)};
}

OracleResult fail(std::string detail) {
  return OracleResult{{}, false, std::move(detail)};
}

util::Field2D reference_field(std::size_t nx, std::size_t ny,
                              std::uint64_t seed) {
  util::Field2D f(nx, ny);
  util::Xoshiro256 rng{seed};
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      f.at(i, j) = 30.0 * std::sin(0.11 * static_cast<double>(i)) *
                       std::cos(0.07 * static_cast<double>(j)) +
                   rng.uniform(-4.0, 4.0);
    }
  }
  return f;
}

core::CaseStudyConfig small_pipeline_config() {
  core::CaseStudyConfig config = core::case_study(1);
  config.iterations = 6;
  config.io_period = 2;
  config.vis.width = 64;
  config.vis.height = 64;
  config.problem.nx = 48;
  config.problem.ny = 48;
  config.problem.executed_sweeps = 10;
  return config;
}

// ---- solver: pool size must never change the numbers ----

OracleResult solver_serial_vs_pool() {
  heat::HeatProblem problem = core::case_study(1).problem;
  problem.nx = 96;
  problem.ny = 96;
  problem.executed_sweeps = 12;
  heat::HeatSolver serial(problem, nullptr);
  util::ThreadPool pool(4);
  heat::HeatSolver pooled(problem, &pool);
  for (int s = 0; s < 4; ++s) {
    serial.step();
    pooled.step();
    if (!bits_equal(serial.temperature().values(),
                    pooled.temperature().values())) {
      return fail("2-D solver diverged from serial at step " +
                  std::to_string(s));
    }
  }

  heat::HeatProblem3D p3;
  p3.nx = 20;
  p3.ny = 18;
  p3.nz = 16;
  heat::HeatSolver3D serial3(p3, nullptr);
  heat::HeatSolver3D pooled3(p3, &pool);
  for (int s = 0; s < 3; ++s) {
    serial3.step();
    pooled3.step();
    if (!bits_equal(serial3.temperature().values(),
                    pooled3.temperature().values())) {
      return fail("3-D solver diverged from serial at step " +
                  std::to_string(s));
    }
  }
  return pass("2-D (96x96, 4 steps) and 3-D (20x18x16, 3 steps) fields "
              "bit-identical for pool sizes 1 and 4");
}

// ---- pipelines: host thread count is invisible to the virtual world ----

OracleResult pipeline_serial_vs_pool() {
  const core::CaseStudyConfig config = small_pipeline_config();
  const auto run = [&](core::PipelineKind kind, std::size_t threads) {
    core::Testbed bed;
    core::PipelineOptions options;
    options.host_threads = threads;
    core::PipelineOutput out =
        core::run_pipeline(bed, config, core::pipeline_plan(kind), options);
    return std::pair<core::PipelineOutput, util::Seconds>{
        std::move(out), bed.clock().now()};
  };
  for (const auto kind :
       {core::PipelineKind::kInSitu, core::PipelineKind::kPostProcessing}) {
    const auto [serial, serial_clock] = run(kind, 1);
    const auto [pooled, pooled_clock] = run(kind, 4);
    const char* name = core::pipeline_kind_name(kind);
    if (serial.image_digests != pooled.image_digests) {
      return fail(std::string(name) + ": image digests differ");
    }
    if (!bits_equal(serial.final_field.values(),
                    pooled.final_field.values())) {
      return fail(std::string(name) + ": final fields differ");
    }
    if (serial_clock.value() != pooled_clock.value()) {
      std::ostringstream os;
      os << name << ": virtual clock differs (" << serial_clock.value()
         << " vs " << pooled_clock.value() << " s)";
      return fail(os.str());
    }
  }
  return pass("both pipelines: digests, final field bits, and virtual clock "
              "identical for 1 vs 4 host threads");
}

// ---- staging: overlap may move time around, never bytes ----

OracleResult pipeline_sync_vs_async() {
  const core::CaseStudyConfig config = small_pipeline_config();
  struct Run {
    core::PipelineOutput out;
    std::vector<std::uint64_t> disk_sums;  // per written step, step order
  };
  const auto run = [&](core::PipelineKind kind) {
    core::Testbed bed;
    core::PipelineOptions options;
    options.host_threads = 4;
    options.stage_buffers = 2;
    Run r;
    r.out =
        core::run_pipeline(bed, config, core::pipeline_plan(kind), options);
    // Checksum what actually landed on disk, independent of the pipeline's
    // own read path.
    io::TimestepReader reader(bed.fs(), config.dataset);
    for (int step = 0; step < config.iterations; ++step) {
      if (config.is_io_step(step)) {
        r.disk_sums.push_back(util::fnv1a64(reader.read_step(step)));
      }
    }
    return r;
  };
  const Run sync = run(core::PipelineKind::kPostProcessing);
  const Run async = run(core::PipelineKind::kPostProcessingAsync);
  if (sync.disk_sums != async.disk_sums) {
    return fail("on-disk snapshot bytes differ between sync and async");
  }
  if (sync.out.image_digests != async.out.image_digests) {
    return fail("image digests differ between sync and async");
  }
  if (!bits_equal(sync.out.final_field.values(),
                  async.out.final_field.values())) {
    return fail("final fields differ between sync and async");
  }
  if (sync.out.snapshot_bytes_written.value() !=
          async.out.snapshot_bytes_written.value() ||
      sync.out.snapshot_bytes_read.value() !=
          async.out.snapshot_bytes_read.value() ||
      sync.out.snapshot_bytes_raw.value() !=
          async.out.snapshot_bytes_raw.value()) {
    return fail("snapshot byte accounting differs between sync and async");
  }
  return pass(std::to_string(sync.disk_sums.size()) +
              " written steps: on-disk checksums, image digests, final field "
              "bits, and snapshot accounting identical for sync vs async "
              "staging (2 buffers)");
}

// ---- batch: work-stealing shards must equal the serial loop exactly ----
//
// BatchRunner fans jobs out over work-stealing shards; whichever thread a
// job lands on, its metrics — virtual durations, joules, digests, field
// bits — must match a plain serial loop over the same jobs, in job order.

OracleResult batch_sharded_vs_serial() {
  const core::CaseStudyConfig base = small_pipeline_config();
  std::vector<core::BatchJob> jobs;
  for (const int period : {1, 2, 3}) {
    for (const auto kind : {core::PipelineKind::kPostProcessing,
                            core::PipelineKind::kInSitu}) {
      core::BatchJob job;
      job.kind = kind;
      job.config = base;
      job.config.io_period = period;
      jobs.push_back(job);
    }
  }
  core::TestbedConfig slow;  // one job on a different machine state
  slow.frequency_ghz = 1.6;
  jobs[1].testbed = slow;

  const core::Experiment experiment;
  std::vector<core::PipelineMetrics> serial;
  serial.reserve(jobs.size());
  for (const core::BatchJob& job : jobs) {
    serial.push_back(job.testbed
                         ? core::Experiment(*job.testbed)
                               .run(job.kind, job.config, job.options)
                         : experiment.run(job.kind, job.config, job.options));
  }
  const std::vector<core::PipelineMetrics> sharded =
      core::BatchRunner(4).run(experiment, jobs);
  if (sharded.size() != serial.size()) {
    return fail("result count differs from job count");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::PipelineMetrics& a = serial[i];
    const core::PipelineMetrics& b = sharded[i];
    if (a.duration.value() != b.duration.value() ||
        a.energy.value() != b.energy.value() ||
        a.average_power.value() != b.average_power.value() ||
        a.peak_power.value() != b.peak_power.value() ||
        a.efficiency != b.efficiency) {
      return fail("job " + std::to_string(i) +
                  ": headline metrics differ between serial and sharded");
    }
    if (a.output.image_digests != b.output.image_digests ||
        !bits_equal(a.output.final_field.values(),
                    b.output.final_field.values())) {
      return fail("job " + std::to_string(i) +
                  ": science outputs differ between serial and sharded");
    }
  }
  return pass(std::to_string(jobs.size()) +
              " jobs (2 pipelines x 3 periods, one DVFS override): metrics, "
              "digests, and field bits identical for serial vs 4-way "
              "work-stealing shards");
}

// ---- codec: raw is the identity, delta honors its bound and its books ----

OracleResult codec_raw_vs_delta() {
  const util::Field2D f = reference_field(96, 80, 11);
  const double tolerance = 1e-3;

  codec::FieldCodec raw{codec::CodecConfig{codec::Kind::kRaw, tolerance, 32}};
  const auto raw_blob = raw.encode(f);
  if (raw_blob != f.serialize()) {
    return fail("raw codec output differs from legacy serialization");
  }
  if (!bits_equal(codec::FieldCodec::decode2d(raw_blob).values(),
                  f.values())) {
    return fail("raw round trip is not bit exact");
  }

  codec::FieldCodec delta{
      codec::CodecConfig{codec::Kind::kDelta, tolerance, 32}};
  const auto delta_blob = delta.encode(f);
  const util::Field2D g = codec::FieldCodec::decode2d(delta_blob);
  double max_err = 0.0;
  for (std::size_t k = 0; k < f.size(); ++k) {
    max_err = std::max(max_err, std::abs(f.values()[k] - g.values()[k]));
  }
  if (max_err > tolerance * (1.0 + 1e-9)) {
    std::ostringstream os;
    os << "delta error " << max_err << " exceeds tolerance " << tolerance;
    return fail(os.str());
  }
  // Byte accounting: both codecs charge the same uncompressed payload.
  if (raw.last_stats().raw_bytes != delta.last_stats().raw_bytes) {
    return fail("raw_bytes accounting differs between raw and delta");
  }
  if (delta.last_stats().encoded_bytes >= raw.last_stats().raw_bytes) {
    return fail("delta did not compress a smooth field");
  }
  std::ostringstream os;
  os << "raw == legacy bytes; delta max error " << max_err << " <= "
     << tolerance << ", ratio " << delta.last_stats().ratio() << "x on equal "
     << raw.last_stats().raw_bytes << " raw bytes";
  return pass(os.str());
}

// ---- page cache: a timing model only — data and event order invariant ----

OracleResult cache_on_vs_off() {
  struct Event {
    std::string file;
    std::uint64_t bytes;
    std::uint64_t checksum;
  };
  const auto run = [](storage::ReadMode mode) {
    trace::VirtualClock clock;
    storage::HddModel hdd{storage::HddParams{}};
    storage::FsParams params;
    params.allocation = storage::AllocationPolicy::kAged;
    storage::Filesystem fs(hdd, clock, params);

    util::Xoshiro256 rng{77};
    std::vector<Event> events;
    std::vector<std::pair<std::string, std::size_t>> files;
    for (int k = 0; k < 6; ++k) {
      const std::string name = "f" + std::to_string(k) + ".bin";
      const std::size_t bytes = 1 + rng.uniform_index(96 * 1024);
      std::vector<std::uint8_t> data(bytes);
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      }
      auto fd = fs.create(name);
      fs.write(fd, data,
               k % 2 == 0 ? storage::WriteMode::kBuffered
                          : storage::WriteMode::kSync);
      fs.fsync(fd);
      fs.close(fd);
      files.emplace_back(name, bytes);
    }
    fs.drop_caches();
    double last = clock.now().value();
    bool monotone = true;
    for (const auto& [name, bytes] : files) {
      auto fd = fs.open(name);
      std::vector<std::uint8_t> back(bytes);
      const std::uint64_t got = fs.pread(fd, back, 0, mode);
      fs.close(fd);
      events.push_back(Event{name, got, util::fnv1a64(back)});
      if (clock.now().value() < last) {
        monotone = false;
      }
      last = clock.now().value();
    }
    return std::pair<std::vector<Event>, bool>{std::move(events), monotone};
  };

  const auto [cached, cached_monotone] = run(storage::ReadMode::kBuffered);
  const auto [direct, direct_monotone] = run(storage::ReadMode::kDirect);
  if (!cached_monotone || !direct_monotone) {
    return fail("virtual clock went backwards during reads");
  }
  if (cached.size() != direct.size()) {
    return fail("event counts differ");
  }
  for (std::size_t i = 0; i < cached.size(); ++i) {
    if (cached[i].file != direct[i].file ||
        cached[i].bytes != direct[i].bytes ||
        cached[i].checksum != direct[i].checksum) {
      return fail("event " + std::to_string(i) + " (" + cached[i].file +
                  ") diverged between cached and direct reads");
    }
  }
  return pass(std::to_string(cached.size()) +
              " read events: identical order, sizes, and payload checksums "
              "with the page cache on (buffered) and off (direct)");
}

// ---- storage: the async queue at depth 1 / noop IS the sync path ----

OracleResult storage_async_vs_sync() {
  // A serial device rig: the concrete device plus whatever it wraps.
  struct Rig {
    std::vector<std::unique_ptr<storage::BlockDevice>> keep;
    storage::BlockDevice* dev{nullptr};
  };
  const auto make_rig = [](std::string_view label) {
    Rig rig;
    const auto own = [&rig](std::unique_ptr<storage::BlockDevice> d) {
      rig.dev = d.get();
      rig.keep.push_back(std::move(d));
      return rig.dev;
    };
    if (label == "hdd") {
      own(std::make_unique<storage::HddModel>(storage::HddParams{}));
    } else if (label == "ssd") {
      own(std::make_unique<storage::SolidStateModel>(
          storage::sata_ssd_params()));
    } else if (label == "nvram") {
      own(std::make_unique<storage::SolidStateModel>(
          storage::nvram_params()));
    } else if (label == "raid0") {
      std::vector<std::unique_ptr<storage::BlockDevice>> children;
      for (int i = 0; i < 3; ++i) {
        children.push_back(
            std::make_unique<storage::HddModel>(storage::HddParams{}));
      }
      own(std::make_unique<storage::Raid0Model>(std::move(children)));
    } else {  // faulty: retry-prone HDD with an unreadable range
      auto* inner =
          own(std::make_unique<storage::HddModel>(storage::HddParams{}));
      storage::FaultConfig fc;
      fc.retry_probability = 0.25;
      fc.bad_ranges.push_back(
          storage::FaultConfig::BadRange{48 * 1024 * 1024, 16 * 1024 * 1024});
      own(std::make_unique<storage::FaultyDisk>(*inner, fc));
    }
    return rig;
  };

  // Deterministic aligned stream with nondecreasing submit times.
  struct Stream {
    std::vector<storage::IoRequest> requests;
    std::vector<util::Seconds> submits;
  };
  const auto make_stream = [] {
    Stream s;
    util::Xoshiro256 rng{0xA51D};
    util::Seconds t{0.0};
    for (int i = 0; i < 48; ++i) {
      storage::IoRequest r;
      r.kind = (rng.next() & 1) != 0 ? storage::IoKind::kWrite
                                     : storage::IoKind::kRead;
      r.offset = rng.uniform_index(64 * 1024) * 4096;
      r.length = static_cast<std::uint32_t>((1 + rng.uniform_index(128)) *
                                            4096);
      t += util::Seconds{rng.uniform(0.0, 0.004)};
      s.requests.push_back(r);
      s.submits.push_back(t);
    }
    return s;
  };

  const Stream stream = make_stream();
  for (const std::string_view label :
       {std::string_view{"hdd"}, std::string_view{"ssd"},
        std::string_view{"nvram"}, std::string_view{"raid0"},
        std::string_view{"faulty"}}) {
    // Legacy synchronous path: chained service_outcome calls, each starting
    // at max(previous end, submit time).
    Rig sync = make_rig(label);
    std::vector<storage::IoOutcome> expected;
    util::Seconds cursor{0.0};
    for (std::size_t i = 0; i < stream.requests.size(); ++i) {
      const util::Seconds start = std::max(cursor, stream.submits[i]);
      expected.push_back(
          sync.dev->service_outcome(stream.requests[i], start));
      cursor = expected.back().end;
    }

    // Async path: queue depth 1, noop scheduler, streaming submit/poll.
    Rig async = make_rig(label);
    storage::AsyncBlockDevice queue(
        *async.dev,
        storage::AsyncDeviceConfig{1, storage::IoSchedulerKind::kNoop});
    for (std::size_t i = 0; i < stream.requests.size(); ++i) {
      queue.submit(stream.requests[i], stream.submits[i]);
    }
    (void)queue.drain();
    std::vector<storage::CompletionRecord> records;
    queue.poll(records);

    const std::string where{label};
    if (records.size() != expected.size()) {
      return fail(where + ": completion count " +
                  std::to_string(records.size()) + " != " +
                  std::to_string(expected.size()));
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].complete.value() != expected[i].end.value()) {
        return fail(where + ": request " + std::to_string(i) +
                    " completion time diverged");
      }
      if (records[i].ok != expected[i].ok ||
          records[i].error != expected[i].error) {
        return fail(where + ": request " + std::to_string(i) +
                    " error state diverged");
      }
    }
    const storage::DeviceCounters& a = sync.dev->counters();
    const storage::DeviceCounters& b = async.dev->counters();
    if (a.reads != b.reads || a.writes != b.writes ||
        a.bytes_read.value() != b.bytes_read.value() ||
        a.bytes_written.value() != b.bytes_written.value()) {
      return fail(where + ": DeviceCounters diverged");
    }
    const auto& sa = sync.dev->activity().segments();
    const auto& sb = async.dev->activity().segments();
    if (sa.size() != sb.size()) {
      return fail(where + ": activity segment count diverged");
    }
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].begin.value() != sb[i].begin.value() ||
          sa[i].end.value() != sb[i].end.value() ||
          sa[i].phase != sb[i].phase) {
        return fail(where + ": activity segment " + std::to_string(i) +
                    " diverged");
      }
    }
  }
  return pass("hdd/ssd/nvram/raid0/faulty: completion times, error states, "
              "DeviceCounters, and DiskActivityLog segments bit-identical "
              "between the async queue (depth 1, noop) and the legacy "
              "synchronous path over a 48-request stream");
}

// ---- observability: watching the run must not change the run ----

OracleResult obs_on_vs_off() {
  struct ObsGuard {
    ~ObsGuard() { obs::set_enabled(false); }
  } guard;

  const core::CaseStudyConfig config = small_pipeline_config();
  const auto run = [&] {
    core::Testbed bed;
    core::PipelineOptions options;
    options.host_threads = 2;
    auto out = core::run_pipeline(bed, config, {}, options);
    return std::pair<core::PipelineOutput, util::Seconds>{std::move(out),
                                                          bed.clock().now()};
  };
  obs::set_enabled(false);
  const auto [off, off_clock] = run();
  obs::set_enabled(true);
  const auto [on, on_clock] = run();
  obs::set_enabled(false);

  if (off.image_digests != on.image_digests) {
    return fail("image digests changed when obs was enabled");
  }
  if (!bits_equal(off.final_field.values(), on.final_field.values())) {
    return fail("final field changed when obs was enabled");
  }
  if (off_clock.value() != on_clock.value()) {
    return fail("virtual clock changed when obs was enabled");
  }
  if (off.snapshot_bytes_written.value() != on.snapshot_bytes_written.value()) {
    return fail("snapshot byte accounting changed when obs was enabled");
  }
  return pass("post-processing outputs (digests, field bits, clock, "
              "snapshot bytes) byte-identical with obs on and off");
}

// ---- energy profiler: attribution must be a read-only observer ----

OracleResult profiler_on_vs_off() {
  struct ProfilerGuard {
    ~ProfilerGuard() { obs::set_energy_profiler_enabled(false); }
  } guard;

  const core::CaseStudyConfig config = small_pipeline_config();
  const auto run = [&] {
    core::PipelineOptions options;
    options.host_threads = 2;
    return core::Experiment().run(core::PipelineKind::kPostProcessing,
                                  config, options);
  };
  obs::set_energy_profiler_enabled(false);
  const core::PipelineMetrics off = run();
  obs::set_energy_profiler_enabled(true);
  const core::PipelineMetrics on = run();
  obs::set_energy_profiler_enabled(false);

  if (off.output.image_digests != on.output.image_digests) {
    return fail("image digests changed when the energy profiler was enabled");
  }
  if (!bits_equal(off.output.final_field.values(),
                  on.output.final_field.values())) {
    return fail("final field changed when the energy profiler was enabled");
  }
  if (off.duration.value() != on.duration.value() ||
      off.energy.value() != on.energy.value() ||
      off.average_power.value() != on.average_power.value() ||
      off.peak_power.value() != on.peak_power.value()) {
    return fail("headline metrics changed when the energy profiler was "
                "enabled");
  }
  // The attribution itself must be bit-identical too: it is always computed
  // (campaign columns depend on it), the flag only gates gauges/counters.
  if (off.attribution.stages.size() != on.attribution.stages.size() ||
      off.attribution.total().value() != on.attribution.total().value() ||
      off.attribution.static_total().value() !=
          on.attribution.static_total().value()) {
    return fail("attribution report changed with the profiler flag");
  }
  for (std::size_t i = 0; i < off.attribution.stages.size(); ++i) {
    const obs::StageEnergy& a = off.attribution.stages[i];
    const obs::StageEnergy& b = on.attribution.stages[i];
    if (a.name != b.name || a.total().value() != b.total().value()) {
      return fail("stage '" + a.name + "' attribution changed with the "
                  "profiler flag");
    }
  }
  return pass("pipeline outputs, headline metrics, and the attribution "
              "report itself byte-identical with the energy profiler on and "
              "off");
}

// ---- snapshot decode: legacy and chunked containers are one namespace ----

OracleResult legacy_vs_chunked_decode() {
  const util::Field2D f = reference_field(65, 43, 5);
  const auto legacy = f.serialize();
  if (codec::FieldCodec::is_container(legacy)) {
    return fail("legacy serialization misdetected as a codec container");
  }
  if (!bits_equal(codec::FieldCodec::decode2d(legacy).values(), f.values())) {
    return fail("legacy 2-D blob did not decode bit-exactly");
  }

  codec::FieldCodec rle{codec::CodecConfig{codec::Kind::kRle, 1e-3, 16}};
  const auto container = rle.encode(f);
  if (!codec::FieldCodec::is_container(container)) {
    return fail("rle container missing magic");
  }
  if (!bits_equal(codec::FieldCodec::decode2d(container).values(),
                  f.values())) {
    return fail("chunked rle container did not decode bit-exactly");
  }

  util::Field3D f3(12, 9, 7);
  util::Xoshiro256 rng{9};
  for (double& v : f3.values()) {
    v = rng.uniform(-50.0, 50.0);
  }
  if (!bits_equal(codec::FieldCodec::decode3d(f3.serialize()).values(),
                  f3.values())) {
    return fail("legacy 3-D blob did not decode bit-exactly");
  }
  codec::FieldCodec raw3{codec::CodecConfig{codec::Kind::kRaw, 1e-3, 8}};
  if (raw3.encode(f3) != f3.serialize()) {
    return fail("3-D raw codec output differs from legacy serialization");
  }
  return pass("legacy and chunked blobs (2-D and 3-D) decode through one "
              "auto-detecting path, bit-exactly");
}

// ---- simd: every vector path must reproduce the scalar bits ----
//
// Runs the SIMD-accelerated workloads — both solvers, the delta codec
// round trip, and the volume renderer — once per supported ISA path and
// diffs every output byte against the scalar reference. Trivially passes
// (with a note) on hosts where scalar is the only supported path.

OracleResult simd_scalar_vs_vector() {
  namespace simd = util::simd;

  struct Outputs {
    std::vector<double> field2d;
    std::vector<double> field3d;
    std::vector<std::uint8_t> blob;
    std::vector<double> decoded;
    std::vector<std::uint64_t> images;
  };
  const auto run = [] {
    Outputs o;

    heat::HeatProblem problem = core::case_study(1).problem;
    problem.nx = 70;  // odd-ish width: exercises the vector remainder tails
    problem.ny = 66;
    problem.executed_sweeps = 10;
    heat::HeatSolver solver(problem, nullptr);
    for (int s = 0; s < 3; ++s) {
      solver.step();
    }
    const auto v2 = solver.temperature().values();
    o.field2d.assign(v2.begin(), v2.end());

    heat::HeatProblem3D p3;
    p3.nx = 22;
    p3.ny = 17;
    p3.nz = 13;
    heat::HeatSolver3D solver3(p3, nullptr);
    for (int s = 0; s < 2; ++s) {
      solver3.step();
    }
    const auto v3 = solver3.temperature().values();
    o.field3d.assign(v3.begin(), v3.end());

    const util::Field2D f = reference_field(97, 61, 23);
    codec::FieldCodec delta{codec::CodecConfig{codec::Kind::kDelta, 1e-4, 32}};
    o.blob = delta.encode(f);
    const util::Field2D dec = codec::FieldCodec::decode2d(o.blob);
    o.decoded.assign(dec.values().begin(), dec.values().end());

    util::Field3D vol(24, 20, 16);
    util::Xoshiro256 rng{41};
    for (double& v : vol.values()) {
      v = rng.uniform(0.0, 1.0);
    }
    vis::VolumeConfig vc;
    vc.width = 48;
    vc.height = 40;
    o.images.push_back(vis::render_volume(vol, vc).digest());
    vc.camera.azimuth_deg = 140.0;
    vc.camera.elevation_deg = -10.0;
    o.images.push_back(vis::render_volume(vol, vc).digest());
    return o;
  };

  const simd::IsaPath before = simd::active_path();
  struct PathGuard {
    simd::IsaPath restore;
    ~PathGuard() { simd::set_path(restore); }
  } guard{before};

  simd::set_path(simd::IsaPath::kScalar);
  const Outputs scalar = run();

  std::string checked;
  for (const simd::IsaPath path : simd::supported_paths()) {
    if (path == simd::IsaPath::kScalar) {
      continue;
    }
    simd::set_path(path);
    const Outputs vec = run();
    const char* name = simd::path_name(path);
    if (!bits_equal(scalar.field2d, vec.field2d)) {
      return fail(std::string(name) + ": 2-D solver field diverged");
    }
    if (!bits_equal(scalar.field3d, vec.field3d)) {
      return fail(std::string(name) + ": 3-D solver field diverged");
    }
    if (scalar.blob != vec.blob) {
      return fail(std::string(name) + ": delta codec bytes diverged");
    }
    if (!bits_equal(scalar.decoded, vec.decoded)) {
      return fail(std::string(name) + ": delta codec decode diverged");
    }
    if (scalar.images != vec.images) {
      return fail(std::string(name) + ": volume render digests diverged");
    }
    checked += checked.empty() ? name : std::string(", ") + name;
  }
  if (checked.empty()) {
    return pass("scalar is the only supported path on this host — nothing "
                "to diff (vacuous pass)");
  }
  return pass("solver fields, codec bytes, decode bits, and render digests "
              "bit-identical to scalar for: " + checked);
}

// ---- serving: the frame cache is a host accelerator, not a model knob ----
//
// The modeled system always dedups shared views; the FrameCache flag only
// decides whether the host re-rasters. So everything the model reports —
// deliveries, virtual duration, joules, the per-viewer split — must be
// bit-identical cache on vs off, while the host-side counters diverge in
// exactly the predicted way (misses = unique views, hits = sharers).

OracleResult serve_cached_vs_uncached() {
  serve::ServeConfig config;
  config.base = small_pipeline_config();
  config.base.iterations = 8;
  config.viewers = serve::default_fleet(6, 3);
  serve::SteerCommand steer;
  steer.step = 4;
  steer.viewer = 1;
  steer.kind = serve::SteerKind::kIsoLevels;
  steer.iso_levels = 9;
  config.commands.push_back(steer);

  config.cache_enabled = true;
  const serve::ServeReport on = serve::run_serve_session(config);
  config.cache_enabled = false;
  const serve::ServeReport off = serve::run_serve_session(config);

  if (on.deliveries.size() != off.deliveries.size()) {
    return fail("delivery counts differ between cache on and off");
  }
  for (std::size_t i = 0; i < on.deliveries.size(); ++i) {
    const serve::Delivery& a = on.deliveries[i];
    const serve::Delivery& b = off.deliveries[i];
    if (a.step != b.step || a.viewer != b.viewer || a.key != b.key ||
        a.digest != b.digest || a.bytes != b.bytes) {
      return fail("delivery " + std::to_string(i) +
                  " diverged between cache on and off");
    }
  }
  if (on.duration.value() != off.duration.value() ||
      on.energy.value() != off.energy.value() ||
      on.average_power.value() != off.average_power.value() ||
      on.peak_power.value() != off.peak_power.value()) {
    return fail("virtual duration or energy changed with the cache flag");
  }
  if (on.attribution.total().value() != off.attribution.total().value() ||
      on.attribution.static_total().value() !=
          off.attribution.static_total().value()) {
    return fail("energy attribution changed with the cache flag");
  }
  if (on.viewers.size() != off.viewers.size()) {
    return fail("per-viewer row counts differ");
  }
  for (std::size_t i = 0; i < on.viewers.size(); ++i) {
    const serve::ViewerEnergy& a = on.viewers[i];
    const serve::ViewerEnergy& b = off.viewers[i];
    if (a.viewer != b.viewer || a.frames != b.frames || a.bytes != b.bytes ||
        a.render_share_s != b.render_share_s || a.render_j != b.render_j ||
        a.encode_j != b.encode_j || a.deliver_j != b.deliver_j) {
      return fail("viewer " + std::to_string(a.viewer) +
                  " energy split changed with the cache flag");
    }
  }
  if (on.unique_views_rendered != off.unique_views_rendered) {
    return fail("modeled unique-view count changed with the cache flag");
  }
  // Host-side divergence, exactly as predicted.
  if (on.cache.hits == 0 ||
      on.cache.misses != on.unique_views_rendered ||
      on.host_renders != on.cache.misses) {
    return fail("cache-on counters inconsistent (hits " +
                std::to_string(on.cache.hits) + ", misses " +
                std::to_string(on.cache.misses) + ", host renders " +
                std::to_string(on.host_renders) + ")");
  }
  if (off.cache.lookups() != 0 ||
      off.host_renders != off.frames_delivered) {
    return fail("cache-off path touched the cache or skipped a render");
  }
  std::ostringstream os;
  os << on.deliveries.size() << " deliveries to " << on.viewers.size()
     << " viewers: payload digests, virtual time, joules, and per-viewer "
        "splits bit-identical cache on/off; host renders "
     << on.host_renders << " vs " << off.host_renders;
  return pass(os.str());
}

}  // namespace

OracleResult run_oracle(const std::string& name) {
  const auto& registry = OracleRegistry::global();
  if (!registry.contains(name)) {
    throw util::ContractViolation("unknown qa oracle '" + name + "'");
  }
  try {
    OracleResult result = registry.run(name);
    result.name = name;
    return result;
  } catch (const std::exception& e) {
    return OracleResult{name, false,
                        std::string("unhandled exception: ") + e.what()};
  }
}

std::vector<OracleResult> run_all_oracles() {
  std::vector<OracleResult> out;
  for (const std::string& name : OracleRegistry::global().names()) {
    out.push_back(run_oracle(name));
  }
  return out;
}

void register_builtin_oracles() {
  auto& registry = OracleRegistry::global();
  registry.add("solver.serial_vs_pool", solver_serial_vs_pool);
  registry.add("pipeline.serial_vs_pool", pipeline_serial_vs_pool);
  registry.add("pipeline.sync_vs_async", pipeline_sync_vs_async);
  registry.add("batch.sharded_vs_serial", batch_sharded_vs_serial);
  registry.add("codec.raw_vs_delta", codec_raw_vs_delta);
  registry.add("storage.cache_on_vs_off", cache_on_vs_off);
  registry.add("storage.async_vs_sync", storage_async_vs_sync);
  registry.add("obs.on_vs_off", obs_on_vs_off);
  registry.add("obs.profiler_on_off", profiler_on_vs_off);
  registry.add("codec.legacy_vs_chunked_decode", legacy_vs_chunked_decode);
  registry.add("simd.scalar_vs_vector", simd_scalar_vs_vector);
  registry.add("serve.cached_vs_uncached", serve_cached_vs_uncached);
}

}  // namespace greenvis::qa
