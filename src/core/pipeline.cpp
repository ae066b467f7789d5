#include "src/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>

#include "src/codec/field_codec.hpp"
#include "src/io/dataset.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/sched/staging.hpp"
#include "src/util/error.hpp"
#include "src/vis/filters.hpp"

namespace greenvis::core {

machine::ActivityRecord snapshot_codec_activity(std::size_t cells,
                                                SnapshotTransform transform) {
  const double n = static_cast<double>(cells);
  machine::ActivityRecord work;
  work.flops = n * (transform == SnapshotTransform::kCompress ? 60.0 : 12.0);
  work.active_cores = 1;
  work.dram_bytes = util::Bytes{static_cast<std::uint64_t>(n * 16)};
  return work;
}

namespace {

/// Encodes the live field for storage and decodes read-back payloads (which
/// arrive in write order) into the field to render. Dispatch is once per
/// snapshot, never per cell.
class Transform {
 public:
  virtual ~Transform() = default;
  virtual void encode(const util::Field2D& field, util::ScratchArena& arena,
                      std::vector<std::uint8_t>& payload) = 0;
  virtual const util::Field2D& decode(std::span<const std::uint8_t> payload,
                                      util::ScratchArena& arena) = 0;
  /// Publish the reconstruction-quality fields after the last decode.
  virtual void finish(PipelineOutput& out) const { (void)out; }

  /// Modeled compute charged per encode and per decode (none when free).
  std::optional<machine::ActivityRecord> work;
};

/// config.snapshot_codec. Raw by default: byte-identical to the legacy
/// serialization, and no modeled codec compute is charged.
class CodecTransform final : public Transform {
 public:
  CodecTransform(const codec::CodecConfig& config, std::size_t cells,
                 util::ThreadPool& pool)
      : codec_(config) {
    // Chunk encode may fan out across the pool for large fields (bytes are
    // pool-size-invariant).
    codec_.set_pool(&pool);
    if (codec_.active()) {
      work = snapshot_codec_activity(cells);
    }
  }
  void encode(const util::Field2D& field, util::ScratchArena& arena,
              std::vector<std::uint8_t>& payload) override {
    codec_.set_arena(&arena);
    codec_.encode(field, payload);
  }
  const util::Field2D& decode(std::span<const std::uint8_t> payload,
                              util::ScratchArena& arena) override {
    codec_.set_arena(&arena);
    codec_.decode_into(payload, field_);
    return field_;
  }

 private:
  codec::FieldCodec codec_;
  util::Field2D field_;
};

/// Stride sampling. Keeps the exact fields to score the reconstruction (an
/// analysis convenience — the testbed app would not retain them).
class SampleTransform final : public Transform {
 public:
  explicit SampleTransform(std::size_t stride) : stride_(stride) {
    GREENVIS_REQUIRE(stride >= 1);
  }
  void encode(const util::Field2D& field, util::ScratchArena& /*arena*/,
              std::vector<std::uint8_t>& payload) override {
    payload = vis::downsample(field, stride_).serialize();
    truths_.push_back(field);
  }
  const util::Field2D& decode(std::span<const std::uint8_t> payload,
                              util::ScratchArena& /*arena*/) override {
    const util::Field2D& truth = truths_[decoded_++];
    util::Field2D sampled = util::Field2D::deserialize(payload);
    field_ = stride_ == 1 ? std::move(sampled)
                          : vis::resample(sampled, truth.nx(), truth.ny());
    error_sum_ += vis::rms_difference(field_, truth);
    return field_;
  }
  void finish(PipelineOutput& out) const override {
    out.mean_rms_error =
        decoded_ > 0 ? error_sum_ / static_cast<double>(decoded_) : 0.0;
  }

 private:
  std::size_t stride_;
  std::vector<util::Field2D> truths_;
  std::size_t decoded_{0};
  double error_sum_{0.0};
  util::Field2D field_;
};

/// io::compress Lorenzo codec, charged both ways. Keeps the exact fields to
/// score the reconstruction.
class CompressTransform final : public Transform {
 public:
  CompressTransform(const io::CompressConfig& config, std::size_t cells)
      : config_(config) {
    work = snapshot_codec_activity(cells, SnapshotTransform::kCompress);
  }
  void encode(const util::Field2D& field, util::ScratchArena& /*arena*/,
              std::vector<std::uint8_t>& payload) override {
    payload = io::compress_field(field, config_);
    ratio_sum_ += io::compression_ratio(field, payload);
    truths_.push_back(field);
  }
  const util::Field2D& decode(std::span<const std::uint8_t> payload,
                              util::ScratchArena& /*arena*/) override {
    field_ = io::decompress_field(payload);
    const util::Field2D& truth = truths_[decoded_++];
    for (std::size_t k = 0; k < field_.size(); ++k) {
      max_abs_error_ = std::max(
          max_abs_error_, std::abs(field_.values()[k] - truth.values()[k]));
    }
    return field_;
  }
  void finish(PipelineOutput& out) const override {
    out.max_abs_error = max_abs_error_;
    out.mean_compression_ratio =
        decoded_ > 0 ? ratio_sum_ / static_cast<double>(decoded_) : 0.0;
  }

 private:
  io::CompressConfig config_;
  std::vector<util::Field2D> truths_;
  std::size_t decoded_{0};
  double ratio_sum_{0.0};
  double max_abs_error_{0.0};
  util::Field2D field_;
};

std::unique_ptr<Transform> make_transform(const CaseStudyConfig& config,
                                          const PipelinePlan& plan,
                                          util::ThreadPool& pool) {
  const std::size_t cells = config.problem.nx * config.problem.ny;
  switch (plan.transform) {
    case SnapshotTransform::kSample:
      return std::make_unique<SampleTransform>(plan.stride);
    case SnapshotTransform::kCompress:
      return std::make_unique<CompressTransform>(plan.compress, cells);
    case SnapshotTransform::kCodec:
      break;
  }
  return std::make_unique<CodecTransform>(config.snapshot_codec, cells, pool);
}

std::string pipeline_name(const PipelinePlan& plan) {
  if (plan.sink == SnapshotSink::kNone) {
    return "In-situ";
  }
  std::string detail;
  switch (plan.transform) {
    case SnapshotTransform::kCodec:
      break;
    case SnapshotTransform::kSample:
      detail = "sampled 1/" + std::to_string(plan.stride);
      break;
    case SnapshotTransform::kCompress:
      detail = plan.compress.mode == io::CompressionMode::kLossless
                   ? "lossless compression"
                   : "lossy, eb=" + std::to_string(plan.compress.error_bound);
      break;
  }
  if (plan.sink == SnapshotSink::kStaged) {
    detail = detail.empty() ? "async staging" : "async staging, " + detail;
  }
  return detail.empty() ? "Post-processing"
                        : "Post-processing (" + detail + ")";
}

}  // namespace

PipelineOutput run_pipeline(Testbed& bed, const CaseStudyConfig& config,
                            const PipelinePlan& plan,
                            const PipelineOptions& options) {
  PipelineOutput out;
  out.pipeline_name = pipeline_name(plan);
  util::ThreadPool pool(options.host_threads);
  heat::HeatSolver solver(config.problem, &pool);
  vis::VisPipeline vis_pipeline(config.vis, &pool);
  vis::Image frame;  // reused across visualize steps
  const std::unique_ptr<Transform> transform =
      plan.sink == SnapshotSink::kNone ? nullptr
                                       : make_transform(config, plan, pool);
  io::TimestepWriter writer(bed.fs(), config.dataset);
  // The sync sink's one snapshot slot, then the read-back buffer. Its
  // payload and arena are reused, so the steady-state encode/decode path
  // performs zero heap allocations.
  sched::StagedSnapshot buffer;

  // Every charge lands on the producer's compute cursor `cpu`. Synchronous
  // I/O regions bring the shared clock up to the cursor (run_io_at); under
  // the staged sink the writer thread owns the clock until the drain
  // barrier, placing write k at max(write k-1 end, snapshot k ready).
  util::Seconds cpu = bed.clock().now();
  const auto compute = [&](const machine::ActivityRecord& work,
                           const char* phase) {
    cpu = bed.run_compute_at(cpu, work, phase);
  };
  const auto io = [&](const char* phase, const std::function<void()>& body) {
    cpu = bed.run_io_at(cpu, phase, config.io_stage_cores,
                        config.io_stage_utilization, body);
  };
  const auto visualize = [&](const util::Field2D& field) {
    obs::ScopedSpan span("stage.visualize", obs::kCatStage);
    vis_pipeline.render_into(field, frame);
    compute(vis_pipeline.render_activity(), stage::kVisualization);
    out.image_digests.push_back(frame.digest());
    ++out.visualized_steps;
    if (options.keep_images) {
      out.images.push_back(frame);
    }
  };

  // Staged sink: writer-side load/phase intervals go to private sinks and
  // are merged at the drain barrier, so the main timelines see genuinely
  // concurrent simulate/write activity.
  machine::LoadTimeline writer_loads;
  trace::Timeline writer_phases;
  std::optional<sched::AsyncStager> stager;
  if (plan.sink == SnapshotSink::kStaged) {
    stager.emplace(
        sched::StagingConfig{options.stage_buffers,
                             std::min(options.stage_queue_depth,
                                      options.stage_buffers)},
        [&](std::span<sched::StagedSnapshot* const> batch,
            util::Seconds start) {
          // One claimed window: successive writes chain through `t`, and
          // no snapshot's write starts before its encode finished.
          util::Seconds t = start;
          for (sched::StagedSnapshot* snap : batch) {
            t = bed.run_io_at(
                std::max(t, snap->ready), stage::kWrite,
                config.io_stage_cores, config.io_stage_utilization,
                [&] { writer.write_step(snap->step, snap->payload); },
                &writer_loads, &writer_phases);
          }
          return t;
        });
  }

  for (int step = 0; step < config.iterations; ++step) {
    {
      obs::ScopedSpan span("stage.simulate", obs::kCatStage);
      solver.step();
      compute(solver.step_activity(), stage::kSimulation);
    }
    if (!config.is_io_step(step)) {
      continue;
    }
    const util::Field2D& field = solver.temperature();
    if (plan.sink == SnapshotSink::kNone) {
      visualize(field);
      continue;
    }
    sched::StagedSnapshot* snap = &buffer;
    if (stager) {
      const sched::AsyncStager::Slot slot = stager->acquire();
      if (slot.freed_at > cpu) {
        // Backpressure: the ring was still draining past our cursor. The
        // producer busy-waits like an I/O region until the slot's write
        // ends.
        bed.record_stall(stage::kWrite, cpu, slot.freed_at,
                         config.io_stage_cores, config.io_stage_utilization);
        cpu = slot.freed_at;
        if (obs::enabled()) {
          static obs::Counter& stalls =
              obs::Registry::global().counter("sched.virtual_stalls");
          stalls.add(1);
        }
      }
      snap = slot.snapshot;
    }
    snap->arena.reset();
    {
      obs::ScopedSpan span("stage.encode", obs::kCatStage);
      transform->encode(field, snap->arena, snap->payload);
    }
    if (transform->work) {
      compute(*transform->work, stage::kSimulation);
    }
    snap->step = step;
    snap->raw_bytes = field.serialized_bytes();
    out.snapshot_bytes_written += util::Bytes{snap->payload.size()};
    out.snapshot_bytes_raw += util::Bytes{snap->raw_bytes};
    if (stager) {
      stager->submit(cpu);
    } else {
      io(stage::kWrite, [&] { writer.write_step(step, snap->payload); });
    }
  }
  out.steps = config.iterations;
  out.final_field = solver.temperature();

  if (stager) {
    // Drain barrier: everything staged is on disk; both tracks join at the
    // later of compute-end and write-end.
    cpu = std::max(cpu, stager->drain());
    bed.loads().merge(writer_loads);
    for (const auto& iv : writer_phases.intervals()) {
      bed.phases().record(iv.category, iv.begin, iv.end);
    }
  }
  if (plan.sink != SnapshotSink::kNone) {
    // Sync and drop the caches (Sec. IV-C) so the read phase really hits
    // the disk, then read each written step back, decode and render it.
    io(stage::kWrite, [&] { bed.fs().drop_caches(); });
    io::TimestepReader reader(bed.fs(), config.dataset);
    for (int step = 0; step < config.iterations; ++step) {
      if (!config.is_io_step(step)) {
        continue;
      }
      io(stage::kRead, [&] { buffer.payload = reader.read_step(step); });
      buffer.arena.reset();
      const util::Field2D& field = transform->decode(buffer.payload,
                                                     buffer.arena);
      if (transform->work) {
        compute(*transform->work, stage::kRead);
      }
      out.snapshot_bytes_read += util::Bytes{buffer.payload.size()};
      visualize(field);
    }
    transform->finish(out);
  }
  // The shared clock ends where the producer's cursor does.
  if (cpu > bed.clock().now()) {
    bed.clock().advance_to(cpu);
  }
  return out;
}

}  // namespace greenvis::core
