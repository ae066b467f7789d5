// The visualization pipelines of Fig. 2 as one timestep driver.
//
// Every pipeline runs the same solver and the same renderer; they differ
// only in where each output step's snapshot goes (the sink) and how it is
// encoded on the way (the transform):
//
//   sink    | per output step                        | then
//   --------+----------------------------------------+-----------------------
//   none    | render the live field (in-situ)        | -
//   sync    | encode, write, wait for the write      | drop_caches; read back,
//   staged  | encode into the sched::AsyncStager     |   decode and render
//           | ring; a writer thread drains it while  |   every written step
//           | the solver advances                    |
//
//   transform | encode / decode                          | modeled codec cost
//   ----------+------------------------------------------+-------------------
//   codec     | codec::FieldCodec (config.snapshot_codec)| 12 flop/cell when
//             |                                          | the codec is active
//   sample    | keep every stride-th sample; bilinear    | none
//             | resample on read (Woodring et al. [21])  |
//   compress  | io::compress Lorenzo codec, lossless or  | 60 flop/cell, both
//             | error-bounded (Wang et al. [22])         | ways
//
// For a given case study the sync and staged sinks write identical bytes and
// every sink renders identical images (asserted via digests); only where the
// data travels — and what overlaps with what — differs, which is precisely
// the trade the paper prices.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/io/compress.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/image.hpp"

namespace greenvis::core {

/// Canonical phase names used in timelines and Fig. 4.
namespace stage {
inline constexpr const char* kSimulation = "Simulation";
inline constexpr const char* kWrite = "Write";
inline constexpr const char* kRead = "Read";
inline constexpr const char* kVisualization = "Visualization";
}  // namespace stage

/// Where each output step's snapshot goes (see the file comment).
enum class SnapshotSink { kNone, kSync, kStaged };

/// How a snapshot is encoded for storage (see the file comment).
enum class SnapshotTransform { kCodec, kSample, kCompress };

struct PipelinePlan {
  SnapshotSink sink{SnapshotSink::kSync};
  SnapshotTransform transform{SnapshotTransform::kCodec};
  /// kSample: keep every stride-th sample in each dimension (>= 1).
  std::size_t stride{1};
  /// kCompress: mode and error bound of the Lorenzo codec.
  io::CompressConfig compress{};
};

struct PipelineOutput {
  std::string pipeline_name;
  /// One digest per visualized step, in step order.
  std::vector<std::uint64_t> image_digests;
  /// Final temperature field (for cross-pipeline equality checks).
  util::Field2D final_field;
  int steps{0};
  int visualized_steps{0};
  /// Snapshot payload accounting (zero for in-situ). With the raw codec
  /// written == raw; with an active transform written < raw and the storage
  /// counters shrink proportionally.
  util::Bytes snapshot_bytes_written{0};
  util::Bytes snapshot_bytes_read{0};
  util::Bytes snapshot_bytes_raw{0};
  /// Reconstruction quality, set only by the transforms that lose data:
  /// kSample the mean RMS error over read-back steps, kCompress the largest
  /// per-value error and the mean compression ratio.
  std::optional<double> mean_rms_error;
  std::optional<double> max_abs_error;
  std::optional<double> mean_compression_ratio;
  /// Kept only when `keep_images` was requested.
  std::vector<vis::Image> images;
};

struct PipelineOptions {
  bool keep_images{false};
  /// Host threads for solver/renderer (0 = hardware concurrency).
  std::size_t host_threads{0};
  /// Staging ring slots for the staged sink (>= 1).
  std::size_t stage_buffers{2};
  /// Snapshots the staging writer claims per wake and submits to storage
  /// as one window (>= 1; capped by stage_buffers). 1 is the legacy
  /// one-write-per-wake behavior and keeps async-pipeline figures
  /// byte-identical.
  std::size_t stage_queue_depth{1};
};

/// Modeled cost of one snapshot encode or decode of `cells` values: one
/// streaming read plus one write of the field, and a handful of ops per cell
/// (quantize + delta + pack for kCodec; predictor + quantize for kCompress).
[[nodiscard]] machine::ActivityRecord snapshot_codec_activity(
    std::size_t cells,
    SnapshotTransform transform = SnapshotTransform::kCodec);

/// Run `plan` on `bed`: simulate config.iterations steps and send every
/// io_period-th step to the plan's sink. The testbed's clock and timelines
/// advance; call bed.profile() afterwards for the power trace.
[[nodiscard]] PipelineOutput run_pipeline(Testbed& bed,
                                          const CaseStudyConfig& config,
                                          const PipelinePlan& plan,
                                          const PipelineOptions& options = {});

}  // namespace greenvis::core
