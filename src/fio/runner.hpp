// fio job runner.
//
// Executes one job against a freshly built storage stack (HDD model + page
// cache + filesystem) on its own virtual clock, profiles power with the
// standard 1 Hz rig, and reports the five Table III metrics. Preparation
// (laying out the 4 GB file, sync, drop_caches) happens before the measured
// window, as a benchmark harness would arrange.
#pragma once

#include <memory>

#include "src/fio/job.hpp"
#include "src/machine/spec.hpp"
#include "src/power/calibration.hpp"
#include "src/power/profiler.hpp"
#include "src/power/trace.hpp"
#include "src/storage/block_device.hpp"

namespace greenvis::fio {

struct FioRunnerConfig {
  machine::NodeSpec node{machine::sandy_bridge_testbed()};
  storage::DeviceKind device{storage::DeviceKind::kHdd};
  power::PowerCalibration calibration{};
  /// Host-memory copy rate for buffered I/O (per-syscall memcpy).
  util::BytesPerSecond memcpy_rate{util::mebibytes_per_second(8.0 * 1024.0)};
};

struct FioRunOutput {
  FioResult result;
  power::PowerTrace trace{util::Seconds{1.0}};  // measured window only
};

class FioRunner {
 public:
  explicit FioRunner(const FioRunnerConfig& config = {});

  /// Run one job on a fresh stack.
  [[nodiscard]] FioRunOutput run(const FioJob& job) const;

 private:
  FioRunnerConfig config_;
};

}  // namespace greenvis::fio
