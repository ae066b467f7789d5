#include "src/core/testbed.hpp"

#include <cmath>

#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"

namespace greenvis::core {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config), cost_(config.node, config.cost) {
  device_ = storage::make_device(config_.device, config_.node.disk);
  fs_ = std::make_unique<storage::Filesystem>(*device_, clock_, config_.fs);
}

double Testbed::governed_frequency(
    const machine::ActivityRecord& activity) const {
  if (config_.package_cap.value() <= 0.0) {
    return config_.frequency_ghz;
  }
  const power::PowerModel model = power_model();
  const auto ladder = machine::e5_2665_pstates();
  // Walk the ladder downward until the package fits under the cap; the
  // lowest P-state is granted unconditionally (RAPL cannot go below Pn).
  double granted = ladder.front().frequency_ghz;
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    if (it->frequency_ghz > config_.frequency_ghz + 1e-9) {
      continue;  // never exceed the configured clock
    }
    machine::ComponentLoad load;
    load.active_cores = static_cast<double>(activity.active_cores);
    load.core_utilization = activity.core_utilization;
    load.frequency_ghz = it->frequency_ghz;
    if (model.package_power(load) <= config_.package_cap) {
      granted = it->frequency_ghz;
      break;
    }
  }
  return granted;
}

void Testbed::run_compute(const machine::ActivityRecord& activity,
                          const std::string& phase) {
  clock_.advance_to(run_compute_at(clock_.now(), activity, phase));
}

util::Seconds Testbed::run_compute_at(util::Seconds start,
                                      const machine::ActivityRecord& activity,
                                      const std::string& phase) {
  const double freq = governed_frequency(activity);
  const util::Seconds dur = cost_.duration(activity, freq);
  loads_.add(start, start + dur, cost_.load(activity, dur, freq));
  phases_.record(phase, start, start + dur);
  return start + dur;
}

void Testbed::run_io(const std::string& phase, double cores,
                     double utilization, const std::function<void()>& body) {
  (void)run_io_at(clock_.now(), phase, cores, utilization, body);
}

util::Seconds Testbed::run_io_at(util::Seconds start, const std::string& phase,
                                 double cores, double utilization,
                                 const std::function<void()>& body,
                                 machine::LoadTimeline* loads,
                                 trace::Timeline* phases) {
  GREENVIS_REQUIRE(cores >= 0.0 && utilization > 0.0 && utilization <= 1.0);
  // Host wall-clock span around the real storage-model work; the virtual
  // interval is recorded separately below.
  obs::ScopedSpan span("stage.io:", phase, obs::kCatIo);
  if (start > clock_.now()) {
    clock_.advance_to(start);
  }
  const util::Seconds t0 = clock_.now();
  body();
  const util::Seconds t1 = clock_.now();
  record_io(phase, t0, t1, cores, utilization,
            loads != nullptr ? *loads : loads_,
            phases != nullptr ? *phases : phases_);
  return t1;
}

void Testbed::record_stall(const std::string& phase, util::Seconds begin,
                           util::Seconds end, double cores,
                           double utilization) {
  GREENVIS_REQUIRE(cores >= 0.0 && utilization > 0.0 && utilization <= 1.0);
  record_io(phase, begin, end, cores, utilization, loads_, phases_);
}

void Testbed::record_io(const std::string& phase, util::Seconds begin,
                        util::Seconds end, double cores, double utilization,
                        machine::LoadTimeline& loads,
                        trace::Timeline& phases) const {
  if (end <= begin) {
    return;
  }
  machine::ComponentLoad load;
  load.active_cores = cores;
  load.core_utilization = utilization;
  load.frequency_ghz = config_.effective_io_ghz();
  loads.add(begin, end, load);
  phases.record(phase, begin, end);
}

void Testbed::idle(util::Seconds duration) { clock_.advance(duration); }

power::PowerModel Testbed::power_model() const {
  return power::PowerModel(config_.calibration,
                           power::disk_power_params(config_.device));
}

power::PowerTrace Testbed::profile() const {
  const power::PowerModel model = power_model();
  power::PowerProfiler profiler(model, config_.profiler);
  return profiler.profile(loads_, device_.get(), clock_.now());
}

}  // namespace greenvis::core
