#include "src/core/experiment.hpp"

#include <cmath>

#include "src/io/dataset.hpp"
#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"

namespace greenvis::core {

const char* pipeline_kind_name(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::kPostProcessing:
      return "Traditional";
    case PipelineKind::kPostProcessingAsync:
      return "Traditional (async)";
    case PipelineKind::kInSitu:
      return "In-situ";
  }
  return "?";
}

PipelinePlan pipeline_plan(PipelineKind kind) {
  PipelinePlan plan;
  if (kind == PipelineKind::kPostProcessingAsync) {
    plan.sink = SnapshotSink::kStaged;
  } else if (kind == PipelineKind::kInSitu) {
    plan.sink = SnapshotSink::kNone;
  }
  return plan;
}

PipelineMetrics Experiment::run(PipelineKind kind,
                                const CaseStudyConfig& config,
                                const PipelineOptions& options) const {
  obs::ScopedSpan span("experiment:", config.name, obs::kCatCore);
  if (obs::enabled()) {
    static obs::Counter& runs =
        obs::Registry::global().counter("core.experiment_runs");
    runs.add(1);
  }
  Testbed bed(base_);
  PipelineOutput out = run_pipeline(bed, config, pipeline_plan(kind), options);

  PipelineMetrics m;
  m.pipeline_name = out.pipeline_name;
  m.case_name = config.name;
  m.duration = bed.clock().now();
  m.timeline = bed.phases();
  m.trace = bed.profile();
  m.energy = m.trace.energy(&power::PowerSample::system);
  m.average_power = m.trace.average(&power::PowerSample::system);
  m.peak_power = m.trace.peak(&power::PowerSample::system);
  const double cells = static_cast<double>((config.problem.nx - 2) *
                                           (config.problem.ny - 2));
  const double work = cells * static_cast<double>(config.iterations);
  m.efficiency = work / m.energy.value();
  m.output = std::move(out);
  m.attribution = obs::EnergyAttributor(bed.power_model())
                      .attribute(m.timeline, bed.loads(),
                                 bed.device().activity(), m.duration);
  if (obs::energy_profiler_enabled()) {
    obs::publish_energy_profile(
        m.attribution,
        obs::rail_power_series(bed.loads(), bed.device().activity(),
                               bed.power_model(), m.duration));
  }
  return m;
}

namespace {

/// The nnwrite / nnread stage experiment: `steps` isolated writes, or cold
/// reads of a prepared dataset, measured from a whole sampling second.
StageRun run_stage(const TestbedConfig& base, const CaseStudyConfig& config,
                   int steps, bool write) {
  GREENVIS_REQUIRE(steps >= 1);
  Testbed bed(base);
  util::ThreadPool pool(1);
  heat::HeatSolver solver(config.problem, &pool);
  solver.step();  // something physical to write
  const auto payload = solver.temperature().serialize();
  io::TimestepWriter writer(bed.fs(), config.dataset);
  io::TimestepReader reader(bed.fs(), config.dataset);
  if (!write) {
    // Preparation (unmeasured): write the dataset, then flush everything
    // out of the caches so the reads are cold.
    for (int s = 0; s < steps; ++s) {
      writer.write_step(s, payload);
    }
    bed.fs().drop_caches();
  }

  // Align the measured window to whole sampling seconds.
  bed.clock().advance_to(util::Seconds{std::ceil(bed.clock().now().value())});
  const util::Seconds t0 = bed.clock().now();
  for (int s = 0; s < steps; ++s) {
    bed.run_io(write ? stage::kWrite : stage::kRead, config.io_stage_cores,
               config.io_stage_utilization, [&] {
                 if (write) {
                   writer.write_step(s, payload);
                 } else {
                   (void)reader.read_step(s);
                 }
               });
  }
  const util::Seconds t1 = bed.clock().now();

  StageRun run;
  run.name = write ? "nnwrite" : "nnread";
  run.duration = t1 - t0;
  run.trace = bed.profile().slice(t0, t1);
  run.average_power = run.trace.average(&power::PowerSample::system);
  run.average_dynamic_power =
      run.average_power - bed.power_model().idle_system_power();
  return run;
}

}  // namespace

StageRun Experiment::run_write_stage(const CaseStudyConfig& config,
                                     int steps) const {
  return run_stage(base_, config, steps, true);
}

StageRun Experiment::run_read_stage(const CaseStudyConfig& config,
                                    int steps) const {
  return run_stage(base_, config, steps, false);
}

}  // namespace greenvis::core
