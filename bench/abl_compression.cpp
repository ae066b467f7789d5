// Ablation A9: application-driven compression (Wang et al. [22]) on the
// post-processing pipeline — energy and quality across error bounds.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace greenvis;
  std::cout << "=== Ablation: compressed post-processing (case study 1) "
               "===\n\n";

  const auto config = core::case_study(1);
  struct Codec {
    const char* name;
    io::CompressConfig config;
  };
  const Codec codecs[] = {
      {"none", {}},
      {"lossless", {io::CompressionMode::kLossless, 0.0}},
      {"lossy eb=1e-3", {io::CompressionMode::kLossyAbsBound, 1e-3}},
      {"lossy eb=1e-1", {io::CompressionMode::kLossyAbsBound, 0.1}},
      {"lossy eb=1", {io::CompressionMode::kLossyAbsBound, 1.0}},
  };

  util::TextTable t({"Codec", "Ratio", "Bytes written (MB)", "Time (s)",
                     "Energy (kJ)", "Max abs error", "Savings"});
  double baseline_energy = 0.0;
  for (const auto& codec : codecs) {
    std::cerr << "[bench] " << codec.name << "...\n";
    core::Testbed bed;
    double ratio = 1.0;
    double written_mb = 0.0;
    double max_err = 0.0;
    if (std::string(codec.name) == "none") {
      (void)core::run_pipeline(bed, config, {});
      written_mb =
          static_cast<double>(config.io_steps()) * 128.0 / 1024.0;
    } else {
      const auto out = core::run_pipeline(
          bed, config,
          {.transform = core::SnapshotTransform::kCompress,
           .compress = codec.config});
      ratio = *out.mean_compression_ratio;
      written_mb = out.snapshot_bytes_written.megabytes();
      max_err = *out.max_abs_error;
    }
    const auto trace = bed.profile();
    const double energy = trace.energy(&power::PowerSample::system).value();
    if (baseline_energy == 0.0) {
      baseline_energy = energy;
    }
    t.add_row({codec.name, util::cell(ratio, 1), util::cell(written_mb, 2),
               util::cell(bed.clock().now().value()),
               util::cell(energy / 1000.0), util::cell(max_err, 4),
               util::cell_percent(1.0 - energy / baseline_energy)});
  }
  std::cout << t.render();
  std::cout
      << "\nTakeaway: predictive compression shrinks the sync-write volume "
         "(and with it the idle-dominated I/O time) at bounded quality "
         "cost — another point on the Sec. V-D spectrum between raw "
         "post-processing and in-situ.\n";
  return 0;
}
