// Ablation A1 (paper future work): the four fio jobs across storage device
// classes — HDD vs SATA SSD vs NVRAM.
#include <iostream>

#include "bench/common.hpp"
#include "src/fio/runner.hpp"

int main() {
  using namespace greenvis;
  std::cout << "=== Ablation: storage device sweep (fio, 1 GB jobs) ===\n\n";

  struct Device {
    const char* name;
    storage::DeviceKind kind;
  };
  const Device devices[] = {{"HDD 7200rpm", storage::DeviceKind::kHdd},
                            {"SATA SSD", storage::DeviceKind::kSsd},
                            {"NVRAM", storage::DeviceKind::kNvram}};

  util::TextTable t({"Device", "Job", "Time (s)", "System W", "Energy (kJ)"});
  for (const auto& dev : devices) {
    fio::FioRunnerConfig config;
    config.device = dev.kind;
    const fio::FioRunner runner(config);
    for (const auto mode :
         {fio::RwMode::kSequentialRead, fio::RwMode::kRandomRead,
          fio::RwMode::kSequentialWrite, fio::RwMode::kRandomWrite}) {
      fio::FioJob job = fio::table3_job(mode);
      job.total_size = util::gibibytes(1);  // smaller sweep per device
      std::cerr << "[bench] " << dev.name << " / " << job.name << "...\n";
      const auto out = runner.run(job);
      t.add_row({dev.name, job.name,
                 util::cell(out.result.execution_time.value()),
                 util::cell(out.result.full_system_power.value()),
                 util::cell(out.result.full_system_energy.value() / 1000.0)});
    }
  }
  std::cout << t.render();
  std::cout
      << "\nTakeaway: solid-state devices collapse the random-access "
         "penalty that motivates both in-situ processing and data "
         "reorganization on spinning disks — the paper's future-work "
         "question answered on the model.\n";
  return 0;
}
