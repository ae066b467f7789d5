#include "src/storage/block_device.hpp"

#include <vector>

#include "src/storage/hdd.hpp"
#include "src/storage/nvme.hpp"
#include "src/storage/raid.hpp"
#include "src/storage/solid_state.hpp"

namespace greenvis::storage {

IoOutcome BlockDevice::service_outcome(const IoRequest& request,
                                       Seconds start) {
  return IoOutcome{service(request, start), true, {}};
}

const char* device_name(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kHdd:
      return "hdd";
    case DeviceKind::kSsd:
      return "ssd";
    case DeviceKind::kNvram:
      return "nvram";
    case DeviceKind::kNvme:
      return "nvme";
    case DeviceKind::kRaid0:
      return "raid0";
  }
  return "?";
}

std::optional<DeviceKind> parse_device(std::string_view name) {
  for (DeviceKind kind : {DeviceKind::kHdd, DeviceKind::kSsd,
                          DeviceKind::kNvram, DeviceKind::kNvme,
                          DeviceKind::kRaid0}) {
    if (name == device_name(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::unique_ptr<BlockDevice> make_device(DeviceKind kind,
                                         const machine::DiskSpec& disk) {
  HddParams hdd;
  hdd.spec = disk;
  switch (kind) {
    case DeviceKind::kSsd:
      return std::make_unique<SolidStateModel>(sata_ssd_params());
    case DeviceKind::kNvram:
      return std::make_unique<SolidStateModel>(nvram_params());
    case DeviceKind::kNvme:
      return std::make_unique<NvmeModel>(nvme_default_params());
    case DeviceKind::kRaid0: {
      std::vector<std::unique_ptr<BlockDevice>> children;
      for (int i = 0; i < 4; ++i) {
        children.push_back(std::make_unique<HddModel>(hdd));
      }
      return std::make_unique<Raid0Model>(std::move(children));
    }
    case DeviceKind::kHdd:
      break;
  }
  return std::make_unique<HddModel>(hdd);
}

}  // namespace greenvis::storage
