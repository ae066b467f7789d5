// Abstract block device.
//
// Devices model *timing and power activity only*; payload bytes live in the
// filesystem layer. A device services requests serially starting at a given
// virtual time and reports how long each took, recording its mechanical
// phases into a DiskActivityLog along the way.
//
// Hosts normally talk to a device through storage::AsyncBlockDevice
// (async_device.hpp), which adds submission queues, pluggable I/O
// schedulers, and per-request completion records on top of this serial
// timing interface. The hooks below (service_outcome, head_hint,
// reorders_batches, channels) are what the queue layer needs to reproduce
// device-preferred behavior without reaching into concrete classes.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/machine/spec.hpp"
#include "src/storage/activity_log.hpp"
#include "src/storage/request.hpp"
#include "src/util/units.hpp"

namespace greenvis::storage {

using util::Bytes;
using util::Seconds;

/// Hard device error (unrecoverable sector).
class DeviceError : public std::runtime_error {
 public:
  explicit DeviceError(const std::string& message)
      : std::runtime_error(message) {}
};

struct DeviceCounters {
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  Bytes bytes_read{0};
  Bytes bytes_written{0};
};

/// Result of servicing one request: when it finished and whether it
/// succeeded. A failed request still consumes device time (retries, seeks),
/// so `end` is meaningful either way.
struct IoOutcome {
  Seconds end{0.0};
  bool ok{true};
  std::string error;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Service one request starting at `start`; returns its completion time
  /// (>= start). The device's head/cache state advances. Throws DeviceError
  /// on unrecoverable faults.
  virtual Seconds service(const IoRequest& request, Seconds start) = 0;

  /// Like service(), but reports faults on the returned outcome instead of
  /// throwing, so a queue servicing many in-flight requests can attach the
  /// error to the *correct* completion record. Default wraps service().
  virtual IoOutcome service_outcome(const IoRequest& request, Seconds start);

  /// Drain any volatile write cache (write barrier); returns completion time.
  virtual Seconds flush(Seconds start) = 0;

  /// Current head/cursor position, used by position-aware I/O schedulers
  /// (elevator, deadline) to seed their sweep. Non-mechanical devices
  /// return 0.
  [[nodiscard]] virtual std::uint64_t head_hint() const { return 0; }

  /// True if the device itself reorders queued batches (NCQ-style); the
  /// queue layer's kDevice scheduler resolves to an elevator sweep for such
  /// devices and FIFO otherwise.
  [[nodiscard]] virtual bool reorders_batches() const { return false; }

  /// Independent service channels (NVMe submission queues, RAID spindles
  /// exposed as one). 1 for strictly serial devices.
  [[nodiscard]] virtual std::size_t channels() const { return 1; }

  [[nodiscard]] virtual Bytes capacity() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const DiskActivityLog& activity() const = 0;
  [[nodiscard]] virtual const DeviceCounters& counters() const = 0;
};

/// The device models a node can mount. The paper's node has the 7200 rpm
/// HDD; the SSD/NVRAM substitutions are its future-work "flash-based
/// devices" direction. NVMe (multi-queue flash) and RAID0 (four striped
/// copies of the HDD) ride the async block-device layer.
enum class DeviceKind { kHdd, kSsd, kNvram, kNvme, kRaid0 };

[[nodiscard]] const char* device_name(DeviceKind kind);
/// Inverse of device_name; nullopt for unknown names.
[[nodiscard]] std::optional<DeviceKind> parse_device(std::string_view name);

/// A fresh device of `kind`; the HDD and every RAID0 spindle use `disk`.
[[nodiscard]] std::unique_ptr<BlockDevice> make_device(
    DeviceKind kind, const machine::DiskSpec& disk);

}  // namespace greenvis::storage
