// Named check registries.
//
// Every qa check — differential oracle or generative property — is
// registered once by name, and every entry point enumerates the same
// registry: the gtest suites instantiate one test per registered name
// (so ctest lists one case per check), `greenvis verify` runs them all,
// and a reproducer file written by any test binary replays from the CLI
// (`greenvis verify --qa-repro=<file>`) without knowing which binary
// produced it.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/qa/property.hpp"
#include "src/util/error.hpp"

namespace greenvis::qa {

/// Ordered name → check map; one process-wide instance per signature.
template <typename Result, typename... Args>
class Registry {
 public:
  using Fn = std::function<Result(Args...)>;

  [[nodiscard]] static Registry& global() {
    static Registry registry;
    return registry;
  }

  /// Registers (or replaces) a check under `name`.
  void add(const std::string& name, Fn fn) {
    for (auto& [existing, run] : entries_) {
      if (existing == name) {
        run = std::move(fn);
        return;
      }
    }
    entries_.emplace_back(name, std::move(fn));
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// Registered names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) {
      out.push_back(entry.first);
    }
    return out;
  }

  /// Runs one check; throws ContractViolation for unknown names.
  [[nodiscard]] Result run(const std::string& name, Args... args) const {
    const Fn* fn = find(name);
    if (fn == nullptr) {
      throw util::ContractViolation("unknown qa check '" + name + "'");
    }
    return (*fn)(args...);
  }

 private:
  [[nodiscard]] const Fn* find(const std::string& name) const {
    for (const auto& [existing, fn] : entries_) {
      if (existing == name) {
        return &fn;
      }
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, Fn>> entries_;
};

using PropertyRegistry = Registry<CheckResult, const Config&>;

/// Registers the built-in property sweeps (idempotent).
void register_builtin_properties();

/// Loads a reproducer file and replays it through the registry.
[[nodiscard]] CheckResult replay_repro_file(const std::string& path);

}  // namespace greenvis::qa
