// Energy-profile reporting: the human/CI-facing side of obs::EnergyReport.
//
// The attributor (src/obs/energy.hpp) produces a conservation-checked
// per-stage rail breakdown; this layer ranks it, formats the "where do the
// joules go" table, and serializes the deterministic ENERGY_profile.json
// artifact the cli_energy_golden ctest case diffs against a committed
// golden. Every number is virtual-clock derived, so the file is
// byte-identical across hosts, thread counts, and reruns.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/energy.hpp"

namespace greenvis::analysis {

/// One row of the top-consumers ranking.
struct EnergyConsumer {
  std::string stage;
  util::Joules joules{0.0};
  /// Fraction of the report total in [0, 1].
  double share{0.0};
};

/// Stages ranked by total joules, descending (ties broken by name so the
/// ordering is deterministic); at most `n` entries. Zero-energy stages are
/// skipped.
[[nodiscard]] std::vector<EnergyConsumer> top_consumers(
    const obs::EnergyReport& report, std::size_t n);

/// Serialize schema "greenvis.energy_profile.v1": per-stage energy table
/// (static/dynamic split and per-rail joules), top-`top_n` consumers, and
/// the report-level totals with the paper's Table II static-vs-dynamic
/// split. Deterministic: doubles at max precision, stages in sorted order.
void write_energy_profile_json(std::ostream& os,
                               const obs::EnergyReport& report,
                               const std::string& pipeline,
                               const std::string& case_name,
                               std::size_t top_n = 5);

}  // namespace greenvis::analysis
