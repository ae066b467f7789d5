// Differential-oracle registry.
//
// Every fast path in the tree has a slow, obviously-correct twin: the
// thread pool vs serial execution, the chunked codec vs plain
// serialization, the page cache vs direct I/O, observability on vs off. A
// differential oracle runs the same workload through both and diffs the
// structured results — the cheapest machine check that an optimization did
// not silently change what the system computes. Each registered oracle is
// its own ctest case (tests/qa_test.cpp) and also runs from `greenvis
// verify`.
#pragma once

#include <string>
#include <vector>

#include "src/qa/registry.hpp"

namespace greenvis::qa {

struct OracleResult {
  std::string name;
  bool ok{false};
  /// On success: what was compared. On failure: the first divergence.
  std::string detail;
};

using OracleRegistry = Registry<OracleResult>;

/// Runs one registered oracle by name (throws ContractViolation when
/// unknown). Exceptions escaping the oracle body become failures.
[[nodiscard]] OracleResult run_oracle(const std::string& name);

/// Runs every registered oracle, in registration order.
[[nodiscard]] std::vector<OracleResult> run_all_oracles();

/// Registers the built-in differential oracles (idempotent):
/// solver/pipeline serial vs pool, codec raw vs delta, page cache vs
/// direct reads, obs on vs off, legacy vs chunked snapshot decode.
void register_builtin_oracles();

}  // namespace greenvis::qa
