#pragma once

#include <string>

namespace naas::core {

/// Reads an integer from environment variable `name`; returns `fallback` if
/// unset, unparsable or out of int's range. Used by the bench harness to
/// scale search budgets (e.g. NAAS_BENCH_FULL=1 selects paper-scale budgets).
int env_int(const std::string& name, int fallback);

/// Reads a boolean ("1"/"true"/"yes" => true) with a fallback.
bool env_flag(const std::string& name, bool fallback);

}  // namespace naas::core
