#pragma once

// Per-process temp paths. `ctest -j` runs test binaries concurrently,
// and the NAAS_TEST_SEED sweep runs the same binary as many concurrent
// processes; a fixed ::testing::TempDir() name would let them clobber each
// other's stores. Suffixing the pid keeps every process on its own files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace naas::test {

/// ::testing::TempDir() + `name` + "." + this process's pid.
inline std::string unique_temp_path(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

}  // namespace naas::test
