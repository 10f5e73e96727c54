#include "core/env.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>

namespace naas::core {

int env_int(const std::string& name, int fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  // strtol saturates on overflow, so the range check rejects that too.
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max())
    return fallback;
  return static_cast<int>(parsed);
}

bool env_flag(const std::string& name, bool fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
         std::strcmp(value, "yes") == 0;
}

}  // namespace naas::core
