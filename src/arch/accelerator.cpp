#include "arch/accelerator.hpp"

#include <sstream>

namespace naas::arch {

int ArchConfig::num_pes() const {
  int pes = 1;
  for (int axis = 0; axis < num_array_dims; ++axis)
    pes *= array_dims[static_cast<std::size_t>(axis)];
  return pes;
}

long long ArchConfig::onchip_bytes() const {
  return l2_bytes + l1_bytes * num_pes();
}

bool ArchConfig::is_parallel(nn::Dim d) const {
  for (int axis = 0; axis < num_array_dims; ++axis)
    if (parallel_dims[static_cast<std::size_t>(axis)] == d) return true;
  return false;
}

bool ArchConfig::valid() const {
  if (num_array_dims < 1 || num_array_dims > kMaxArrayDims) return false;
  for (int axis = 0; axis < num_array_dims; ++axis)
    if (array_dims[static_cast<std::size_t>(axis)] < 1) return false;
  // Active parallel dims must be distinct (the importance-based decoder
  // picks the top-k distinct dims; duplicated bindings are malformed).
  for (int a = 0; a < num_array_dims; ++a)
    for (int b = a + 1; b < num_array_dims; ++b)
      if (parallel_dims[static_cast<std::size_t>(a)] ==
          parallel_dims[static_cast<std::size_t>(b)])
        return false;
  return l1_bytes > 0 && l2_bytes > 0 && noc_bandwidth > 0 &&
         dram_bandwidth > 0;
}

std::string ArchConfig::to_string() const {
  std::ostringstream os;
  os << name << ": ";
  for (int axis = 0; axis < num_array_dims; ++axis) {
    if (axis) os << 'x';
    os << array_dims[static_cast<std::size_t>(axis)];
  }
  os << ' ';
  for (int axis = 0; axis < num_array_dims; ++axis) {
    if (axis) os << '-';
    os << nn::dim_name(parallel_dims[static_cast<std::size_t>(axis)]);
  }
  os << " parallel | L1 " << l1_bytes << "B L2 " << l2_bytes / 1024
     << "KB noc " << noc_bandwidth << " dram " << dram_bandwidth << " ("
     << num_pes() << " PEs)";
  return os.str();
}

}  // namespace naas::arch
