#include "mapping/mapping.hpp"

#include <algorithm>
#include <sstream>

namespace naas::mapping {

bool is_valid_order(const LoopOrder& order) {
  std::array<bool, nn::kNumDims> seen{};
  for (nn::Dim d : order) {
    const int i = static_cast<int>(d);
    if (i < 0 || i >= nn::kNumDims) return false;
    if (seen[static_cast<std::size_t>(i)]) return false;
    seen[static_cast<std::size_t>(i)] = true;
  }
  return true;
}

LoopOrder default_order() {
  return {nn::Dim::kN,  nn::Dim::kK,  nn::Dim::kC, nn::Dim::kYp,
          nn::Dim::kXp, nn::Dim::kR,  nn::Dim::kS};
}

std::string order_to_string(const LoopOrder& order) {
  std::ostringstream os;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) os << '>';
    os << nn::dim_name(order[i]);
  }
  return os.str();
}

std::string Mapping::to_string() const {
  std::ostringstream os;
  auto tiles = [](const TileSizes& t) {
    std::ostringstream ts;
    for (nn::Dim d : nn::all_dims())
      ts << nn::dim_name(d) << ':' << tile_of(t, d) << ' ';
    return ts.str();
  };
  os << "dram order " << order_to_string(dram.order) << " tiles "
     << tiles(dram.tile) << '\n';
  os << "pe   order " << order_to_string(pe.order) << " tiles "
     << tiles(pe.tile) << '\n';
  os << "reg  order " << order_to_string(pe_order);
  return os.str();
}

}  // namespace naas::mapping
