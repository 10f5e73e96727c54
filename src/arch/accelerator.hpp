#pragma once

#include <array>
#include <string>

#include "nn/layer.hpp"

namespace naas::arch {

/// Maximum number of spatial array dimensions (the paper searches 1D, 2D,
/// and 3D compute arrays).
inline constexpr int kMaxArrayDims = 3;

/// A complete accelerator design point: the paper's hardware encoding
/// vector (Fig. 2) decoded into a concrete configuration.
///
/// Architectural sizing: #PEs (implied by the array shape), L1/L2 scratch
/// pad sizes, NoC bandwidth. Connectivity parameters: number of array
/// dimensions, per-dimension sizes, and the tensor dimension each array
/// axis parallelizes (which fixes the PE inter-connection pattern: a
/// reduction dimension implies psum forwarding/adder links, a non-reduction
/// dimension implies broadcast/unicast links — Section II-A).
struct ArchConfig {
  std::string name = "custom";
  int num_array_dims = 2;                       ///< 1, 2, or 3
  std::array<int, kMaxArrayDims> array_dims{16, 16, 1};  ///< axis sizes
  std::array<nn::Dim, kMaxArrayDims> parallel_dims{
      nn::Dim::kC, nn::Dim::kK, nn::Dim::kXp};  ///< dim bound per axis
  long long l1_bytes = 512;                     ///< per-PE scratch pad
  long long l2_bytes = 128 * 1024;              ///< shared global buffer
  int noc_bandwidth = 32;   ///< words/cycle between L2 and the PE array
  int dram_bandwidth = 16;  ///< words/cycle between DRAM and L2

  /// Total processing elements (product of active array dimensions).
  int num_pes() const;

  /// Total on-chip SRAM in bytes: L2 plus L1 across all PEs.
  long long onchip_bytes() const;

  /// True if the array axis `axis` is active (axis < num_array_dims).
  bool axis_active(int axis) const { return axis < num_array_dims; }

  /// True if dimension `d` is spatially parallelized by any active axis.
  bool is_parallel(nn::Dim d) const;

  /// Array size assigned to dimension `d` (1 if not parallelized).
  int parallel_extent(nn::Dim d) const {
    int extent = 1;
    for (int axis = 0; axis < num_array_dims; ++axis)
      if (parallel_dims[static_cast<std::size_t>(axis)] == d)
        extent *= array_dims[static_cast<std::size_t>(axis)];
    return extent;
  }

  /// Structural validity: positive sizes, 1..3 dims, even array sizes
  /// permitted, distinct parallel dims among active axes, positive buffers
  /// and bandwidths.
  bool valid() const;

  /// One-line summary, e.g. "NVDLA-256: 16x16 C-K | L1 512B L2 512KB bw 64".
  std::string to_string() const;
};

}  // namespace naas::arch
