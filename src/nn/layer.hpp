#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace naas::nn {

/// The seven loop dimensions of a workload, following the paper's
/// convolution notation (Fig. 2): N batch, K output channels, C input
/// channels, Y'/X' output rows/columns, R/S kernel rows/columns. Non-conv
/// kinds map their own loop nests onto the same seven slots (see the
/// per-kind table below), so every downstream consumer — mapping encodings,
/// legality, reuse analysis, the batched cost model — works on one fixed
/// 7D machine.
enum class Dim : int { kN = 0, kK, kC, kYp, kXp, kR, kS };

/// Number of loop dimensions.
inline constexpr int kNumDims = 7;

/// Short name for a dimension ("N", "K", "C", "Y'", "X'", "R", "S").
const char* dim_name(Dim d);

/// All dimensions in canonical order.
constexpr std::array<Dim, kNumDims> all_dims() {
  return {Dim::kN, Dim::kK, Dim::kC, Dim::kYp, Dim::kXp, Dim::kR, Dim::kS};
}

/// Workload flavors distinguished by the cost model. Each kind fixes how
/// the seven dims index the three operand tensors (the per-kind
/// dim-semantics tables in cost/reuse):
/// - kConv: standard convolution (C is a reduction dimension).
/// - kDepthwiseConv: one filter per channel; C is fixed to 1 and the K loop
///   walks channels, so there is no cross-channel reduction.
/// - kFullyConnected: matrix-vector product expressed as a 1x1/1x1 conv.
/// - kMatmul: general matrix multiply A[M,K_r] x B[K_r,N_o] with shared
///   (batch-invariant) B, e.g. transformer QKV/FFN projections. Dim map:
///   N=batch, Y'=M (rows), K=N_o (output features), C=K_r (reduction);
///   X'/R/S are pinned to 1.
/// - kAttention: batched matrix multiply where BOTH operands vary with the
///   batch (the "weight" is itself an activation): QK^T score matmuls and
///   attention-weighted value matmuls. Same dim map as kMatmul with
///   N = batch x heads; the weight tensor is additionally indexed by N, so
///   it gets no cross-batch reuse — the traffic pattern that makes LLM
///   decode bandwidth-dominated.
enum class LayerKind {
  kConv,
  kDepthwiseConv,
  kFullyConnected,
  kMatmul,
  kAttention,
};

/// Name of a layer kind ("conv", "dwconv", "fc", "matmul", "attention").
const char* layer_kind_name(LayerKind k);

/// A single workload in the 7D loop-nest form consumed by the cost model,
/// dispatched on `kind`. For conv kinds the spatial input size is derived
/// from output size, stride, and kernel ("same"-style padding assumed; only
/// footprints matter, not edges). Matmul/attention kinds reuse the conv
/// fields under the dim map documented on LayerKind and keep
/// kernel_h/kernel_w/stride/out_w pinned at 1, which makes every conv
/// formula (halo, footprint, reuse) degenerate to the exact matmul form.
struct Workload {
  std::string name;               ///< human-readable layer name
  LayerKind kind = LayerKind::kConv;
  int batch = 1;                  ///< N (batch x heads for attention)
  int out_channels = 1;           ///< K (matmul/attention: output features)
  int in_channels = 1;            ///< C (reduction; 1 for depthwise)
  int out_h = 1;                  ///< Y' (matmul/attention: rows M)
  int out_w = 1;                  ///< X' (1 for matmul/attention)
  int kernel_h = 1;               ///< R (1 for matmul/attention)
  int kernel_w = 1;               ///< S (1 for matmul/attention)
  int stride = 1;                 ///< spatial stride (both axes)

  /// Size of the iteration space along dimension `d`.
  int dim_size(Dim d) const {
    switch (d) {
      case Dim::kN: return batch;
      case Dim::kK: return out_channels;
      case Dim::kC: return in_channels;
      case Dim::kYp: return out_h;
      case Dim::kXp: return out_w;
      case Dim::kR: return kernel_h;
      case Dim::kS: return kernel_w;
    }
    return 1;
  }

  /// Total multiply-accumulate operations.
  long long macs() const;

  /// Number of input activation elements (N * C_in_effective * Y * X where
  /// Y/X are derived input spatial extents; depthwise uses K channels;
  /// matmul/attention degenerate to N * M * K_r).
  long long input_elems() const;

  /// Number of weight elements (K * C * R * S; depthwise K * R * S;
  /// attention scales by N — its second operand is per-sample).
  long long weight_elems() const;

  /// Number of output elements (N * K * Y' * X').
  long long output_elems() const;

  /// Derived input spatial height for a tile of `out_rows` output rows:
  /// (out_rows - 1) * min(stride, R) + R — distinct rows actually read, not
  /// the geometric span (when stride > R, skipped rows are never fetched).
  /// Widened to long long: transformer-scale extents (long sequences times
  /// the stride/kernel factor) must not overflow int before the cast.
  long long input_rows_for(long long out_rows) const;

  /// Derived input spatial width for a tile of `out_cols` output columns.
  long long input_cols_for(long long out_cols) const;

  /// One-line description, e.g. "conv3_1: conv 128x256 k3 s1 @56x56".
  std::string to_string() const;

  friend bool operator==(const Workload& a, const Workload& b);
};

/// Hash over the workload shape (name is ignored): layers with identical
/// shapes share cost-model results, which NetworkCost exploits. The kind
/// participates in the hash, so e.g. a matmul and an attention layer with
/// identical extents never alias a cache entry.
struct LayerShapeHash {
  std::size_t operator()(const Workload& l) const;
};

/// Shape-only equality (ignores the name), pairing with LayerShapeHash.
struct LayerShapeEq {
  bool operator()(const Workload& a, const Workload& b) const;
};

/// Convenience builders.
Workload make_conv(std::string name, int in_ch, int out_ch, int kernel,
                   int stride, int out_hw, int batch = 1);
Workload make_dwconv(std::string name, int channels, int kernel, int stride,
                     int out_hw, int batch = 1);
Workload make_fc(std::string name, int in_features, int out_features,
                 int batch = 1);
/// General matmul: `rows` x `in_features` times `in_features` x
/// `out_features`, with the right operand shared across the batch
/// (transformer projection / FFN layers).
Workload make_matmul(std::string name, int rows, int in_features,
                     int out_features, int batch = 1);
/// Attention score matmul Q x K^T: per (batch x head), a seq_q x head_dim
/// by head_dim x seq_kv product whose BOTH operands are activations.
Workload make_attention_scores(std::string name, int seq_q, int seq_kv,
                               int head_dim, int heads, int batch = 1);
/// Attention context matmul scores x V: per (batch x head), a
/// seq_q x seq_kv by seq_kv x head_dim product (reduction over keys).
Workload make_attention_context(std::string name, int seq_q, int seq_kv,
                                int head_dim, int heads, int batch = 1);

}  // namespace naas::nn
