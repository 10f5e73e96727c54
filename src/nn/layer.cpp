#include "nn/layer.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

namespace naas::nn {

const char* dim_name(Dim d) {
  switch (d) {
    case Dim::kN: return "N";
    case Dim::kK: return "K";
    case Dim::kC: return "C";
    case Dim::kYp: return "Y'";
    case Dim::kXp: return "X'";
    case Dim::kR: return "R";
    case Dim::kS: return "S";
  }
  return "?";
}

const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv: return "conv";
    case LayerKind::kDepthwiseConv: return "dwconv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kMatmul: return "matmul";
    case LayerKind::kAttention: return "attention";
  }
  return "?";
}

long long Workload::macs() const {
  long long m = 1;
  for (Dim d : all_dims()) m *= dim_size(d);
  return m;
}

long long Workload::input_elems() const {
  const long long channels =
      kind == LayerKind::kDepthwiseConv ? out_channels : in_channels;
  return static_cast<long long>(batch) * channels *
         input_rows_for(out_h) * input_cols_for(out_w);
}

long long Workload::weight_elems() const {
  const long long per_filter = static_cast<long long>(in_channels) *
                               kernel_h * kernel_w;
  const long long shared = static_cast<long long>(out_channels) * per_filter;
  // Attention's second operand is an activation: one copy per batch x head
  // slice, never shared across N.
  return kind == LayerKind::kAttention ? shared * batch : shared;
}

long long Workload::output_elems() const {
  return static_cast<long long>(batch) * out_channels * out_h * out_w;
}

long long Workload::input_rows_for(long long out_rows) const {
  return (out_rows - 1) * std::min<long long>(stride, kernel_h) + kernel_h;
}

long long Workload::input_cols_for(long long out_cols) const {
  return (out_cols - 1) * std::min<long long>(stride, kernel_w) + kernel_w;
}

std::string Workload::to_string() const {
  char buf[160];
  if (kind == LayerKind::kMatmul || kind == LayerKind::kAttention) {
    // GEMM view: M x K_r x N_o (dims Y' x C x K), heads folded into batch.
    std::snprintf(buf, sizeof buf, "%s: %s m%d k%d n%d b%d", name.c_str(),
                  layer_kind_name(kind), out_h, in_channels, out_channels,
                  batch);
  } else {
    std::snprintf(buf, sizeof buf, "%s: %s %dx%d k%dx%d s%d @%dx%d n%d",
                  name.c_str(), layer_kind_name(kind), in_channels,
                  out_channels, kernel_h, kernel_w, stride, out_h, out_w,
                  batch);
  }
  return buf;
}

bool operator==(const Workload& a, const Workload& b) {
  return a.name == b.name && LayerShapeEq{}(a, b);
}

std::size_t LayerShapeHash::operator()(const Workload& l) const {
  std::size_t h = static_cast<std::size_t>(l.kind);
  auto mix = [&h](long long v) {
    h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  };
  mix(l.batch);
  mix(l.out_channels);
  mix(l.in_channels);
  mix(l.out_h);
  mix(l.out_w);
  mix(l.kernel_h);
  mix(l.kernel_w);
  mix(l.stride);
  return h;
}

bool LayerShapeEq::operator()(const Workload& a, const Workload& b) const {
  return a.kind == b.kind && a.batch == b.batch &&
         a.out_channels == b.out_channels && a.in_channels == b.in_channels &&
         a.out_h == b.out_h && a.out_w == b.out_w &&
         a.kernel_h == b.kernel_h && a.kernel_w == b.kernel_w &&
         a.stride == b.stride;
}

Workload make_conv(std::string name, int in_ch, int out_ch, int kernel,
                   int stride, int out_hw, int batch) {
  Workload l;
  l.name = std::move(name);
  l.kind = LayerKind::kConv;
  l.batch = batch;
  l.in_channels = in_ch;
  l.out_channels = out_ch;
  l.kernel_h = kernel;
  l.kernel_w = kernel;
  l.stride = stride;
  l.out_h = out_hw;
  l.out_w = out_hw;
  return l;
}

Workload make_dwconv(std::string name, int channels, int kernel, int stride,
                     int out_hw, int batch) {
  Workload l;
  l.name = std::move(name);
  l.kind = LayerKind::kDepthwiseConv;
  l.batch = batch;
  l.in_channels = 1;  // no cross-channel reduction
  l.out_channels = channels;
  l.kernel_h = kernel;
  l.kernel_w = kernel;
  l.stride = stride;
  l.out_h = out_hw;
  l.out_w = out_hw;
  return l;
}

Workload make_fc(std::string name, int in_features, int out_features,
                 int batch) {
  Workload l;
  l.name = std::move(name);
  l.kind = LayerKind::kFullyConnected;
  l.batch = batch;
  l.in_channels = in_features;
  l.out_channels = out_features;
  l.kernel_h = 1;
  l.kernel_w = 1;
  l.stride = 1;
  l.out_h = 1;
  l.out_w = 1;
  return l;
}

Workload make_matmul(std::string name, int rows, int in_features,
                     int out_features, int batch) {
  Workload l;
  l.name = std::move(name);
  l.kind = LayerKind::kMatmul;
  l.batch = batch;
  l.out_h = rows;
  l.in_channels = in_features;
  l.out_channels = out_features;
  l.out_w = 1;
  l.kernel_h = 1;
  l.kernel_w = 1;
  l.stride = 1;
  return l;
}

Workload make_attention_scores(std::string name, int seq_q, int seq_kv,
                               int head_dim, int heads, int batch) {
  // Q[seq_q, head_dim] x K^T[head_dim, seq_kv] per (batch x head):
  // M = seq_q, K_r = head_dim, N_o = seq_kv.
  Workload l = make_matmul(std::move(name), seq_q, head_dim, seq_kv,
                           batch * heads);
  l.kind = LayerKind::kAttention;
  return l;
}

Workload make_attention_context(std::string name, int seq_q, int seq_kv,
                                int head_dim, int heads, int batch) {
  // scores[seq_q, seq_kv] x V[seq_kv, head_dim] per (batch x head):
  // M = seq_q, K_r = seq_kv, N_o = head_dim.
  Workload l = make_matmul(std::move(name), seq_q, seq_kv, head_dim,
                           batch * heads);
  l.kind = LayerKind::kAttention;
  return l;
}

}  // namespace naas::nn
