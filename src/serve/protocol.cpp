#include "serve/protocol.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "arch/presets.hpp"
#include "nn/model_zoo.hpp"

namespace naas::serve {
namespace {

/// Reads an integral field. Absent => `fallback`; present but outside
/// [min_value, max_value] (or not an integer) => false with a message
/// naming the field. The default upper bound matches the int-typed
/// destination fields so untrusted requests cannot wrap on narrowing;
/// byte-sized fields pass a wider explicit bound.
bool int_field(const Json& j, const char* key, long long fallback,
               long long* out, std::string* err, long long min_value = 1,
               long long max_value = std::numeric_limits<int>::max()) {
  const Json* v = j.get(key);
  if (!v) {
    *out = fallback;
    return true;
  }
  if (!v->is_int() || v->as_int() < min_value || v->as_int() > max_value) {
    *err = std::string("field '") + key + "' must be an integer in [" +
           std::to_string(min_value) + ", " + std::to_string(max_value) +
           "]";
    return false;
  }
  *out = v->as_int();
  return true;
}

/// On-chip buffer sizes are long long bytes; cap at 1 TiB — far beyond
/// any plausible accelerator, far below overflow territory.
constexpr long long kMaxBufferBytes = 1LL << 40;

bool order_from_json(const Json& j, const char* what,
                     mapping::LoopOrder* out, std::string* err) {
  if (!j.is_array() || j.size() != static_cast<std::size_t>(nn::kNumDims)) {
    *err = std::string(what) + " must be an array of " +
           std::to_string(nn::kNumDims) + " dimension names";
    return false;
  }
  for (int i = 0; i < nn::kNumDims; ++i) {
    if (!dim_from_json_name(j.at(static_cast<std::size_t>(i)).as_string(),
                            &(*out)[static_cast<std::size_t>(i)])) {
      *err = std::string(what) + "[" + std::to_string(i) +
             "] is not a dimension name";
      return false;
    }
  }
  if (!mapping::is_valid_order(*out)) {
    *err = std::string(what) + " must be a permutation of all 7 dimensions";
    return false;
  }
  return true;
}

Json order_to_json(const mapping::LoopOrder& order) {
  Json arr = Json::array();
  for (const nn::Dim d : order) arr.push(Json::string(dim_json_name(d)));
  return arr;
}

bool tiles_from_json(const Json& j, const char* what,
                     mapping::TileSizes* out, std::string* err) {
  if (!j.is_array() || j.size() != static_cast<std::size_t>(nn::kNumDims)) {
    *err = std::string(what) + " must be an array of " +
           std::to_string(nn::kNumDims) + " tile sizes (N,K,C,Y',X',R,S)";
    return false;
  }
  for (int i = 0; i < nn::kNumDims; ++i) {
    const Json& t = j.at(static_cast<std::size_t>(i));
    if (!t.is_int() || t.as_int() < 1 ||
        t.as_int() > std::numeric_limits<int>::max()) {
      *err = std::string(what) + "[" + std::to_string(i) +
             "] must be a positive 32-bit integer";
      return false;
    }
    (*out)[static_cast<std::size_t>(i)] = static_cast<int>(t.as_int());
  }
  return true;
}

Json tiles_to_json(const mapping::TileSizes& tiles) {
  Json arr = Json::array();
  for (const int t : tiles) arr.push(Json::integer(t));
  return arr;
}

bool level_from_json(const Json& j, const char* what,
                     mapping::LevelMapping* out, std::string* err) {
  if (!j.is_object()) {
    *err = std::string(what) + " must be an object with 'order' and 'tile'";
    return false;
  }
  const Json* order = j.get("order");
  const Json* tile = j.get("tile");
  if (!order || !tile) {
    *err = std::string(what) + " requires 'order' and 'tile'";
    return false;
  }
  return order_from_json(*order, what, &out->order, err) &&
         tiles_from_json(*tile, what, &out->tile, err);
}

Json level_to_json(const mapping::LevelMapping& level) {
  Json obj = Json::object();
  obj.set("order", order_to_json(level.order));
  obj.set("tile", tiles_to_json(level.tile));
  return obj;
}

}  // namespace

const char* dim_json_name(nn::Dim d) { return nn::dim_name(d); }

bool dim_from_json_name(const std::string& name, nn::Dim* out) {
  for (const nn::Dim d : nn::all_dims()) {
    if (name == nn::dim_name(d)) {
      *out = d;
      return true;
    }
  }
  // ASCII-friendly aliases for the primed spatial dims.
  if (name == "Yp") { *out = nn::Dim::kYp; return true; }
  if (name == "Xp") { *out = nn::Dim::kXp; return true; }
  return false;
}

Json arch_to_json(const arch::ArchConfig& cfg) {
  Json obj = Json::object();
  obj.set("name", Json::string(cfg.name));
  Json dims = Json::array();
  Json pdims = Json::array();
  for (int axis = 0; axis < cfg.num_array_dims; ++axis) {
    dims.push(Json::integer(cfg.array_dims[static_cast<std::size_t>(axis)]));
    pdims.push(Json::string(
        dim_json_name(cfg.parallel_dims[static_cast<std::size_t>(axis)])));
  }
  obj.set("array_dims", std::move(dims));
  obj.set("parallel_dims", std::move(pdims));
  obj.set("l1_bytes", Json::integer(cfg.l1_bytes));
  obj.set("l2_bytes", Json::integer(cfg.l2_bytes));
  obj.set("noc_bandwidth", Json::integer(cfg.noc_bandwidth));
  obj.set("dram_bandwidth", Json::integer(cfg.dram_bandwidth));
  return obj;
}

bool arch_from_json(const Json& j, arch::ArchConfig* out, std::string* err) {
  if (!j.is_object()) {
    *err = "arch must be an object";
    return false;
  }
  if (const Json* preset = j.get("preset")) {
    const std::string& name = preset->as_string();
    if (name == "edgetpu") *out = arch::edge_tpu_arch();
    else if (name == "nvdla1024") *out = arch::nvdla_1024_arch();
    else if (name == "nvdla256") *out = arch::nvdla_256_arch();
    else if (name == "eyeriss") *out = arch::eyeriss_arch();
    else if (name == "shidiannao") *out = arch::shidiannao_arch();
    else {
      *err = "unknown arch preset '" + name + "'";
      return false;
    }
    return true;
  }

  arch::ArchConfig cfg;
  if (const Json* name = j.get("name")) cfg.name = name->as_string();
  const Json* dims = j.get("array_dims");
  const Json* pdims = j.get("parallel_dims");
  if (!dims || !pdims) {
    *err = "arch requires 'preset' or 'array_dims' + 'parallel_dims'";
    return false;
  }
  if (!dims->is_array() || dims->size() < 1 ||
      dims->size() > static_cast<std::size_t>(arch::kMaxArrayDims) ||
      pdims->size() != dims->size()) {
    *err = "array_dims/parallel_dims must be matching arrays of 1..3 axes";
    return false;
  }
  cfg.num_array_dims = static_cast<int>(dims->size());
  cfg.array_dims = {1, 1, 1};
  for (std::size_t axis = 0; axis < dims->size(); ++axis) {
    const Json& d = dims->at(axis);
    // 2^20 PEs per axis is far past any envelope and guards the
    // num_pes() product from overflow.
    if (!d.is_int() || d.as_int() < 1 || d.as_int() > (1 << 20)) {
      *err = "array_dims entries must be integers in [1, 2^20]";
      return false;
    }
    cfg.array_dims[axis] = static_cast<int>(d.as_int());
    if (!dim_from_json_name(pdims->at(axis).as_string(),
                            &cfg.parallel_dims[axis])) {
      *err = "parallel_dims entries must be dimension names (N,K,C,Y',X',R,S)";
      return false;
    }
  }
  long long v = 0;
  if (!int_field(j, "l1_bytes", cfg.l1_bytes, &v, err, 1, kMaxBufferBytes))
    return false;
  cfg.l1_bytes = v;
  if (!int_field(j, "l2_bytes", cfg.l2_bytes, &v, err, 1, kMaxBufferBytes))
    return false;
  cfg.l2_bytes = v;
  if (!int_field(j, "noc_bandwidth", cfg.noc_bandwidth, &v, err)) return false;
  cfg.noc_bandwidth = static_cast<int>(v);
  if (!int_field(j, "dram_bandwidth", cfg.dram_bandwidth, &v, err))
    return false;
  cfg.dram_bandwidth = static_cast<int>(v);
  if (!cfg.valid()) {
    *err = "arch config is structurally invalid (duplicate parallel dims, "
           "non-positive sizes, ...)";
    return false;
  }
  *out = std::move(cfg);
  return true;
}

Json layer_to_json(const nn::Workload& layer) {
  Json obj = Json::object();
  obj.set("name", Json::string(layer.name));
  obj.set("kind", Json::string(nn::layer_kind_name(layer.kind)));
  obj.set("batch", Json::integer(layer.batch));
  obj.set("out_channels", Json::integer(layer.out_channels));
  obj.set("in_channels", Json::integer(layer.in_channels));
  obj.set("out_h", Json::integer(layer.out_h));
  obj.set("out_w", Json::integer(layer.out_w));
  obj.set("kernel_h", Json::integer(layer.kernel_h));
  obj.set("kernel_w", Json::integer(layer.kernel_w));
  obj.set("stride", Json::integer(layer.stride));
  return obj;
}

bool layer_from_json(const Json& j, nn::Workload* out, std::string* err) {
  // Non-memoizing fallback: build the network, keep the one layer.
  nn::Network scratch;
  const NetworkResolver resolver =
      [&scratch](const std::string& name,
                 std::string* resolve_err) -> const nn::Network* {
    try {
      scratch = nn::make_network(name);
    } catch (const std::invalid_argument& e) {
      *resolve_err = e.what();
      return nullptr;
    }
    return &scratch;
  };
  return layer_from_json(j, out, err, resolver);
}

bool layer_from_json(const Json& j, nn::Workload* out, std::string* err,
                     const NetworkResolver& resolver) {
  if (!j.is_object()) {
    *err = "layer must be an object";
    return false;
  }
  if (const Json* net_name = j.get("network")) {
    const Json* index = j.get("index");
    if (!index || !index->is_int()) {
      *err = "layer by network requires an integer 'index'";
      return false;
    }
    const nn::Network* net = resolver(net_name->as_string(), err);
    if (!net) return false;
    const std::int64_t i = index->as_int();
    if (i < 0 || i >= net->num_layers()) {
      *err = "layer index out of range (0.." +
             std::to_string(net->num_layers() - 1) + " for " +
             net_name->as_string() + ")";
      return false;
    }
    *out = net->layers()[static_cast<std::size_t>(i)];
    return true;
  }

  nn::Workload layer;
  if (const Json* name = j.get("name")) layer.name = name->as_string();
  if (const Json* kind = j.get("kind")) {
    const std::string& k = kind->as_string();
    if (k == "conv") layer.kind = nn::LayerKind::kConv;
    else if (k == "dwconv") layer.kind = nn::LayerKind::kDepthwiseConv;
    else if (k == "fc") layer.kind = nn::LayerKind::kFullyConnected;
    else if (k == "matmul") layer.kind = nn::LayerKind::kMatmul;
    else if (k == "attention") layer.kind = nn::LayerKind::kAttention;
    else {
      *err = "unknown layer kind '" + k +
             "' (supported kinds: conv, dwconv, fc, matmul, attention)";
      return false;
    }
  }
  long long v = 0;
  if (!int_field(j, "batch", layer.batch, &v, err)) return false;
  layer.batch = static_cast<int>(v);
  if (!int_field(j, "out_channels", layer.out_channels, &v, err)) return false;
  layer.out_channels = static_cast<int>(v);
  if (!int_field(j, "in_channels", layer.in_channels, &v, err)) return false;
  layer.in_channels = static_cast<int>(v);
  if (!int_field(j, "out_h", layer.out_h, &v, err)) return false;
  layer.out_h = static_cast<int>(v);
  if (!int_field(j, "out_w", layer.out_w, &v, err)) return false;
  layer.out_w = static_cast<int>(v);
  if (!int_field(j, "kernel_h", layer.kernel_h, &v, err)) return false;
  layer.kernel_h = static_cast<int>(v);
  if (!int_field(j, "kernel_w", layer.kernel_w, &v, err)) return false;
  layer.kernel_w = static_cast<int>(v);
  if (!int_field(j, "stride", layer.stride, &v, err)) return false;
  layer.stride = static_cast<int>(v);
  if (layer.kind == nn::LayerKind::kMatmul ||
      layer.kind == nn::LayerKind::kAttention) {
    // GEMM kinds pin the conv-only dims so every conv formula degenerates
    // exactly; reject shapes that would silently mean something else.
    if (layer.out_w != 1 || layer.kernel_h != 1 || layer.kernel_w != 1 ||
        layer.stride != 1) {
      *err = std::string(nn::layer_kind_name(layer.kind)) +
             " layers require out_w/kernel_h/kernel_w/stride == 1 "
             "(GEMM dims: out_h=rows, in_channels=reduction, "
             "out_channels=output features)";
      return false;
    }
  }
  *out = std::move(layer);
  return true;
}

Json mapping_to_json(const mapping::Mapping& m) {
  Json obj = Json::object();
  obj.set("dram", level_to_json(m.dram));
  obj.set("pe", level_to_json(m.pe));
  obj.set("pe_order", order_to_json(m.pe_order));
  return obj;
}

bool mapping_from_json(const Json& j, mapping::Mapping* out,
                       std::string* err) {
  if (!j.is_object()) {
    *err = "mapping must be an object";
    return false;
  }
  const Json* dram = j.get("dram");
  const Json* pe = j.get("pe");
  const Json* pe_order = j.get("pe_order");
  if (!dram || !pe || !pe_order) {
    *err = "mapping requires 'dram', 'pe', and 'pe_order'";
    return false;
  }
  mapping::Mapping m;
  if (!level_from_json(*dram, "mapping.dram", &m.dram, err)) return false;
  if (!level_from_json(*pe, "mapping.pe", &m.pe, err)) return false;
  if (!order_from_json(*pe_order, "mapping.pe_order", &m.pe_order, err))
    return false;
  *out = std::move(m);
  return true;
}

Json report_to_json(const cost::CostReport& report) {
  Json obj = Json::object();
  obj.set("legal", Json::boolean(report.legal));
  if (!report.legal)
    obj.set("illegal_reason", Json::string(report.illegal_reason));
  obj.set("macs", Json::number(report.macs));
  obj.set("compute_cycles", Json::number(report.compute_cycles));
  obj.set("noc_cycles", Json::number(report.noc_cycles));
  obj.set("dram_cycles", Json::number(report.dram_cycles));
  obj.set("latency_cycles", Json::number(report.latency_cycles));
  Json energy = Json::object();
  energy.set("mac_pj", Json::number(report.energy.mac_pj));
  energy.set("l1_pj", Json::number(report.energy.l1_pj));
  energy.set("l2_pj", Json::number(report.energy.l2_pj));
  energy.set("noc_pj", Json::number(report.energy.noc_pj));
  energy.set("dram_pj", Json::number(report.energy.dram_pj));
  obj.set("energy", std::move(energy));
  obj.set("energy_nj", Json::number(report.energy_nj));
  obj.set("edp", Json::number(report.edp));
  obj.set("pe_utilization", Json::number(report.pe_utilization));
  obj.set("dram_bytes", Json::number(report.dram_bytes));
  obj.set("l2_read_bytes", Json::number(report.l2_read_bytes));
  obj.set("l2_write_bytes", Json::number(report.l2_write_bytes));
  obj.set("l1_access_bytes", Json::number(report.l1_access_bytes));
  obj.set("noc_delivery_bytes", Json::number(report.noc_delivery_bytes));
  obj.set("reduction_hop_bytes", Json::number(report.reduction_hop_bytes));
  return obj;
}

Json network_cost_to_json(const cost::NetworkCost& cost) {
  Json obj = Json::object();
  obj.set("network", Json::string(cost.network_name));
  obj.set("arch", Json::string(cost.arch_name));
  obj.set("legal", Json::boolean(cost.legal));
  obj.set("latency_cycles", Json::number(cost.latency_cycles));
  obj.set("energy_nj", Json::number(cost.energy_nj));
  obj.set("edp", Json::number(cost.edp));
  Json layers = Json::array();
  for (const cost::LayerCost& lc : cost.per_layer) {
    Json row = Json::object();
    row.set("name", Json::string(lc.layer.name));
    row.set("count", Json::integer(lc.count));
    row.set("legal", Json::boolean(lc.report.legal));
    row.set("latency_cycles", Json::number(lc.report.latency_cycles));
    row.set("energy_nj", Json::number(lc.report.energy_nj));
    row.set("edp", Json::number(lc.report.edp));
    layers.push(std::move(row));
  }
  obj.set("layers", std::move(layers));
  return obj;
}

Json mapping_search_result_to_json(const search::MappingSearchResult& r) {
  Json obj = Json::object();
  obj.set("mapping", mapping_to_json(r.best));
  obj.set("report", report_to_json(r.report));
  obj.set("best_edp", Json::number(r.best_edp));
  obj.set("evaluations", Json::integer(r.evaluations));
  return obj;
}

Json ok_response(const Json& id, Json result) {
  Json obj = Json::object();
  obj.set("id", id);
  obj.set("ok", Json::boolean(true));
  obj.set("result", std::move(result));
  return obj;
}

Json error_response(const Json& id, const std::string& code,
                    const std::string& message) {
  Json obj = Json::object();
  obj.set("id", id);
  obj.set("ok", Json::boolean(false));
  Json err = Json::object();
  err.set("code", Json::string(code));
  err.set("message", Json::string(message));
  obj.set("error", std::move(err));
  return obj;
}

Json line_too_long_response(std::size_t max_line_bytes) {
  return error_response(Json::null(), kErrBadRequest,
                        "request line exceeds " +
                            std::to_string(max_line_bytes) + " bytes");
}

Json batch_too_large_response(const Json& id, std::size_t max_batch) {
  return error_response(id, kErrBadRequest,
                        "batch exceeds " + std::to_string(max_batch) +
                            " requests");
}

bool is_blank_line(std::string_view line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

Json request_id(const std::string& line) {
  std::string error;
  const Json request = Json::parse(line, &error);
  if (!error.empty() || !request.is_object()) return Json::null();
  const Json* id = request.get("id");
  return id ? *id : Json::null();
}

}  // namespace naas::serve
