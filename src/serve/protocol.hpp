#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "arch/accelerator.hpp"
#include "cost/cost_model.hpp"
#include "cost/network_cost.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "search/mapping_search.hpp"
#include "serve/json.hpp"

namespace naas::serve {

/// The line-oriented query protocol of the evaluator service (full schema
/// with examples in docs/serving.md). One JSON object per line:
///
///   request  {"id": <any>, "method": "<name>", ...params}
///   success  {"id": <echoed>, "ok": true, "result": {...}}
///   failure  {"id": <echoed>, "ok": false,
///             "error": {"code": "<code>", "message": "..."}}
///
/// Methods: "search_mapping", "evaluate_mapping", "evaluate_network",
/// "cache_stats", "refresh", "ping" (liveness probe — the fleet router's
/// health check), "pull_store" (peer replication — a hex-armored
/// result-store snapshot the puller feeds through ResultStore::decode).
/// Success results for the evaluation methods are pure functions of
/// (request, service options), never of cache state or timing — that is
/// what makes a warm response diffable against a cold one, and what lets
/// the fleet router fail a request over to any peer whose options match.
///
/// Error codes, stable for scripting:
inline constexpr const char* kErrParse = "parse_error";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownMethod = "unknown_method";
inline constexpr const char* kErrInternal = "internal_error";
/// Admission queue full — the request was shed *before* evaluation so an
/// overload never stalls the evaluation pool; resubmit later.
inline constexpr const char* kErrOverloaded = "overloaded";
/// The request's deadline ("deadline_ms" field, or the server default)
/// expired while it sat in the admission queue; it was never evaluated.
inline constexpr const char* kErrDeadlineExceeded = "deadline_exceeded";
/// Fleet router only: every worker that could own this request's shard is
/// down (or failed within the forward budget). The request was never
/// evaluated and is safe to resubmit — evaluations are pure and
/// idempotent, which is also why the router may silently retry a forward
/// on a peer before ever surfacing this.
inline constexpr const char* kErrDegraded = "degraded";

/// Defensive protocol limits, shared by serve_lines's stdin loop and the
/// TCP server. A request line longer than the cap is answered with a
/// structured bad_request instead of being fed to the JSON parser; lines
/// past the batch cap in one submission are individually rejected the same
/// way. Both are per-front-end configurable; these are the defaults.
inline constexpr std::size_t kDefaultMaxLineBytes = 1 << 20;
inline constexpr std::size_t kDefaultMaxBatchRequests = 4096;

/// Canonical bad_request responses for the two limits (id is null for an
/// oversized line: extracting the id would mean parsing the very bytes the
/// limit refuses to parse).
Json line_too_long_response(std::size_t max_line_bytes);
Json batch_too_large_response(const Json& id, std::size_t max_batch);

/// True for a line of spaces, tabs and carriage returns only: a batch
/// separator on stdin, skipped over TCP.
bool is_blank_line(std::string_view line);

/// Best-effort id of a request answered without being evaluated (a
/// protocol-limit reject, a shed or an expired deadline): null when the
/// line does not parse as an object.
Json request_id(const std::string& line);

/// --- domain <-> JSON -----------------------------------------------------
/// The *_from_json parsers accept what the matching *_to_json emits plus
/// the documented shorthand forms; they never throw, returning false with a
/// human-readable `*err` instead.

/// Arch spec: {"preset": "nvdla256"} (edgetpu | nvdla1024 | nvdla256 |
/// eyeriss | shidiannao) or an explicit config {"array_dims": [16,16],
/// "parallel_dims": ["C","K"], "l1_bytes": .., "l2_bytes": ..,
/// "noc_bandwidth": .., "dram_bandwidth": .., "name"?: ..}.
Json arch_to_json(const arch::ArchConfig& cfg);
bool arch_from_json(const Json& j, arch::ArchConfig* out, std::string* err);

/// Resolves a model-zoo network name to a (caller-owned) Network, or
/// nullptr with `*err` set. The service installs a memoizing resolver so a
/// hot query loop does not rebuild ResNet50 per request; the default
/// resolver is a plain nn::make_network call.
using NetworkResolver = std::function<const nn::Network*(
    const std::string& name, std::string* err)>;

/// Layer spec: {"network": "resnet50", "index": 3} (model-zoo lookup) or an
/// explicit shape {"kind": "conv"|"dwconv"|"fc"|"matmul"|"attention",
/// "batch": .., "out_channels": .., "in_channels": .., "out_h": ..,
/// "out_w": .., "kernel_h": .., "kernel_w": .., "stride": ..,
/// "name"?: ..}. GEMM kinds (matmul/attention) read out_h as the row count
/// M, in_channels as the reduction depth, out_channels as the output
/// features, and require out_w/kernel_h/kernel_w/stride == 1; attention
/// additionally folds batch x heads into "batch". Unknown kind strings are
/// rejected with a bad_request naming the supported kinds.
Json layer_to_json(const nn::Workload& layer);
bool layer_from_json(const Json& j, nn::Workload* out, std::string* err);
bool layer_from_json(const Json& j, nn::Workload* out, std::string* err,
                     const NetworkResolver& resolver);

/// Mapping spec mirrors mapping::Mapping: {"dram": {"order": [7 dim names,
/// outermost first], "tile": [7 ints in canonical N,K,C,Y',X',R,S order]},
/// "pe": {...}, "pe_order": [...]}.
Json mapping_to_json(const mapping::Mapping& m);
bool mapping_from_json(const Json& j, mapping::Mapping* out,
                       std::string* err);

/// Full per-layer cost report. Non-finite metrics (illegal mappings carry
/// +inf EDP) serialize as null.
Json report_to_json(const cost::CostReport& report);

/// Whole-network cost summary with the per-unique-layer breakdown.
Json network_cost_to_json(const cost::NetworkCost& cost);

/// search_mapping result payload: mapping + report + best_edp +
/// evaluations (the search cost *when the entry was first computed* — a
/// property of the stored result, so warm answers echo it unchanged).
Json mapping_search_result_to_json(const search::MappingSearchResult& r);

/// --- response envelopes --------------------------------------------------

/// {"id": id, "ok": true, "result": result}
Json ok_response(const Json& id, Json result);

/// {"id": id, "ok": false, "error": {"code": code, "message": message}}
Json error_response(const Json& id, const std::string& code,
                    const std::string& message);

/// Dimension helpers shared by the mapping converters: canonical short
/// names ("N","K","C","Y'","X'","R","S"; "Yp"/"Xp" accepted on input).
const char* dim_json_name(nn::Dim d);
bool dim_from_json_name(const std::string& name, nn::Dim* out);

}  // namespace naas::serve
