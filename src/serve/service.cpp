#include "serve/service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/fault.hpp"
#include "core/log.hpp"
#include "core/serialize.hpp"
#include "nn/model_zoo.hpp"
#include "search/encoding.hpp"
#include "search/result_store.hpp"

namespace naas::serve {
namespace {

/// Payload-memo key for one (arch, layer) mapping-search work unit; the
/// evaluator's own cache key (which additionally fingerprints the search
/// options) is what the result is stored under.
std::uint64_t task_key(const arch::ArchConfig& arch,
                       const nn::Workload& layer) {
  return core::hash_mix(search::arch_fingerprint(arch),
                        nn::LayerShapeHash{}(layer));
}

}  // namespace

namespace {

/// True for statuses that mean "this file can never load again" (as
/// opposed to transient IO trouble or a normal first cold run).
bool is_damaged(search::StoreStatus status) {
  return status == search::StoreStatus::kBadMagic ||
         status == search::StoreStatus::kBadVersion ||
         status == search::StoreStatus::kCorrupt;
}

/// splitmix64 step for the backoff jitter stream: cheap, stateless beyond
/// one word, and deterministic per service.
std::uint64_t jitter_next(std::uint64_t* state) {
  std::uint64_t x = (*state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

EvalService::EvalService(const ServeOptions& options)
    : options_(options),
      model_(cost::EnergyModel{},
             options.cost_backend.value_or(cost::default_backend_kind())),
      pool_(options.num_threads),
      evaluator_(model_, options.mapping, &pool_) {
  if (!options_.store_path.empty()) {
    const search::StoreStatus status =
        evaluator_.load_store(options_.store_path);
    search::warn_store_rejected(options_.store_path, status);
    if (is_damaged(status)) rejected_status_ = status;
  }
  known_store_size_ = file_size(options_.store_path);
  // Entries adopted at boot are already on disk: start the flush mark past
  // them so the first refresh appends only work this process performs.
  flush_mark_ = evaluator_.cache_sequence();
  backoff_jitter_state_ =
      core::hash_mix(core::fnv1a64(options_.store_path),
                     options_.mapping.seed);
}

EvalService::~EvalService() {
  try {
    refresh();
  } catch (const std::exception& e) {
    core::log_warn(std::string("serve: final store flush failed: ") +
                   e.what());
  }
}

long long EvalService::file_size(const std::string& path) {
  if (path.empty()) return -1;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long long>(st.st_size);
}

Json EvalService::handle(const Json& request) {
  return handle_batch({request}).front();
}

std::vector<Json> EvalService::handle_batch(const std::vector<Json>& requests) {
  ++stats_.batches;
  stats_.queries += static_cast<long long>(requests.size());

  std::vector<Plan> plans;
  plans.reserve(requests.size());
  for (const Json& request : requests) plans.push_back(plan_request(request));

  // Collapse every mapping-search work unit in the batch — direct
  // search_mapping queries and the unique-layer expansion of
  // evaluate_network queries — into one evaluator fill. It dedups the
  // units, skips cached ones and searches each layer shape's group as one
  // parallel_for index, so work shared by several requests (the common
  // case: many clients asking about the same architecture) is paid for once
  // per batch, and the groups spread across the evaluator's pool. The
  // per-request assembly below then hits the cache for every unit. Mapping
  // search is deterministic per key (seeded by layer shape, not evaluation
  // order), so this produces byte-identical responses to sequential
  // submission.
  std::vector<search::ArchEvaluator::WorkUnit> units;
  // unique_layers() returns by value; keep the expansions alive through the
  // fill below.
  std::vector<std::vector<std::pair<nn::Workload, int>>> expansions;
  for (Plan& plan : plans) {
    if (!plan.error_code.empty() || !plan.has_task) continue;
    if (plan.network) {
      expansions.push_back(plan.network->unique_layers());
      for (const auto& [layer, count] : expansions.back())
        units.push_back({&plan.arch, &layer});
    } else {
      units.push_back({&plan.arch, &plan.layer});
    }
  }
  evaluator_.fill(units);

  std::vector<Json> responses;
  responses.reserve(plans.size());
  for (const Plan& plan : plans) responses.push_back(finish(plan));
  return responses;
}

std::string EvalService::handle_line(const std::string& line) {
  return handle_lines({line}).front();
}

std::vector<std::string> EvalService::handle_lines(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out(lines.size());
  std::vector<Json> requests;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    Json request = Json::parse(lines[i], &error);
    if (!error.empty()) {
      ++stats_.queries;
      ++stats_.errors;
      out[i] = error_response(Json::null(), kErrParse, error).dump();
    } else {
      requests.push_back(std::move(request));
      slots.push_back(i);
    }
  }
  const std::vector<Json> responses = handle_batch(requests);
  for (std::size_t k = 0; k < responses.size(); ++k)
    out[slots[k]] = responses[k].dump();
  return out;
}

EvalService::Plan EvalService::plan_request(const Json& request) {
  Plan plan;
  const auto fail = [&plan](const char* code, std::string message) {
    plan.error_code = code;
    plan.error = std::move(message);
    return plan;
  };
  if (!request.is_object())
    return fail(kErrBadRequest, "request must be a JSON object");
  if (const Json* id = request.get("id")) plan.id = *id;

  const Json* method = request.get("method");
  if (!method || !method->is_string())
    return fail(kErrBadRequest, "request requires a string 'method'");
  plan.method = method->as_string();

  std::string err;
  const NetworkResolver resolver =
      [this](const std::string& name, std::string* resolve_err) {
        return resolve_network(name, resolve_err);
      };
  if (plan.method == "search_mapping" || plan.method == "evaluate_mapping") {
    const Json* arch = request.get("arch");
    const Json* layer = request.get("layer");
    if (!arch || !layer)
      return fail(kErrBadRequest,
                  "'" + plan.method + "' requires 'arch' and 'layer'");
    if (!arch_from_json(*arch, &plan.arch, &err))
      return fail(kErrBadRequest, err);
    if (!layer_from_json(*layer, &plan.layer, &err, resolver))
      return fail(kErrBadRequest, err);
    if (plan.method == "evaluate_mapping") {
      const Json* map = request.get("mapping");
      if (!map)
        return fail(kErrBadRequest, "'evaluate_mapping' requires 'mapping'");
      if (!mapping_from_json(*map, &plan.map, &err))
        return fail(kErrBadRequest, err);
    } else {
      plan.has_task = true;
    }
    return plan;
  }
  if (plan.method == "evaluate_network") {
    const Json* arch = request.get("arch");
    const Json* network = request.get("network");
    if (!arch || !network || !network->is_string())
      return fail(kErrBadRequest,
                  "'evaluate_network' requires 'arch' and a string "
                  "'network'");
    if (!arch_from_json(*arch, &plan.arch, &err))
      return fail(kErrBadRequest, err);
    plan.network = resolve_network(network->as_string(), &err);
    if (!plan.network) return fail(kErrBadRequest, err);
    plan.has_task = true;
    return plan;
  }
  if (plan.method == "cache_stats" || plan.method == "refresh" ||
      plan.method == "ping" || plan.method == "pull_store")
    return plan;
  return fail(kErrUnknownMethod, "unknown method '" + plan.method + "'");
}

Json EvalService::finish(const Plan& plan) {
  if (!plan.error_code.empty()) {
    ++stats_.errors;
    return error_response(plan.id, plan.error_code, plan.error);
  }
  try {
    if (plan.method == "search_mapping") {
      const std::uint64_t key = task_key(plan.arch, plan.layer);
      auto it = payload_memo_.find(key);
      if (it == payload_memo_.end()) {
        const search::MappingSearchResult& r =
            evaluator_.best_mapping(plan.arch, plan.layer);
        if (payload_memo_.size() >= kMaxPayloadMemoEntries)
          payload_memo_.clear();
        it = payload_memo_
                 .emplace(key, mapping_search_result_to_json(r).dump())
                 .first;
      }
      return ok_response(plan.id, Json::raw(it->second));
    }
    if (plan.method == "evaluate_mapping") {
      const cost::CostReport report =
          model_.evaluate(plan.arch, plan.layer, plan.map);
      return ok_response(plan.id, report_to_json(report));
    }
    if (plan.method == "evaluate_network") {
      const cost::NetworkCost cost =
          evaluator_.evaluate(plan.arch, *plan.network);
      return ok_response(plan.id, network_cost_to_json(cost));
    }
    if (plan.method == "cache_stats")
      return ok_response(plan.id, cache_stats_json());
    if (plan.method == "ping") {
      // Liveness probe for the fleet router's health checks: no locks, no
      // evaluator state, nothing that can stall behind a slow store.
      Json result = Json::object();
      result.set("pong", Json::boolean(true));
      return ok_response(plan.id, std::move(result));
    }
    if (plan.method == "pull_store") {
      // The serve half of pull-based peer replication: a consistent cut of
      // every memoized result, in the on-disk segment format (magic,
      // version, algorithm epoch, checksum), hex-armored for the line
      // protocol. The puller runs the same ResultStore::decode as a disk
      // load, so a torn or damaged transfer is rejected/salvaged at
      // segment granularity — never adopted wrong.
      search::StoreEntries entries = evaluator_.snapshot_since(0);
      const std::size_t count = entries.size();
      const std::string encoded = search::ResultStore::encode(
          std::move(entries));
      Json result = Json::object();
      result.set("entries", Json::integer(static_cast<std::int64_t>(count)));
      result.set("format", Json::string("naasmaps-hex"));
      result.set("data", Json::string(core::to_hex(encoded)));
      return ok_response(plan.id, std::move(result));
    }
    // "refresh"
    const search::StoreStatus status = refresh();
    Json result = Json::object();
    result.set("status", Json::string(search::store_status_name(status)));
    result.set("entries_appended_total",
               Json::integer(stats_.store_entries_appended));
    result.set("entries_reloaded_total",
               Json::integer(stats_.store_entries_reloaded));
    return ok_response(plan.id, std::move(result));
  } catch (const std::exception& e) {
    ++stats_.errors;
    return error_response(plan.id, kErrInternal, e.what());
  }
}

std::size_t EvalService::adopt_entries(search::StoreEntries entries) {
  return evaluator_.adopt_entries(std::move(entries));
}

const nn::Network* EvalService::resolve_network(const std::string& name,
                                                std::string* err) {
  const auto it = network_memo_.find(name);
  if (it != network_memo_.end()) return &it->second;
  try {
    return &network_memo_.emplace(name, nn::make_network(name)).first->second;
  } catch (const std::invalid_argument& e) {
    *err = e.what();
    return nullptr;
  }
}

Json EvalService::cache_stats_json() const {
  Json obj = Json::object();
  obj.set("cache_entries",
          Json::integer(static_cast<std::int64_t>(evaluator_.cache_size())));
  obj.set("mapping_searches", Json::integer(evaluator_.mapping_searches()));
  obj.set("cost_evaluations", Json::integer(evaluator_.cost_evaluations()));
  obj.set("generations_batched",
          Json::integer(evaluator_.generations_batched()));
  obj.set("candidates_batch_evaluated",
          Json::integer(evaluator_.candidates_batch_evaluated()));
  obj.set("store_entries_loaded",
          Json::integer(
              static_cast<std::int64_t>(evaluator_.store_entries_loaded())));
  obj.set("queries", Json::integer(stats_.queries));
  obj.set("batches", Json::integer(stats_.batches));
  obj.set("errors", Json::integer(stats_.errors));
  obj.set("store_appends", Json::integer(stats_.store_appends));
  obj.set("store_entries_appended",
          Json::integer(stats_.store_entries_appended));
  obj.set("store_reloads", Json::integer(stats_.store_reloads));
  obj.set("store_entries_reloaded",
          Json::integer(stats_.store_entries_reloaded));
  obj.set("store_rewrites", Json::integer(stats_.store_rewrites));
  obj.set("store_refresh_retries",
          Json::integer(stats_.store_refresh_retries));
  obj.set("store_refresh_backoff_ms",
          Json::integer(stats_.store_refresh_backoff_ms));
  obj.set("requests_shed", Json::integer(requests_shed()));
  obj.set("requests_timed_out", Json::integer(requests_timed_out()));
  obj.set("protocol_rejects", Json::integer(protocol_rejects()));
  obj.set("pool_threads", Json::integer(pool_.size()));
  obj.set("cost_backend", Json::string(model_.backend_name()));
  return obj;
}

search::StoreStatus EvalService::heal_store() {
  using search::StoreStatus;
  // Appending to a damaged file is pointless (decode stops at the first
  // damaged segment), so rewrite it atomically from the full cache —
  // which includes anything the load salvaged — the same
  // recovery the search CLIs perform at exit. Whatever the damaged file
  // held is unreadable regardless; the rewrite can only restore service.
  const StoreStatus status = evaluator_.save_store(options_.store_path);
  if (status != StoreStatus::kOk) {
    search::warn_store_write_failed(options_.store_path, status);
    return status;
  }
  ++stats_.store_rewrites;
  rejected_status_ = StoreStatus::kOk;
  known_store_size_ = file_size(options_.store_path);
  flush_mark_ = evaluator_.cache_sequence();
  return StoreStatus::kOk;
}

search::StoreStatus EvalService::refresh() {
  using search::StoreStatus;
  // Bounded retry with jittered exponential backoff for *transient*
  // failures (kIoError). Damaged-store statuses are not retried here —
  // they are healed by rewrite on the next pass — and a healthy pass
  // returns immediately. Backoff stays tiny (base 1/2/4 ms): the point is
  // to step over a momentary failure window, not to block the serving
  // loop. The jitter (uniform in [base/2, base], drawn from a per-service
  // deterministic stream) is a thundering-herd guard: N fleet workers
  // sharing one store path that all see the same transient failure retry
  // at decorrelated times instead of colliding again in lockstep. Total
  // sleep time is metered as store_refresh_backoff_ms in cache_stats.
  constexpr int kMaxAttempts = 3;
  StoreStatus status = StoreStatus::kOk;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.store_refresh_retries;
      const long long base_ms = 1LL << (attempt - 1);
      const double unit =
          static_cast<double>(jitter_next(&backoff_jitter_state_) >> 11) *
          0x1.0p-53;
      const long long sleep_ms = std::max<long long>(
          1, static_cast<long long>(
                 static_cast<double>(base_ms) * (0.5 + 0.5 * unit) + 0.5));
      stats_.store_refresh_backoff_ms += sleep_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    status = refresh_once();
    if (status != StoreStatus::kIoError) break;
  }
  return status;
}

search::StoreStatus EvalService::refresh_once() {
  using search::StoreStatus;
  if (options_.store_path.empty()) return StoreStatus::kOk;
  // Deterministic transient-failure seam for the retry/backoff tests and
  // the fault-injection soak.
  if (core::fault("refresh_fail")) return StoreStatus::kIoError;
  if (store_rejected() && !options_.store_readonly) return heal_store();
  // A readonly service cannot heal a damaged store itself; it falls
  // through to the reload-on-change check below so it adopts the store
  // once a writer heals it, and keeps reporting the rejection meanwhile.

  StoreStatus first_problem = StoreStatus::kOk;
  std::size_t appended_bytes = 0;
  bool append_failed = false;
  // The cut the flush mark may advance to: snapshot_since pairs the scan
  // with the sequence it is consistent with, so entries published after
  // the scan can never be skipped by a mark that overshoots them.
  std::uint64_t scan_mark = flush_mark_;
  // Nothing entered the cache since the last flush: skip the scan, which
  // takes every shard lock and visits every entry. Exact because refresh
  // runs between batches, so no publish is in flight and the sequence read
  // covers every insertion.
  if (!options_.store_readonly &&
      evaluator_.cache_sequence() != flush_mark_) {
    search::StoreEntries fresh =
        evaluator_.snapshot_since(flush_mark_, &scan_mark);
    if (!fresh.empty()) {
      const auto count = static_cast<long long>(fresh.size());
      const StoreStatus status = search::ResultStore::append(
          options_.store_path, std::move(fresh), &appended_bytes);
      if (status == StoreStatus::kOk) {
        ++stats_.store_appends;
        stats_.store_entries_appended += count;
      } else {
        search::warn_store_write_failed(options_.store_path, status);
        first_problem = status;
        append_failed = true;
      }
    }
  }

  // Reload-on-change: if the file grew beyond what we just wrote (or
  // changed at all when we wrote nothing), another process appended or
  // rewrote it — adopt its entries. Existing keys win in preload, so a
  // reload can only add results, never change an answer.
  const long long expected =
      (known_store_size_ < 0 ? 0 : known_store_size_) +
      static_cast<long long>(appended_bytes);
  const long long size_now = file_size(options_.store_path);
  bool reloaded = false;
  if (size_now >= 0 && size_now != expected) {
    const std::size_t before = evaluator_.store_entries_loaded();
    const StoreStatus status = evaluator_.load_store(options_.store_path);
    if (status == StoreStatus::kOk) {
      ++stats_.store_reloads;
      stats_.store_entries_reloaded += static_cast<long long>(
          evaluator_.store_entries_loaded() - before);
      rejected_status_ = StoreStatus::kOk;  // someone healed it
      reloaded = true;
    } else {
      search::warn_store_rejected(options_.store_path, status);
      // A damaged file is healed (rewritten) on the next refresh.
      if (is_damaged(status)) rejected_status_ = status;
      if (first_problem == StoreStatus::kOk) first_problem = status;
    }
  }
  known_store_size_ = size_now;
  // Advance the flush mark — but only when our own append (if any)
  // landed; after a failed append the mark stays put and the same entries
  // retry next refresh. The mark moves to the snapshot's own consistency
  // cut (scan_mark), never to a bare post-append sequence read, so an
  // entry published after the scan can never be covered without having
  // been flushed. A successful reload additionally advances past the
  // adopted entries (they came *from* the store; re-appending them is
  // pure waste) — exact under the quiescent-refresh service contract,
  // since the preload's insertions are the only ones since the scan.
  if (!append_failed)
    flush_mark_ = reloaded ? evaluator_.cache_sequence() : scan_mark;
  // A still-unusable store is a standing problem, not a healthy refresh.
  if (first_problem == StoreStatus::kOk && store_rejected())
    first_problem = rejected_status_;
  return first_problem;
}

}  // namespace naas::serve
