#include "fleet/router.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "arch/accelerator.hpp"
#include "core/fault.hpp"
#include "core/flags.hpp"
#include "core/serialize.hpp"
#include "nn/layer.hpp"
#include "nn/model_zoo.hpp"
#include "search/encoding.hpp"
#include "search/result_store.hpp"
#include "serve/protocol.hpp"

namespace naas::fleet {

namespace {

constexpr const char* kPingLine = "{\"id\":null,\"method\":\"ping\"}";
constexpr const char* kRefreshLine = "{\"id\":null,\"method\":\"refresh\"}";

bool parse_port(const std::string& text, int* port) {
  std::uint64_t value = 0;
  if (text.size() > 5 || !core::parse_uint(text, 1, 65535, &value))
    return false;
  *port = static_cast<int>(value);
  return true;
}

}  // namespace

bool parse_worker_list(const std::string& spec, std::vector<WorkerAddr>* out,
                       std::string* err) {
  out->clear();
  if (spec.empty()) {
    if (err) *err = "empty worker list";
    return false;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    WorkerAddr addr;
    const std::size_t colon = item.rfind(':');
    const std::string host =
        colon == std::string::npos ? "" : item.substr(0, colon);
    const std::string port_text =
        colon == std::string::npos ? item : item.substr(colon + 1);
    if (!host.empty()) addr.host = host;
    if (!parse_port(port_text, &addr.port)) {
      if (err) *err = "bad worker address '" + item + "' (want host:port)";
      out->clear();
      return false;
    }
    out->push_back(std::move(addr));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.workers.size(), options_.vnodes) {
  workers_.reserve(options_.workers.size());
  for (const WorkerAddr& addr : options_.workers) {
    auto w = std::make_unique<Worker>();
    w->addr = addr;
    workers_.push_back(std::move(w));
  }
  if (options_.ping_interval_ms > 0) {
    health_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lk(health_mutex_);
      while (!health_stop_) {
        health_cv_.wait_for(
            lk, std::chrono::milliseconds(options_.ping_interval_ms));
        if (health_stop_) break;
        lk.unlock();
        probe_now();
        lk.lock();
      }
    });
  }
}

Router::~Router() {
  if (health_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(health_mutex_);
      health_stop_ = true;
    }
    health_cv_.notify_all();
    health_thread_.join();
  }
}

search::StoreStatus Router::refresh() { return search::StoreStatus::kOk; }

const nn::Network* Router::resolve_network(const std::string& name,
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

std::uint64_t Router::route_key(const std::string& line, Slot* slot) {
  // Fallback key for anything the router cannot interpret: those lines
  // get responses that are pure functions of their bytes (parse_error,
  // bad_request, unknown_method — identical from every worker), so
  // placement only needs determinism, not affinity.
  const std::uint64_t fallback = core::fnv1a64(line);
  std::string perr;
  const serve::Json req = serve::Json::parse(line, &perr);
  if (!perr.empty() || !req.is_object()) return fallback;
  if (const serve::Json* id = req.get("id")) slot->id = *id;
  const serve::Json* method = req.get("method");
  if (!method || !method->is_string()) return fallback;
  const std::string& m = method->as_string();
  if (m == "ping" || m == "cache_stats" || m == "refresh" ||
      m == "pull_store") {
    slot->local = true;
    slot->method = m;
    return 0;
  }
  std::string err;
  const serve::NetworkResolver resolver =
      [this](const std::string& name, std::string* resolve_err) {
        return resolve_network(name, resolve_err);
      };
  if (m == "search_mapping" || m == "evaluate_mapping") {
    const serve::Json* arch = req.get("arch");
    const serve::Json* layer = req.get("layer");
    arch::ArchConfig cfg;
    nn::Workload wl;
    if (arch && layer && serve::arch_from_json(*arch, &cfg, &err) &&
        serve::layer_from_json(*layer, &wl, &err, resolver)) {
      slot->keyed = true;
      return core::hash_mix(search::arch_fingerprint(cfg),
                            nn::LayerShapeHash{}(wl));
    }
    return fallback;
  }
  if (m == "evaluate_network") {
    const serve::Json* arch = req.get("arch");
    const serve::Json* network = req.get("network");
    arch::ArchConfig cfg;
    if (arch && network && network->is_string() &&
        serve::arch_from_json(*arch, &cfg, &err)) {
      slot->keyed = true;
      return core::hash_mix(search::arch_fingerprint(cfg),
                            core::fnv1a64(network->as_string()));
    }
    return fallback;
  }
  return fallback;
}

serve::Json Router::local_response(const serve::Json& id,
                                   const std::string& method) {
  if (method == "ping") {
    serve::Json result = serve::Json::object();
    result.set("pong", serve::Json::boolean(true));
    return serve::ok_response(id, std::move(result));
  }
  if (method == "cache_stats")
    return serve::ok_response(id, router_stats_json());
  if (method == "refresh") return serve::ok_response(id, broadcast_refresh());
  // pull_store reports a *worker's* live store snapshot; the router has
  // none, and silently proxying an arbitrary worker's would mislabel
  // whose entries they are. Replicators pull from workers directly.
  return serve::error_response(
      id, serve::kErrBadRequest,
      "'pull_store' is worker-local; pull from a worker address directly");
}

serve::Json Router::router_stats_json() {
  RouterStats s = stats();
  serve::Json obj = serve::Json::object();
  obj.set("router", serve::Json::boolean(true));
  obj.set("workers", serve::Json::integer(
                         static_cast<std::int64_t>(workers_.size())));
  obj.set("workers_up",
          serve::Json::integer(static_cast<std::int64_t>(workers_up())));
  obj.set("batches", serve::Json::integer(s.batches));
  obj.set("lines", serve::Json::integer(s.lines));
  obj.set("groups_forwarded", serve::Json::integer(s.groups_forwarded));
  obj.set("forward_attempts", serve::Json::integer(s.forward_attempts));
  obj.set("forward_failures", serve::Json::integer(s.forward_failures));
  obj.set("failovers", serve::Json::integer(s.failovers));
  obj.set("degraded_lines", serve::Json::integer(s.degraded_lines));
  obj.set("local_lines", serve::Json::integer(s.local_lines));
  obj.set("unroutable_lines", serve::Json::integer(s.unroutable_lines));
  obj.set("pings_ok", serve::Json::integer(s.pings_ok));
  obj.set("ping_failures", serve::Json::integer(s.ping_failures));
  obj.set("reconnects", serve::Json::integer(s.reconnects));
  obj.set("workers_marked_down",
          serve::Json::integer(s.workers_marked_down));
  obj.set("requests_shed", serve::Json::integer(requests_shed_.load()));
  obj.set("requests_timed_out",
          serve::Json::integer(requests_timed_out_.load()));
  obj.set("protocol_rejects",
          serve::Json::integer(protocol_rejects_.load()));
  return obj;
}

serve::Json Router::broadcast_refresh() {
  long long refreshed = 0;
  for (auto& wp : workers_) {
    Worker& w = *wp;
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!ensure_connected_locked(w)) continue;
    std::string resp;
    if (w.client.send_line(kRefreshLine) &&
        w.client.read_line(&resp, options_.forward_timeout_ms)) {
      ++refreshed;
    } else {
      mark_down_locked(w);
    }
  }
  serve::Json result = serve::Json::object();
  result.set("workers", serve::Json::integer(
                            static_cast<std::int64_t>(workers_.size())));
  result.set("refreshed", serve::Json::integer(refreshed));
  return result;
}

bool Router::ensure_connected_locked(Worker& w) {
  if (w.up && w.client.connected()) return true;
  if (Clock::now() < w.next_reconnect) return false;
  std::string err;
  if (!w.client.connect(w.addr.host, w.addr.port, options_.connect_timeout_ms,
                        &err)) {
    w.up = false;
    w.backoff_ms = w.backoff_ms == 0
                       ? options_.reconnect_backoff_ms
                       : std::min(w.backoff_ms * 2,
                                  options_.reconnect_backoff_cap_ms);
    w.next_reconnect =
        Clock::now() + std::chrono::milliseconds(w.backoff_ms);
    return false;
  }
  // Client-wide receive cap: even a generous caller timeout can never
  // outwait the per-forward deadline on this connection.
  w.client.set_recv_deadline_ms(options_.forward_timeout_ms);
  w.up = true;
  w.backoff_ms = 0;
  w.next_reconnect = Clock::time_point{};
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++stats_.reconnects;
  }
  return true;
}

void Router::mark_down_locked(Worker& w) {
  if (w.up) {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++stats_.workers_marked_down;
  }
  w.up = false;
  w.client.close();
  w.backoff_ms = w.backoff_ms == 0
                     ? options_.reconnect_backoff_ms
                     : std::min(w.backoff_ms * 2,
                                options_.reconnect_backoff_cap_ms);
  w.next_reconnect = Clock::now() + std::chrono::milliseconds(w.backoff_ms);
}

bool Router::forward_group_locked(Worker& w,
                                  const std::vector<std::size_t>& members,
                                  const std::vector<std::string>& lines,
                                  std::vector<Slot>& slots) {
  if (core::fault("router_forward_fail")) {
    mark_down_locked(w);
    return false;
  }
  // A stalled forward sends nothing: the read below then eats the whole
  // per-forward deadline — the deterministic stand-in for a worker that
  // accepted the bytes and hung.
  const bool stall = core::fault("router_forward_stall");
  if (!stall) {
    for (const std::size_t idx : members) {
      if (!w.client.send_line(lines[idx])) {
        mark_down_locked(w);
        return false;
      }
    }
  }
  // Responses come back in request order on this connection (the server's
  // pipelining contract), so the k-th line answers the k-th member.
  // Collect into a staging buffer and commit only when the whole group
  // answered: a mid-group failure retries the *entire* group elsewhere,
  // and a half-committed group must not leave stale bytes behind.
  std::vector<std::string> staged(members.size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.forward_timeout_ms);
  for (std::size_t k = 0; k < members.size(); ++k) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0 || !w.client.read_line(&staged[k], static_cast<int>(left))) {
      mark_down_locked(w);
      return false;
    }
  }
  for (std::size_t k = 0; k < members.size(); ++k) {
    Slot& s = slots[members[k]];
    s.response = std::move(staged[k]);
    s.done = true;
  }
  return true;
}

std::vector<std::string> Router::handle_lines(
    const std::vector<std::string>& lines) {
  std::vector<Slot> slots(lines.size());
  long long local_count = 0;
  long long unroutable = 0;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Slot& s = slots[i];
    s.key = route_key(lines[i], &s);
    if (s.local) {
      s.response = local_response(s.id, s.method).dump();
      s.done = true;
      ++local_count;
      continue;
    }
    if (!s.keyed) ++unroutable;
    s.prefs = ring_.preference(s.key);
    pending.push_back(i);
  }
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++stats_.batches;
    stats_.lines += static_cast<long long>(lines.size());
    stats_.local_lines += local_count;
    stats_.unroutable_lines += unroutable;
  }

  const std::size_t max_attempts = std::min<std::size_t>(
      workers_.size(),
      options_.max_forward_attempts < 1
          ? 1
          : static_cast<std::size_t>(options_.max_forward_attempts));

  while (!pending.empty()) {
    // Group the round's lines by their current failover candidate; lines
    // out of attempts get their degraded answer now.
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (const std::size_t idx : pending) {
      Slot& s = slots[idx];
      if (s.attempt >= max_attempts) {
        s.response =
            serve::error_response(
                s.id, serve::kErrDegraded,
                "no live worker for this request's shard after " +
                    std::to_string(s.attempt) +
                    " attempts; the request was not evaluated and is safe "
                    "to resubmit")
                .dump();
        s.done = true;
        std::lock_guard<std::mutex> lk(stats_mutex_);
        ++stats_.degraded_lines;
        continue;
      }
      groups[s.prefs[s.attempt]].push_back(idx);
    }
    if (groups.empty()) break;

    // Send pass: lock every candidate worker (ascending index — only this
    // thread ever holds several; the health thread try_locks) and push the
    // group's lines, so all workers evaluate concurrently...
    struct Attempt {
      std::size_t worker;
      const std::vector<std::size_t>* members;
      std::unique_lock<std::mutex> lock;
      bool ok = false;
    };
    std::vector<Attempt> attempts;
    attempts.reserve(groups.size());
    for (auto& [widx, members] : groups) {
      Attempt a{widx, &members,
                std::unique_lock<std::mutex>(workers_[widx]->mutex)};
      {
        std::lock_guard<std::mutex> lk(stats_mutex_);
        ++stats_.forward_attempts;
      }
      Worker& w = *workers_[widx];
      a.ok = ensure_connected_locked(w);
      attempts.push_back(std::move(a));
    }
    // ...then the read pass drains each group in turn. forward_group
    // resends nothing: a group whose connect failed is charged one
    // attempt and retried next round on its lines' next ring workers.
    for (Attempt& a : attempts) {
      Worker& w = *workers_[a.worker];
      const bool forwarded =
          a.ok && forward_group_locked(w, *a.members, lines, slots);
      std::lock_guard<std::mutex> lk(stats_mutex_);
      if (forwarded) {
        ++stats_.groups_forwarded;
        for (const std::size_t idx : *a.members) {
          if (slots[idx].attempt > 0) ++stats_.failovers;
        }
      } else {
        ++stats_.forward_failures;
        for (const std::size_t idx : *a.members) ++slots[idx].attempt;
      }
    }

    std::vector<std::size_t> next;
    for (const std::size_t idx : pending) {
      if (!slots[idx].done) next.push_back(idx);
    }
    pending = std::move(next);
  }

  std::vector<std::string> responses;
  responses.reserve(lines.size());
  for (Slot& s : slots) responses.push_back(std::move(s.response));
  return responses;
}

void Router::probe_now() {
  for (auto& wp : workers_) {
    Worker& w = *wp;
    std::unique_lock<std::mutex> lock(w.mutex, std::try_to_lock);
    // A busy worker is mid-forward; that path surfaces its own failures.
    if (!lock.owns_lock()) continue;
    if (!w.up) {
      ensure_connected_locked(w);
      continue;
    }
    bool ok = !core::fault("router_ping_fail");
    std::string resp;
    if (ok) ok = w.client.send_line(kPingLine);
    if (ok) ok = w.client.read_line(&resp, options_.ping_timeout_ms);
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      if (ok) {
        ++stats_.pings_ok;
      } else {
        ++stats_.ping_failures;
      }
    }
    if (!ok) mark_down_locked(w);
  }
}

bool Router::worker_up(std::size_t i) const {
  Worker& w = *workers_[i];
  std::lock_guard<std::mutex> lock(w.mutex);
  return w.up;
}

std::size_t Router::workers_up() const {
  std::size_t up = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (worker_up(i)) ++up;
  }
  return up;
}

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

}  // namespace naas::fleet
