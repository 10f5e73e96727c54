#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "serve/line_handler.hpp"
#include "serve/service.hpp"

namespace naas::fleet {

struct ReplicatorOptions {
  /// Peer workers to pull from (typically the rest of the fleet).
  std::vector<WorkerAddr> peers;
  int connect_timeout_ms = 2000;
  int fetch_timeout_ms = 15000;
};

struct ReplicatorStats {
  long long pulls = 0;            ///< pull_once calls
  long long peer_fetches = 0;     ///< per-peer fetch attempts
  long long fetch_failures = 0;   ///< connect/send/recv/protocol failures
  long long torn_fetches = 0;     ///< payloads decode rejected or salvaged
  long long entries_adopted = 0;  ///< entries actually new to the cache
  long long bytes_fetched = 0;    ///< decoded store bytes received
};

/// Pull-based peer segment replication — how a SIGKILLed-and-restarted
/// worker re-warms without redoing a single mapping search. Each pull
/// asks every peer for its live result-store snapshot (the `pull_store`
/// protocol method: ResultStore::encode hex-armored into a line), decodes
/// it through the same magic/version/checksum gauntlet as an on-disk
/// store — so a torn or corrupted transfer is salvaged or rejected, never
/// adopted wrong — and feeds the entries to EvalService::adopt_entries,
/// where existing keys win and newcomers get fresh sequence numbers (the
/// next refresh persists them to this worker's own store; replication is
/// durable, not session-only).
///
/// Pulling is the deliberately boring direction: peers need no membership
/// view, no push retry queues, and no failure handling for a dead
/// recipient — a puller that dies simply stops asking. Fault site
/// `repl_fetch_torn` truncates a fetched payload mid-segment to prove the
/// decode gauntlet holds.
class Replicator {
 public:
  explicit Replicator(ReplicatorOptions options);

  /// One pull pass over all peers; returns entries adopted. Unreachable
  /// peers are counted and skipped — replication is opportunistic, the
  /// worker serves (cold for the misses) either way.
  std::size_t pull_once(serve::EvalService& service);

  const ReplicatorStats& stats() const { return stats_; }

 private:
  std::size_t pull_peer(const WorkerAddr& peer, serve::EvalService& service);

  ReplicatorOptions options_;
  ReplicatorStats stats_;
};

/// LineHandler wrapper that gives an EvalService periodic peer pulls: one
/// at every `pull_every_refreshes`-th refresh() (the transport's refresh
/// cadence — no extra thread). The pull runs on serve::Server's loop
/// thread between batches, which is exactly the thread adopt_entries
/// requires; the Replicator's connect and fetch timeouts bound how long
/// it holds the loop. Boot-time warm-up is the caller's pull_now() call
/// before serving starts.
class ReplicatedService : public serve::LineHandler {
 public:
  ReplicatedService(serve::EvalService& service, ReplicatorOptions options,
                    long long pull_every_refreshes);

  std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) override {
    return service_.handle_lines(lines);
  }

  search::StoreStatus refresh() override;

  void note_shed() override { service_.note_shed(); }
  void note_timeout() override { service_.note_timeout(); }
  void note_protocol_reject() override { service_.note_protocol_reject(); }

  /// Immediate pull pass; returns entries adopted.
  std::size_t pull_now() { return replicator_.pull_once(service_); }

  const Replicator& replicator() const { return replicator_; }

 private:
  serve::EvalService& service_;
  Replicator replicator_;
  long long pull_every_;
  long long refreshes_since_pull_ = 0;
};

}  // namespace naas::fleet
