#ifndef GSTORED_NET_TRANSPORT_H_
#define GSTORED_NET_TRANSPORT_H_

#include <functional>
#include <vector>

#include "net/cluster.h"
#include "net/fault.h"
#include "net/wire.h"

namespace gstored {

/// Deadline/retry/hedging knobs of one coordinator-driven stage. All times
/// are virtual milliseconds compared against injected latencies, never
/// against real compute time — so a plan's fault pattern, and therefore the
/// query outcome and ledger, replay deterministically.
struct StagePolicy {
  /// Per-attempt response deadline. A site whose end-of-stage marker (or any
  /// payload message) has not arrived by then is retried.
  double deadline_ms = 1000.0;

  /// Total dispatch attempts per site (>= 1). A retry re-ships the bytes
  /// the site computed for its first attempt.
  int max_attempts = 3;

  /// Base retry backoff, doubled every attempt (virtual).
  double backoff_ms = 5.0;

  /// After all attempts fail, take the site's output from the
  /// coordinator-local fragment copy ("straggler hedging"): the buffered
  /// bytes when the site computed them, otherwise one run of the stage
  /// function, both on the site's stage thread. Recovers stragglers and —
  /// in this in-process runtime, where the replica is always available —
  /// crashed sites too.
  /// Disable to model a deployment without replicas, where lost sites
  /// degrade the query to a flagged partial result.
  bool hedge_local = true;
};

/// Transport-level view of one site's participation in a stage.
struct SiteStageReport {
  bool ok = false;       ///< the site's data is available to the coordinator
  bool hedged = false;   ///< recovered by local re-execution
  bool crashed = false;  ///< the fault plan had the site dead for this stage
  int attempts = 0;      ///< dispatch attempts consumed (>= 1)
};

/// Result of one coordinator-driven stage over all sites.
struct StageResult {
  std::vector<SiteStageReport> sites;
  /// Per-site payload messages, deduplicated and in sequence order; empty
  /// for sites with ok == false.
  std::vector<std::vector<WireMessage>> messages;
  StageRun run;

  /// True when every site's data made it to the coordinator.
  bool complete() const;
  /// Extra dispatch attempts beyond the first, summed over sites.
  size_t total_retries() const;
  /// Sites recovered by hedging.
  size_t hedged_sites() const;
};

/// The cluster transport: typed serialized messages between the coordinator
/// and the sites, whose wire sizes feed the ShipmentLedger. Real threads per
/// site, virtual time for faults. Deterministic given the FaultPlan — thread
/// scheduling decides only when a site finishes, while every decision about
/// its messages (drop/duplicate/latency/reorder draws, sequence reassembly,
/// deadline comparisons) is a pure function of the plan, so the stage
/// results, ledger byte counts and query outcomes replay byte-identically.
class Transport {
 public:
  /// `session_id` stamps every message this transport sends — concurrent
  /// queries each run over their own transport instance (own ledger), and
  /// the session id makes their traffic distinguishable on the wire, as a
  /// shared socket transport would require.
  Transport(int num_sites, ShipmentLedger* ledger, FaultPlan plan = {},
            uint32_t session_id = 0);

  int num_sites() const { return num_sites_; }

  /// Runs one coordinator-driven stage: every site executes `site_fn`
  /// concurrently and ships the returned messages to the coordinator; the
  /// transport enforces the per-attempt deadline, retries with exponential
  /// backoff, and finally hedges locally per `policy`. Each site runs its
  /// own attempt loop, so a straggler's retries never hold back another
  /// site's. `ledger_stage` attributes the wire bytes
  /// (ShipmentLedger::kUnaccounted for control/result traffic outside the
  /// paper's shipment metric). `site_fn` runs at most once per site, on that
  /// site's transport thread: retries re-ship its buffered bytes, and a
  /// hedge delivers them directly.
  StageResult ExecuteStage(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<std::vector<WireMessage>(int site)>& site_fn);

  /// Reliable coordinator -> sites broadcast, retrying undelivered sites up
  /// to policy.max_attempts. Every send is fault-drawn and accounted with
  /// `wire_bytes[site]` (the message's WireSize(): kHeaderBytes + payload
  /// size). No message is built or kept, because sites read the broadcast
  /// state from coordinator memory. Returns per-site delivery success;
  /// callers degrade gracefully for sites that never received the
  /// broadcast (there is no local hedge for a receive failure).
  std::vector<bool> BroadcastReliable(uint32_t stage,
                                      ShipmentLedger::StageId ledger_stage,
                                      const StagePolicy& policy,
                                      const std::vector<size_t>& wire_bytes);

 private:
  int num_sites_;
  ShipmentLedger* ledger_;
  FaultPlan plan_;
  uint32_t session_id_ = 0;
};

}  // namespace gstored

#endif  // GSTORED_NET_TRANSPORT_H_
