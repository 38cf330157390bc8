#ifndef GSTORED_NET_TRANSPORT_H_
#define GSTORED_NET_TRANSPORT_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/cluster.h"
#include "net/fault.h"
#include "net/wire.h"

namespace gstored {

/// A message as observed by a receiver: payload plus its virtual arrival
/// time (injected latency + retry backoff; nothing actually sleeps).
struct DeliveredMessage {
  WireMessage msg;
  double arrival_ms = 0.0;
};

/// A thread-safe FIFO of delivered messages: the transport owns one mailbox
/// per site for coordinator -> site broadcasts.
class Mailbox {
 public:
  void Push(DeliveredMessage msg);
  std::vector<DeliveredMessage> Drain();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<DeliveredMessage> queue_;
};

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
  double queue_wait_ms = 0.0;  ///< injected latency + deadlines + backoff
  double exec_ms = 0.0;        ///< real compute wall-clock across attempts
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

/// The async cluster transport: per-site mailboxes carrying typed serialized
/// messages whose wire sizes feed the ShipmentLedger. Implementations must
/// be deterministic under a seeded FaultPlan.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_sites() const = 0;

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
  virtual StageResult ExecuteStage(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<std::vector<WireMessage>(int site)>& site_fn) = 0;

  /// Reliable coordinator -> sites broadcast: sends `make_msg(site)` to each
  /// site's mailbox, retrying undelivered sites up to policy.max_attempts.
  /// Returns per-site delivery success; callers degrade gracefully for
  /// sites that never received the broadcast (there is no local hedge for a
  /// receive failure).
  virtual std::vector<bool> BroadcastReliable(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<WireMessage(int site)>& make_msg) = 0;
};

/// The in-process implementation: real threads per site, virtual time for
/// faults. Deterministic given the FaultPlan — thread scheduling decides
/// only when a site finishes, while every decision about its messages
/// (drop/duplicate/latency draws, sequence reassembly, deadline
/// comparisons) is a pure function of the plan, so the stage results,
/// ledger byte counts and query outcomes replay byte-identically.
class InProcessTransport : public Transport {
 public:
  /// `session_id` stamps every message this transport sends — concurrent
  /// queries each run over their own transport instance (own mailboxes, own
  /// ledger), and the session id makes their traffic distinguishable on the
  /// wire, as a shared socket transport would require.
  InProcessTransport(int num_sites, ShipmentLedger* ledger, FaultPlan plan = {},
                     uint32_t session_id = 0);

  int num_sites() const override { return num_sites_; }
  const FaultPlan& plan() const { return plan_; }
  ShipmentLedger& ledger() const { return *ledger_; }
  uint32_t session_id() const { return session_id_; }

  Mailbox& site_mailbox(int site) { return *site_boxes_[site]; }

  StageResult ExecuteStage(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<std::vector<WireMessage>(int site)>& site_fn)
      override;

  std::vector<bool> BroadcastReliable(
      uint32_t stage, ShipmentLedger::StageId ledger_stage,
      const StagePolicy& policy,
      const std::function<WireMessage(int site)>& make_msg) override;

 private:
  /// Ships one attempt of a site's stamped send buffer (payloads + done
  /// marker) into the coordinator-side inbox `dest`, restamping only the
  /// attempt header. Applies the send-side faults (drop, duplicate, latency
  /// stamps) and accounts every byte put on the wire; `base_offset_ms`
  /// shifts arrival times by the accumulated backoff.
  void ShipBuffered(int site, uint32_t stage, uint32_t attempt,
                    const std::vector<WireMessage>& buffer,
                    ShipmentLedger::StageId ledger_stage,
                    double base_offset_ms,
                    std::vector<DeliveredMessage>* dest);

  int num_sites_;
  ShipmentLedger* ledger_;
  FaultPlan plan_;
  uint32_t session_id_ = 0;
  std::vector<std::unique_ptr<Mailbox>> site_boxes_;
};

}  // namespace gstored

#endif  // GSTORED_NET_TRANSPORT_H_
