#ifndef GSTORED_NET_CLUSTER_H_
#define GSTORED_NET_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/fault.h"

namespace gstored {

class Transport;

/// Thread-safe ledger of simulated network traffic, the stand-in for the
/// paper's MPI layer. Every byte a site would put on the wire is recorded
/// here under a stage label ("candidates", "lec_features", "lpm_shipment"),
/// which is exactly the "Data Shipment" column of Tables I-III.
///
/// The hot path is lock-free: stage labels are interned once into dense
/// StageIds and each stage owns a plain atomic counter, so concurrent
/// per-message Adds from every site thread never contend on a global mutex
/// (the old string-keyed map did). The mutex only guards the cold intern
/// table.
class ShipmentLedger {
 public:
  using StageId = uint32_t;

  /// Sentinel accepted by Add(StageId, ...) as "do not account" — used by
  /// the transport for control-plane and result messages that are not part
  /// of the paper's data-shipment metric.
  static constexpr StageId kUnaccounted = ~StageId{0};

  /// Fixed counter capacity: StageIds index a pre-sized atomic array so the
  /// lock-free Add never races a container reallocation.
  static constexpr size_t kMaxStages = 64;

  ShipmentLedger();

  /// Returns the dense id for `stage`, creating it on first use.
  StageId Intern(std::string_view stage);

  /// Records `bytes` of traffic attributed to an interned stage (lock-free).
  void Add(StageId stage, size_t bytes);

  /// Records `bytes` of traffic attributed to `stage` (compat overload:
  /// interns, then counts).
  void Add(const std::string& stage, size_t bytes);

  /// Total bytes recorded for one stage.
  size_t StageBytes(std::string_view stage) const;
  size_t StageBytes(StageId stage) const;

  /// Total bytes across all stages.
  size_t TotalBytes() const;

  /// All (stage, bytes) pairs with non-zero counts, sorted by stage name
  /// (the Tables I-III output order).
  std::vector<std::pair<std::string, size_t>> Breakdown() const;

  /// Clears all counters (between queries). Interned ids stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;  // guards names_ / ids_ only
  std::map<std::string, StageId, std::less<>> ids_;
  std::vector<std::string> names_;
  std::vector<std::atomic<size_t>> counters_;
};

/// Timing of one distributed stage across all sites (StageResult::run).
struct StageRun {
  /// Per-site total stage time in milliseconds: transport queue wait plus
  /// execution — the slowest-site semantics of the paper.
  std::vector<double> site_millis;
  /// Per-site time spent waiting on the transport: injected message
  /// latency, blown per-attempt deadlines and retry backoff (virtual
  /// milliseconds, deterministic under a seeded FaultPlan).
  std::vector<double> queue_wait_millis;
  /// Per-site real execution wall-clock (the site's compute).
  std::vector<double> exec_millis;
  /// Response time of the stage — the slowest site, matching the paper's
  /// "evaluate at different sites in parallel" cost semantics.
  double max_millis = 0.0;
};

/// One transport session over the simulated cluster: a fixed number of
/// sites plus a coordinator, a fresh ledger, and the transport
/// (net/transport.h) that serializes every message, accounts wire-format
/// bytes to that ledger, and injects deterministic faults from a seeded
/// FaultPlan. Each query runs over its own session (the engine builds one
/// per context-free Run, the serving scheduler one per executed query), so
/// concurrent queries never share traffic or byte accounting; `session_id`
/// stamps the session's messages.
class SimulatedCluster {
 public:
  explicit SimulatedCluster(int num_sites, FaultPlan fault_plan = {},
                            uint32_t session_id = 0);
  ~SimulatedCluster();

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  int num_sites() const { return num_sites_; }

  ShipmentLedger& ledger() { return ledger_; }
  const ShipmentLedger& ledger() const { return ledger_; }

  /// The transport carrying all coordinator<->site messages.
  Transport& transport() const { return *transport_; }

 private:
  int num_sites_;
  ShipmentLedger ledger_;
  std::unique_ptr<Transport> transport_;
};

}  // namespace gstored

#endif  // GSTORED_NET_CLUSTER_H_
