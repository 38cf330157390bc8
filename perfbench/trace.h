// The traced run's instruments: an in-memory span store, the replay of one
// query through the engine's public layer functions in pipeline order, and
// the per-layer self-time accounting over the recorded spans.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/cluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. Spans of one request share
/// `query`; `parent` is the index of the span that caused it (-1 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t query = 0;
};

/// Keeps every span in memory; thread-safe. Spans are written out once, when
/// the benchmark ends.
class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent, uint32_t query);
  void End(int32_t id);

  /// All spans recorded so far; call after every recording thread joined.
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int32_t parent, uint32_t query)
      : tracer_(tracer), id_(tracer.Begin(name, parent, query)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Work counted at the layer boundaries of one replay.
struct ReplayCounts {
  double exchange_bytes = 0;   ///< Alg. 4 wire bytes (candidates ledger stage)
  double order_scorings = 0;   ///< site match orders + island unit orders
  double match_rows = 0;       ///< complete local matches, all sites
  double lpms = 0;             ///< local partial matches enumerated
  double features = 0;         ///< LEC features, all sites
  double surviving_features = 0;
  double lpms_shipped = 0;     ///< LPMs whose feature survived pruning
  double prune_join_attempts = 0;
  double feature_wire_bytes = 0;  ///< encoded LEC-feature batches
  double lpm_wire_bytes = 0;      ///< encoded LPM batches
  double assembly_join_attempts = 0;
  double crossing_matches = 0;
};

struct ReplayResult {
  std::vector<gstored::Binding> matches;  ///< sorted, deduplicated
  ReplayCounts counts;
  /// False when the text did not parse or a wire batch failed to decode.
  bool ok = false;
};

/// Evaluates `sparql` in kFull mode the way DistributedEngine::Run does, but
/// one public layer call at a time with a span around each (sites run one
/// after another): ParseSparql -> ResolveQueryTerms ->
/// ExchangeInternalCandidates -> per site PlanSiteMatchOrder, MatchQuery,
/// EnumerateLocalPartialMatches (island unit orders via PlanIslandUnitOrder),
/// ComputeLecFeatures -> LEC-feature batch codec -> LecFeaturePruning ->
/// LPM batch codec -> LecAssembly -> DedupBindings. Uses the engine's own
/// options with `num_threads` slots. Spans are children of `root`.
ReplayResult ReplayPipeline(const gstored::DistributedEngine& engine,
                            gstored::SimulatedCluster& cluster,
                            const std::string& sparql, size_t num_threads,
                            Tracer& tracer, int32_t root, uint32_t query);

/// Time accounting of one root span (one request or one replay).
struct RootTimes {
  const char* name = "";
  double total_ms = 0;    ///< the root's duration
  double covered_ms = 0;  ///< the part of it its child spans cover
  /// Self time per span name: duration minus the part covered by children.
  std::map<std::string, double> self_ms;
};

/// Self times of every root's subtree, keyed by the root's query id.
std::map<uint32_t, RootTimes> AccountRoots(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
