// Ablation: Algorithm 4's bit-vector length. The paper fixes the length to
// bound communication, and a longer vector means a "smaller search space".
// This bench sweeps the length and reports the trade-off between candidate
// shipment and the LPM population the filter leaves behind (shrinks, then
// saturates once the false-positive rate is negligible). Each vector ships
// as dense words or as its set-bit positions, whichever is smaller, so
// shipment tracks the set bits and is bounded by the dense size: it grows
// linearly with the length only while the vectors are dense.
//
// Exit code: 1 unless LQ7's shipment at 2^18 bits is below twice its
// shipment at 2^16 bits (dense encoding would read 4x).

#include <cstdio>
#include <vector>

#include "core/candidate_exchange.h"
#include "core/local_partial_match.h"
#include "partition/partitioners.h"
#include "workload/lubm.h"

using namespace gstored;  // NOLINT — bench-local convenience

int main() {
  Workload w = MakeLubmWorkload(LubmScale(1));
  Partitioning p = HashPartitioner().Partition(*w.dataset, 6);
  std::vector<std::unique_ptr<LocalStore>> stores;
  std::vector<const LocalStore*> store_ptrs;
  for (const Fragment& f : p.fragments()) {
    stores.push_back(std::make_unique<LocalStore>(&f.graph()));
    store_ptrs.push_back(stores.back().get());
  }

  std::printf("=== Ablation: Alg. 4 bit-vector length (LUBM-style, LQ7) ===\n");
  std::printf("%-12s | %14s | %10s | %12s\n", "bits/vector", "shipment KB",
              "#lpm", "fill ratio");

  const QueryGraph& query = w.queries[6].query;  // LQ7
  ResolvedQuery rq = ResolveQuery(query, w.dataset->dict());

  // Baseline without any filter.
  size_t unfiltered = 0;
  for (size_t s = 0; s < stores.size(); ++s) {
    unfiltered += EnumerateLocalPartialMatches(p.fragments()[s], *stores[s],
                                               rq).size();
  }
  std::printf("%-12s | %14s | %10zu | %12s\n", "none", "0.0", unfiltered,
              "-");

  size_t shipped_2_16 = 0;
  size_t shipped_2_18 = 0;
  for (size_t bits : {1u << 8, 1u << 10, 1u << 12, 1u << 14, 1u << 16,
                      1u << 18, 1u << 20}) {
    SimulatedCluster cluster(static_cast<int>(p.num_fragments()));
    // Legacy protocol (no statistics skip pre-phase): this sweep measures
    // the raw bit-length trade-off, and the pre-phase would skip exactly
    // the saturating small-vector rows it exists to show.
    CandidateExchangeOptions exchange_options;
    exchange_options.filter_bits = bits;
    exchange_options.use_statistics = false;
    CandidateExchange exchange = ExchangeInternalCandidates(
        p, store_ptrs, rq, cluster, exchange_options);
    EnumerateOptions options;
    options.extended_filter = [&](QVertexId v, TermId u) {
      if (!query.vertex(v).is_variable) return true;
      if (!exchange.exchanged[v]) return true;
      return exchange.filters[v].MayContain(u);
    };
    size_t lpms = 0;
    for (size_t s = 0; s < stores.size(); ++s) {
      lpms += EnumerateLocalPartialMatches(p.fragments()[s], *stores[s], rq,
                                           options).size();
    }
    double max_fill = 0;
    for (const auto& f : exchange.filters) {
      max_fill = std::max(max_fill, f.FillRatio());
    }
    std::printf("%-12zu | %14.1f | %10zu | %12.3f\n", bits,
                static_cast<double>(exchange.shipment_bytes) / 1024.0, lpms,
                max_fill);
    if (bits == 1u << 16) shipped_2_16 = exchange.shipment_bytes;
    if (bits == 1u << 18) shipped_2_18 = exchange.shipment_bytes;
  }
  bool ok = shipped_2_18 < 2 * shipped_2_16;
  std::printf("shipment 2^18 / 2^16 bits = %.2f (bar: < 2): %s\n",
              static_cast<double>(shipped_2_18) /
                  static_cast<double>(shipped_2_16),
              ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
