#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "core/candidate_exchange.h"
#include "core/group_schedule.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "net/wire.h"
#include "plan/planner.h"
#include "sparql/parser.h"
#include "store/matcher.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, int32_t parent, uint32_t query) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  span.parent = parent;
  span.query = query;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ReplayResult ReplayPipeline(const gstored::DistributedEngine& engine,
                            gstored::SimulatedCluster& cluster,
                            const std::string& sparql, size_t num_threads,
                            Tracer& tracer, int32_t root, uint32_t query) {
  using namespace gstored;
  ReplayResult result;
  ReplayCounts& counts = result.counts;

  QueryGraph q;
  {
    ScopedSpan span(tracer, "sparql.parse", root, query);
    Result<QueryGraph> parsed = ParseSparql(sparql);
    if (!parsed.ok()) return result;
    q = std::move(parsed).value();
  }

  const Partitioning& part = engine.partitioning();
  const EngineOptions& opts = engine.options();
  const int num_sites = engine.num_sites();
  const size_t n = q.num_vertices();

  ResolvedQuery rq;
  {
    ScopedSpan span(tracer, "sparql.resolve", root, query);
    rq = ResolveQueryTerms(q, part.dataset().dict());
    if (!rq.impossible && HasImpossibleDuplicatePattern(q, rq.edge_pred)) {
      rq.impossible = true;
    }
  }
  const bool star = q.IsStar();

  // Stage A: Alg. 4 candidate exchange (kFull, non-star queries).
  CandidateExchange exchange;
  bool use_filter = false;
  if (!star) {
    std::vector<const LocalStore*> stores;
    for (int s = 0; s < num_sites; ++s) stores.push_back(&engine.store(s));
    CandidateExchangeOptions exchange_options;
    exchange_options.use_statistics = opts.use_statistics;
    exchange_options.policy = opts.MakeStagePolicy();
    cluster.ledger().Reset();
    {
      ScopedSpan span(tracer, "exchange", root, query);
      exchange = ExchangeInternalCandidates(part, stores, rq,
                                            cluster.transport(),
                                            cluster.ledger(), exchange_options);
    }
    counts.exchange_bytes = static_cast<double>(exchange.shipment_bytes);
    use_filter = !exchange.degraded;
  }

  // Stage B: per-site planning, complete local matches, LPMs and Alg. 1.
  std::atomic<size_t> scorings{0};
  std::vector<Binding> matches;
  std::vector<std::vector<LocalPartialMatch>> site_lpms(num_sites);
  std::vector<LecFeatureSet> site_features(num_sites);
  for (int site = 0; site < num_sites; ++site) {
    const Fragment& fragment = part.fragments()[site];
    const LocalStore& store = engine.store(site);
    MatchOptions match_options;
    match_options.pool = opts.pool;
    match_options.use_statistics = opts.use_statistics;
    match_options.order_scorings = &scorings;
    std::vector<QVertexId> order;
    if (!rq.impossible && n > 0) {
      ScopedSpan span(tracer, "plan.site", root, query);
      order = PlanSiteMatchOrder(store, rq, opts.use_statistics, opts.plan)
                  .match_order;
      scorings.fetch_add(1, std::memory_order_relaxed);
      match_options.precomputed_order = &order;
    }
    const size_t triples = fragment.graph().num_triples();
    const size_t slots =
        !rq.impossible && !order.empty()
            ? SiteSlotBudget(triples, num_threads,
                             store.EstimateCandidates(rq, order.front()))
            : SiteSlotBudget(triples, num_threads);
    match_options.num_threads = slots;
    std::vector<Binding> site_matches;
    {
      ScopedSpan span(tracer, "match", root, query);
      site_matches = MatchQuery(store, rq, match_options);
    }
    counts.match_rows += static_cast<double>(site_matches.size());
    matches.insert(matches.end(), site_matches.begin(), site_matches.end());
    if (star) continue;

    EnumerateOptions enum_options;
    enum_options.num_threads = slots;
    enum_options.pool = opts.pool;
    enum_options.use_statistics = opts.use_statistics;
    enum_options.order_scorings = &scorings;
    if (use_filter && exchange.site_filter_ok[site]) {
      enum_options.extended_filter = [&](QVertexId v, TermId u) {
        if (!q.vertex(v).is_variable) return true;
        if (!exchange.exchanged[v]) return true;
        return exchange.filters[v].MayContain(u);
      };
    }
    {
      ScopedSpan lpm_span(tracer, "lpm.enumerate", root, query);
      const int32_t lpm_id = lpm_span.id();
      enum_options.unit_order_fn = [&, lpm_id](const IslandTask& task) {
        ScopedSpan span(tracer, "plan.unit", lpm_id, query);
        return PlanIslandUnitOrder(store, rq, task, opts.use_statistics,
                                   opts.plan);
      };
      site_lpms[site] =
          EnumerateLocalPartialMatches(fragment, store, rq, enum_options);
    }
    counts.lpms += static_cast<double>(site_lpms[site].size());
    {
      ScopedSpan span(tracer, "prune.features", root, query);
      site_features[site] = ComputeLecFeatures(site_lpms[site]);
    }
    counts.features +=
        static_cast<double>(site_features[site].features.size());
  }
  counts.order_scorings = static_cast<double>(scorings.load());
  {
    ScopedSpan span(tracer, "dedup", root, query);
    DedupBindings(&matches);
  }
  if (star) {
    result.matches = std::move(matches);
    result.ok = true;
    return result;
  }

  // Stage C: ship the features (codec round trip) and prune (Alg. 2).
  std::vector<LecFeature> all_features;
  std::vector<size_t> offsets(num_sites, 0);
  for (int site = 0; site < num_sites; ++site) {
    offsets[site] = all_features.size();
    ScopedSpan span(tracer, "wire.codec", root, query);
    std::vector<uint8_t> payload =
        EncodeLecFeatureBatch(site_features[site].features);
    counts.feature_wire_bytes +=
        static_cast<double>(WireMessage::kHeaderBytes + payload.size());
    Result<std::vector<LecFeature>> decoded = DecodeLecFeatureBatch(payload);
    if (!decoded.ok()) return ReplayResult{};
    all_features.insert(all_features.end(),
                        std::make_move_iterator(decoded.value().begin()),
                        std::make_move_iterator(decoded.value().end()));
  }
  PruneOptions prune_options;
  prune_options.num_threads = num_threads;
  prune_options.pool = opts.pool;
  PruneResult prune;
  {
    ScopedSpan span(tracer, "prune.join", root, query);
    prune = LecFeaturePruning(all_features, n, prune_options);
  }
  counts.prune_join_attempts = static_cast<double>(prune.join_attempts);
  counts.surviving_features = static_cast<double>(prune.surviving_features);

  // Stage D: ship the surviving LPMs in engine-sized batches.
  const size_t batch_size = std::max<size_t>(1, opts.lpm_batch_size);
  std::vector<LocalPartialMatch> surviving;
  for (int site = 0; site < num_sites; ++site) {
    const std::vector<size_t>& feature_of =
        site_features[site].feature_of_lpm;
    std::vector<LocalPartialMatch> to_ship;
    for (size_t i = 0; i < site_lpms[site].size(); ++i) {
      if (prune.survives[offsets[site] + feature_of[i]]) {
        to_ship.push_back(site_lpms[site][i]);
      }
    }
    ScopedSpan span(tracer, "wire.codec", root, query);
    for (size_t first = 0; first < to_ship.size(); first += batch_size) {
      const size_t count = std::min(batch_size, to_ship.size() - first);
      std::vector<uint8_t> payload = EncodeLpmBatch(to_ship, first, count);
      counts.lpm_wire_bytes +=
          static_cast<double>(WireMessage::kHeaderBytes + payload.size());
      Result<std::vector<LocalPartialMatch>> decoded = DecodeLpmBatch(payload);
      if (!decoded.ok()) return ReplayResult{};
      surviving.insert(surviving.end(),
                       std::make_move_iterator(decoded.value().begin()),
                       std::make_move_iterator(decoded.value().end()));
    }
  }
  counts.lpms_shipped = static_cast<double>(surviving.size());

  // Alg. 3 assembly and the final dedup.
  AssemblyOptions assembly_options;
  assembly_options.num_threads = num_threads;
  assembly_options.pool = opts.pool;
  AssemblyStats assembly_stats;
  std::vector<Binding> crossing;
  {
    ScopedSpan span(tracer, "assembly", root, query);
    crossing = LecAssembly(surviving, n, assembly_options, &assembly_stats);
  }
  counts.assembly_join_attempts =
      static_cast<double>(assembly_stats.join_attempts);
  counts.crossing_matches = static_cast<double>(crossing.size());
  matches.insert(matches.end(), crossing.begin(), crossing.end());
  {
    ScopedSpan span(tracer, "dedup", root, query);
    DedupBindings(&matches);
  }
  result.matches = std::move(matches);
  result.ok = true;
  return result;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

std::map<uint32_t, RootTimes> AccountRoots(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  std::vector<int32_t> root_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // A parent always begins (and is numbered) before its children.
    root_of[i] = s.parent < 0 ? static_cast<int32_t>(i) : root_of[s.parent];
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint32_t, RootTimes> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double covered_ms =
        static_cast<double>(CoveredNs(children[i], s.start_ns, s.end_ns)) /
        1e6;
    const double total_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    RootTimes& root = roots[spans[root_of[i]].query];
    if (s.parent < 0) {
      root.name = s.name;
      root.total_ms = total_ms;
      root.covered_ms = covered_ms;
    } else {
      root.self_ms[s.name] += total_ms - covered_ms;
    }
  }
  return roots;
}

}  // namespace perfbench
