// Integration tests of the DistributedEngine across modules: workload
// queries vs the centralized oracle in every mode, statistics consistency
// invariants, star fast-path behaviour, shipment accounting, impossible
// queries, robustness to degenerate partitionings (1 fragment, many
// fragments), and concurrent context-free runs over one engine.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "store/matcher.h"
#include "tests/test_fixtures.h"
#include "workload/btc.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace gstored {
namespace {

std::vector<Binding> Oracle(const Dataset& dataset, const QueryGraph& query) {
  LocalStore store(&dataset.graph());
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  std::vector<Binding> matches = MatchQuery(store, rq);
  DedupBindings(&matches);
  return matches;
}

const EngineMode kAllModes[] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                                EngineMode::kLecPruning, EngineMode::kFull};

TEST(EngineIntegrationTest, LubmAllQueriesAllModes) {
  LubmConfig config;
  config.universities = 2;
  config.undergrad_students_per_dept = 12;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<Binding> expected = Oracle(*w.dataset, bq.query);
    for (EngineMode mode : kAllModes) {
      QueryOutcome outcome = engine.Run({bq.query, mode});
      EXPECT_EQ(outcome.matches, expected)
          << bq.name << " " << EngineModeName(mode);
      EXPECT_EQ(outcome.stats.num_matches, expected.size());
    }
  }
}

TEST(EngineIntegrationTest, YagoAndBtcFullMode) {
  {
    YagoConfig config;
    config.persons = 250;
    Workload w = MakeYagoWorkload(config);
    Partitioning p = SemanticHashPartitioner().Partition(*w.dataset, 3);
    DistributedEngine engine(&p);
    for (const BenchmarkQuery& bq : w.queries) {
      EXPECT_EQ(engine.Run({bq.query, EngineMode::kFull}).matches,
                Oracle(*w.dataset, bq.query))
          << bq.name;
    }
  }
  {
    BtcConfig config;
    config.entities_per_domain = 150;
    Workload w = MakeBtcWorkload(config);
    Partitioning p = HashPartitioner().Partition(*w.dataset, 5);
    DistributedEngine engine(&p);
    for (const BenchmarkQuery& bq : w.queries) {
      EXPECT_EQ(engine.Run({bq.query, EngineMode::kFull}).matches,
                Oracle(*w.dataset, bq.query))
          << bq.name;
    }
  }
}

TEST(EngineIntegrationTest, StatsInvariants) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();

  SimulatedCluster session(engine.num_sites());
  const QueryStats stats =
      testing::RunOnSession(engine, query, EngineMode::kFull, session).stats;
  EXPECT_FALSE(stats.star_shortcut);
  EXPECT_TRUE(stats.selective);
  EXPECT_GE(stats.num_lpms, stats.num_lpms_shipped);
  EXPECT_GE(stats.num_features, stats.num_surviving_features);
  EXPECT_GE(stats.num_matches, stats.num_local_matches);
  EXPECT_GT(stats.candidate_shipment_bytes, 0u);
  EXPECT_GT(stats.lec_shipment_bytes, 0u);
  EXPECT_GT(stats.lpm_shipment_bytes, 0u);
  EXPECT_GE(stats.total_time_ms, 0.0);
  // The ledger agrees with the per-stage stats.
  EXPECT_EQ(session.ledger().StageBytes(kCandidateStage),
            stats.candidate_shipment_bytes);
  EXPECT_EQ(session.ledger().StageBytes(kLecFeatureStage),
            stats.lec_shipment_bytes);
  EXPECT_EQ(session.ledger().StageBytes(kLpmShipmentStage),
            stats.lpm_shipment_bytes);
}

TEST(EngineIntegrationTest, BasicAndLaShipEverything) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();

  const QueryStats basic = engine.Run({query, EngineMode::kBasic}).stats;
  EXPECT_EQ(basic.num_lpms_shipped, basic.num_lpms);
  EXPECT_EQ(basic.num_features, 0u);            // no Alg. 1/2 in basic mode
  EXPECT_EQ(basic.lec_shipment_bytes, 0u);
  EXPECT_EQ(basic.candidate_shipment_bytes, 0u);

  const QueryStats lo = engine.Run({query, EngineMode::kLecPruning}).stats;
  EXPECT_LT(lo.num_lpms_shipped, lo.num_lpms);  // PM23 pruned
  EXPECT_LT(lo.lpm_shipment_bytes, basic.lpm_shipment_bytes);
}

/// QueryStats reports the Alg. 2 probe count: nonzero whenever kFull
/// prunes a non-star query's features, zero when no pruning join runs
/// (kBasic, and star queries answered locally).
TEST(EngineIntegrationTest, PruneJoinAttemptsReported) {
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  bool saw_lq7 = false;
  for (const BenchmarkQuery& bq : w.queries) {
    const QueryStats full = engine.Run({bq.query, EngineMode::kFull}).stats;
    const QueryStats basic = engine.Run({bq.query, EngineMode::kBasic}).stats;
    EXPECT_EQ(basic.prune_join_attempts, 0u) << bq.name;
    if (bq.query.IsStar()) {
      EXPECT_EQ(full.prune_join_attempts, 0u) << bq.name;
    } else if (bq.name == "LQ7") {
      saw_lq7 = true;
      EXPECT_GT(full.num_features, 0u);
      EXPECT_GT(full.prune_join_attempts, 0u);
    }
  }
  EXPECT_TRUE(saw_lq7);
}

TEST(EngineIntegrationTest, StarShortcutSkipsAllShipment) {
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (!bq.query.IsStar()) continue;
    SimulatedCluster session(engine.num_sites());
    QueryOutcome outcome =
        testing::RunOnSession(engine, bq.query, EngineMode::kFull, session);
    EXPECT_TRUE(outcome.stats.star_shortcut) << bq.name;
    EXPECT_EQ(outcome.stats.num_lpms, 0u);
    EXPECT_EQ(session.ledger().TotalBytes(), 0u);
    EXPECT_EQ(outcome.matches, Oracle(*w.dataset, bq.query)) << bq.name;
  }
}

TEST(EngineIntegrationTest, ImpossibleQueryReturnsEmpty) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?x", "<http://nowhere/p>", "?y");
  q.AddEdge("?z", "<http://nowhere/q>", "?y");
  for (EngineMode mode : kAllModes) {
    QueryOutcome outcome = engine.Run({q, mode});
    EXPECT_TRUE(outcome.matches.empty());
    EXPECT_EQ(outcome.stats.num_matches, 0u);
  }
}

TEST(EngineIntegrationTest, SingleFragmentDegeneratesToLocal) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = HashPartitioner().Partition(*dataset, 1);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  QueryOutcome outcome = engine.Run({query, EngineMode::kFull});
  EXPECT_EQ(outcome.matches, Oracle(*dataset, query));
  EXPECT_EQ(outcome.stats.num_lpms, 0u);  // no crossing edges => no LPMs
  EXPECT_EQ(outcome.stats.num_local_matches, outcome.matches.size());
}

TEST(EngineIntegrationTest, ManyTinyFragments) {
  // More fragments than natural clusters: every vertex nearly isolated.
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = HashPartitioner().Partition(*dataset, 10);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  EXPECT_EQ(engine.Run({query, EngineMode::kFull}).matches,
            Oracle(*dataset, query));
}

TEST(EngineIntegrationTest, RepeatedExecutionIsDeterministic) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning p = testing::BuildPaperPartitioning(*dataset);
  DistributedEngine engine(&p);
  QueryGraph query = testing::BuildPaperQuery();
  auto first = engine.Run({query, EngineMode::kFull}).matches;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.Run({query, EngineMode::kFull}).matches, first);
  }
}

TEST(EngineIntegrationTest, AblationJoinSpaceIsMonotone) {
  // The Fig. 9 regression in deterministic form: the assembly join space
  // never grows as optimizations are added — Basic >= LA >= LO(joins after
  // pruning) — and intermediate results shrink alongside.
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.query.IsStar()) continue;
    const QueryStats basic = engine.Run({bq.query, EngineMode::kBasic}).stats;
    const QueryStats la = engine.Run({bq.query, EngineMode::kLecAssembly}).stats;
    const QueryStats lo = engine.Run({bq.query, EngineMode::kLecPruning}).stats;
    EXPECT_GE(basic.assembly.join_attempts, la.assembly.join_attempts)
        << bq.name;
    EXPECT_GE(la.assembly.join_attempts, lo.assembly.join_attempts)
        << bq.name;
    EXPECT_GE(basic.assembly.intermediate_results,
              lo.assembly.intermediate_results)
        << bq.name;
  }
}

TEST(EngineIntegrationTest, SelectiveQueriesShipFewerLpms) {
  // The Alg. 4 filter must reduce (or keep equal) the LPM population
  // compared to LO mode, never increase it.
  LubmConfig config;
  config.universities = 2;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.query.IsStar()) continue;
    const QueryStats lo = engine.Run({bq.query, EngineMode::kLecPruning}).stats;
    const QueryStats full = engine.Run({bq.query, EngineMode::kFull}).stats;
    EXPECT_LE(full.num_lpms, lo.num_lpms) << bq.name;
  }
}

TEST(EngineIntegrationTest, ConcurrentContextFreeRunsMatchSerial) {
  // A context-free Run builds and frees its own transport session, so the
  // engine holds no per-query state: four threads running the same
  // requests on one engine must each get exactly the serial outcome.
  LubmConfig config;
  config.universities = 2;
  config.undergrad_students_per_dept = 12;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);

  std::vector<QueryRequest> requests;
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.name != "LQ1" && bq.name != "LQ7") continue;
    for (EngineMode mode : {EngineMode::kBasic, EngineMode::kFull}) {
      requests.emplace_back(bq.query, mode);
    }
  }
  ASSERT_EQ(requests.size(), 4u);

  std::vector<QueryOutcome> serial;
  for (const QueryRequest& request : requests) {
    serial.push_back(engine.Run(request));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<QueryOutcome>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different request so the threads overlap
      // on different queries and modes.
      for (size_t i = 0; i < requests.size(); ++i) {
        concurrent[t].push_back(
            engine.Run(requests[(i + t) % requests.size()]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t r = (i + t) % requests.size();
      const QueryOutcome& got = concurrent[t][i];
      const QueryOutcome& want = serial[r];
      const std::string context = "thread=" + std::to_string(t) +
                                  " request=" + std::to_string(r);
      EXPECT_EQ(got.matches, want.matches) << context;
      EXPECT_EQ(got.exact, want.exact) << context;
      EXPECT_EQ(got.stats.candidate_shipment_bytes,
                want.stats.candidate_shipment_bytes)
          << context;
      EXPECT_EQ(got.stats.lec_shipment_bytes, want.stats.lec_shipment_bytes)
          << context;
      EXPECT_EQ(got.stats.lpm_shipment_bytes, want.stats.lpm_shipment_bytes)
          << context;
      ASSERT_EQ(got.sites.size(), want.sites.size()) << context;
      for (size_t s = 0; s < got.sites.size(); ++s) {
        const SiteReport& a = got.sites[s];
        const SiteReport& b = want.sites[s];
        EXPECT_EQ(a.partial_eval_complete, b.partial_eval_complete)
            << context << " site=" << s;
        EXPECT_EQ(a.lpms_complete, b.lpms_complete) << context;
        EXPECT_EQ(a.crashed, b.crashed) << context;
        EXPECT_EQ(a.hedged, b.hedged) << context;
        EXPECT_EQ(a.max_attempts, b.max_attempts) << context;
      }
    }
  }
  // Every request ships LPMs, so the byte checks above are not vacuous.
  for (const QueryOutcome& outcome : serial) {
    EXPECT_GT(outcome.stats.lpm_shipment_bytes, 0u);
  }
}

}  // namespace
}  // namespace gstored
