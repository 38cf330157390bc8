// Exactness of the indexed chain step (CrossingIndex::Candidates in
// core/join_graph.h) against the full-group scan it replaced: on the paper
// example, the shared reference scenarios, randomized multi-site scenarios
// and a LUBM pass at 8 universities, LecFeaturePruning must return the
// full-scan oracle's survivors, bail-out flag and group/edge counts, and
// LecAssembly its bindings in the same order — each with no more
// FeaturesJoinable probes. Tight join budgets pin that bail-out decisions
// are unchanged as well, and the candidate lists themselves are checked
// against a direct scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/assembly.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "partition/partitioners.h"
#include "store/matcher.h"
#include "tests/join_graph_reference.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::testing::EnumerateAllLpms;
using ::gstored::testing::LecAssemblyFullScan;
using ::gstored::testing::LecFeaturePruningFullScan;

/// What a sweep exercised, so it cannot pass vacuously.
struct Coverage {
  size_t features = 0;
  size_t crossing_matches = 0;
  size_t bailouts = 0;
};

void CheckPruning(const std::vector<LecFeature>& features, size_t n,
                  size_t max_joined_features, const std::string& label,
                  Coverage* coverage) {
  PruneOptions options;
  options.max_joined_features = max_joined_features;
  PruneResult got = LecFeaturePruning(features, n, options);
  PruneResult want = LecFeaturePruningFullScan(features, max_joined_features);
  EXPECT_EQ(got.survives, want.survives) << label;
  EXPECT_EQ(got.bailed_out, want.bailed_out) << label;
  EXPECT_EQ(got.num_groups, want.num_groups) << label;
  EXPECT_EQ(got.num_join_graph_edges, want.num_join_graph_edges) << label;
  EXPECT_EQ(got.surviving_features, want.surviving_features) << label;
  EXPECT_LE(got.join_attempts, want.join_attempts) << label;
  coverage->bailouts += want.bailed_out ? 1 : 0;
}

void CheckAssembly(const std::vector<LocalPartialMatch>& lpms, size_t n,
                   const std::string& label, Coverage* coverage) {
  AssemblyStats got_stats;
  AssemblyStats want_stats;
  std::vector<Binding> got = LecAssembly(lpms, n, &got_stats);
  std::vector<Binding> want = LecAssemblyFullScan(lpms, &want_stats);
  EXPECT_EQ(got, want) << label;  // same bindings, same order
  EXPECT_EQ(got_stats.intermediate_results, want_stats.intermediate_results)
      << label;
  EXPECT_EQ(got_stats.binding_conflicts, want_stats.binding_conflicts)
      << label;
  EXPECT_EQ(got_stats.num_groups, want_stats.num_groups) << label;
  EXPECT_EQ(got_stats.num_join_graph_edges, want_stats.num_join_graph_edges)
      << label;
  EXPECT_LE(got_stats.join_attempts, want_stats.join_attempts) << label;
  coverage->crossing_matches += want.size();
}

/// Compares pruning at the default and at tight budgets, and assembly of
/// the pruning survivors (the engine's path) and, when `assemble_all`, of
/// every LPM.
void CheckPopulation(const std::vector<LocalPartialMatch>& lpms, size_t n,
                     bool assemble_all, const std::string& label,
                     Coverage* coverage) {
  LecFeatureSet set = ComputeLecFeatures(lpms);
  coverage->features += set.features.size();
  const size_t default_budget = PruneOptions{}.max_joined_features;
  for (size_t budget : {default_budget, size_t{8}, size_t{1}, size_t{0}}) {
    CheckPruning(set.features, n, budget,
                 label + " budget=" + std::to_string(budget), coverage);
  }

  PruneResult prune = LecFeaturePruning(set.features, n);
  std::vector<LocalPartialMatch> surviving;
  for (size_t i = 0; i < lpms.size(); ++i) {
    if (prune.survives[set.feature_of_lpm[i]]) surviving.push_back(lpms[i]);
  }
  CheckAssembly(surviving, n, label + " survivors", coverage);
  if (assemble_all) CheckAssembly(lpms, n, label + " all LPMs", coverage);
}

void CheckQuery(const Dataset& dataset, const QueryGraph& query,
                const Partitioning& partitioning, bool assemble_all,
                const std::string& label, Coverage* coverage) {
  ResolvedQuery rq = ResolveQuery(query, dataset.dict());
  CheckPopulation(EnumerateAllLpms(partitioning, rq), query.num_vertices(),
                  assemble_all, label, coverage);
}

/// Def. 9 condition 2 checked directly: the maps share a mapping.
bool SharesMapping(const std::vector<CrossingPairMap>& a,
                   const std::vector<CrossingPairMap>& b) {
  for (const CrossingPairMap& ca : a) {
    for (const CrossingPairMap& cb : b) {
      if (ca == cb) return true;
    }
  }
  return false;
}

/// The chain step's candidate list is exactly the group's members sharing
/// a mapping with the chain, ascending and without duplicates — for base
/// items and for two-item chains, whose crossing maps carry several
/// mappings that can lead to one member.
TEST(CrossingIndexTest, CandidatesAreTheAscendingSharingMembers) {
  size_t multi_mapping_hits = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    Rng rng(0x1DE5u + i * 104729);
    auto dataset = testing::RandomDataset(rng, 12 + i, 40 + 5 * i, 3);
    QueryGraph query = testing::RandomConnectedQuery(rng, *dataset, 4, 5);
    Partitioning partitioning =
        HashPartitioner().Partition(*dataset, 2 + static_cast<int>(i % 3));
    ResolvedQuery rq = ResolveQuery(query, dataset->dict());
    std::vector<LocalPartialMatch> lpms = EnumerateAllLpms(partitioning, rq);
    auto groups = GroupBySign(lpms);
    CrossingIndex index(lpms, groups);

    std::vector<std::vector<CrossingPairMap>> chains;
    for (size_t a = 0; a < lpms.size(); ++a) {
      chains.push_back(lpms[a].crossing);
      for (size_t b = a + 1; b < lpms.size(); ++b) {
        if (FeaturesJoinable(lpms[a].sign, lpms[a].crossing, lpms[b].sign,
                             lpms[b].crossing)) {
          chains.push_back(MergeCrossing(lpms[a].crossing, lpms[b].crossing));
        }
      }
    }
    std::vector<uint32_t> got;
    for (const std::vector<CrossingPairMap>& chain : chains) {
      for (uint32_t g = 0; g < groups.size(); ++g) {
        std::vector<uint32_t> want;
        size_t sharing_mappings = 0;
        for (uint32_t m : groups[g]) {
          if (!SharesMapping(chain, lpms[m].crossing)) continue;
          want.push_back(m);
          for (const CrossingPairMap& c : chain) {
            sharing_mappings += std::count(lpms[m].crossing.begin(),
                                           lpms[m].crossing.end(), c);
          }
        }
        index.Candidates(g, chain, &got);
        EXPECT_EQ(got, want) << "i=" << i << " group=" << g;
        if (sharing_mappings > want.size()) ++multi_mapping_hits;
      }
    }
  }
  // Some member was reachable through two of a chain's mappings, so the
  // union really had duplicates and interleavings to resolve.
  EXPECT_GT(multi_mapping_hits, 0u);
}

TEST(ChainStepReference, PaperExample) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  Coverage coverage;
  CheckQuery(*dataset, testing::BuildPaperQuery(), partitioning,
             /*assemble_all=*/true, "paper", &coverage);
  EXPECT_GT(coverage.features, 0u);
  EXPECT_GT(coverage.crossing_matches, 0u);
}

TEST(ChainStepReference, ReferenceScenarios) {
  Coverage coverage;
  for (const testing::ReferenceScenario& s : testing::kReferenceScenarios) {
    Rng rng(s.seed);
    auto dataset = testing::RandomDataset(rng, s.vertices, s.edges,
                                          s.predicates);
    QueryGraph query = testing::RandomConnectedQuery(
        rng, *dataset, s.query_vertices, s.query_edges);
    Partitioning partitioning = HashPartitioner().Partition(*dataset, 3);
    CheckQuery(*dataset, query, partitioning, /*assemble_all=*/true,
               "reference seed=" + std::to_string(s.seed), &coverage);
  }
  EXPECT_GT(coverage.crossing_matches, 0u);
}

/// 2-5 fragments, hash and random vertex assignments, slightly larger
/// queries; the tight budgets must make some pruning runs bail out.
TEST(ChainStepReference, RandomizedMultiSite) {
  Coverage coverage;
  for (uint64_t i = 0; i < 16; ++i) {
    Rng rng(0xC4A17u + i * 7919);
    const size_t vertices = 10 + (i % 4) * 4;
    const size_t edges = 28 + (i % 5) * 9;
    const size_t predicates = 2 + (i % 3);
    const size_t query_vertices = 3 + (i % 3);
    const size_t query_edges = query_vertices - 1 + (i % 2);
    const int fragments = 2 + static_cast<int>(i % 4);

    auto dataset = testing::RandomDataset(rng, vertices, edges, predicates);
    QueryGraph query = testing::RandomConnectedQuery(rng, *dataset,
                                                     query_vertices,
                                                     query_edges);
    Partitioning partitioning =
        (i % 2 == 0)
            ? HashPartitioner().Partition(*dataset, fragments)
            : BuildPartitioning(
                  *dataset, testing::RandomAssignment(rng, *dataset, fragments),
                  fragments, "random");
    CheckQuery(*dataset, query, partitioning, /*assemble_all=*/true,
               "randomized i=" + std::to_string(i), &coverage);
  }
  EXPECT_GT(coverage.crossing_matches, 0u);
  EXPECT_GT(coverage.bailouts, 0u);
}

/// The default LUBM configuration (8 universities) over 4 hash sites: the
/// population sizes where the full-group scan cost millions of probes.
TEST(ChainStepReference, Lubm8Universities) {
  LubmConfig config;
  ASSERT_GE(config.universities, 8);
  Workload w = MakeLubmWorkload(config);
  Partitioning partitioning = HashPartitioner().Partition(*w.dataset, 4);
  Coverage coverage;
  for (const BenchmarkQuery& bq : w.queries) {
    if (bq.query.IsStar()) continue;
    CheckQuery(*w.dataset, bq.query, partitioning, /*assemble_all=*/false,
               bq.name, &coverage);
  }
  EXPECT_GT(coverage.features, 0u);
  EXPECT_GT(coverage.crossing_matches, 0u);
}

}  // namespace
}  // namespace gstored
