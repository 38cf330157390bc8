#ifndef GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_
#define GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_

// Test oracle for the group join graph: the all-pairs O(G² · item²)
// construction that the crossing-mapping index in core/join_graph.h
// replaced. The indexed builders must produce exactly this graph.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/assembly.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"

namespace gstored {
namespace testing {

/// Probes every cross-group item pair with FeaturesJoinable until one joins;
/// adjacency lists come back sorted. `Item` is LocalPartialMatch or
/// LecFeature.
template <typename Item>
std::vector<std::vector<uint32_t>> BuildJoinGraphAllPairs(
    const std::vector<Item>& items,
    const std::vector<std::vector<uint32_t>>& groups, JoinGraphStats* stats) {
  const size_t num_groups = groups.size();
  std::vector<std::vector<uint32_t>> adjacency(num_groups);
  for (uint32_t a = 0; a < num_groups; ++a) {
    for (uint32_t b = a + 1; b < num_groups; ++b) {
      bool joinable = false;
      for (uint32_t ia : groups[a]) {
        for (uint32_t ib : groups[b]) {
          ++stats->join_attempts;
          if (FeaturesJoinable(items[ia].sign, items[ia].crossing,
                               items[ib].sign, items[ib].crossing)) {
            joinable = true;
            break;
          }
        }
        if (joinable) break;
      }
      if (joinable) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
        ++stats->num_edges;
      }
    }
  }
  for (auto& list : adjacency) std::sort(list.begin(), list.end());
  return adjacency;
}

/// The LPM form with assembly's stats, the oracle of BuildGroupJoinGraph.
inline std::vector<std::vector<uint32_t>> BuildGroupJoinGraphAllPairs(
    const std::vector<LocalPartialMatch>& lpms,
    const std::vector<std::vector<uint32_t>>& groups, AssemblyStats* stats) {
  JoinGraphStats jg;
  auto adjacency = BuildJoinGraphAllPairs(lpms, groups, &jg);
  stats->join_attempts += jg.join_attempts;
  stats->num_join_graph_edges += jg.num_edges;
  return adjacency;
}

}  // namespace testing
}  // namespace gstored

#endif  // GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_
