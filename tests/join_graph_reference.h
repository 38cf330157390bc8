#ifndef GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_
#define GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_

// Test oracles for the crossing-mapping index in core/join_graph.h:
//  * the all-pairs O(G² · item²) group join graph construction that the
//    indexed builder replaced — it must produce exactly this graph;
//  * serial Alg. 2 pruning and Alg. 3 assembly whose chain step probes
//    every member of the next group, the scan that the indexed chain step
//    (CrossingIndex::Candidates) replaced — LecFeaturePruning and
//    LecAssembly must return exactly their results with no more probes.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/assembly.h"
#include "core/group_schedule.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"

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

namespace full_scan_internal {

/// State of one serial seed-major join: the run-wide grouping and schedule
/// plus the current seed's DFS state.
struct JoinRun {
  std::vector<std::vector<uint32_t>> groups;
  std::vector<std::vector<uint32_t>> adjacency;
  std::vector<bool> active;
  std::vector<bool> visited;
  size_t join_attempts = 0;

  /// Active, unvisited groups adjacent to a visited one, ascending.
  std::vector<uint32_t> ExpansionGroups() const {
    std::vector<uint32_t> out;
    for (uint32_t g = 0; g < groups.size(); ++g) {
      if (!active[g] || visited[g]) continue;
      for (uint32_t nb : adjacency[g]) {
        if (visited[nb]) {
          out.push_back(g);
          break;
        }
      }
    }
    return out;
  }
};

/// Groups `items`, builds the all-pairs group graph and deactivates the
/// isolated groups, as both algorithms do before their main loop.
template <typename Item>
JoinRun StartJoinRun(const std::vector<Item>& items) {
  JoinRun run;
  run.groups = GroupBySign(items);
  JoinGraphStats graph_stats;
  run.adjacency = BuildJoinGraphAllPairs(items, run.groups, &graph_stats);
  run.join_attempts = graph_stats.join_attempts;
  run.active.assign(run.groups.size(), true);
  DeactivateIsolatedGroups(run.adjacency, &run.active);
  return run;
}

struct PruneChain {
  Bitset sign;
  std::vector<CrossingPairMap> crossing;
  std::vector<uint32_t> contributors;  // sorted
};

struct PruneSeed {
  size_t budget = 0;
  bool exhausted = false;
};

inline void PruneDfs(const std::vector<LecFeature>& features, JoinRun& run,
                     PruneSeed& seed, const std::vector<PruneChain>& frontier,
                     std::vector<bool>* survives) {
  for (uint32_t g : run.ExpansionGroups()) {
    if (seed.exhausted) return;
    std::vector<PruneChain> next;
    std::map<std::pair<std::string, std::vector<CrossingPairMap>>, size_t>
        slot_of;
    for (const PruneChain& chain : frontier) {
      for (uint32_t f : run.groups[g]) {  // the full-group chain step
        ++run.join_attempts;
        if (!FeaturesJoinable(chain.sign, chain.crossing, features[f].sign,
                              features[f].crossing)) {
          continue;
        }
        PruneChain joined{chain.sign | features[f].sign,
                          MergeCrossing(chain.crossing, features[f].crossing),
                          chain.contributors};
        joined.contributors.insert(
            std::lower_bound(joined.contributors.begin(),
                             joined.contributors.end(), f),
            f);
        if (joined.sign.All()) {
          for (uint32_t c : joined.contributors) (*survives)[c] = true;
          continue;
        }
        auto [it, fresh] = slot_of.try_emplace(
            {joined.sign.ToString(), joined.crossing}, next.size());
        if (!fresh) {
          std::vector<uint32_t>& into = next[it->second].contributors;
          std::vector<uint32_t> merged;
          std::set_union(into.begin(), into.end(),
                         joined.contributors.begin(),
                         joined.contributors.end(),
                         std::back_inserter(merged));
          into = std::move(merged);
          continue;
        }
        if (seed.budget == 0) {
          seed.exhausted = true;
          return;
        }
        --seed.budget;
        next.push_back(std::move(joined));
      }
    }
    if (!next.empty()) {
      run.visited[g] = true;
      PruneDfs(features, run, seed, next, survives);
      run.visited[g] = false;
    }
  }
}

inline void AssemblyDfs(const std::vector<LocalPartialMatch>& lpms,
                        JoinRun& run,
                        std::set<std::pair<std::string, Binding>>& seen,
                        AssemblyStats* stats,
                        const std::vector<LocalPartialMatch>& frontier,
                        std::vector<Binding>* out) {
  for (uint32_t g : run.ExpansionGroups()) {
    std::vector<LocalPartialMatch> next;
    for (const LocalPartialMatch& partial : frontier) {
      for (uint32_t i : run.groups[g]) {  // the full-group chain step
        ++run.join_attempts;
        const LocalPartialMatch& pm = lpms[i];
        if (!FeaturesJoinable(partial.sign, partial.crossing, pm.sign,
                              pm.crossing)) {
          continue;
        }
        LocalPartialMatch joined;
        if (!MergeBindings(partial.binding, pm.binding, &joined.binding)) {
          ++stats->binding_conflicts;
          continue;
        }
        joined.sign = partial.sign | pm.sign;
        joined.crossing = MergeCrossing(partial.crossing, pm.crossing);
        if (joined.sign.All()) {
          out->push_back(std::move(joined.binding));
        } else if (seen.insert({joined.sign.ToString(), joined.binding})
                       .second) {
          ++stats->intermediate_results;
          next.push_back(std::move(joined));
        }
      }
    }
    if (!next.empty()) {
      run.visited[g] = true;
      AssemblyDfs(lpms, run, seen, stats, next, out);
      run.visited[g] = false;
    }
  }
}

}  // namespace full_scan_internal

/// Serial Alg. 2 whose chain step probes every member of the next group:
/// the same vmin schedule, per-seed budgets and bail-out as
/// LecFeaturePruning. `join_attempts` counts the all-pairs graph probes
/// plus every chain-step probe.
inline PruneResult LecFeaturePruningFullScan(
    const std::vector<LecFeature>& features, size_t max_joined_features) {
  using namespace full_scan_internal;
  PruneResult result;
  result.survives.assign(features.size(), false);
  if (features.empty()) return result;
  JoinRun run = StartJoinRun(features);
  result.num_groups = run.groups.size();
  for (const auto& list : run.adjacency) {
    result.num_join_graph_edges += list.size();
  }
  result.num_join_graph_edges /= 2;

  bool exhausted = false;
  for (uint32_t vmin = SelectMinActiveGroup(run.groups, run.active);
       vmin != kNoGroup && !exhausted;
       vmin = SelectMinActiveGroup(run.groups, run.active)) {
    const std::vector<uint32_t>& seeds = run.groups[vmin];
    const size_t budget =
        max_joined_features == 0
            ? 0
            : std::max<size_t>(1, max_joined_features / seeds.size());
    for (uint32_t f : seeds) {
      PruneSeed seed{budget, false};
      run.visited.assign(run.groups.size(), false);
      run.visited[vmin] = true;
      PruneDfs(features, run, seed,
               {{features[f].sign, features[f].crossing, {f}}},
               &result.survives);
      if (seed.exhausted) {
        exhausted = true;
        break;
      }
    }
    run.active[vmin] = false;
    DeactivateIsolatedGroups(run.adjacency, &run.active);
  }
  if (exhausted) {
    result.bailed_out = true;
    result.survives.assign(features.size(), true);
  }
  result.join_attempts = run.join_attempts;
  result.surviving_features = static_cast<size_t>(
      std::count(result.survives.begin(), result.survives.end(), true));
  return result;
}

/// Serial Alg. 3 whose chain step probes every member of the next group:
/// the same vmin schedule, per-seed dedup and first-seen result order as
/// LecAssembly. `stats->join_attempts` counts the all-pairs graph probes
/// plus every chain-step probe.
inline std::vector<Binding> LecAssemblyFullScan(
    const std::vector<LocalPartialMatch>& lpms, AssemblyStats* stats) {
  using namespace full_scan_internal;
  std::vector<Binding> results;
  if (lpms.empty()) return results;
  JoinRun run = StartJoinRun(lpms);
  stats->num_groups = run.groups.size();
  for (const auto& list : run.adjacency) {
    stats->num_join_graph_edges += list.size();
  }
  stats->num_join_graph_edges /= 2;

  std::set<Binding> emitted;
  for (uint32_t vmin = SelectMinActiveGroup(run.groups, run.active);
       vmin != kNoGroup; vmin = SelectMinActiveGroup(run.groups, run.active)) {
    for (uint32_t i : run.groups[vmin]) {
      std::set<std::pair<std::string, Binding>> seen;
      std::vector<Binding> out;
      run.visited.assign(run.groups.size(), false);
      run.visited[vmin] = true;
      AssemblyDfs(lpms, run, seen, stats, {lpms[i]}, &out);
      for (Binding& b : out) {
        if (emitted.insert(b).second) results.push_back(std::move(b));
      }
    }
    run.active[vmin] = false;
    DeactivateIsolatedGroups(run.adjacency, &run.active);
  }
  stats->join_attempts += run.join_attempts;
  return results;
}

}  // namespace testing
}  // namespace gstored

#endif  // GSTORED_TESTS_JOIN_GRAPH_REFERENCE_H_
