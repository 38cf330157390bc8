#ifndef GSTORED_CORE_JOIN_GRAPH_H_
#define GSTORED_CORE_JOIN_GRAPH_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/lec_feature.h"
#include "util/hash.h"

namespace gstored {

/// Probe accounting of one group join graph construction, shared by the
/// assembly (items = LPMs) and pruning (items = LEC features) callers.
struct JoinGraphStats {
  size_t join_attempts = 0;  ///< FeaturesJoinable probes evaluated
  size_t num_edges = 0;      ///< edges of the resulting group graph
};

namespace join_graph_internal {

/// 64-bit key of one crossing mapping for the inverted index. Collisions
/// between distinct mappings are harmless: they only cause an extra
/// FeaturesJoinable probe, which re-verifies the shared-mapping condition.
inline uint64_t CrossingMapKey(const CrossingPairMap& c) {
  uint64_t h = HashCombine(0x9d7f3cbb2a5e11ULL,
                           (static_cast<uint64_t>(c.q_from) << 32) | c.q_to);
  return HashCombine(h, (static_cast<uint64_t>(c.d_from) << 32) | c.d_to);
}

inline uint64_t PackPair(uint32_t a, uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace join_graph_internal

/// Defs. 10/11: partitions item indices into groups of identical LECSign,
/// in first-appearance order (both the groups and each group's members
/// ascend by item index). `Item` must expose `.sign` (Bitset).
template <typename Item>
std::vector<std::vector<uint32_t>> GroupBySign(const std::vector<Item>& items) {
  std::vector<std::vector<uint32_t>> groups;
  std::unordered_map<uint64_t, std::vector<uint32_t>> sign_buckets;
  for (uint32_t i = 0; i < items.size(); ++i) {
    std::vector<uint32_t>& bucket = sign_buckets[items[i].sign.Hash()];
    auto same_sign = [&](uint32_t g) {
      return items[groups[g].front()].sign == items[i].sign;
    };
    auto it = std::find_if(bucket.begin(), bucket.end(), same_sign);
    if (it != bucket.end()) {
      groups[*it].push_back(i);
    } else {
      bucket.push_back(static_cast<uint32_t>(groups.size()));
      groups.push_back({i});
    }
  }
  return groups;
}

/// Inverted index of one join run from crossing mapping to the items that
/// carry it. Def. 9 condition 2 makes a shared crossing mapping necessary
/// for joinability, so both users probe FeaturesJoinable only on items
/// met here: the group join graph build (BuildJoinGraphIndexed) and the
/// chain step of Alg. 2's ComLECFJoin and Alg. 3's ComParJoin
/// (Candidates). One entry per (crossing mapping, carrying item), sorted by
/// (key, group, item), so each key's bucket holds every group's carriers
/// as one run of ascending item indices. `Item` must expose `.crossing`
/// (sorted CrossingPairMap vector); both LocalPartialMatch and LecFeature
/// qualify.
class CrossingIndex {
 public:
  struct Entry {
    uint64_t key;
    uint32_t group;
    uint32_t item;
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };

  CrossingIndex() = default;

  template <typename Item>
  CrossingIndex(const std::vector<Item>& items,
                const std::vector<std::vector<uint32_t>>& groups) {
    size_t total_crossings = 0;
    for (const auto& group : groups) {
      for (uint32_t i : group) total_crossings += items[i].crossing.size();
    }
    entries_.reserve(total_crossings);
    for (uint32_t g = 0; g < groups.size(); ++g) {
      for (uint32_t i : groups[g]) {
        for (const CrossingPairMap& c : items[i].crossing) {
          entries_.push_back({join_graph_internal::CrossingMapKey(c), g, i});
        }
      }
    }
    std::sort(entries_.begin(), entries_.end());
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// The indexed chain step: fills `out` with the ascending, duplicate-free
  /// indices of the members of `group` that carry some mapping of
  /// `crossing` (the union of those mappings' buckets). Every member that
  /// FeaturesJoinable can accept against `crossing` is among them, in the
  /// order a scan of the whole group would meet it; a 64-bit key collision
  /// only adds a candidate, which the caller's FeaturesJoinable probe
  /// rejects.
  void Candidates(uint32_t group, const std::vector<CrossingPairMap>& crossing,
                  std::vector<uint32_t>* out) const {
    out->clear();
    for (const CrossingPairMap& c : crossing) {
      const uint64_t key = join_graph_internal::CrossingMapKey(c);
      for (auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                      Entry{key, group, 0});
           it != entries_.end() && it->key == key && it->group == group;
           ++it) {
        out->push_back(it->item);
      }
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }

 private:
  std::vector<Entry> entries_;
};

/// Builds the group join graph — an edge between two LECSign groups when
/// some cross-group item pair has joinable features — from the crossing
/// index: only item pairs meeting in an index bucket are probed with
/// FeaturesJoinable, O(bucket pairs) work instead of the all-pairs
/// O(G² · item²) scan. Adjacency lists come back sorted and the
/// construction is deterministic (the index is scanned in sorted order, so
/// probe counts never depend on hash-map iteration order).
///
/// `Item` must expose `.sign` (Bitset) and `.crossing` — both
/// LocalPartialMatch and LecFeature qualify. `index` must be built over
/// the same items and groups.
template <typename Item>
std::vector<std::vector<uint32_t>> BuildJoinGraphIndexed(
    const std::vector<Item>& items,
    const std::vector<std::vector<uint32_t>>& groups,
    const CrossingIndex& index, JoinGraphStats* stats) {
  using join_graph_internal::PackPair;
  const std::vector<CrossingIndex::Entry>& entries = index.entries();
  std::vector<std::vector<uint32_t>> adjacency(groups.size());

  // Probe only cross-group pairs that meet inside one key bucket. The sort
  // order keeps each group's entries contiguous within a bucket, so the
  // scan walks group *runs*: a group pair settled joinable is skipped
  // wholesale (a hot crossing mapping shared by many items costs one probe,
  // not a quadratic pass), and an item pair meeting in several buckets is
  // probed once.
  std::unordered_set<uint64_t> joinable_pairs;
  std::unordered_set<uint64_t> probed_item_pairs;
  for (size_t lo = 0; lo < entries.size();) {
    size_t hi = lo + 1;
    while (hi < entries.size() && entries[hi].key == entries[lo].key) ++hi;
    for (size_t a_lo = lo; a_lo < hi;) {
      size_t a_hi = a_lo + 1;
      while (a_hi < hi && entries[a_hi].group == entries[a_lo].group) ++a_hi;
      for (size_t b_lo = a_hi; b_lo < hi;) {
        size_t b_hi = b_lo + 1;
        while (b_hi < hi && entries[b_hi].group == entries[b_lo].group) {
          ++b_hi;
        }
        uint64_t group_pair =
            PackPair(entries[a_lo].group, entries[b_lo].group);
        if (!joinable_pairs.contains(group_pair)) {
          bool confirmed = false;
          for (size_t i = a_lo; i < a_hi && !confirmed; ++i) {
            for (size_t j = b_lo; j < b_hi && !confirmed; ++j) {
              if (!probed_item_pairs
                       .insert(PackPair(entries[i].item, entries[j].item))
                       .second) {
                continue;
              }
              ++stats->join_attempts;
              if (FeaturesJoinable(items[entries[i].item].sign,
                                   items[entries[i].item].crossing,
                                   items[entries[j].item].sign,
                                   items[entries[j].item].crossing)) {
                joinable_pairs.insert(group_pair);
                confirmed = true;
              }
            }
          }
        }
        b_lo = b_hi;
      }
      a_lo = a_hi;
    }
    lo = hi;
  }

  for (uint64_t pair : joinable_pairs) {
    uint32_t a = static_cast<uint32_t>(pair >> 32);
    uint32_t b = static_cast<uint32_t>(pair);
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  for (auto& list : adjacency) std::sort(list.begin(), list.end());
  stats->num_edges += joinable_pairs.size();
  return adjacency;
}

/// Convenience form that builds the crossing index for a single use.
template <typename Item>
std::vector<std::vector<uint32_t>> BuildJoinGraphIndexed(
    const std::vector<Item>& items,
    const std::vector<std::vector<uint32_t>>& groups, JoinGraphStats* stats) {
  return BuildJoinGraphIndexed(items, groups, CrossingIndex(items, groups),
                               stats);
}

}  // namespace gstored

#endif  // GSTORED_CORE_JOIN_GRAPH_H_
