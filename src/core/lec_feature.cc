#include "core/lec_feature.h"

#include <algorithm>
#include <unordered_map>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

uint64_t LecFeature::Hash() const {
  uint64_t h = HashCombine(sign.Hash(), static_cast<uint64_t>(fragment));
  for (const CrossingPairMap& c : crossing) {
    h = HashCombine(h, (static_cast<uint64_t>(c.q_from) << 32) | c.q_to);
    h = HashCombine(h, (static_cast<uint64_t>(c.d_from) << 32) | c.d_to);
  }
  return h;
}

std::string LecFeature::ToString(const TermDict& dict) const {
  std::string out = "{F" + std::to_string(fragment) + ", {";
  for (size_t i = 0; i < crossing.size(); ++i) {
    if (i > 0) out += ", ";
    const CrossingPairMap& c = crossing[i];
    out += dict.lexical(c.d_from) + "->" + dict.lexical(c.d_to) + " => q(" +
           std::to_string(c.q_from) + "," + std::to_string(c.q_to) + ")";
  }
  out += "}, " + sign.ToString() + "}";
  return out;
}

LecFeatureSet ComputeLecFeatures(const std::vector<LocalPartialMatch>& lpms) {
  LecFeatureSet set;
  set.feature_of_lpm.reserve(lpms.size());
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (const LocalPartialMatch& pm : lpms) {
    LecFeature feature;
    feature.fragment = pm.fragment;
    feature.crossing = pm.crossing;
    feature.sign = pm.sign;
    uint64_t h = feature.Hash();
    size_t index = static_cast<size_t>(-1);
    for (size_t candidate : buckets[h]) {
      if (set.features[candidate] == feature) {
        index = candidate;
        break;
      }
    }
    if (index == static_cast<size_t>(-1)) {
      index = set.features.size();
      buckets[h].push_back(index);
      set.features.push_back(std::move(feature));
    }
    set.feature_of_lpm.push_back(index);
  }
  return set;
}

bool FeaturesJoinable(const Bitset& sign_a,
                      const std::vector<CrossingPairMap>& cross_a,
                      const Bitset& sign_b,
                      const std::vector<CrossingPairMap>& cross_b) {
  // Condition 4: disjoint internal-vertex signatures.
  if (!sign_a.DisjointWith(sign_b)) return false;

  // Condition 2: at least one identical crossing mapping shared. Both maps
  // are sorted by (q_from, q_to, d_from, d_to).
  bool shared = false;
  {
    size_t i = 0;
    size_t j = 0;
    while (i < cross_a.size() && j < cross_b.size() && !shared) {
      if (cross_a[i] < cross_b[j]) {
        ++i;
      } else if (cross_b[j] < cross_a[i]) {
        ++j;
      } else {
        shared = true;
      }
    }
  }
  if (!shared) return false;

  // Condition 3, strengthened to endpoint level: every query vertex that is
  // an endpoint of crossing edges in both features must map to the same data
  // vertex. The paper states the condition per edge, which misses conflicts
  // on a third query vertex that is extended in both partial matches (only
  // possible for cyclic queries); Def. 6's f^-1-based formulation and the
  // Thm. 2/3 proofs rely on endpoint consistency, which is what we check.
  // Crossing maps hold at most one mapping per query edge, so comparing
  // every endpoint pair directly is cheap and needs no scratch memory.
  auto conflicts = [](QVertexId q, TermId d, const CrossingPairMap& c) {
    return (c.q_from == q && c.d_from != d) || (c.q_to == q && c.d_to != d);
  };
  for (const CrossingPairMap& a : cross_a) {
    for (const CrossingPairMap& b : cross_b) {
      if (conflicts(a.q_from, a.d_from, b) || conflicts(a.q_to, a.d_to, b)) {
        return false;
      }
    }
  }
  return true;
}

bool FeaturesJoinable(const LecFeature& a, const LecFeature& b) {
  return FeaturesJoinable(a.sign, a.crossing, b.sign, b.crossing);
}

std::vector<CrossingPairMap> MergeCrossing(
    const std::vector<CrossingPairMap>& a,
    const std::vector<CrossingPairMap>& b) {
  std::vector<CrossingPairMap> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

}  // namespace gstored
