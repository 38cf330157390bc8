// Robustness/failure-injection tests: the parsers must reject (never crash
// on) mutated and adversarial inputs; dataset statistics stay consistent;
// and the engine behaves on degenerate datasets (empty, single-triple,
// literal-heavy).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/lec_feature.h"
#include "net/wire.h"
#include "rdf/dataset.h"
#include "rdf/stats.h"
#include "sparql/compound.h"
#include "sparql/parser.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace gstored {
namespace {

/// Random single-character mutations of a valid input. Every mutation must
/// either parse cleanly or fail with a Status — never crash or hang.
class ParserFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzSweep, SparqlParserNeverCrashesOnMutations) {
  const std::string base =
      "SELECT ?a ?b WHERE { ?a <http://x/p> ?b . ?b <http://x/q> \"v\"@en . "
      "?a <http://x/r> \"1\"^^<http://x/int> . }";
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0: mutated[pos] = static_cast<char>(32 + rng.Uniform(95)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1,
                                static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    auto result = ParseSparql(mutated);       // must not crash
    auto compound = ParseCompoundSparql(mutated);
    (void)result;
    (void)compound;
  }
}

TEST_P(ParserFuzzSweep, NTriplesParserNeverCrashesOnMutations) {
  const std::string base =
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "<http://x/s> <http://x/n> \"some text\"@en .\n"
      "_:b <http://x/p> \"42\"^^<http://x/int> .\n";
  Rng rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    Dataset data;
    auto status = ParseNTriples(mutated, &data);  // must not crash
    (void)status;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ParserAdversarialTest, PathologicalInputsRejectedCleanly) {
  EXPECT_FALSE(ParseSparql(std::string(10000, '{')).ok());
  EXPECT_FALSE(ParseSparql("SELECT " + std::string(5000, '?')).ok());
  EXPECT_FALSE(ParseSparql("SELECT * WHERE { " + std::string(100, '"')).ok());
  EXPECT_FALSE(ParseCompoundSparql(
                   "SELECT * WHERE { ?a <p> ?b } UNION").ok());
  Dataset data;
  EXPECT_FALSE(ParseNTriples(std::string(2000, '<'), &data).ok());
  // Deep but balanced compound nesting must terminate.
  std::string nested = "SELECT * WHERE ";
  for (int i = 0; i < 50; ++i) nested += "{";
  nested += " ?a <http://x/p> ?b ";
  for (int i = 0; i < 50; ++i) nested += "}";
  auto result = ParseCompoundSparql(nested);
  (void)result;  // accept or reject, but terminate
}

TEST(DatasetStatsTest, PaperGraphNumbers) {
  auto dataset = testing::BuildPaperDataset();
  DatasetStats stats = ComputeDatasetStats(*dataset);
  EXPECT_EQ(stats.num_triples, 19u);
  EXPECT_EQ(stats.num_vertices, 20u);
  EXPECT_EQ(stats.num_predicates, 6u);
  EXPECT_EQ(stats.num_iris + stats.num_literals + stats.num_blanks,
            stats.num_vertices);
  EXPECT_EQ(stats.num_literals, 11u);
  EXPECT_GT(stats.max_out_degree, 0u);
  ASSERT_FALSE(stats.top_predicates.empty());
  // mainInterest is the most frequent predicate (5 triples).
  EXPECT_EQ(stats.top_predicates[0].second, 5u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(DatasetStatsTest, NamespaceShareDistinguishesRegimes) {
  // LUBM-style: many namespaces, small largest share.
  Rng rng(1);
  Dataset multi;
  for (int ns = 0; ns < 10; ++ns) {
    for (int i = 0; i < 10; ++i) {
      multi.AddTripleLexical(
          "<http://d" + std::to_string(ns) + ".org/e" + std::to_string(i) +
              ">",
          "<http://p.org/p>",
          "<http://d" + std::to_string(ns) + ".org/x" + std::to_string(i) +
              ">");
    }
  }
  multi.Finalize();
  DatasetStats multi_stats = ComputeDatasetStats(multi);
  EXPECT_GE(multi_stats.num_namespaces, 10u);
  EXPECT_LT(multi_stats.largest_namespace_share, 0.3);

  // YAGO-style: one namespace.
  Dataset single;
  for (int i = 0; i < 50; ++i) {
    single.AddTripleLexical(
        "<http://y.org/r/e" + std::to_string(i) + ">", "<http://p.org/p>",
        "<http://y.org/r/e" + std::to_string((i + 1) % 50) + ">");
  }
  single.Finalize();
  DatasetStats single_stats = ComputeDatasetStats(single);
  EXPECT_EQ(single_stats.largest_namespace_share, 1.0);
}

TEST(DegenerateDatasetTest, EmptyDatasetQueries) {
  Dataset empty;
  empty.Finalize();
  Partitioning p = HashPartitioner().Partition(empty, 3);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?a", "<http://x/p>", "?b");
  EXPECT_TRUE(engine.Run({q, EngineMode::kFull}).matches.empty());
}

TEST(DegenerateDatasetTest, SingleTripleAcrossFragments) {
  Dataset data;
  data.AddTripleLexical("<http://x/a>", "<http://x/p>", "<http://x/b>");
  data.Finalize();
  // Force the two endpoints apart.
  VertexAssignment owner;
  owner[data.dict().Lookup("<http://x/a>")] = 0;
  owner[data.dict().Lookup("<http://x/b>")] = 1;
  Partitioning p = BuildPartitioning(data, owner, 2, "manual");
  EXPECT_EQ(p.num_crossing_edges(), 1u);
  DistributedEngine engine(&p);
  QueryGraph q;
  q.AddEdge("?a", "<http://x/p>", "?b");
  // One edge query is a star: answered locally via the replica.
  QueryOutcome outcome = engine.Run({q, EngineMode::kFull});
  ASSERT_EQ(outcome.matches.size(), 1u);
  EXPECT_TRUE(outcome.stats.star_shortcut);
}

// ---------------------------------------------------------------------------
// Wire-codec robustness: the transport decoders must be total functions of
// the payload bytes. Any input — round-tripped, truncated, extended, or
// byte-mutated — either decodes or returns a Status; never a crash, hang, or
// unbounded allocation.
// ---------------------------------------------------------------------------

/// One valid payload of each wire message type plus its decoder, reduced to
/// an ok/error signal for the sweeps below.
struct WirePayload {
  std::string name;
  std::vector<uint8_t> bytes;
  std::function<bool(const std::vector<uint8_t>&)> decode;
};

std::vector<WirePayload> BuildWireCorpus() {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  std::vector<LocalPartialMatch> lpms =
      testing::EnumerateAllLpms(partitioning, rq);
  LecFeatureSet lec = ComputeLecFeatures(lpms);

  // A few ids per 256-bit vector ship as positions; hundreds fill it past
  // the point where the dense words are smaller.
  FilterSet sparse_filters;
  FilterSet dense_filters;
  for (uint32_t v : {0u, 3u}) {
    BitvectorFilter sparse(256);
    BitvectorFilter dense(256);
    for (uint64_t id = v; id < 40; id += 3) sparse.Insert(id);
    for (uint64_t id = v; id < 400; ++id) dense.Insert(id);
    sparse_filters.emplace_back(v, std::move(sparse));
    dense_filters.emplace_back(v, std::move(dense));
  }
  std::vector<Binding> matches = {{1, 2, 3, kNullTerm, 5},
                                  {7, 7, kNullTerm, 9, 0}};

  std::vector<WirePayload> corpus;
  corpus.push_back(
      {"estimates", EncodeEstimates({0.0, 12.5, 1e9, -3.0}),
       [](const std::vector<uint8_t>& b) { return DecodeEstimates(b).ok(); }});
  corpus.push_back(
      {"bitmap", EncodeBitmap({true, false, true, true, false}),
       [](const std::vector<uint8_t>& b) { return DecodeBitmap(b).ok(); }});
  for (const auto& [name, set] :
       {std::pair<const char*, const FilterSet*>{"filter_set_sparse",
                                                 &sparse_filters},
        {"filter_set_dense", &dense_filters}}) {
    corpus.push_back({name, EncodeFilterSet(*set),
                      [](const std::vector<uint8_t>& b) {
                        return DecodeFilterSet(b).ok();
                      }});
  }
  corpus.push_back(
      {"match_batch", EncodeMatchBatch(lpms.size(), 5, matches),
       [](const std::vector<uint8_t>& b) { return DecodeMatchBatch(b).ok(); }});
  corpus.push_back({"lec_feature_batch", EncodeLecFeatureBatch(lec.features),
                    [](const std::vector<uint8_t>& b) {
                      return DecodeLecFeatureBatch(b).ok();
                    }});
  corpus.push_back(
      {"lpm_batch", EncodeLpmBatch(lpms, 0, lpms.size()),
       [](const std::vector<uint8_t>& b) { return DecodeLpmBatch(b).ok(); }});
  corpus.push_back(
      {"done_marker", EncodeDoneMarker(7),
       [](const std::vector<uint8_t>& b) { return DecodeDoneMarker(b).ok(); }});
  return corpus;
}

TEST(WireCodecTest, RoundTripsPreserveEveryPayloadType) {
  auto dataset = testing::BuildPaperDataset();
  Partitioning partitioning = testing::BuildPaperPartitioning(*dataset);
  QueryGraph query = testing::BuildPaperQuery();
  ResolvedQuery rq = ResolveQuery(query, dataset->dict());
  std::vector<LocalPartialMatch> lpms =
      testing::EnumerateAllLpms(partitioning, rq);
  ASSERT_GE(lpms.size(), 3u);
  LecFeatureSet lec = ComputeLecFeatures(lpms);

  std::vector<double> estimates = {0.0, 12.5, 1e9, -3.0};
  auto est = DecodeEstimates(EncodeEstimates(estimates));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(*est, estimates);

  std::vector<bool> bits = {true, false, true, true, false};
  auto bitmap = DecodeBitmap(EncodeBitmap(bits));
  ASSERT_TRUE(bitmap.ok());
  EXPECT_EQ(*bitmap, bits);
  // Broadcasts account bitmap bytes without encoding them.
  for (size_t size : {0, 1, 7, 8, 9, 64, 65}) {
    EXPECT_EQ(BitmapPayloadBytes(size),
              EncodeBitmap(std::vector<bool>(size, true)).size())
        << size;
  }

  FilterSet filters;
  for (uint32_t v : {0u, 3u}) {
    BitvectorFilter filter(256);
    for (uint64_t id = v; id < 40; id += 3) filter.Insert(id);
    filters.emplace_back(v, std::move(filter));
  }
  auto filt = DecodeFilterSet(EncodeFilterSet(filters));
  ASSERT_TRUE(filt.ok());
  ASSERT_EQ(filt->size(), filters.size());
  for (size_t i = 0; i < filters.size(); ++i) {
    EXPECT_EQ((*filt)[i].first, filters[i].first);
    EXPECT_EQ((*filt)[i].second.bits(), filters[i].second.bits());
    EXPECT_EQ((*filt)[i].second.words(), filters[i].second.words());
  }

  std::vector<Binding> matches = {{1, 2, 3, kNullTerm, 5},
                                  {7, 7, kNullTerm, 9, 0}};
  auto batch = DecodeMatchBatch(EncodeMatchBatch(lpms.size(), 5, matches));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_lpms, lpms.size());
  EXPECT_EQ(batch->width, 5u);
  EXPECT_EQ(batch->matches, matches);

  auto feats = DecodeLecFeatureBatch(EncodeLecFeatureBatch(lec.features));
  ASSERT_TRUE(feats.ok());
  EXPECT_EQ(*feats, lec.features);

  auto all = DecodeLpmBatch(EncodeLpmBatch(lpms, 0, lpms.size()));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, lpms);

  auto sub = DecodeLpmBatch(EncodeLpmBatch(lpms, 1, 2));
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->size(), 2u);
  EXPECT_EQ((*sub)[0], lpms[1]);
  EXPECT_EQ((*sub)[1], lpms[2]);

  auto done = DecodeDoneMarker(EncodeDoneMarker(7));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, 7u);
}

// Byte offset of the first filter's tag: set count, var, bits.
constexpr size_t kFirstFilterTag = 4 + 4 + 8;
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSparseTag = 1;

BitvectorFilter FilterWithPositions(size_t bits,
                                    const std::vector<size_t>& positions) {
  BitvectorFilter filter(bits);
  for (size_t pos : positions) filter.SetPosition(pos);
  return filter;
}

TEST(WireCodecTest, FilterFormsRoundTripWithinTheDenseBound) {
  std::vector<size_t> first15;
  std::vector<size_t> first16;
  for (size_t pos = 0; pos < 16; ++pos) {
    if (pos < 15) first15.push_back(pos);
    first16.push_back(pos);
  }
  std::vector<size_t> all256(256);
  for (size_t pos = 0; pos < 256; ++pos) all256[pos] = pos;
  BitvectorFilter default_size;
  for (uint64_t id = 0; id < 50; ++id) default_size.Insert(id * 7919);

  // A 128-bit vector has a 16-byte dense body; positions 0..k-1 take one
  // gap byte each, so 15 of them ship sparse and 16 tie, which dense wins.
  struct Case {
    const char* name;
    BitvectorFilter filter;
    uint8_t tag;
  };
  std::vector<Case> cases = {
      {"empty", BitvectorFilter(256), kSparseTag},
      {"single_bit", FilterWithPositions(256, {200}), kSparseTag},
      {"one_bit_vector", FilterWithPositions(1, {0}), kSparseTag},
      {"odd_length_last_bit", FilterWithPositions(100, {99}), kSparseTag},
      {"boundary_sparse", FilterWithPositions(128, first15), kSparseTag},
      {"boundary_tie", FilterWithPositions(128, first16), kDenseTag},
      {"saturated", FilterWithPositions(256, all256), kDenseTag},
      {"default_length", default_size, kSparseTag},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FilterSet set = {{7, c.filter}};
    std::vector<uint8_t> bytes = EncodeFilterSet(set);
    ASSERT_GT(bytes.size(), kFirstFilterTag);
    EXPECT_EQ(bytes[kFirstFilterTag], c.tag);
    EXPECT_EQ(FilterSetPayloadBytes(set), bytes.size());
    // One filter never ships more than its dense words plus the framing;
    // a saturated one ships exactly that.
    const size_t dense = 4 + kFilterFramingBytes + c.filter.ByteSize();
    EXPECT_LE(bytes.size(), dense);
    if (c.tag == kDenseTag) {
      EXPECT_EQ(bytes.size(), dense);
    }
    auto decoded = DecodeFilterSet(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].first, 7u);
    EXPECT_EQ((*decoded)[0].second.bits(), c.filter.bits());
    EXPECT_EQ((*decoded)[0].second.words(), c.filter.words());
  }

  // A mixed set round-trips too.
  FilterSet mixed;
  for (size_t i = 0; i < cases.size(); ++i) {
    mixed.emplace_back(static_cast<QVertexId>(i), cases[i].filter);
  }
  std::vector<uint8_t> bytes = EncodeFilterSet(mixed);
  EXPECT_EQ(FilterSetPayloadBytes(mixed), bytes.size());
  EXPECT_EQ(FilterSetPayloadBytes({}), EncodeFilterSet({}).size());

  // The codec sweeps below cover both wire forms.
  for (const WirePayload& p : BuildWireCorpus()) {
    if (p.name == "filter_set_sparse") {
      EXPECT_EQ(p.bytes[kFirstFilterTag], kSparseTag);
    }
    if (p.name == "filter_set_dense") {
      EXPECT_EQ(p.bytes[kFirstFilterTag], kDenseTag);
    }
  }
  auto decoded = DecodeFilterSet(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), mixed.size());
  for (size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ((*decoded)[i].first, mixed[i].first);
    EXPECT_EQ((*decoded)[i].second.words(), mixed[i].second.words());
  }
}

/// Little-endian helpers to hand-build filter-set payloads.
void PutLe(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<uint8_t>(v | 0x80));
  out->push_back(static_cast<uint8_t>(v));
}

/// One-filter payload with the given header fields and raw gap varints.
std::vector<uint8_t> SparsePayload(uint64_t bits, uint32_t count,
                                   const std::vector<uint64_t>& gaps,
                                   uint8_t tag = kSparseTag) {
  std::vector<uint8_t> out;
  PutLe(&out, 1, 4);     // filter count
  PutLe(&out, 0, 4);     // var
  PutLe(&out, bits, 8);  // bits
  out.push_back(tag);
  PutLe(&out, count, 4);
  for (uint64_t gap : gaps) PutVarint(&out, gap);
  return out;
}

TEST(WireCodecTest, MalformedSparseFiltersAreRejected) {
  // The well-formed baseline decodes: positions 5, 6 and 255 of 256.
  auto ok = DecodeFilterSet(SparsePayload(256, 3, {5, 1, 249}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)[0].second.words(),
            FilterWithPositions(256, {5, 6, 255}).words());

  // A repeated position is a zero gap after the first.
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 2, {5, 0})).ok());
  // Descending positions wrap the gap around 2^64 (or 2^32).
  EXPECT_FALSE(
      DecodeFilterSet(SparsePayload(256, 2, {5, ~uint64_t{0} - 1})).ok());
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 2, {5, 0xFFFFFFFEu})).ok());
  // A position at or past `bits`, first or later.
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 1, {256})).ok());
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 2, {5, 251})).ok());
  // An unknown tag.
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 0, {}, 2)).ok());
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 0, {}, 0xFF)).ok());
  // More positions than the remaining bytes can hold.
  EXPECT_FALSE(DecodeFilterSet(SparsePayload(256, 1000, {1, 1, 1})).ok());
  EXPECT_FALSE(
      DecodeFilterSet(SparsePayload(256, 0xFFFFFFFFu, {1, 1, 1})).ok());
  // A varint longer than 64 bits of value.
  std::vector<uint8_t> overlong = SparsePayload(256, 1, {});
  for (int i = 0; i < 10; ++i) overlong.push_back(0x80);
  overlong.push_back(0x01);
  EXPECT_FALSE(DecodeFilterSet(overlong).ok());

  // Sparse filters may span 2^26 bits per payload in total, so a few bytes
  // can never make the decoder allocate more than one longest vector.
  std::vector<uint8_t> two;
  PutLe(&two, 2, 4);
  for (uint32_t var = 0; var < 2; ++var) {
    PutLe(&two, var, 4);
    PutLe(&two, uint64_t{1} << 25, 8);
    two.push_back(kSparseTag);
    PutLe(&two, 0, 4);
  }
  EXPECT_TRUE(DecodeFilterSet(two).ok());
  std::vector<uint8_t> three = two;
  three[0] = 3;
  PutLe(&three, 2, 4);
  PutLe(&three, 1, 8);
  three.push_back(kSparseTag);
  PutLe(&three, 0, 4);
  EXPECT_FALSE(DecodeFilterSet(three).ok());
}

TEST(WireCodecTest, TruncatedAndExtendedPayloadsAreRejected) {
  Rng rng(99);
  for (const WirePayload& p : BuildWireCorpus()) {
    SCOPED_TRACE(p.name);
    // Every strict prefix must be rejected: the element counts at the front
    // no longer match the remaining bytes, or AtEnd fails.
    for (size_t len = 0; len < p.bytes.size(); ++len) {
      std::vector<uint8_t> prefix(p.bytes.begin(),
                                  p.bytes.begin() + static_cast<long>(len));
      EXPECT_FALSE(p.decode(prefix)) << "prefix of length " << len;
    }
    // Trailing junk must be rejected too (decoders require AtEnd).
    for (int extra = 1; extra <= 8; ++extra) {
      std::vector<uint8_t> extended = p.bytes;
      for (int i = 0; i < extra; ++i) {
        extended.push_back(static_cast<uint8_t>(rng.Uniform(256)));
      }
      EXPECT_FALSE(p.decode(extended)) << extra << " junk bytes appended";
    }
  }
}

/// Random byte mutations of every valid wire payload. Each mutation must
/// either decode or return a Status — never crash (the transport feeds
/// decoder output straight into the coordinator pipeline, so a crashing
/// decoder would turn a network fault into a process fault).
class WireFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzSweep, DecodersNeverCrashOnMutatedPayloads) {
  std::vector<WirePayload> corpus = BuildWireCorpus();
  Rng rng(GetParam() ^ 0x5157);
  for (const WirePayload& p : corpus) {
    for (int i = 0; i < 300; ++i) {
      std::vector<uint8_t> mutated = p.bytes;
      int edits = 1 + static_cast<int>(rng.Uniform(4));
      for (int e = 0; e < edits; ++e) {
        if (mutated.empty()) {
          mutated.push_back(static_cast<uint8_t>(rng.Uniform(256)));
          continue;
        }
        auto pos = static_cast<std::ptrdiff_t>(rng.Uniform(mutated.size()));
        switch (rng.Uniform(3)) {
          case 0:
            mutated[static_cast<size_t>(pos)] =
                static_cast<uint8_t>(rng.Uniform(256));
            break;
          case 1:
            mutated.erase(mutated.begin() + pos);
            break;
          default:
            mutated.insert(mutated.begin() + pos,
                           static_cast<uint8_t>(rng.Uniform(256)));
        }
      }
      (void)p.decode(mutated);  // must return, never crash
    }
    // Pure garbage of random lengths.
    for (int i = 0; i < 100; ++i) {
      std::vector<uint8_t> garbage(rng.Uniform(64));
      for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Uniform(256));
      (void)p.decode(garbage);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(DegenerateDatasetTest, LiteralOnlyObjectsNeverCross) {
  // Semantic hash co-locates literals with subjects; every edge is internal.
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    data.AddTripleLexical("<http://d.org/e" + std::to_string(i) + ">",
                          "<http://d.org/label>",
                          "\"label " + std::to_string(i) + "\"");
  }
  data.Finalize();
  Partitioning p = SemanticHashPartitioner().Partition(data, 4);
  for (const Fragment& f : p.fragments()) {
    EXPECT_TRUE(f.crossing_edges().empty());
  }
}

}  // namespace
}  // namespace gstored
