// Bit-identity goldens for the graph traversal and the graph builders, at
// every SIMD tier the CPU supports:
//
//  * a hash of MUST results (ids and distance bits) at beams 16-256, with
//    learned weights, with skewed per-query weights and through the
//    tombstone filter;
//  * GraphHash (plus entry points) of kgraph, nsg, vamana and mqa-hybrid
//    builds, which run the same traversal at build time;
//  * HNSW builds (their Save blobs) and searches, over a weighted
//    multi-modality store and over a tied-distance store.
//
// The flat-graph values were recorded from the two-heap traversal (a
// priority-queue frontier plus a TopK beam) over vector-of-vectors
// adjacency, before the sorted candidate buffer and the fixed-slot layout
// replaced them. The HNSW values were recorded from HNSW's own two-heap
// layer search, with distances bounded by the beam's worst, before its
// layers were searched by BeamSearch with exact distances.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "graph/hnsw.h"
#include "graph/pipeline.h"
#include "graph/search.h"
#include "graph_test_util.h"
#include "retrieval/must.h"
#include "vector/simd/simd.h"

namespace mqa {
namespace {

using ::mqa::testing::GraphHash;
using ::mqa::testing::MakeClusteredStore;

constexpr SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                 SimdLevel::kAvx512};

/// FNV-1a (64-bit), fed 32-bit words.
class Fnv {
 public:
  void Mix(uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Mix(const std::vector<Neighbor>& results) {
    Mix(static_cast<uint32_t>(results.size()));
    for (const Neighbor& n : results) {
      uint32_t bits = 0;
      std::memcpy(&bits, &n.distance, sizeof(bits));
      Mix(n.id);
      Mix(bits);
    }
  }
  void Mix(const std::string& bytes) {
    Mix(static_cast<uint32_t>(bytes.size()));
    for (size_t off = 0; off + 4 <= bytes.size(); off += 4) {
      uint32_t word = 0;
      std::memcpy(&word, bytes.data() + off, sizeof(word));
      Mix(word);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every MUST answer of one seeded corpus, folded into one hash: learned
/// weights, then skewed per-query weights, at each beam; then the learned
/// weights again after tombstoning every 7th object (the filtered path).
uint64_t MustResultsHash() {
  WorldConfig wc;
  wc.num_concepts = 12;
  wc.latent_dim = 16;
  wc.raw_image_dim = 32;
  wc.seed = 17;
  auto corpus = MakeExperimentCorpus(wc, 900, "sim-clip", 16,
                                     /*learn_weights=*/true, 600);
  EXPECT_TRUE(corpus.ok());
  if (!corpus.ok()) return 0;
  IndexConfig config;
  config.algorithm = "mqa-hybrid";
  config.graph.max_degree = 16;
  config.graph.build_beam = 48;
  auto must = MustFramework::Create(corpus->represented.store,
                                    corpus->represented.weights, config);
  EXPECT_TRUE(must.ok());
  if (!must.ok()) return 0;

  std::vector<RetrievalQuery> queries;
  Rng rng(31);
  for (uint32_t i = 0; i < 24; ++i) {
    const TextQuery tq =
        corpus->world->MakeTextQuery(i % corpus->world->num_concepts(), &rng);
    auto q = EncodeTextQuery(*corpus, tq.text);
    EXPECT_TRUE(q.ok());
    if (!q.ok()) return 0;
    queries.push_back(std::move(q).Value());
  }
  std::vector<float> skewed(corpus->represented.weights.size(), 0.4f);
  skewed[0] = 1.6f;

  Fnv hash;
  auto run = [&](size_t beam, const std::vector<float>& weights) {
    SearchParams params;
    params.k = 10;
    params.beam_width = beam;
    for (RetrievalQuery q : queries) {
      q.weights = weights;
      auto r = (*must)->Retrieve(q, params);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) return;
      hash.Mix(r->neighbors);
      hash.Mix(static_cast<uint32_t>(r->stats.hops));
      hash.Mix(static_cast<uint32_t>(r->stats.dist_comps));
    }
  };
  for (size_t beam : {16, 32, 64, 128, 256}) {
    run(beam, {});
    run(beam, skewed);
  }
  for (uint32_t id = 0; id < 900; id += 7) {
    EXPECT_TRUE((*must)->Remove(id).ok());
  }
  run(64, {});
  return hash.value();
}

/// GraphHash of every pipeline algorithm's build, with its entry points,
/// under two degree settings: NN-Descent lists shorter than the degree
/// bound and longer than it.
std::map<std::string, uint64_t> BuildHashes() {
  const VectorStore store = MakeClusteredStore(600, 16, 8, /*seed=*/29);
  std::map<std::string, uint64_t> hashes;
  for (uint32_t nn_k : {10u, 20u}) {
    for (const std::string& algo : GraphAlgorithms()) {
      GraphBuildConfig config;
      config.algorithm = algo;
      config.max_degree = 14;
      config.build_beam = 32;
      config.nn_descent_k = nn_k;
      config.nn_descent_iters = 5;
      config.seed = 3;
      auto index = BuildGraphIndex(
          config, &store,
          std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
      EXPECT_TRUE(index.ok()) << algo;
      if (!index.ok()) continue;
      uint64_t h = GraphHash((*index)->graph());
      for (uint32_t e : (*index)->entry_points()) h = h * 31 + e;
      hashes[algo + "/k" + std::to_string(nn_k)] = h;
    }
  }
  return hashes;
}

/// BeamSearch over a store whose coordinates take three values, so many
/// distances tie exactly: results, evaluated pools and counters at several
/// beams, unfiltered and filtered. The sums are exact in every tier.
uint64_t TiedSearchHash() {
  constexpr uint32_t kNodes = 500;
  Rng rng(43);
  VectorSchema schema;
  schema.dims = {4};
  VectorStore store(schema);
  for (uint32_t i = 0; i < kNodes; ++i) {
    Vector v(4);
    for (float& x : v) x = static_cast<float>(rng.NextUint64(3));
    (void)store.Add(v);
  }
  AdjacencyGraph graph(kNodes);
  for (uint32_t u = 0; u < kNodes; ++u) {
    for (int e = 0; e < 6; ++e) {
      graph.AddEdge(u, static_cast<uint32_t>(rng.NextUint64(kNodes)));
    }
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  const SearchFilter odd = [](uint32_t id) { return id % 2 == 1; };
  Fnv hash;
  for (uint32_t q = 0; q < 20; ++q) {
    const float* query = store.data(q * 17 % kNodes);
    for (size_t beam : {4, 16, 64}) {
      for (bool filtered : {false, true}) {
        SearchStats stats;
        std::vector<Neighbor> evaluated;
        const std::vector<Neighbor> results =
            BeamSearch(graph, &dist, query, {q, q + 100}, 10, beam, &stats,
                       &evaluated, filtered ? odd : SearchFilter());
        hash.Mix(results);
        hash.Mix(evaluated);
        hash.Mix(static_cast<uint32_t>(stats.hops));
        hash.Mix(static_cast<uint32_t>(stats.dist_comps));
      }
    }
  }
  return hash.value();
}

/// One HNSW index folded into `hash`: its Save blob, then for every query
/// the results and hops at several beams, unfiltered and filtered, with
/// the index's default weights and, when `skewed` is set, with it as the
/// query's own distance. Distance counts are left out: a layer search
/// scores its entry once more than the layer search they were recorded
/// from.
void MixHnsw(const HnswConfig& config, const VectorStore& store,
             std::unique_ptr<DistanceComputer> dist,
             const std::vector<Vector>& queries,
             const WeightedMultiDistance* skewed, Fnv* hash) {
  auto index = HnswIndex::Build(config, &store, std::move(dist));
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return;
  std::ostringstream blob;
  EXPECT_TRUE((*index)->Save(blob).ok());
  hash->Mix(blob.str());
  std::vector<const WeightedMultiDistance*> distances = {nullptr};
  if (skewed != nullptr) distances.push_back(skewed);
  const SearchFilter odd = [](uint32_t id) { return id % 2 == 1; };
  for (const Vector& q : queries) {
    for (size_t beam : {4, 16, 64}) {
      for (const WeightedMultiDistance* weighted : distances) {
        for (bool filtered : {false, true}) {
          SearchParams params;
          params.k = 10;
          params.beam_width = beam;
          params.distance = weighted;
          if (filtered) params.filter = odd;
          SearchStats stats;
          auto r = (*index)->Search(q.data(), params, &stats);
          EXPECT_TRUE(r.ok());
          if (!r.ok()) return;
          hash->Mix(*r);
          hash->Mix(static_cast<uint32_t>(stats.hops));
        }
      }
    }
  }
}

/// HNSW over the seeded two-modality corpus the MUST golden uses, scored
/// with its learned weights; queries take each modality from a different
/// stored object, so skewed per-query weights change the ranking.
uint64_t HnswWeightedHash() {
  WorldConfig wc;
  wc.num_concepts = 12;
  wc.latent_dim = 16;
  wc.raw_image_dim = 32;
  wc.seed = 17;
  auto corpus = MakeExperimentCorpus(wc, 900, "sim-clip", 16,
                                     /*learn_weights=*/true, 600);
  EXPECT_TRUE(corpus.ok());
  if (!corpus.ok()) return 0;
  const VectorStore& store = *corpus->represented.store;
  const VectorSchema& schema = store.schema();
  auto learned =
      WeightedMultiDistance::Create(schema, corpus->represented.weights);
  std::vector<float> skewed_weights(schema.num_modalities(), 0.4f);
  skewed_weights[0] = 1.6f;
  auto skewed = WeightedMultiDistance::Create(schema, skewed_weights);
  EXPECT_TRUE(learned.ok() && skewed.ok());
  if (!learned.ok() || !skewed.ok()) return 0;
  Rng rng(37);
  std::vector<Vector> queries;
  for (int i = 0; i < 16; ++i) {
    Vector q;
    for (size_t m = 0; m < schema.num_modalities(); ++m) {
      const float* row =
          store.data(static_cast<uint32_t>(rng.NextUint64(store.size())));
      q.insert(q.end(), row + schema.OffsetOf(m),
               row + schema.OffsetOf(m) + schema.dims[m]);
    }
    queries.push_back(std::move(q));
  }
  HnswConfig config;
  config.m = 8;
  config.ef_construction = 40;
  config.seed = 5;
  Fnv hash;
  MixHnsw(config, store,
          std::make_unique<MultiVectorDistanceComputer>(
              &store, *learned),
          queries, &*skewed, &hash);
  return hash.value();
}

/// HNSW over a store whose coordinates take three values, so many
/// distances tie exactly. The sums are exact in every tier.
uint64_t HnswTiedHash() {
  constexpr uint32_t kNodes = 500;
  Rng rng(47);
  VectorSchema schema;
  schema.dims = {4};
  VectorStore store(schema);
  for (uint32_t i = 0; i < kNodes; ++i) {
    Vector v(4);
    for (float& x : v) x = static_cast<float>(rng.NextUint64(3));
    (void)store.Add(v);
  }
  std::vector<Vector> queries;
  for (uint32_t q = 0; q < 20; ++q) {
    queries.push_back(store.Row(q * 23 % kNodes));
  }
  HnswConfig config;
  config.m = 6;
  config.ef_construction = 24;
  config.seed = 9;
  Fnv hash;
  MixHnsw(config, store,
          std::make_unique<FlatDistanceComputer>(&store, Metric::kL2),
          queries, nullptr, &hash);
  return hash.value();
}

TEST(BeamSearchGoldenTest, TiedDistancesMatchTheTwoHeapTraversal) {
  constexpr uint64_t kGolden = 0x8b57970f187c77bfull;
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = TiedSearchHash();
    EXPECT_EQ(got, kGolden) << SimdLevelName(level) << " got 0x" << std::hex
                            << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

TEST(BeamSearchGoldenTest, MustResultsMatchTheTwoHeapTraversal) {
  const std::map<SimdLevel, uint64_t> kGolden = {
      {SimdLevel::kScalar, 0xe0ea81462358a029ull},
      {SimdLevel::kAvx2, 0x75d43a4f6047a8d8ull},
      {SimdLevel::kAvx512, 0xe39e3ae9ea8b5b1cull},
  };
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = MustResultsHash();
    EXPECT_EQ(got, kGolden.at(level))
        << SimdLevelName(level) << " got 0x" << std::hex << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

TEST(BeamSearchGoldenTest, BuiltGraphsMatchTheTwoHeapTraversal) {
  // The flat L2 builds come out the same at every tier.
  const std::map<std::string, uint64_t> kGolden = {
      {"kgraph/k10", 0xf1d12f193e127f05ull},
      {"kgraph/k20", 0xb4e34b6240a6714cull},
      {"mqa-hybrid/k10", 0x87faca4e3bd6681full},
      {"mqa-hybrid/k20", 0x4b0233cac380ca29ull},
      {"nsg/k10", 0x2a0576b0415dd57bull},
      {"nsg/k20", 0x7452ed1c05042175ull},
      {"vamana/k10", 0xec11ec93f2a94a79ull},
      {"vamana/k20", 0xec11ec93f2a94a79ull},
  };
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const std::map<std::string, uint64_t> got = BuildHashes();
    EXPECT_EQ(got.size(), kGolden.size()) << SimdLevelName(level);
    for (const auto& [name, hash] : got) {
      const auto it = kGolden.find(name);
      EXPECT_TRUE(it != kGolden.end() && it->second == hash)
          << SimdLevelName(level) << " " << name << " got 0x" << std::hex
          << hash;
    }
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

TEST(HnswGoldenTest, TiedDistancesMatchTheLayerSearch) {
  constexpr uint64_t kGolden = 0x976f2b1de45be49eull;
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = HnswTiedHash();
    EXPECT_EQ(got, kGolden) << SimdLevelName(level) << " got 0x" << std::hex
                            << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

TEST(HnswGoldenTest, WeightedSearchesMatchTheLayerSearch) {
  const std::map<SimdLevel, uint64_t> kGolden = {
      {SimdLevel::kScalar, 0xc351ca07583a33a5ull},
      {SimdLevel::kAvx2, 0x091cad90a657b119ull},
      {SimdLevel::kAvx512, 0xef95b76cb1f0eec3ull},
  };
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : kLevels) {
    if (!CpuSupports(level)) continue;
    ASSERT_TRUE(SetSimdLevel(level).ok());
    const uint64_t got = HnswWeightedHash();
    EXPECT_EQ(got, kGolden.at(level))
        << SimdLevelName(level) << " got 0x" << std::hex << got;
  }
  ASSERT_TRUE(SetSimdLevel(saved).ok());
}

}  // namespace
}  // namespace mqa
