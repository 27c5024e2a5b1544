// Corruption robustness: every persisted format must reject truncated and
// bit-flipped inputs with an error — never crash, never return garbage
// silently. The loaders are exercised at every truncation point and under
// random byte flips, and every graph or HNSW blob that still loads is
// searched: a loader may accept changed data, never ids a search would
// follow out of range.

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "graph/hnsw.h"
#include "graph/pipeline.h"
#include "storage/world.h"
#include "vector/vector_store.h"

namespace mqa {
namespace {

/// Runs a few queries (rows of `store`) against a freshly loaded index; a
/// corrupted-but-accepted blob must still search without crashing.
void SearchLoaded(VectorIndex* index, const VectorStore& store) {
  SearchParams params;
  params.k = 5;
  params.beam_width = 16;
  for (uint32_t q : {0u, 17u, 79u}) {
    (void)index->Search(store.data(q), params, nullptr);
  }
}

// Runs `load` against every prefix of `blob` (stepping to keep runtime
// sane) and against random single-byte corruptions; the loader must
// return (not crash), and must fail on strict prefixes.
template <typename LoadFn>
void FuzzBlob(const std::string& blob, LoadFn load, uint64_t seed) {
  const size_t step = std::max<size_t>(1, blob.size() / 64);
  for (size_t cut = 0; cut < blob.size(); cut += step) {
    std::stringstream in(blob.substr(0, cut));
    EXPECT_FALSE(load(in)) << "accepted a truncated blob at " << cut;
  }
  // Bit flips: loaders may legitimately accept some (flipping payload
  // bytes changes data, not structure), so only require "no crash".
  Rng rng(seed);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupted = blob;
    corrupted[rng.NextUint64(corrupted.size())] ^=
        static_cast<char>(1 + rng.NextUint64(255));
    std::stringstream in(corrupted);
    (void)load(in);
  }
}

TEST(SerializationFuzzTest, VectorStoreSurvivesCorruption) {
  VectorSchema schema;
  schema.dims = {3, 2};
  VectorStore store(schema);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    Vector v(5);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  std::stringstream out;
  ASSERT_TRUE(store.Save(out).ok());
  FuzzBlob(out.str(),
           [](std::istream& in) { return VectorStore::Load(in).ok(); }, 2);
}

TEST(SerializationFuzzTest, KnowledgeBaseSurvivesCorruption) {
  WorldConfig wc;
  wc.num_concepts = 6;
  wc.latent_dim = 8;
  wc.raw_image_dim = 16;
  auto world = World::Create(wc);
  ASSERT_TRUE(world.ok());
  auto kb = world->GenerateCorpus(24);
  ASSERT_TRUE(kb.ok());
  std::stringstream out;
  ASSERT_TRUE(kb->Save(out).ok());
  FuzzBlob(out.str(),
           [](std::istream& in) { return KnowledgeBase::Load(in).ok(); }, 3);
}

TEST(SerializationFuzzTest, GraphIndexSurvivesCorruption) {
  VectorSchema schema;
  schema.dims = {4};
  VectorStore store(schema);
  Rng rng(4);
  for (int i = 0; i < 80; ++i) {
    Vector v(4);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  GraphBuildConfig config;
  config.algorithm = "mqa-hybrid";
  config.max_degree = 8;
  auto index = BuildGraphIndex(
      config, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  std::stringstream out;
  ASSERT_TRUE((*index)->Save(out).ok());
  FuzzBlob(out.str(),
           [&store](std::istream& in) {
             auto loaded = GraphIndex::Load(
                 in, std::make_unique<FlatDistanceComputer>(&store,
                                                            Metric::kL2));
             if (loaded.ok()) SearchLoaded(loaded->get(), store);
             return loaded.ok();
           },
           5);
}

TEST(SerializationFuzzTest, HnswSurvivesCorruption) {
  VectorSchema schema;
  schema.dims = {4};
  VectorStore store(schema);
  Rng rng(6);
  for (int i = 0; i < 80; ++i) {
    Vector v(4);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(store.Add(v).ok());
  }
  auto index = HnswIndex::Build(
      HnswConfig{}, &store,
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  ASSERT_TRUE(index.ok());
  std::stringstream out;
  ASSERT_TRUE((*index)->Save(out).ok());
  FuzzBlob(out.str(),
           [&store](std::istream& in) {
             auto loaded = HnswIndex::Load(
                 in, HnswConfig{}, &store,
                 std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
             if (loaded.ok()) SearchLoaded(loaded->get(), store);
             return loaded.ok();
           },
           7);
}

}  // namespace
}  // namespace mqa
