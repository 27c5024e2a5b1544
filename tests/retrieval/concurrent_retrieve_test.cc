// Retrieve is re-entrant: threads sharing one framework, each with its own
// skewed modality weights and some queries filtered, get exactly what a
// sequential run of the same queries gets — ids, distance bits, hops and
// distance counts — on every framework and index kind the system serves.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "retrieval/je.h"
#include "retrieval/mr.h"
#include "retrieval/must.h"
#include "retrieval_test_util.h"
#include "shard/sharded_retrieval.h"

namespace mqa {
namespace {

using ::mqa::testing::PrepareCorpus;
using ::mqa::testing::PreparedCorpus;

constexpr size_t kThreads = 4;
constexpr size_t kQueriesPerThread = 24;
// Threads released together can still start several ms apart on a VM, so
// each one's work must outlast that for the searches to overlap: with 3
// rounds (1.5 ms a thread) they ran one after another.
constexpr size_t kRounds = 50;

/// What one query returned, reduced to what must match bit for bit.
struct Answer {
  StatusCode code = StatusCode::kOk;
  std::vector<uint32_t> ids;
  std::vector<uint32_t> distance_bits;
  uint64_t hops = 0;
  uint64_t dist_comps = 0;

  bool operator==(const Answer&) const = default;
};

Answer Summarize(const Result<RetrievalResult>& result) {
  Answer answer;
  answer.code = result.status().code();
  if (!result.ok()) return answer;
  for (const Neighbor& n : result->neighbors) {
    answer.ids.push_back(n.id);
    answer.distance_bits.push_back(std::bit_cast<uint32_t>(n.distance));
  }
  answer.hops = result->stats.hops;
  answer.dist_comps = result->stats.dist_comps;
  return answer;
}

class ConcurrentRetrieveTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new PreparedCorpus(PrepareCorpus(800, 12, 21));
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static IndexConfig Index(const std::string& algorithm) {
    IndexConfig config;
    config.algorithm = algorithm;
    config.graph.max_degree = 16;
    // The disk index scores a freshly read block's co-residents for free,
    // so with a page cache its path depends on which queries ran before,
    // sequential or not. Without one every read is fresh, and each query's
    // path is a function of the query alone.
    config.disk.cache_pages = 0;
    return config;
  }

  static Result<std::unique_ptr<RetrievalFramework>> Make(
      const std::string& name) {
    const auto& store = corpus_->represented.store;
    const std::vector<float>& weights = corpus_->represented.weights;
    std::unique_ptr<RetrievalFramework> fw;
    if (name == "must_mqa_hybrid" || name == "must_hnsw" ||
        name == "must_starling") {
      const std::string algorithm =
          name == "must_hnsw"       ? "hnsw"
          : name == "must_starling" ? "starling"
                                    : "mqa-hybrid";
      MQA_ASSIGN_OR_RETURN(fw,
                           MustFramework::Create(store, weights,
                                                 Index(algorithm)));
    } else if (name == "mr") {
      MQA_ASSIGN_OR_RETURN(fw,
                           MrFramework::Create(store, weights,
                                               Index("mqa-hybrid")));
    } else if (name == "je") {
      MQA_ASSIGN_OR_RETURN(fw, JeFramework::Create(store, Index("mqa-hybrid")));
    } else if (name == "sharded_must") {
      ShardOptions options;
      options.num_shards = 2;
      MQA_ASSIGN_OR_RETURN(
          fw, ShardedRetrieval::Create("must", store, weights,
                                       Index("mqa-hybrid"), options));
    } else {
      return Status::InvalidArgument("unknown case " + name);
    }
    return fw;
  }

  /// Thread t's queries, each weighted with modality t % M at 4x; every
  /// third one carries a filter. Each modality part comes from a different
  /// stored object, so the weights decide the ranking: a text query's
  /// cross-modal fill makes its parts alike, and then any skew ranks the
  /// same.
  static std::vector<std::vector<std::pair<RetrievalQuery, SearchParams>>>
  MakeQueries() {
    const VectorStore& store = *corpus_->represented.store;
    const VectorSchema& schema = store.schema();
    const size_t num_m = schema.num_modalities();
    std::vector<std::vector<std::pair<RetrievalQuery, SearchParams>>> out(
        kThreads);
    Rng rng(4);
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        RetrievalQuery rq;
        for (size_t m = 0; m < num_m; ++m) {
          const float* row =
              store.data(static_cast<uint32_t>(rng.NextUint64(store.size())));
          const float* part = row + schema.OffsetOf(m);
          rq.modalities.parts.emplace_back(part, part + schema.dims[m]);
        }
        rq.weights.assign(num_m, 1.0f);
        rq.weights[t % num_m] = 4.0f;
        SearchParams params;
        params.k = 10;
        params.beam_width = 48;
        if (i % 3 == 0) {
          params.filter = [](uint32_t id) { return id % 4 != 0; };
        }
        out[t].emplace_back(std::move(rq), std::move(params));
      }
    }
    return out;
  }

  static PreparedCorpus* corpus_;
};

PreparedCorpus* ConcurrentRetrieveTest::corpus_ = nullptr;

TEST_P(ConcurrentRetrieveTest, ThreadsWithTheirOwnWeightsMatchASequentialRun) {
  auto fw = Make(GetParam());
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  const RetrievalFramework& shared = **fw;
  const auto queries = MakeQueries();

  std::vector<std::vector<Answer>> expected(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& [query, params] : queries[t]) {
      expected[t].push_back(Summarize(shared.Retrieve(query, params)));
      ASSERT_EQ(expected[t].back().code, StatusCode::kOk);
      ASSERT_FALSE(expected[t].back().ids.empty());
    }
  }

  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, so the searches overlap from the first query.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries[t].size(); ++i) {
          const auto& [query, params] = queries[t][i];
          if (!(Summarize(shared.Retrieve(query, params)) == expected[t][i])) {
            mismatches[t].push_back("round " + std::to_string(round) +
                                    " query " + std::to_string(i));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[t].empty())
        << "thread " << t << ": " << mismatches[t].size()
        << " answers differ from the sequential run, first at "
        << mismatches[t].front();
  }
}

INSTANTIATE_TEST_SUITE_P(Frameworks, ConcurrentRetrieveTest,
                         ::testing::Values("must_mqa_hybrid", "must_hnsw",
                                           "must_starling", "mr", "je",
                                           "sharded_must"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mqa
