#ifndef MQA_GRAPH_NN_DESCENT_H_
#define MQA_GRAPH_NN_DESCENT_H_

#include <cstdint>

#include "common/random.h"
#include "common/result.h"
#include "graph/graph.h"
#include "vector/vector_store.h"

namespace mqa {

/// Builds an approximate k-nearest-neighbor graph by NN-Descent (Dong et
/// al.): start from random neighbor lists and iteratively improve them via
/// neighbor-of-neighbor joins, comparing only pairs where at least one side
/// is newly inserted. The result is the standard initialization stage for
/// NSG-style navigation graphs.
///
/// `k` is the neighbor-list size; `iters` bounds the improvement rounds
/// (the loop also stops early when an iteration makes no updates).
///
/// The init distances and each round's joins run on DefaultThreadPool()
/// (so `dist->DistancesBetween` is called from several threads at once,
/// and this must not be called from a task on that pool). Each list keeps
/// the top-k of its candidates under (distance, id), which does not depend
/// on the order the joins offer them in, nor on how often a pair is
/// offered, so the graph is the same for every pool size and equal to a
/// serial pass's.
///
/// `pair_evals` (optional) receives the number of pairs the local joins
/// scored (the random init's n * k distances are not counted). It is a
/// function of the inputs alone.
Result<AdjacencyGraph> BuildNNDescentGraph(DistanceComputer* dist, uint32_t k,
                                           uint32_t iters, Rng* rng,
                                           uint64_t* pair_evals = nullptr);

}  // namespace mqa

#endif  // MQA_GRAPH_NN_DESCENT_H_
