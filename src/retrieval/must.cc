#include "retrieval/must.h"

#include <algorithm>
#include <cstring>

#include "diskindex/disk_index.h"
#include "graph/hnsw.h"
#include "graph/pipeline.h"

namespace mqa {

namespace {

/// Flattens a (possibly partial) query multi-vector: absent parts become
/// zero blocks, and the returned mask records which modalities are present.
Result<Vector> FlattenQuery(const VectorSchema& schema,
                            const MultiVector& mv,
                            std::vector<bool>* present) {
  if (mv.parts.size() != schema.num_modalities()) {
    return Status::InvalidArgument("query modality count mismatch");
  }
  Vector flat(schema.TotalDim(), 0.0f);
  present->assign(schema.num_modalities(), false);
  size_t off = 0;
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    const Vector& part = mv.parts[m];
    if (!part.empty()) {
      if (part.size() != schema.dims[m]) {
        return Status::InvalidArgument("query modality dimension mismatch");
      }
      std::memcpy(flat.data() + off, part.data(),
                  part.size() * sizeof(float));
      (*present)[m] = true;
    }
    off += schema.dims[m];
  }
  return flat;
}

}  // namespace

Result<std::unique_ptr<MustFramework>> MustFramework::Create(
    std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
    const IndexConfig& index_config, BuildReport* report) {
  if (corpus == nullptr || corpus->size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  weights = NormalizeWeights(std::move(weights));
  if (weights.size() != corpus->schema().num_modalities()) {
    return Status::InvalidArgument("weights do not match corpus schema");
  }

  MQA_ASSIGN_OR_RETURN(
      WeightedMultiDistance wdist,
      WeightedMultiDistance::Create(corpus->schema(), weights));
  auto dist = std::make_unique<MultiVectorDistanceComputer>(
      corpus.get(), std::move(wdist));
  MultiVectorDistanceComputer* dist_raw = dist.get();

  std::unique_ptr<MustFramework> fw(new MustFramework());
  fw->corpus_ = std::move(corpus);
  fw->weights_ = std::move(weights);
  MQA_ASSIGN_OR_RETURN(fw->index_,
                       CreateIndex(index_config, fw->corpus_.get(),
                                   std::move(dist), report));
  // For disk-resident indexes the source distance computer is destroyed
  // with the temporary in-memory graph; the disk index owns its own copy.
  if (fw->SupportsLiveIngestion()) fw->dist_ = dist_raw;
  return fw;
}

Result<std::unique_ptr<MustFramework>> MustFramework::CreateFromSavedIndex(
    std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
    std::istream* index_blob) {
  if (corpus == nullptr || corpus->size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  if (index_blob == nullptr) {
    return Status::InvalidArgument("no index blob to load");
  }
  weights = NormalizeWeights(std::move(weights));
  MQA_ASSIGN_OR_RETURN(
      WeightedMultiDistance wdist,
      WeightedMultiDistance::Create(corpus->schema(), weights));
  auto dist = std::make_unique<MultiVectorDistanceComputer>(
      corpus.get(), std::move(wdist));
  MultiVectorDistanceComputer* dist_raw = dist.get();
  MQA_ASSIGN_OR_RETURN(std::unique_ptr<GraphIndex> index,
                       GraphIndex::Load(*index_blob, std::move(dist)));
  std::unique_ptr<MustFramework> fw(new MustFramework());
  fw->corpus_ = std::move(corpus);
  fw->weights_ = std::move(weights);
  fw->index_ = std::move(index);
  fw->dist_ = dist_raw;
  return fw;
}

bool MustFramework::SupportsLiveIngestion() const {
  return dynamic_cast<DiskGraphIndex*>(index_.get()) == nullptr;
}

Status MustFramework::IngestAppended(const GraphBuildConfig& config) {
  if (corpus_->size() == 0) {
    return Status::FailedPrecondition("append the encoded vector first");
  }
  const uint32_t new_id = corpus_->size() - 1;
  Status linked = Status::Unimplemented(
      "the disk-resident index is immutable; rebuild to ingest");
  if (auto* graph = dynamic_cast<GraphIndex*>(index_.get())) {
    linked = InsertIntoGraphIndex(graph, corpus_.get(), new_id, config);
  } else if (auto* hnsw = dynamic_cast<HnswIndex*>(index_.get())) {
    linked = hnsw->InsertAppended();
  } else if (dynamic_cast<BruteForceIndex*>(index_.get()) != nullptr) {
    linked = Status::OK();  // scans the store; nothing to update
  }
  return linked;
}

const DistanceStats& MustFramework::distance_stats() const {
  static const DistanceStats kEmpty;
  return dist_ != nullptr ? dist_->stats() : kEmpty;
}

Result<RetrievalResult> MustFramework::Retrieve(
    const RetrievalQuery& query, const SearchParams& params) const {
  std::vector<bool> present;
  MQA_ASSIGN_OR_RETURN(Vector flat,
                       FlattenQuery(schema(), query.modalities, &present));

  std::vector<float> w = query.weights.empty() ? weights_ : query.weights;
  if (w.size() != present.size()) {
    return Status::InvalidArgument("query weights size mismatch");
  }
  for (size_t m = 0; m < present.size(); ++m) {
    if (!present[m]) w[m] = 0.0f;
  }
  bool any = false;
  for (float x : w) any = any || x > 0.0f;
  if (!any) {
    return Status::InvalidArgument("query has no present modality");
  }
  // This query's own scan: the index scores it with these weights and
  // nothing shared is written, so concurrent queries cannot see them.
  MQA_ASSIGN_OR_RETURN(
      const WeightedMultiDistance weighted,
      WeightedMultiDistance::Create(schema(), NormalizeWeights(std::move(w))));
  SearchParams effective = WithoutTombstones(params);
  effective.distance = &weighted;

  RetrievalResult result;
  // Measured through the injected Clock (not wall time) so MockClock tests
  // and injected latency spikes show up in retrieval timings.
  const int64_t start_micros = clock()->NowMicros();
  MQA_ASSIGN_OR_RETURN(result.neighbors,
                       index_->Search(flat.data(), effective, &result.stats));
  result.latency_ms =
      static_cast<double>(clock()->NowMicros() - start_micros) / 1e3;
  return result;
}

Status MustFramework::SetWeights(std::vector<float> weights) {
  if (weights.size() != schema().num_modalities()) {
    return Status::InvalidArgument("weights do not match corpus schema");
  }
  std::vector<float> normalized = NormalizeWeights(std::move(weights));
  // Checked before anything changes. Queries build their scan from weights_;
  // the computer's defaults are what later inserts and compaction link by.
  MQA_RETURN_NOT_OK(
      WeightedMultiDistance::Create(schema(), normalized).status());
  if (dist_ != nullptr) MQA_RETURN_NOT_OK(dist_->SetWeights(normalized));
  weights_ = std::move(normalized);
  return Status::OK();
}

Status MustFramework::Remove(uint32_t id) {
  return MarkRemoved(id, index_->size());
}

Status MustFramework::CompactTombstones(const std::vector<uint32_t>& remap,
                                        uint32_t live_count,
                                        const GraphBuildConfig& config) {
  auto* flat = dynamic_cast<GraphIndex*>(index_.get());
  if (flat == nullptr) {
    return Status::Unimplemented(
        "in-place compaction needs a flat graph index; rebuild instead");
  }
  MQA_ASSIGN_OR_RETURN(
      AdjacencyGraph compacted,
      CompactAdjacency(flat->graph(), remap, live_count, config.max_degree));

  // Surviving entry points keep their role under new ids; if all entry
  // points died, fall back to node 0 (always live: live_count > 0).
  std::vector<uint32_t> entries;
  for (uint32_t e : flat->entry_points()) {
    if (e < remap.size() && remap[e] != kTombstonedId) {
      entries.push_back(remap[e]);
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  if (entries.empty()) entries.push_back(0);

  // The caller already rewrote the corpus store in place, so a fresh
  // distance computer over it sees the compacted rows. Build the whole
  // replacement index before touching members: any failure above leaves
  // the framework serving from the old index unharmed.
  MQA_ASSIGN_OR_RETURN(
      WeightedMultiDistance wdist,
      WeightedMultiDistance::Create(corpus_->schema(), weights_));
  auto dist = std::make_unique<MultiVectorDistanceComputer>(
      corpus_.get(), std::move(wdist));
  MultiVectorDistanceComputer* dist_raw = dist.get();
  index_ = std::make_unique<GraphIndex>(flat->name(), std::move(compacted),
                                        std::move(dist), std::move(entries));
  dist_ = dist_raw;
  ClearTombstones();
  return Status::OK();
}

}  // namespace mqa
