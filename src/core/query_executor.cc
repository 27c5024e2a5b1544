#include "core/query_executor.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"
#include "vector/distance.h"

namespace mqa {

QueryExecutor::QueryExecutor(const KnowledgeBase* kb,
                             const EncoderSet* encoders,
                             const RetrievalFramework* framework)
    : kb_(kb),
      encoders_(encoders),
      framework_(framework),
      executions_(MetricsRegistry::Global().GetCounter("query/executions")),
      hops_(MetricsRegistry::Global().GetCounter("query/hops")),
      dist_comps_(MetricsRegistry::Global().GetCounter("query/dist_comps")),
      degraded_(MetricsRegistry::Global().GetCounter("query/degraded")) {}

std::optional<size_t> QueryExecutor::SlotOfType(ModalityType type) const {
  const ModalitySchema& schema = kb_->schema();
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    if (schema.types[m] == type) return m;
  }
  return std::nullopt;
}

void QueryExecutor::EnableResilience(const RetryPolicy& retry, Clock* clock) {
  resilience_ = true;
  encoder_retry_ = retry;
  clock_ = clock;
}

Result<Vector> QueryExecutor::EncodeSlot(size_t slot,
                                         const Payload& payload) const {
  auto encode_once = [&]() -> Result<Vector> {
    return encoders_->EncodeModality(slot, payload);
  };
  if (!resilience_) return encode_once();
  Retrier retrier(encoder_retry_, clock_);
  return retrier.Run<Vector>(encode_once);
}

Result<RetrievalQuery> QueryExecutor::EncodeUserQuery(
    const UserQuery& query, std::vector<std::string>* degradation) const {
  Span span("query/encode");
  RetrievalQuery out;
  out.modalities.parts.resize(encoders_->num_modalities());
  out.weights = query.weight_override;

  // Encodes one requested modality into its slot. Under resilience, a
  // transient encoder failure (after retries) *drops* the modality instead
  // of failing the query: the slot stays empty, the framework renormalizes
  // the weights over the survivors, and a degradation note records the
  // outage. Permanent errors always propagate.
  bool any = false;
  uint64_t dropped = 0;
  auto encode_into_slot = [&](size_t slot, const Payload& payload,
                              const char* label) -> Status {
    Result<Vector> encoded = EncodeSlot(slot, payload);
    if (encoded.ok()) {
      out.modalities.parts[slot] = std::move(encoded).Value();
      any = true;
      return Status::OK();
    }
    if (resilience_ && encoded.status().IsRetryable()) {
      ++dropped;
      if (degradation != nullptr) {
        degradation->push_back(std::string("dropped ") + label +
                               " modality: " + encoded.status().message());
      }
      return Status::OK();
    }
    return encoded.status();
  };

  if (!query.text.empty()) {
    const std::optional<size_t> slot = SlotOfType(ModalityType::kText);
    if (!slot.has_value()) {
      return Status::FailedPrecondition("knowledge base has no text modality");
    }
    Payload p;
    p.type = ModalityType::kText;
    p.text = query.text;
    MQA_RETURN_NOT_OK(encode_into_slot(*slot, p, "text"));
  }

  // Image part: an upload wins over a clicked previous result.
  const Payload* image = nullptr;
  if (query.uploaded_image.has_value()) {
    image = &*query.uploaded_image;
  } else if (query.selected_object.has_value()) {
    MQA_ASSIGN_OR_RETURN(const Object* obj,
                         kb_->Get(*query.selected_object));
    const std::optional<size_t> slot = SlotOfType(ModalityType::kImage);
    if (slot.has_value()) image = &obj->modalities[*slot];
  }
  if (image != nullptr) {
    const std::optional<size_t> slot = SlotOfType(ModalityType::kImage);
    if (!slot.has_value()) {
      return Status::FailedPrecondition(
          "knowledge base has no image modality");
    }
    MQA_RETURN_NOT_OK(encode_into_slot(*slot, *image, "image"));
  }

  if (!any) {
    if (dropped > 0) {
      return Status::Unavailable(
          "every query modality failed to encode (all encoders down)");
    }
    return Status::InvalidArgument(
        "query must contain text, an uploaded image, or a selected result");
  }
  // Drop uninformative parts: a contentless utterance ("more like this")
  // embeds with low energy; keeping it would only add noise next to a
  // strong modality.
  float strongest = 0.0f;
  for (const Vector& part : out.modalities.parts) {
    if (!part.empty()) {
      strongest = std::max(strongest, Norm(part.data(), part.size()));
    }
  }
  if (strongest >= 0.5f) {
    for (Vector& part : out.modalities.parts) {
      if (!part.empty() && Norm(part.data(), part.size()) < 0.4f) {
        part.clear();
      }
    }
  }
  // Cross-modal projection: a single-modality query also searches the
  // other modality blocks through the aligned embedding space.
  CrossModalFill(&out.modalities);
  return out;
}

Result<QueryOutcome> QueryExecutor::Execute(const UserQuery& query,
                                            const SearchParams& params) {
  Span span("query/execute");
  executions_->Increment();
  Clock* clock = clock_ != nullptr ? clock_ : SystemClock();
  if (query.deadline_micros > 0 &&
      clock->NowMicros() >= query.deadline_micros) {
    return Status::DeadlineExceeded("query deadline expired before execution");
  }
  // Per-query weights are checked once, here: the frameworks take them as
  // given (MR multiplies by them, so a negative one would rank far objects
  // first), and under sharding a NaN would fail every shard.
  if (!query.weight_override.empty()) {
    if (query.weight_override.size() != encoders_->num_modalities()) {
      return Status::InvalidArgument(
          "weight_override needs one weight per modality");
    }
    for (float w : query.weight_override) {
      if (!std::isfinite(w) || w < 0.0f) {
        return Status::InvalidArgument(
            "weight_override entries must be finite and >= 0");
      }
    }
  }
  QueryOutcome outcome;
  MQA_ASSIGN_OR_RETURN(RetrievalQuery rq,
                       EncodeUserQuery(query, &outcome.degradation));
  // Deadline-aware frameworks (the sharded fan-out) slice their per-shard
  // time budgets from the turn deadline.
  rq.deadline_micros = query.deadline_micros;
  SearchParams effective = params;
  if (query.object_filter) {
    const KnowledgeBase* kb = kb_;
    auto object_filter = query.object_filter;
    effective.filter = [kb, object_filter](uint32_t id) {
      return id < kb->size() && object_filter(kb->at(id));
    };
  }
  {
    Span retrieve_span("query/retrieve");
    searches_.fetch_add(1, std::memory_order_relaxed);
    Result<RetrievalResult> retrieved = framework_->Retrieve(rq, effective);
    if (retrieved.ok()) {
      outcome.retrieval = std::move(retrieved).Value();
    } else if (resilience_ && retrieved.status().IsRetryable() &&
               retrieved.status().code() != StatusCode::kDeadlineExceeded) {
      // Transient retrieval outage (e.g. the shard quorum was missed):
      // degrade to an answer without retrieved context instead of failing
      // the round. Deadline expiries still propagate — the serving layer
      // sheds those, and a late answer helps nobody.
      outcome.degradation.push_back(
          "retrieval unavailable (" + retrieved.status().message() +
          "); answering without retrieved context");
      outcome.retrieval = RetrievalResult{};
    } else {
      return retrieved.status();
    }
  }
  hops_->Increment(outcome.retrieval.stats.hops);
  dist_comps_->Increment(outcome.retrieval.stats.dist_comps);
  if (outcome.retrieval.stats.partial) {
    outcome.degradation.push_back(
        "disk index served partial (cache-only) results after " +
        std::to_string(outcome.retrieval.stats.io_errors) + " I/O errors");
  }
  if (outcome.retrieval.stats.shards_total > 0 &&
      outcome.retrieval.stats.shards_ok <
          outcome.retrieval.stats.shards_total) {
    outcome.degradation.push_back(
        "shard coverage " +
        std::to_string(outcome.retrieval.stats.shards_ok) + "/" +
        std::to_string(outcome.retrieval.stats.shards_total) +
        ": results may be missing entries from unreachable shards");
  }
  if (!outcome.degradation.empty()) {
    degraded_->Increment();
  }
  // Preference markers: items sharing the clicked result's concept are
  // flagged for the answer generator.
  std::optional<uint32_t> preferred_concept;
  if (query.selected_object.has_value()) {
    MQA_ASSIGN_OR_RETURN(const Object* sel,
                         kb_->Get(*query.selected_object));
    preferred_concept = sel->concept_id;
  }
  outcome.items.reserve(outcome.retrieval.neighbors.size());
  for (const Neighbor& n : outcome.retrieval.neighbors) {
    MQA_ASSIGN_OR_RETURN(const Object* obj, kb_->Get(n.id));
    RetrievedItem item{obj->id, DescribeObject(*obj), n.distance};
    item.preferred = preferred_concept.has_value() &&
                     obj->concept_id == *preferred_concept;
    outcome.items.push_back(std::move(item));
  }
  return outcome;
}

std::string DescribeObject(const Object& object) {
  std::string out = "object #" + std::to_string(object.id);
  for (const Payload& p : object.modalities) {
    if (p.text.empty()) continue;
    out += " | ";
    out += p.text;
  }
  return out;
}

}  // namespace mqa
