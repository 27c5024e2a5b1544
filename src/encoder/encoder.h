#ifndef MQA_ENCODER_ENCODER_H_
#define MQA_ENCODER_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/object.h"
#include "vector/vector_types.h"

namespace mqa {

/// Encodes one modality's payload into a dense embedding. Implementations
/// are pluggable (the paper integrates CLIP / ResNet / LSTM); this repo
/// ships simulated encoders "pretrained" on the synthetic world.
class ModalityEncoder {
 public:
  virtual ~ModalityEncoder() = default;

  /// Embeds a payload. Fails when the payload shape does not match the
  /// modality (e.g. missing features). Concurrent serving turns call it
  /// from several threads at once, so implementations must be
  /// thread-safe; the shipped encoders hold no mutable state.
  virtual Result<Vector> Encode(const Payload& payload) = 0;

  virtual size_t dim() const = 0;
  virtual std::string name() const = 0;
};

/// One encoder per modality slot — the "Vector Representation" component's
/// multi-vector path. All simulated encoders embed into a shared
/// (CLIP-aligned) space, which also enables joint-embedding fusion.
class EncoderSet {
 public:
  explicit EncoderSet(std::vector<std::unique_ptr<ModalityEncoder>> encoders)
      : encoders_(std::move(encoders)) {}

  size_t num_modalities() const { return encoders_.size(); }

  /// Per-modality embedding dims, as a vector schema for downstream storage.
  VectorSchema Schema() const;

  /// Encodes all modalities of an object into a MultiVector.
  Result<MultiVector> EncodeObject(const Object& object) const;

  /// Encodes a single modality payload.
  Result<Vector> EncodeModality(size_t slot, const Payload& payload) const;

  const ModalityEncoder& encoder(size_t slot) const {
    return *encoders_[slot];
  }

 private:
  std::vector<std::unique_ptr<ModalityEncoder>> encoders_;
};

/// The paper's "universal vector support function": a pass-through
/// encoder for users who bring their own precomputed embeddings (from any
/// external library or model). The payload's `features` must already be
/// the embedding, with exactly the declared dimension; it is optionally
/// L2-normalized. Mix freely with other encoders in an EncoderSet.
class PrecomputedEncoder : public ModalityEncoder {
 public:
  explicit PrecomputedEncoder(size_t dim, bool normalize = true,
                              std::string name = "precomputed")
      : dim_(dim), normalize_(normalize), name_(std::move(name)) {}

  Result<Vector> Encode(const Payload& payload) override;
  size_t dim() const override { return dim_; }
  std::string name() const override { return name_; }

 private:
  size_t dim_;
  bool normalize_;
  std::string name_;
};

/// Joint-embedding fusion (the JE baseline): mean of the per-modality
/// embeddings, L2-normalized. Parts may be empty (missing query modality);
/// they are skipped. Returns the zero vector when all parts are empty.
Vector FuseJoint(const MultiVector& mv);

}  // namespace mqa

#endif  // MQA_ENCODER_ENCODER_H_
