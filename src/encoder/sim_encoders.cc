#include "encoder/sim_encoders.h"

#include <cmath>
#include <cstring>
#include <functional>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "vector/distance.h"

namespace mqa {

namespace {

/// Shared projection from latent space to embedding space. Same seed ->
/// same projection, so encoders built with one seed are "aligned" (CLIP
/// style). Identity when dims match.
std::vector<float> MakeProjection(uint32_t out_dim, uint32_t latent_dim,
                                  uint64_t seed) {
  std::vector<float> proj(static_cast<size_t>(out_dim) * latent_dim, 0.0f);
  if (out_dim == latent_dim) {
    for (uint32_t i = 0; i < out_dim; ++i) proj[i * latent_dim + i] = 1.0f;
    return proj;
  }
  Rng rng(seed ^ 0x70726f6aULL);  // "proj"
  const float scale = 1.0f / std::sqrt(static_cast<float>(latent_dim));
  for (auto& x : proj) x = static_cast<float>(rng.Gaussian()) * scale;
  return proj;
}

Vector ProjectAndPerturb(const Vector& latent,
                         const std::vector<float>& projection,
                         uint32_t out_dim, float noise, uint64_t input_hash) {
  const size_t latent_dim = latent.size();
  // Signal strength: informative inputs have (near-)unit latents; junk
  // inputs (e.g. a caption of only stop words) have low-energy latents.
  // The embedding keeps that magnitude, so uninformative parts contribute
  // a near-constant term to distances instead of random noise.
  const float signal =
      std::min(1.0f, Norm(latent.data(), latent.size()));
  Vector out(out_dim, 0.0f);
  if (signal == 0.0f) return out;
  for (uint32_t i = 0; i < out_dim; ++i) {
    const float* row = projection.data() + static_cast<size_t>(i) * latent_dim;
    float s = 0.0f;
    for (size_t j = 0; j < latent_dim; ++j) s += row[j] * latent[j];
    out[i] = s;
  }
  if (noise > 0.0f) {
    // Deterministic "model imperfection": the same input always gets the
    // same perturbation, as a frozen pretrained model would.
    Rng rng(input_hash ^ 0xe2c0deULL);
    for (auto& x : out) {
      x += noise * signal * static_cast<float>(rng.Gaussian());
    }
  }
  const float n = Norm(out.data(), out.size());
  if (n > 0.0f) {
    const float scale = signal / n;
    for (auto& x : out) x *= scale;
  }
  return out;
}

uint64_t HashBytes(const void* data, size_t n) {
  // FNV-1a.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

SimTextEncoder::SimTextEncoder(const World* world, SimEncoderConfig config)
    : world_(world),
      config_(config),
      projection_(MakeProjection(config.output_dim,
                                 world->config().latent_dim, config.seed)) {}

Result<Vector> SimTextEncoder::Encode(const Payload& payload) {
  Span span("encoder/sim-text");
  static Counter* const encode_calls =
      MetricsRegistry::Global().GetCounter("encoder/encode_calls");
  encode_calls->Increment();
  // Chaos hook: a GPU-hosted text encoder going down ("encoder/sim-text").
  // The enabled() guard keeps the disarmed fast path allocation-free.
  if (FaultInjector::Global().enabled()) {
    MQA_RETURN_NOT_OK(FaultInjector::Global().Check("encoder/" + name()));
  }
  if (payload.type != ModalityType::kText) {
    return Status::InvalidArgument("SimTextEncoder expects a text payload");
  }
  const Vector latent = world_->TextToLatent(payload.text);
  return ProjectAndPerturb(latent, projection_, config_.output_dim,
                           config_.encoder_noise,
                           HashBytes(payload.text.data(),
                                     payload.text.size()));
}

SimFeatureEncoder::SimFeatureEncoder(const World* world,
                                     SimEncoderConfig config,
                                     size_t modality_slot, std::string name)
    : world_(world),
      config_(config),
      modality_slot_(modality_slot),
      name_(std::move(name)),
      projection_(MakeProjection(config.output_dim,
                                 world->config().latent_dim, config.seed)) {}

Result<Vector> SimFeatureEncoder::Encode(const Payload& payload) {
  Span span(ActiveTrace() != nullptr ? "encoder/" + name_ : std::string());
  static Counter* const encode_calls =
      MetricsRegistry::Global().GetCounter("encoder/encode_calls");
  encode_calls->Increment();
  // Chaos hook: e.g. "encoder/sim-image" for the ResNet/CLIP-image slot.
  if (FaultInjector::Global().enabled()) {
    MQA_RETURN_NOT_OK(FaultInjector::Global().Check("encoder/" + name_));
  }
  if (payload.features.empty()) {
    return Status::InvalidArgument(name_ + " expects a feature payload");
  }
  const Vector latent =
      world_->FeaturesToLatent(payload.features, modality_slot_);
  return ProjectAndPerturb(
      latent, projection_, config_.output_dim, config_.encoder_noise,
      HashBytes(payload.features.data(),
                payload.features.size() * sizeof(float)));
}

Result<EncoderSet> MakeSimEncoderSet(const World* world,
                                     const std::string& preset,
                                     uint32_t output_dim) {
  SimEncoderConfig config;
  config.output_dim = output_dim;
  bool aligned = true;
  if (preset == "sim-clip") {
    config.encoder_noise = 0.05f;
  } else if (preset == "sim-resnet-lstm") {
    config.encoder_noise = 0.12f;
    aligned = false;  // standalone unimodal encoders: distinct projections
  } else if (preset == "sim-perfect") {
    config.encoder_noise = 0.0f;
  } else {
    return Status::InvalidArgument("unknown encoder preset: " + preset);
  }

  std::vector<std::unique_ptr<ModalityEncoder>> encoders;
  const size_t num_m = world->num_modalities();
  for (size_t m = 0; m < num_m; ++m) {
    SimEncoderConfig c = config;
    if (!aligned) c.seed = config.seed + 1000 * (m + 1);
    if (m == 1) {
      encoders.push_back(std::make_unique<SimTextEncoder>(world, c));
    } else {
      const std::string name = m == 0 ? "sim-image" : "sim-audio";
      encoders.push_back(
          std::make_unique<SimFeatureEncoder>(world, c, m, name));
    }
  }
  return EncoderSet(std::move(encoders));
}

std::vector<std::string> SimEncoderPresets() {
  return {"sim-clip", "sim-resnet-lstm", "sim-perfect"};
}

}  // namespace mqa
