#include "vector/vector_store.h"

#include <cstring>
#include <istream>
#include <ostream>

namespace mqa {

namespace {

constexpr uint32_t kStoreMagic = 0x4d514156;  // "MQAV"
/// Widest row the format accepts, in floats (16 MiB). A header naming a
/// wider row is corrupt: Load would size a row from it before reading any.
constexpr uint64_t kMaxRowFloats = uint64_t{1} << 22;

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Result<uint32_t> VectorStore::Add(const Vector& flat) {
  if (flat.size() != row_dim()) {
    return Status::InvalidArgument("vector length does not match schema");
  }
  flat_.resize((count_ + 1) * stride_, 0.0f);
  std::memcpy(flat_.data() + count_ * stride_, flat.data(),
              flat.size() * sizeof(float));
  return static_cast<uint32_t>(count_++);
}

Result<uint32_t> VectorStore::AddMultiVector(const MultiVector& mv) {
  MQA_ASSIGN_OR_RETURN(Vector flat, FlattenMultiVector(schema_, mv));
  return Add(flat);
}

Status VectorStore::Save(std::ostream& out) const {
  WritePod(out, kStoreMagic);
  const uint32_t num_m = static_cast<uint32_t>(schema_.num_modalities());
  WritePod(out, num_m);
  for (uint32_t d : schema_.dims) WritePod(out, d);
  const uint64_t n = count_;
  WritePod(out, n);
  // Logical rows only: the on-disk format has no padding, so snapshots are
  // identical to those written by the unpadded layout.
  for (size_t i = 0; i < count_; ++i) {
    out.write(reinterpret_cast<const char*>(flat_.data() + i * stride_),
              static_cast<std::streamsize>(row_dim() * sizeof(float)));
  }
  if (!out) return Status::IoError("failed to write vector store");
  return Status::OK();
}

Result<VectorStore> VectorStore::Load(std::istream& in) {
  uint32_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kStoreMagic) {
    return Status::IoError("bad vector store header");
  }
  uint32_t num_m = 0;
  if (!ReadPod(in, &num_m) || num_m == 0 || num_m > 64) {
    return Status::IoError("bad modality count");
  }
  VectorSchema schema;
  schema.dims.resize(num_m);
  uint64_t row_floats = 0;
  for (auto& d : schema.dims) {
    if (!ReadPod(in, &d)) return Status::IoError("truncated schema");
    // A zero dim reads zero bytes per row, so no row count would ever
    // meet the truncation check below.
    if (d == 0) return Status::IoError("zero modality dimension");
    row_floats += d;
  }
  if (row_floats > kMaxRowFloats) {
    return Status::IoError("row wider than the format allows");
  }
  uint64_t n = 0;
  if (!ReadPod(in, &n)) return Status::IoError("truncated row count");
  if (n > UINT32_MAX) return Status::IoError("row count exceeds the id range");
  VectorStore store(schema);
  // The buffer grows row by row as rows arrive, so a corrupt count meets
  // the truncation check instead of one allocation of its size.
  for (uint64_t i = 0; i < n; ++i) {
    store.flat_.resize((i + 1) * store.stride_, 0.0f);
    in.read(reinterpret_cast<char*>(store.flat_.data() + i * store.stride_),
            static_cast<std::streamsize>(store.row_dim() * sizeof(float)));
    if (!in) return Status::IoError("truncated vector data");
  }
  store.count_ = n;
  return store;
}

}  // namespace mqa
