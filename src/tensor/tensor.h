// Dense float32 tensor for the CPU execution runtime.
//
// This is the substrate that stands in for libtorch's CUDA tensors: the
// runtime executes RaNNC-partitioned task graphs on CPU threads at laptop
// scale, which is what lets the test suite verify end-to-end that a
// partitioned pipeline computes the same losses/gradients as unpartitioned
// execution (the paper's loss-parity validation, Section IV-B).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"

namespace rannc {

/// Contiguous row-major float32 tensor with shared ownership of storage.
/// Copies are shallow; use `clone` for a deep copy.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// Uniform random in [-scale, scale] from a deterministic per-call RNG.
  static Tensor uniform(Shape shape, float scale, std::uint64_t seed);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] bool defined() const { return data_ != nullptr; }
  /// True when another Tensor aliases this buffer. The optimizer uses this
  /// for copy-on-write updates: a shared buffer is left untouched and the
  /// update lands in a fresh arena slab.
  [[nodiscard]] bool is_shared() const { return data_.use_count() > 1; }

  [[nodiscard]] float* data() { return data_.get(); }
  [[nodiscard]] const float* data() const { return data_.get(); }
  float& at(std::int64_t i) { return data_.get()[i]; }
  [[nodiscard]] float at(std::int64_t i) const { return data_.get()[i]; }

  [[nodiscard]] Tensor clone() const;
  /// Reinterprets the buffer with a new shape of equal numel (shares data).
  [[nodiscard]] Tensor reshaped(Shape shape) const;

  void fill(float v);
  void add_(const Tensor& other);        ///< elementwise in-place +=
  void scale_(float s);

  [[nodiscard]] float sum() const;
  [[nodiscard]] float max_abs() const;

 private:
  Shape shape_;
  std::shared_ptr<float[]> data_;
};

/// Maximum elementwise |a - b|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace rannc
