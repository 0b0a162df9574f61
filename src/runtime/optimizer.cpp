#include "runtime/optimizer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "tensor/kernels_blocked.h"
#include "tensor/ops.h"

namespace rannc {

namespace {

/// Picks the output buffer for a copy-on-write update of `t`: in place when
/// the buffer is exclusively owned, a fresh tensor otherwise. `apply` runs
/// the same arithmetic either way, then `commit` repoints the map entry.
struct CowSlot {
  Tensor fresh;   // defined only when the update is out of place
  float* out;

  explicit CowSlot(Tensor& t) {
    if (t.is_shared()) {
      fresh = Tensor(t.shape());
      out = fresh.data();
    } else {
      out = t.data();
    }
  }
  void commit(Tensor& t) {
    if (fresh.defined()) t = std::move(fresh);
  }
};

}  // namespace

void Optimizer::step(TensorMap& params, const TensorMap& grads) {
  ++t_;
  order_.clear();
  order_.reserve(grads.size());
  for (const auto& [v, g] : grads)
    if (params.count(v)) order_.push_back(v);
  std::sort(order_.begin(), order_.end());

  for (ValueId v : order_) {
    Tensor& p = params.at(v);
    const Tensor& g = grads.at(v);
    const float* G = g.data();
    const std::int64_t n = p.numel();
    switch (cfg_.kind) {
      case OptimizerConfig::Kind::SGD: {
        CowSlot ps(p);
        const float* P = p.data();
        float* PO = ps.out;
        for (std::int64_t i = 0; i < n; ++i) PO[i] = P[i] - cfg_.lr * G[i];
        ps.commit(p);
        break;
      }
      case OptimizerConfig::Kind::Adam: {
        auto it = state_.find(v);
        if (it == state_.end())
          it = state_.emplace(v, ParamOptState{Tensor(p.shape(), 0.0f),
                                              Tensor(p.shape(), 0.0f)}).first;
        CowSlot ms(it->second.m), vs(it->second.v), ps(p);
        const float* M = it->second.m.data();
        const float* V = it->second.v.data();
        const float* P = p.data();
        float* MO = ms.out;
        float* VO = vs.out;
        float* PO = ps.out;
        const auto bc1 = static_cast<float>(
            1.0 - std::pow(cfg_.beta1, static_cast<double>(t_)));
        const auto bc2 = static_cast<float>(
            1.0 - std::pow(cfg_.beta2, static_cast<double>(t_)));
        if (!naive_kernels()) {
          // Fused vector kernel; bit-identical to the reference loop below.
          detail::blocked_adam_step(P, G, M, V, PO, MO, VO, n, cfg_.lr,
                                    cfg_.beta1, cfg_.beta2, cfg_.eps, bc1, bc2,
                                    kernel_pool());
        } else {
          for (std::int64_t i = 0; i < n; ++i) {
            MO[i] = cfg_.beta1 * M[i] + (1 - cfg_.beta1) * G[i];
            VO[i] = cfg_.beta2 * V[i] + (1 - cfg_.beta2) * G[i] * G[i];
            const float mhat = MO[i] / bc1;
            const float vhat = VO[i] / bc2;
            PO[i] = P[i] - cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
          }
        }
        ms.commit(it->second.m);
        vs.commit(it->second.v);
        ps.commit(p);
        break;
      }
    }
  }
}

}  // namespace rannc
