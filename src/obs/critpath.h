// Critical-path engine over causal operation records.
//
// The GPipe simulator in `src/pipeline` records every scheduled op with
// the two constraints that could have released it — the owning stage
// becoming free (`resource_ready`) and the cross-stage data dependency
// arriving (`data_ready`, the producer's end; boundary communication is
// inside each stage's compute time, as in the paper's h()). Those records
// form a causal DAG, and this header walks it backwards from the op that
// ends at the makespan to recover the *exact* virtual-time critical path:
// a chain of compute segments that tiles [path start, makespan] with no
// gaps (in that simulator every op starts exactly when its binding
// constraint releases it).
//
// Everything here is plain arithmetic over deterministic virtual-time
// inputs, so the output is bit-identical across runs and thread counts.
// `src/obs` sits at the bottom of the library stack; the op record is
// defined here and `src/pipeline` produces it directly.
#pragma once

#include <cmath>
#include <string>
#include <vector>

namespace rannc {
namespace obs {

/// One scheduled operation plus its causal-edge annotations.
struct CausalOp {
  int stage = 0;
  int microbatch = 0;
  bool backward = false;
  double start = 0;  ///< virtual seconds
  double end = 0;
  /// When the owning stage finished its previous op (0 = stage was idle
  /// since t=0).
  double resource_ready = 0;
  /// When the cross-stage input arrived (the producer's end). Meaningful
  /// only when dep_stage >= 0.
  double data_ready = 0;
  /// Producing op of the data edge; dep_stage < 0 = no cross-stage input.
  int dep_stage = -1;
  int dep_microbatch = -1;
  bool dep_backward = false;
};

/// One op on the critical path, in time order.
struct PathSegment {
  int stage = 0;
  int microbatch = 0;
  bool backward = false;
  double start = 0;
  double end = 0;
};

/// The exact critical path of a simulated schedule.
struct CriticalPath {
  double makespan = 0;
  int terminal_stage = -1;  ///< stage whose op ends at the makespan
  std::vector<PathSegment> segments;  ///< earliest first
  /// Exact (compensated) per-stage compute seconds on the path.
  std::vector<double> compute_by_stage;
  double compute_total = 0;
};

/// Walks the causal DAG backwards from the op ending at the makespan
/// (ties: lowest stage, forwards before backwards, lowest microbatch)
/// and returns the critical path. Ties between the resource and data
/// constraints prefer the data edge — deterministic and documented, so
/// reports are stable. Ops may be in any order; an empty input yields an
/// empty path.
CriticalPath critical_path(const std::vector<CausalOp>& ops, int num_stages);

// ---- exact-summation helpers shared with the attribution layer ------------

/// Neumaier-compensated accumulator: exact enough that bucket sums are
/// reproducible to the last ulp regardless of accumulation order chosen
/// here (the order itself is also fixed).
class ExactSum {
 public:
  void add(double x) {
    const double t = s_ + x;
    if (std::abs(s_) >= std::abs(x))
      c_ += (s_ - t) + x;
    else
      c_ += (x - t) + s_;
    s_ = t;
  }
  [[nodiscard]] double value() const { return s_ + c_; }

 private:
  double s_ = 0;
  double c_ = 0;
};

/// Returns the residual r such that `partial + r == total` holds *bit
/// exactly* in double arithmetic: starts from total - partial and nudges
/// by ulps (bounded; throws std::logic_error if 64 steps do not land,
/// which would indicate corrupted inputs, not round-off).
double fit_residual(double total, double partial);

}  // namespace obs
}  // namespace rannc
