#include "obs/critpath.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rannc {
namespace obs {

namespace {

/// Deterministic ordering used for every tie-break: stage asc, forward
/// before backward, microbatch asc.
bool op_before(const CausalOp& a, const CausalOp& b) {
  if (a.stage != b.stage) return a.stage < b.stage;
  if (a.backward != b.backward) return !a.backward;
  return a.microbatch < b.microbatch;
}

}  // namespace

double fit_residual(double total, double partial) {
  if (!std::isfinite(total) || !std::isfinite(partial))
    throw std::logic_error("fit_residual: non-finite input");
  double r = total - partial;
  for (int i = 0; i < 64; ++i) {
    const double got = partial + r;
    if (got == total) return r;
    r = std::nextafter(r, got < total
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
  }
  throw std::logic_error("fit_residual: no representable residual");
}

CriticalPath critical_path(const std::vector<CausalOp>& ops, int num_stages) {
  CriticalPath path;
  if (num_stages < 0) num_stages = 0;
  path.compute_by_stage.assign(static_cast<std::size_t>(num_stages), 0.0);
  if (ops.empty()) return path;

  // Terminal op: latest end; ties resolved by the canonical op order.
  std::size_t cur = 0;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    if (ops[i].end > ops[cur].end ||
        (ops[i].end == ops[cur].end && op_before(ops[i], ops[cur])))
      cur = i;
  }
  path.makespan = ops[cur].end;
  path.terminal_stage = ops[cur].stage;

  // Backward walk. Each iteration either stops or moves strictly earlier
  // in time, but guard against malformed inputs anyway.
  std::vector<PathSegment> rev;
  for (std::size_t guard = 0; guard <= ops.size(); ++guard) {
    const CausalOp& o = ops[cur];
    rev.push_back({o.stage, o.microbatch, o.backward, o.start, o.end});

    // Which constraint released this op? Prefer the data edge on ties.
    const bool data_binds = o.dep_stage >= 0 && o.data_ready >= o.resource_ready;
    if (data_binds) {
      // Find the producing op.
      std::size_t prod = ops.size();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const CausalOp& p = ops[i];
        if (p.stage == o.dep_stage && p.microbatch == o.dep_microbatch &&
            p.backward == o.dep_backward) {
          prod = i;
          break;
        }
      }
      if (prod == ops.size()) break;  // dangling edge: path starts here
      cur = prod;
      continue;
    }
    if (o.resource_ready <= 0) break;  // stage idle since t=0: path start
    // Resource edge: the op on the same stage that ended exactly when this
    // one became schedulable (deterministic pick on exact-end ties).
    std::size_t prev = ops.size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CausalOp& p = ops[i];
      if (i == cur || p.stage != o.stage || p.end != o.resource_ready)
        continue;
      if (prev == ops.size() || op_before(p, ops[prev])) prev = i;
    }
    if (prev == ops.size()) break;  // no producer recorded: path starts here
    cur = prev;
  }

  std::reverse(rev.begin(), rev.end());
  path.segments = std::move(rev);

  // Exact per-stage sums, accumulated in path (time) order.
  std::vector<ExactSum> per_stage(static_cast<std::size_t>(num_stages));
  ExactSum compute_total;
  for (const PathSegment& s : path.segments) {
    const double d = s.end - s.start;
    compute_total.add(d);
    if (s.stage >= 0 && s.stage < num_stages)
      per_stage[static_cast<std::size_t>(s.stage)].add(d);
  }
  for (std::size_t s = 0; s < per_stage.size(); ++s)
    path.compute_by_stage[s] = per_stage[s].value();
  path.compute_total = compute_total.value();
  return path;
}

}  // namespace obs
}  // namespace rannc
