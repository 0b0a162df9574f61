// Structural verifier over TaskGraph (the IR well-formedness contract).
//
// The partitioner's three phases assume the graph invariants that the
// builder API establishes by construction: dense topological task/value
// ids, consistent producer/consumer back-edges, def-before-use, acyclicity,
// no dangling or multiply-produced values, and outputs reachable from the
// model inputs. Graphs can also arrive from places the builder does not
// protect (deserialized plans, test corruption, future importers), so the
// verifier re-checks everything from first principles and never trusts an
// index before bounds-checking it.
#pragma once

#include <vector>

#include "analysis/diagnostics.h"
#include "graph/task_graph.h"

namespace rannc {

/// Runs every structural check and returns all findings (empty = well
/// formed). Checks are staged: when id/range sanity fails, the dependent
/// link/order/reachability checks are skipped (they would index garbage),
/// so a corrupted graph yields its root-cause diagnostic rather than a
/// cascade.
std::vector<Diagnostic> verify_graph(const TaskGraph& g);

/// A graph that passed verify_graph and shape re-inference
/// (analysis/shape_inference.h): well formed, and every recorded shape and
/// dtype is the one its inputs imply. auto_partition and
/// serve::fingerprint_graph take one, so a caller that keeps it (the plan
/// server) verifies each graph once, however many searches it serves.
///
/// Holds a non-owning pointer: the graph must outlive this object and stay
/// unmodified. The converting constructor is implicit so that passing a
/// TaskGraph to those consumers verifies it on the way in.
class VerifiedGraph {
 public:
  /// Runs both checks inside an obs "verify" span; throws std::logic_error
  /// listing every diagnostic when either reports an error.
  VerifiedGraph(const TaskGraph& g);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] const TaskGraph& graph() const { return *g_; }

 private:
  const TaskGraph* g_;
};

/// The check alone: throws as VerifiedGraph's constructor does.
void verify_or_throw(const TaskGraph& g);

}  // namespace rannc
