// Umbrella entry point for the static-analysis layer: one call that runs
// the structural verifier, the shape/dtype re-inference pass and the
// dataflow checks in dependency order. `rannc lint` and the test
// suite go through this; callers needing a single pass include the
// specific header instead.
#pragma once

#include <vector>

#include "analysis/dataflow.h"
#include "analysis/diagnostics.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"

namespace rannc {

/// Full lint: structural verification first; shape re-inference and
/// dead-task detection only when the structure is sound (they index the
/// graph freely and would crash on a malformed one).
std::vector<Diagnostic> lint_graph(const TaskGraph& g);

}  // namespace rannc
