#include "analysis/verifier.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "analysis/shape_inference.h"
#include "obs/trace.h"

namespace rannc {

namespace {

bool valid_value_id(const TaskGraph& g, ValueId v) {
  return v >= 0 && static_cast<std::size_t>(v) < g.num_values();
}

bool valid_task_id(const TaskGraph& g, TaskId t) {
  return t >= 0 && static_cast<std::size_t>(t) < g.num_tasks();
}

/// Phase A: id density and index ranges. Everything later depends on these.
void check_ids_and_ranges(const TaskGraph& g, std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < g.num_tasks(); ++i) {
    const Task& t = g.tasks()[i];
    if (t.id != static_cast<TaskId>(i))
      out.push_back({Severity::Error, DiagCode::TaskIdNotDense,
                     static_cast<TaskId>(i), -1,
                     "task at index " + std::to_string(i) + " carries id " +
                         std::to_string(t.id) +
                         "; ids must be dense insertion order"});
    if (!valid_value_id(g, t.output))
      out.push_back({Severity::Error, DiagCode::OutputIdOutOfRange, t.id, -1,
                     "task '" + t.name + "' output id " +
                         std::to_string(t.output) + " outside [0, " +
                         std::to_string(g.num_values()) + ")"});
    for (ValueId in : t.inputs)
      if (!valid_value_id(g, in))
        out.push_back({Severity::Error, DiagCode::InputIdOutOfRange, t.id, -1,
                       "task '" + t.name + "' consumes value id " +
                           std::to_string(in) + " outside [0, " +
                           std::to_string(g.num_values()) + ")"});
  }
  for (std::size_t i = 0; i < g.num_values(); ++i) {
    const Value& v = g.values()[i];
    if (v.id != static_cast<ValueId>(i))
      out.push_back({Severity::Error, DiagCode::ValueIdNotDense, -1,
                     static_cast<ValueId>(i),
                     "value at index " + std::to_string(i) + " carries id " +
                         std::to_string(v.id)});
    if (v.producer != kNoTask && !valid_task_id(g, v.producer))
      out.push_back({Severity::Error, DiagCode::DanglingProducer, -1, v.id,
                     "value '" + v.name + "' names producer task " +
                         std::to_string(v.producer) + " which does not exist"});
    for (TaskId c : v.consumers)
      if (!valid_task_id(g, c))
        out.push_back({Severity::Error, DiagCode::ConsumerLinkBroken, -1, v.id,
                       "value '" + v.name + "' lists consumer task " +
                           std::to_string(c) + " which does not exist"});
  }
}

/// Phase B: back-edge consistency, production uniqueness, def-before-use.
void check_links_and_order(const TaskGraph& g, std::vector<Diagnostic>& out) {
  // Production uniqueness + producer back-edges.
  std::vector<TaskId> producer_of(g.num_values(), kNoTask);
  for (const Task& t : g.tasks()) {
    TaskId& owner = producer_of[static_cast<std::size_t>(t.output)];
    if (owner != kNoTask)
      out.push_back({Severity::Error, DiagCode::MultiplyProducedValue, t.id,
                     t.output,
                     "value produced by both task " + std::to_string(owner) +
                         " and task " + std::to_string(t.id)});
    owner = t.id;
    const Value& ov = g.value(t.output);
    if (ov.producer != t.id)
      out.push_back({Severity::Error, DiagCode::ProducerLinkBroken, t.id,
                     t.output,
                     "task '" + t.name + "' produces value '" + ov.name +
                         "' but the value records producer " +
                         std::to_string(ov.producer)});
  }
  for (const Value& v : g.values()) {
    if (v.kind == ValueKind::Intermediate && v.producer == kNoTask)
      out.push_back({Severity::Error, DiagCode::OrphanIntermediate, -1, v.id,
                     "intermediate value '" + v.name + "' has no producer"});
    if (v.kind != ValueKind::Intermediate && v.producer != kNoTask)
      out.push_back({Severity::Error, DiagCode::ProducerLinkBroken,
                     v.producer, v.id,
                     "input/param value '" + v.name +
                         "' claims a producer task"});
    // Consumer entries must be mirrored by the task's input list.
    for (TaskId c : v.consumers) {
      const Task& ct = g.task(c);
      if (std::find(ct.inputs.begin(), ct.inputs.end(), v.id) ==
          ct.inputs.end())
        out.push_back({Severity::Error, DiagCode::ConsumerLinkBroken, c, v.id,
                       "value '" + v.name + "' lists consumer task '" +
                           ct.name + "' which does not read it"});
    }
  }
  // Def-before-use and missing consumer back-edges.
  for (const Task& t : g.tasks()) {
    for (ValueId in : t.inputs) {
      const Value& v = g.value(in);
      if (v.kind == ValueKind::Intermediate && v.producer != kNoTask &&
          v.producer >= t.id)
        out.push_back({Severity::Error, DiagCode::UseBeforeDef, t.id, in,
                       "task '" + t.name + "' consumes value '" + v.name +
                           "' produced by task " + std::to_string(v.producer) +
                           " (not before it)"});
      if (std::count(v.consumers.begin(), v.consumers.end(), t.id) <
          std::count(t.inputs.begin(), t.inputs.end(), in))
        out.push_back({Severity::Error, DiagCode::MissingConsumerBackEdge,
                       t.id, in,
                       "task '" + t.name + "' reads value '" + v.name +
                           "' but is missing from its consumer list"});
    }
  }
}

/// Phase C: global properties — a marked output exists, marked outputs are
/// reachable from the model inputs, and the task-level graph is acyclic.
void check_global(const TaskGraph& g, std::vector<Diagnostic>& out) {
  bool has_output = false;
  for (const Value& v : g.values()) has_output |= v.is_output;
  if (!g.tasks().empty() && !has_output)
    out.push_back({Severity::Error, DiagCode::NoMarkedOutput, -1, -1,
                   "graph has tasks but no marked output"});

  // Forward reachability from the model inputs through consumer edges.
  std::vector<char> value_reached(g.num_values(), 0);
  std::vector<char> task_reached(g.num_tasks(), 0);
  std::deque<ValueId> frontier;
  for (const Value& v : g.values())
    if (v.kind == ValueKind::Input) {
      value_reached[static_cast<std::size_t>(v.id)] = 1;
      frontier.push_back(v.id);
    }
  while (!frontier.empty()) {
    const Value& v = g.value(frontier.front());
    frontier.pop_front();
    for (TaskId c : v.consumers) {
      if (task_reached[static_cast<std::size_t>(c)]) continue;
      task_reached[static_cast<std::size_t>(c)] = 1;
      const ValueId o = g.task(c).output;
      if (!value_reached[static_cast<std::size_t>(o)]) {
        value_reached[static_cast<std::size_t>(o)] = 1;
        frontier.push_back(o);
      }
    }
  }
  for (const Value& v : g.values())
    if (v.is_output && !value_reached[static_cast<std::size_t>(v.id)])
      out.push_back({Severity::Error, DiagCode::OutputUnreachable, -1, v.id,
                     "marked output '" + v.name +
                         "' is not reachable from any model input"});

  // Kahn's algorithm over the task adjacency. With dense topological ids a
  // cycle implies a UseBeforeDef finding too, but the independent check
  // catches cycles introduced purely through back-edge corruption.
  std::vector<int> indeg(g.num_tasks(), 0);
  for (const Task& t : g.tasks())
    for (TaskId c : g.value(t.output).consumers)
      ++indeg[static_cast<std::size_t>(c)];
  std::deque<TaskId> ready;
  for (std::size_t t = 0; t < g.num_tasks(); ++t)
    if (indeg[t] == 0) ready.push_back(static_cast<TaskId>(t));
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop_front();
    ++emitted;
    for (TaskId c : g.value(g.task(t).output).consumers)
      if (--indeg[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
  }
  if (emitted != g.num_tasks())
    out.push_back({Severity::Error, DiagCode::GraphCycle, -1, -1,
                   "task adjacency contains a cycle (" +
                       std::to_string(g.num_tasks() - emitted) +
                       " tasks unschedulable)"});
}

}  // namespace

std::vector<Diagnostic> verify_graph(const TaskGraph& g) {
  std::vector<Diagnostic> out;
  check_ids_and_ranges(g, out);
  if (!out.empty()) return out;  // deeper checks would index garbage
  check_links_and_order(g, out);
  check_global(g, out);
  return out;
}

VerifiedGraph::VerifiedGraph(const TaskGraph& g) : g_(&g) {
  obs::Scope sc("verify");
  std::vector<Diagnostic> ds = verify_graph(g);
  if (!has_errors(ds)) {
    const std::vector<Diagnostic> shape_ds = infer_shapes(g);
    ds.insert(ds.end(), shape_ds.begin(), shape_ds.end());
  }
  if (has_errors(ds))
    throw std::logic_error("graph '" + g.name() + "' failed verification:\n" +
                           render(ds));
}

void verify_or_throw(const TaskGraph& g) { (void)VerifiedGraph(g); }

}  // namespace rannc
