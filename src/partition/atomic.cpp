#include "partition/atomic.h"

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace rannc {

std::vector<char> find_non_constant_tasks(const TaskGraph& g) {
  // Forward sweep from the model inputs (paper Section III-A): a task is
  // non-constant iff it consumes a model input or the output of another
  // non-constant task. Insertion order is topological, so one pass suffices.
  std::vector<char> nc(g.num_tasks(), 0);
  for (const Task& t : g.tasks()) {
    for (ValueId in : t.inputs) {
      const Value& v = g.value(in);
      if (v.kind == ValueKind::Input ||
          (v.producer != kNoTask && nc[static_cast<std::size_t>(v.producer)])) {
        nc[static_cast<std::size_t>(t.id)] = 1;
        break;
      }
    }
  }
  return nc;
}

namespace {

/// Rebuilds the graph while cloning constant chains per target component.
class Rebuilder {
 public:
  Rebuilder(const TaskGraph& g, const std::vector<char>& nc)
      : old_(g), nc_(nc) {
    part_.graph = TaskGraph(g.name());
    // Shared (never cloned) values: inputs and params.
    shared_.assign(g.num_values(), -1);
    for (const Value& v : g.values()) {
      if (v.kind == ValueKind::Input)
        shared_[static_cast<std::size_t>(v.id)] =
            part_.graph.add_input(v.name, v.shape, v.dtype);
      else if (v.kind == ValueKind::Param)
        shared_[static_cast<std::size_t>(v.id)] =
            part_.graph.add_param(v.name, v.shape, v.dtype);
    }
  }

  AtomicPartition run() {
    for (const Task& t : old_.tasks()) {
      if (!nc_[static_cast<std::size_t>(t.id)]) continue;
      const int comp = static_cast<int>(part_.comps.size());
      part_.comps.emplace_back();
      AtomicComponent& c = part_.comps.back();
      std::vector<ValueId> new_inputs;
      new_inputs.reserve(t.inputs.size());
      for (ValueId in : t.inputs) new_inputs.push_back(materialize(in, comp));
      const Value& out = old_.value(t.output);
      ValueId new_out = part_.graph.add_task(t.name, t.kind,
                                             std::move(new_inputs), out.shape,
                                             out.dtype, t.attrs);
      const TaskId new_id = part_.graph.value(new_out).producer;
      record(new_id, t.id, comp);
      c.non_constant = new_id;
      shared_[static_cast<std::size_t>(t.output)] = new_out;
      if (out.is_output) part_.graph.mark_output(new_out);
    }
    // Defensive: constant chains that directly produce a model output (no
    // non-constant consumer) get their own component each.
    for (const Value& v : old_.values()) {
      if (!v.is_output || v.producer == kNoTask ||
          nc_[static_cast<std::size_t>(v.producer)])
        continue;
      const int comp = static_cast<int>(part_.comps.size());
      part_.comps.emplace_back();
      ValueId new_out = materialize(v.id, comp);
      part_.graph.mark_output(new_out);
    }
    part_.num_cloned_tasks = instantiations_ - distinct_instantiated_;
    return std::move(part_);
  }

 private:
  void record(TaskId new_id, TaskId old_id, int comp) {
    if (static_cast<std::size_t>(new_id) != part_.comp_of_task.size())
      throw std::logic_error("atomic rebuild: non-dense task ids");
    part_.comp_of_task.push_back(comp);
    part_.origin_task.push_back(old_id);
    part_.comps[static_cast<std::size_t>(comp)].tasks.push_back(new_id);
  }

  /// Returns the new value id for old value `v` as an input of component
  /// `comp`, cloning constant producer chains on demand.
  ValueId materialize(ValueId v, int comp) {
    if (shared_[static_cast<std::size_t>(v)] >= 0)
      return shared_[static_cast<std::size_t>(v)];
    const Value& val = old_.value(v);
    if (val.producer == kNoTask)
      throw std::logic_error("unmapped sourceless value: " + val.name);
    if (nc_[static_cast<std::size_t>(val.producer)])
      throw std::logic_error(
          "non-constant output requested before production: " + val.name);
    const auto key = std::make_pair(v, comp);
    if (auto it = clones_.find(key); it != clones_.end()) return it->second;
    const Task& c = old_.task(val.producer);
    std::vector<ValueId> new_inputs;
    new_inputs.reserve(c.inputs.size());
    for (ValueId in : c.inputs) new_inputs.push_back(materialize(in, comp));
    ValueId new_out = part_.graph.add_task(c.name, c.kind,
                                           std::move(new_inputs), val.shape,
                                           val.dtype, c.attrs);
    record(part_.graph.value(new_out).producer, c.id, comp);
    clones_.emplace(key, new_out);
    ++instantiations_;
    if (first_instantiation_.insert(c.id).second) ++distinct_instantiated_;
    return new_out;
  }

  const TaskGraph& old_;
  const std::vector<char>& nc_;
  AtomicPartition part_;
  std::vector<ValueId> shared_;                 // old value -> new value
  std::map<std::pair<ValueId, int>, ValueId> clones_;
  std::set<TaskId> first_instantiation_;
  std::size_t instantiations_ = 0;
  std::size_t distinct_instantiated_ = 0;
};

}  // namespace

AtomicPartition atomic_partition(const TaskGraph& g) {
  const std::vector<char> nc = find_non_constant_tasks(g);
  return Rebuilder(g, nc).run();
}

}  // namespace rannc
