#include "analysis/dataflow.h"

#include <algorithm>
#include <deque>

namespace rannc {

std::vector<LiveInterval> liveness_intervals(const TaskGraph& g) {
  const auto last_step = static_cast<TaskId>(g.num_tasks()) - 1;
  std::vector<LiveInterval> out(g.num_values());
  for (const Value& v : g.values()) {
    LiveInterval& iv = out[static_cast<std::size_t>(v.id)];
    iv.start = v.producer == kNoTask ? 0 : v.producer;
    iv.end = -1;
    for (TaskId c : v.consumers) iv.end = std::max(iv.end, c);
    if (v.producer != kNoTask) iv.end = std::max(iv.end, v.producer);
    if (v.is_output) iv.end = last_step;
  }
  return out;
}

std::vector<char> dead_tasks(const TaskGraph& g) {
  // Backward sweep from the marked outputs through producer edges. Task ids
  // are topological, so one reverse pass settles transitive liveness.
  std::vector<char> live(g.num_tasks(), 0);
  for (const Value& v : g.values())
    if (v.is_output && v.producer != kNoTask)
      live[static_cast<std::size_t>(v.producer)] = 1;
  for (std::size_t i = g.num_tasks(); i-- > 0;) {
    if (!live[i]) continue;
    for (ValueId in : g.tasks()[i].inputs) {
      const TaskId p = g.value(in).producer;
      if (p != kNoTask) live[static_cast<std::size_t>(p)] = 1;
    }
  }
  std::vector<char> dead(g.num_tasks(), 0);
  for (std::size_t i = 0; i < g.num_tasks(); ++i) dead[i] = !live[i];
  return dead;
}

std::vector<Diagnostic> report_dead_tasks(const TaskGraph& g) {
  std::vector<Diagnostic> out;
  const std::vector<char> dead = dead_tasks(g);
  for (const Task& t : g.tasks())
    if (dead[static_cast<std::size_t>(t.id)])
      out.push_back({Severity::Warning, DiagCode::DeadTask, t.id, t.output,
                     "task '" + t.name +
                         "' cannot reach any marked output (dead code)"});
  return out;
}

std::int64_t peak_activation_bytes(const TaskGraph& g) {
  if (g.tasks().empty()) return 0;
  // Sweep the schedule with a delta array: +bytes at the producing step,
  // -bytes after the last step that needs the value.
  const std::size_t n = g.num_tasks();
  std::vector<std::int64_t> delta(n + 1, 0);
  const std::vector<LiveInterval> live = liveness_intervals(g);
  for (const Value& v : g.values()) {
    if (v.kind != ValueKind::Intermediate) continue;
    const LiveInterval& iv = live[static_cast<std::size_t>(v.id)];
    if (iv.end < 0) continue;  // produced but never needed: freed instantly
    delta[static_cast<std::size_t>(iv.start)] += v.bytes();
    delta[static_cast<std::size_t>(iv.end) + 1] -= v.bytes();
  }
  std::int64_t cur = 0, peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cur += delta[i];
    peak = std::max(peak, cur);
  }
  return peak;
}

ReachabilityIndex::ReachabilityIndex(const TaskGraph& g) : g_(&g), adj_(g) {}

bool ReachabilityIndex::reaches(TaskId from, TaskId to) const {
  if (from == to) return true;
  if (from > to) return false;  // ids are topological
  std::vector<char> visited(adj_.num_tasks(), 0);
  std::deque<TaskId> queue{from};
  visited[static_cast<std::size_t>(from)] = 1;
  while (!queue.empty()) {
    const TaskId cur = queue.front();
    queue.pop_front();
    for (TaskId s : adj_.succ(cur)) {
      if (s == to) return true;
      if (s < to && !visited[static_cast<std::size_t>(s)]) {
        visited[static_cast<std::size_t>(s)] = 1;
        queue.push_back(s);
      }
    }
  }
  return false;
}

bool ReachabilityIndex::convex(const std::vector<char>& member) const {
  return is_convex(adj_, member);
}

bool ReachabilityIndex::convex(const std::vector<TaskId>& tasks) const {
  std::vector<char> member(g_->num_tasks(), 0);
  for (TaskId t : tasks) member[static_cast<std::size_t>(t)] = 1;
  return is_convex(adj_, member);
}

}  // namespace rannc
