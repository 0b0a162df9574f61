#include "graph/subgraph.h"

#include <algorithm>
#include <deque>

namespace rannc {

TaskAdjacency::TaskAdjacency(const TaskGraph& g)
    : succ_(g.num_tasks()), pred_(g.num_tasks()) {
  for (const Task& t : g.tasks()) {
    const Value& out = g.value(t.output);
    for (TaskId c : out.consumers) {
      succ_[static_cast<std::size_t>(t.id)].push_back(c);
      pred_[static_cast<std::size_t>(c)].push_back(t.id);
    }
  }
  // Deduplicate multi-edges (a task may consume the same value twice).
  for (auto& v : succ_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : pred_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
}

bool SubGraph::contains(TaskId t) const {
  return std::binary_search(tasks.begin(), tasks.end(), t);
}

CutValues cut_values(const TaskGraph& g, const std::vector<char>& member) {
  CutValues cut;
  for (const Value& v : g.values()) {
    bool produced_inside =
        v.producer != kNoTask && member[static_cast<std::size_t>(v.producer)];
    bool consumed_inside = false;
    bool consumed_outside = false;
    for (TaskId c : v.consumers) {
      if (member[static_cast<std::size_t>(c)])
        consumed_inside = true;
      else
        consumed_outside = true;
    }
    if (!produced_inside && consumed_inside) cut.inputs.push_back(v.id);
    if (produced_inside && (consumed_outside || v.is_output))
      cut.outputs.push_back(v.id);
  }
  return cut;
}

CutValues cut_values(const TaskGraph& g, const std::vector<TaskId>& tasks) {
  std::vector<char> member(g.num_tasks(), 0);
  for (TaskId t : tasks) member[static_cast<std::size_t>(t)] = 1;
  return cut_values(g, member);
}

bool is_convex(const TaskAdjacency& adj, const std::vector<char>& member) {
  // BFS from every boundary-exit node, staying outside the set. If we can
  // re-enter the set, there is a path alpha -> gamma -> beta with gamma
  // outside: not convex. Visited marks make the total cost O(V + E).
  const std::size_t n = adj.num_tasks();
  std::vector<char> visited(n, 0);
  std::deque<TaskId> queue;
  for (std::size_t t = 0; t < n; ++t) {
    if (!member[t]) continue;
    for (TaskId s : adj.succ(static_cast<TaskId>(t))) {
      if (!member[static_cast<std::size_t>(s)] &&
          !visited[static_cast<std::size_t>(s)]) {
        visited[static_cast<std::size_t>(s)] = 1;
        queue.push_back(s);
      }
    }
  }
  while (!queue.empty()) {
    TaskId cur = queue.front();
    queue.pop_front();
    for (TaskId s : adj.succ(cur)) {
      auto si = static_cast<std::size_t>(s);
      if (member[si]) return false;  // re-entered the set
      if (!visited[si]) {
        visited[si] = 1;
        queue.push_back(s);
      }
    }
  }
  return true;
}

bool is_convex(const TaskGraph& g, const std::vector<TaskId>& tasks) {
  TaskAdjacency adj(g);
  std::vector<char> member(g.num_tasks(), 0);
  for (TaskId t : tasks) member[static_cast<std::size_t>(t)] = 1;
  return is_convex(adj, member);
}

}  // namespace rannc
