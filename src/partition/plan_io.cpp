#include "partition/plan_io.h"

#include <stdexcept>
#include <utility>

#include "analysis/dataflow.h"
#include "graph/subgraph.h"
#include "util/json.h"

namespace rannc {

std::vector<PlanViolation> validate_plan(const PartitionResult& plan,
                                         const SearchRequest& req) {
  std::vector<PlanViolation> out;
  auto fail = [&out](std::string what) { out.push_back({std::move(what)}); };

  if (!plan.feasible) {
    fail("plan is marked infeasible");
    return out;
  }
  if (!plan.graph) {
    fail("plan has no graph attached");
    return out;
  }
  const TaskGraph& g = *plan.graph;

  // Coverage.
  std::vector<int> owner(g.num_tasks(), -1);
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    for (TaskId t : plan.stages[s].tasks) {
      if (t < 0 || static_cast<std::size_t>(t) >= g.num_tasks()) {
        fail("stage " + std::to_string(s) + " references unknown task " +
             std::to_string(t));
        continue;
      }
      if (owner[static_cast<std::size_t>(t)] != -1)
        fail("task " + std::to_string(t) + " assigned to stages " +
             std::to_string(owner[static_cast<std::size_t>(t)]) + " and " +
             std::to_string(s));
      owner[static_cast<std::size_t>(t)] = static_cast<int>(s);
    }
  }
  for (std::size_t t = 0; t < owner.size(); ++t)
    if (owner[t] == -1)
      fail("task " + std::to_string(t) + " not assigned to any stage");
  if (!out.empty()) return out;  // structural errors invalidate the rest

  // Convexity and forward flow, through the shared static-analysis queries
  // (src/analysis/dataflow.h) rather than a private traversal.
  const ReachabilityIndex reach(g);
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    if (!reach.convex(plan.stages[s].tasks))
      fail("stage " + std::to_string(s) + " is not convex");
  }
  for (const Value& v : g.values()) {
    if (v.producer == kNoTask) continue;
    for (TaskId c : v.consumers)
      if (owner[static_cast<std::size_t>(v.producer)] >
          owner[static_cast<std::size_t>(c)])
        fail("value " + v.name + " flows backwards between stages");
  }

  // Every cross-stage cut value must exist in the graph and actually be
  // available when its consuming stage runs: an activation entering stage s
  // must be produced by a strictly earlier stage (graph inputs are fed by
  // the runtime; parameters are resident on the owning device).
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const CutValues cut = cut_values(g, plan.stages[s].tasks);
    for (ValueId vid : cut.inputs) {
      if (vid < 0 || static_cast<std::size_t>(vid) >= g.num_values()) {
        fail("stage " + std::to_string(s) + " cut references value " +
             std::to_string(vid) + " which does not exist in the graph");
        continue;
      }
      const Value& v = g.value(vid);
      if (v.kind != ValueKind::Intermediate) continue;
      if (v.producer == kNoTask ||
          static_cast<std::size_t>(v.producer) >= g.num_tasks()) {
        fail("stage " + std::to_string(s) + " cut value '" + v.name +
             "' has no producer in the graph");
        continue;
      }
      if (owner[static_cast<std::size_t>(v.producer)] >=
          static_cast<int>(s))
        fail("stage " + std::to_string(s) + " consumes cut value '" + v.name +
             "' which no earlier stage produces");
    }
  }

  // Memory and device accounting.
  int devices_used = 0;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const StagePlan& sp = plan.stages[s];
    if (sp.mem > req.usable_memory())
      fail("stage " + std::to_string(s) + " exceeds the device memory budget");
    if (sp.devices < 1)
      fail("stage " + std::to_string(s) + " has no devices");
    if (sp.replicas_total != sp.devices * plan.pipelines)
      fail("stage " + std::to_string(s) + " replica accounting is wrong");
    devices_used += sp.devices;
  }
  if (devices_used * plan.pipelines > req.cluster.total_devices())
    fail("plan uses more devices than the cluster has");
  return out;
}

// ---- JSON writing -----------------------------------------------------------

std::string plan_to_json(const PartitionResult& plan) {
  json::Writer w(json::Layout::Compact);
  w.begin_object().field("version", 1).field("feasible", plan.feasible);
  w.field("microbatches", plan.microbatches).field("pipelines", plan.pipelines);
  w.field("nodes_used", plan.nodes_used);
  w.field("est_iteration_time", plan.est_iteration_time);
  w.key("stages").begin_array();
  for (const StagePlan& sp : plan.stages) {
    w.begin_object().field("devices", sp.devices);
    w.field("replicas_total", sp.replicas_total);
    w.field("microbatch_size", sp.microbatch_size);
    w.field("t_f", sp.t_f).field("t_b", sp.t_b).field("mem", sp.mem);
    w.field("param_bytes", sp.param_bytes);
    w.field("comm_out_bytes", sp.comm_out_bytes).key("tasks").begin_array();
    for (const TaskId t : sp.tasks) w.value(t);
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

// ---- JSON reading -----------------------------------------------------------

PartitionResult plan_from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  doc.check_keys({"version", "feasible", "microbatches", "pipelines",
                  "nodes_used", "est_iteration_time", "stages"},
                 "plan JSON");
  if (doc.geti("version", 1) != 1)
    throw std::invalid_argument("plan JSON: unsupported version");
  PartitionResult plan;
  plan.feasible = doc.getb("feasible", plan.feasible);
  plan.microbatches = doc.geti32("microbatches", plan.microbatches);
  plan.pipelines = doc.geti32("pipelines", plan.pipelines);
  plan.nodes_used = doc.geti32("nodes_used", plan.nodes_used);
  plan.est_iteration_time =
      doc.getd("est_iteration_time", plan.est_iteration_time);
  if (const json::Value* stages = doc.find("stages")) {
    if (!stages->is_array())
      throw std::invalid_argument("plan JSON: 'stages' is not an array");
    for (const json::Value& st : stages->items) {
      st.check_keys({"devices", "replicas_total", "microbatch_size", "t_f",
                     "t_b", "mem", "param_bytes", "comm_out_bytes", "tasks"},
                    "plan JSON stage");
      StagePlan sp;
      sp.devices = st.geti32("devices", sp.devices);
      sp.replicas_total = st.geti32("replicas_total", sp.replicas_total);
      sp.microbatch_size = st.geti("microbatch_size", sp.microbatch_size);
      sp.t_f = st.getd("t_f", sp.t_f);
      sp.t_b = st.getd("t_b", sp.t_b);
      sp.mem = st.geti("mem", sp.mem);
      sp.param_bytes = st.geti("param_bytes", sp.param_bytes);
      sp.comm_out_bytes = st.geti("comm_out_bytes", sp.comm_out_bytes);
      if (const json::Value* tasks = st.find("tasks")) {
        if (!tasks->is_array())
          throw std::invalid_argument("plan JSON: 'tasks' is not an array");
        for (const json::Value& t : tasks->items)
          sp.tasks.push_back(t.as_int());
      }
      plan.stages.push_back(std::move(sp));
    }
  }
  return plan;
}

}  // namespace rannc
