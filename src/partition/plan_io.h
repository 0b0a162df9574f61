// Plan validation and (de)serialization.
//
// RaNNC is middleware: a partitioning decision is produced once and then
// deployed to the training processes. This module provides the two pieces a
// deployment needs — an independent validator that checks a plan against
// its graph (coverage, convexity, device budget, memory), and a JSON
// round-trip so plans can be persisted, diffed, and shipped.
#pragma once

#include <string>
#include <vector>

#include "partition/auto_partitioner.h"
#include "partition/search.h"

namespace rannc {

/// One violated invariant found by validate_plan.
struct PlanViolation {
  std::string what;
};

/// Checks a partition result against the graph it refers to:
///  * stages cover every task exactly once;
///  * every stage is convex (no pipeline deadlock);
///  * stages are topologically ordered (all cross-stage values flow
///    forward);
///  * every stage replica fits the device-memory budget;
///  * device accounting is consistent (replicas = devices * pipelines,
///    total devices within the cluster).
/// Returns the list of violations (empty = valid plan).
std::vector<PlanViolation> validate_plan(const PartitionResult& plan,
                                         const SearchRequest& req);

/// Serializes the plan (stage task lists, devices, replica counts,
/// microbatching, timings, memory) as a one-line Compact JSON document:
/// plans are read by machines (serve replies, the plan store, the search
/// benches' plan-identity checks).
std::string plan_to_json(const PartitionResult& plan);

/// Reads back the fields written by plan_to_json: stage task lists,
/// devices, microbatch size per stage, plus microbatches/pipelines/nodes
/// and the timing/memory annotations. Parses through util/json. Throws
/// std::invalid_argument on malformed input: bad syntax, trailing garbage,
/// unknown keys, mistyped fields, and integers that are fractional or out
/// of their field's range. The caller re-attaches the graph (it is not
/// embedded in the JSON).
PartitionResult plan_from_json(const std::string& text);

}  // namespace rannc
