// Tests for plan validation and JSON round-tripping, and for the strictness
// of every reader of external JSON (all of which parse through util/json).
#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "obs/trace.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_io.h"
#include "serve/model_zoo.h"
#include "util/json.h"

namespace rannc {
namespace {

PartitionResult small_plan(SearchRequest& cfg) {
  BertConfig bc;
  bc.hidden = 128;
  bc.layers = 4;
  bc.seq_len = 32;
  bc.vocab = 256;
  cfg.batch_size = 64;
  BuiltModel m = build_bert(bc);
  return auto_partition(m.graph, cfg).plan;
}

TEST(ValidatePlan, AcceptsAutoPartitionOutput) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  EXPECT_TRUE(validate_plan(plan, cfg).empty());
}

TEST(ValidatePlan, DetectsMissingTask) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  plan.stages.back().tasks.pop_back();
  const auto v = validate_plan(plan, cfg);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().what.find("not assigned"), std::string::npos);
}

TEST(ValidatePlan, DetectsDoubleAssignment) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  if (plan.stages.size() < 2) GTEST_SKIP();
  plan.stages[1].tasks.push_back(plan.stages[0].tasks.front());
  const auto v = validate_plan(plan, cfg);
  ASSERT_FALSE(v.empty());
}

TEST(ValidatePlan, DetectsNonConvexStage) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  if (plan.stages.size() < 2) GTEST_SKIP();
  // Move the model's final task (the loss, which consumes last-stage
  // values) into the first stage: guarantees a backward-flowing value
  // and/or a non-convex stage.
  StagePlan& last = plan.stages.back();
  plan.stages.front().tasks.push_back(last.tasks.back());
  last.tasks.pop_back();
  std::sort(plan.stages.front().tasks.begin(), plan.stages.front().tasks.end());
  EXPECT_FALSE(validate_plan(plan, cfg).empty());
}

TEST(ValidatePlan, DetectsCutValueWithoutProducer) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  if (plan.stages.size() < 2) GTEST_SKIP();
  // Sever the producer link of an activation entering stage 1 in a private
  // copy of the graph: the cut-value existence check must notice that no
  // earlier stage can supply it.
  auto g = std::make_shared<TaskGraph>(*plan.graph);
  const CutValues cut = cut_values(*g, plan.stages[1].tasks);
  ValueId victim = -1;
  for (ValueId v : cut.inputs)
    if (g->value(v).kind == ValueKind::Intermediate) {
      victim = v;
      break;
    }
  ASSERT_NE(victim, -1);
  g->value_mut(victim).producer = kNoTask;
  plan.graph = g;
  const auto viol = validate_plan(plan, cfg);
  ASSERT_FALSE(viol.empty());
  bool found = false;
  for (const PlanViolation& v : viol)
    found |= v.what.find("has no producer") != std::string::npos;
  EXPECT_TRUE(found) << viol.front().what;
}

TEST(ValidatePlan, DetectsMemoryOverrun) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  plan.stages[0].mem = cfg.usable_memory() + 1;
  const auto v = validate_plan(plan, cfg);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().what.find("memory"), std::string::npos);
}

TEST(ValidatePlan, DetectsDeviceOversubscription) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  plan.stages[0].devices = cfg.cluster.total_devices() + 1;
  plan.stages[0].replicas_total = plan.stages[0].devices * plan.pipelines;
  EXPECT_FALSE(validate_plan(plan, cfg).empty());
}

TEST(ValidatePlan, RejectsInfeasibleAndGraphlessPlans) {
  SearchRequest cfg;
  PartitionResult empty;
  EXPECT_FALSE(validate_plan(empty, cfg).empty());
  empty.feasible = true;
  EXPECT_FALSE(validate_plan(empty, cfg).empty());  // no graph attached
}

TEST(PlanJson, RoundTripPreservesEverything) {
  SearchRequest cfg;
  PartitionResult plan = small_plan(cfg);
  ASSERT_TRUE(plan.feasible);
  const std::string json = plan_to_json(plan);
  PartitionResult restored = plan_from_json(json);

  EXPECT_EQ(restored.feasible, plan.feasible);
  EXPECT_EQ(restored.microbatches, plan.microbatches);
  EXPECT_EQ(restored.pipelines, plan.pipelines);
  EXPECT_EQ(restored.nodes_used, plan.nodes_used);
  EXPECT_DOUBLE_EQ(restored.est_iteration_time, plan.est_iteration_time);
  ASSERT_EQ(restored.stages.size(), plan.stages.size());
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    EXPECT_EQ(restored.stages[s].tasks, plan.stages[s].tasks);
    EXPECT_EQ(restored.stages[s].devices, plan.stages[s].devices);
    EXPECT_EQ(restored.stages[s].replicas_total, plan.stages[s].replicas_total);
    EXPECT_EQ(restored.stages[s].microbatch_size,
              plan.stages[s].microbatch_size);
    EXPECT_EQ(restored.stages[s].mem, plan.stages[s].mem);
    EXPECT_EQ(restored.stages[s].param_bytes, plan.stages[s].param_bytes);
  }
  // The restored plan revalidates after re-attaching the graph.
  restored.graph = plan.graph;
  EXPECT_TRUE(validate_plan(restored, cfg).empty());
}

TEST(PlanJson, RejectsMalformedInput) {
  EXPECT_THROW(plan_from_json("not json"), std::invalid_argument);
  EXPECT_THROW(plan_from_json("{\"version\": 2}"), std::invalid_argument);
  EXPECT_THROW(plan_from_json("{\"unknown_key\": 1}"), std::invalid_argument);
  EXPECT_THROW(plan_from_json("{\"stages\": [{\"bogus\": 1}]}"),
               std::invalid_argument);
}

TEST(PlanJson, EmptyStagesArray) {
  PartitionResult plan = plan_from_json(
      "{\"version\": 1, \"feasible\": false, \"stages\": []}");
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.stages.empty());
}

TEST(JsonReaders, RejectEveryMalformedInput) {
  // Each case is input from outside the program (rannc lint --plan, a
  // rannc serve request). Each must be rejected with
  // the documented std::invalid_argument: never read as a silently wrong
  // value, never escape as another exception type.
  const struct {
    const char* what;
    std::function<void()> read;
  } cases[] = {
      {"plan: trailing garbage",
       [] { (void)plan_from_json(R"({"version": 1} trailing)"); }},
      {"plan: microbatches beyond int",
       [] { (void)plan_from_json(R"({"microbatches": 1e12})"); }},
      {"plan: fractional task ids",
       [] { (void)plan_from_json(R"({"stages": [{"tasks": [1.5, 2.9]}]})"); }},
      {"plan: double overflow",
       [] { (void)plan_from_json(R"({"est_iteration_time": 1e999})"); }},
      {"json: geti of a fraction",
       [] { (void)json::parse(R"({"a": 1.5})").geti("a"); }},
      {"json: geti of an exponent",
       [] { (void)json::parse(R"({"a": 1e3})").geti("a"); }},
      {"json: double overflow", [] { (void)json::parse("1e999"); }},
      {"json: double underflow", [] { (void)json::parse("1e-400"); }},
      {"serve request: fractional layer count",
       [] {
         (void)serve::spec_from_json(
             json::parse(R"({"model": "mlp", "layers": 1e3})"));
       }},
  };
  for (const auto& c : cases) {
    try {
      c.read();
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.what << ": threw " << e.what()
                    << " instead of std::invalid_argument";
    }
  }

  // The documented exact round trip holds for every escape the writer
  // (obs::json_string) emits, read back through util/json.
  const std::string channel = "fwd\r\t\"0\"->1\\";
  const std::string doc = "{\"channel\": " + obs::json_string(channel) + "}";
  try {
    EXPECT_EQ(json::parse(doc).gets("channel"), channel);
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "round trip threw " << ex.what();
  }
}

// ---- util/json's writer: every document it writes reads back ---------------

TEST(JsonWriter, EveryControlByteQuoteAndBackslashRoundTrip) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\ plain";
  for (const json::Layout layout : {json::Layout::Pretty, json::Layout::Compact}) {
    json::Writer w(layout);
    w.begin_object().field(all, all).key("list").begin_array();
    for (const char c : all) w.value(std::string(1, c));
    w.end_array().end_object();
    const json::Value v = json::parse(w.str());
    EXPECT_EQ(v.gets(all), all);
    ASSERT_EQ(v.find("list")->items.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
      EXPECT_EQ(v.find("list")->items[i].str, std::string(1, all[i])) << i;
  }
  EXPECT_EQ(json::quote(std::string(1, '\x1f')), "\"\\u001f\"");
}

TEST(JsonWriter, DoublesRoundTripExactly) {
  const double cases[] = {0.1,
                          -0.0,
                          0.0,
                          1.0 / 3.0,
                          -2.5e-300,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          DBL_MAX,
                          -DBL_MAX};
  json::Writer w(json::Layout::Compact);
  w.begin_array();
  for (const double d : cases) w.value(d);
  w.end_array();
  const json::Value v = json::parse(w.str());
  ASSERT_EQ(v.items.size(), std::size(cases));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(std::memcmp(&v.items[i].number, &cases[i], sizeof(double)), 0)
        << json::number(cases[i]) << " read back as " << v.items[i].number;
  }
  EXPECT_EQ(json::number(0.1), "0.10000000000000001");
  EXPECT_EQ(json::number(-0.0), "-0");
  // Non-finite values are written as 0, never as bare inf/nan.
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonWriter, Int64ExtremesComeBackExact) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  json::Writer w;
  w.begin_object().field("lo", lo).field("hi", hi).end_object();
  const json::Value v = json::parse(w.str());
  EXPECT_EQ(v.find("lo")->as_int64(), lo);
  EXPECT_EQ(v.find("hi")->as_int64(), hi);
}

/// One document with empty and nested containers of every kind.
void write_nested(json::Writer& w) {
  w.begin_object()
      .key("empty_object")
      .begin_object()
      .end_object()
      .key("empty_array")
      .begin_array()
      .end_array()
      .key("nested")
      .begin_array()
      .begin_array()
      .end_array()
      .begin_object()
      .field("a", 1)
      .key("b")
      .begin_array()
      .value(true)
      .null()
      .value("s")
      .value(2.5)
      .end_array()
      .end_object()
      .end_array()
      .key("raw")
      .raw(R"({"x":[1,{}]})")
      .end_object();
}

/// Canonical re-serialization of a parsed value, for comparing documents.
std::string canonical(const json::Value& v) {
  json::Writer w(json::Layout::Compact);
  const std::function<void(const json::Value&)> put =
      [&](const json::Value& x) {
        switch (x.type) {
          case json::Value::Type::Null: w.null(); break;
          case json::Value::Type::Bool: w.value(x.boolean); break;
          case json::Value::Type::Number: w.raw(x.raw_number); break;
          case json::Value::Type::String: w.value(x.str); break;
          case json::Value::Type::Array:
            w.begin_array();
            for (const json::Value& item : x.items) put(item);
            w.end_array();
            break;
          case json::Value::Type::Object:
            w.begin_object();
            for (const auto& [k, m] : x.members) {
              w.key(k);
              put(m);
            }
            w.end_object();
            break;
        }
      };
  put(v);
  return w.str();
}

TEST(JsonWriter, EmptyAndNestedContainers) {
  json::Writer w(json::Layout::Compact);
  write_nested(w);
  EXPECT_EQ(w.str(),
            R"({"empty_object":{},"empty_array":[],"nested":[[],{"a":1,)"
            R"("b":[true,null,"s",2.5]}],"raw":{"x":[1,{}]}})");
  const json::Value v = json::parse(w.str());
  EXPECT_TRUE(v.find("empty_object")->is_object());
  EXPECT_TRUE(v.find("empty_object")->members.empty());
  EXPECT_TRUE(v.find("empty_array")->items.empty());
  EXPECT_EQ(v.find("nested")->items[1].find("b")->items.size(), 4u);
  EXPECT_EQ(canonical(v), w.str());
}

TEST(JsonWriter, PrettyAndCompactLayoutsParseEqual) {
  json::Writer pretty;
  json::Writer compact(json::Layout::Compact);
  write_nested(pretty);
  write_nested(compact);
  EXPECT_NE(pretty.str(), compact.str());
  EXPECT_EQ(pretty.str().back(), '\n');
  EXPECT_EQ(compact.str().find_first_of("\n "), std::string::npos);
  EXPECT_EQ(canonical(json::parse(pretty.str())),
            canonical(json::parse(compact.str())));
}

}  // namespace
}  // namespace rannc
