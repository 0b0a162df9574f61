// Tests for the serve subsystem: canonical fingerprints, the durable plan
// store (including its format-version contract), and PlanServer
// (single-flight, shedding, bit-identity of served plans).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "rannc.h"

namespace {

using namespace rannc;
using serve::Fingerprint;
using serve::ModelSpec;
using serve::PlanKey;
using serve::PlanServer;
using serve::PlanStore;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::StoredEntry;

// ---- helpers ---------------------------------------------------------------

/// Small search: MLP on 1 node x 2 devices solves in milliseconds.
SearchRequest small_cfg(std::int64_t batch = 16) {
  SearchRequest req;
  req.cluster.num_nodes = 1;
  req.cluster.devices_per_node = 2;
  req.batch_size = batch;
  return req;
}

ModelSpec mlp_spec() {
  ModelSpec s;
  s.model = "mlp";
  return s;
}

ServeRequest mlp_request(std::int64_t batch = 16) {
  ServeRequest r;
  r.model = mlp_spec();
  r.search = small_cfg(batch);
  return r;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() / ("rannc_serve_test_" + name);
  std::filesystem::remove_all(p);
  return p;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::filesystem::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

template <typename F>
bool eventually(F&& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Two independent elementwise branches joined by an Add — small enough to
/// mutate precisely, rich enough to exercise ordering and topology. Every
/// value has shape `shape` and dtype `dtype`.
TaskGraph two_branch(bool swap_task_insertion = false,
                     const std::string& tag = "", const Shape& shape = {4, 8},
                     DType dtype = DType::F32) {
  TaskGraph g("m" + tag);
  const ValueId a = g.add_input("a" + tag, shape, dtype);
  const ValueId b = g.add_input("b" + tag, shape, dtype);
  ValueId ra = -1, rb = -1;
  if (swap_task_insertion) {
    rb = g.add_task("t" + tag, OpKind::Tanh, {b}, shape, dtype);
    ra = g.add_task("r" + tag, OpKind::Relu, {a}, shape, dtype);
  } else {
    ra = g.add_task("r" + tag, OpKind::Relu, {a}, shape, dtype);
    rb = g.add_task("t" + tag, OpKind::Tanh, {b}, shape, dtype);
  }
  const ValueId s = g.add_task("s" + tag, OpKind::Add, {ra, rb}, shape, dtype);
  g.mark_output(s);
  return g;
}

// ---- json parser -----------------------------------------------------------

TEST(ServeJson, ParsesDocumentsAndPreservesInt64) {
  const json::Value v = json::parse(
      R"({"a": 9007199254740993, "b": -2.5e3, "s": "x\ny", "l": [1, true, null]})");
  EXPECT_EQ(v.geti("a"), 9007199254740993LL);  // exact beyond double
  EXPECT_DOUBLE_EQ(v.getd("b"), -2500.0);
  EXPECT_EQ(v.gets("s"), "x\ny");
  ASSERT_TRUE(v.find("l")->is_array());
  EXPECT_EQ(v.find("l")->items.size(), 3u);
  EXPECT_TRUE(v.find("l")->items[1].boolean);
  EXPECT_TRUE(v.find("l")->items[2].is_null());
}

TEST(ServeJson, RejectsGarbage) {
  EXPECT_THROW(json::parse("{"), std::invalid_argument);
  EXPECT_THROW(json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(json::parse("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW(json::parse("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(json::parse(std::string(70, '[')), std::invalid_argument);
  // Present-but-mistyped fields are diagnosed, absent ones default.
  const json::Value v = json::parse(R"({"a": "str"})");
  EXPECT_THROW((void)v.geti("a"), std::invalid_argument);
  EXPECT_EQ(v.geti("missing", 7), 7);
}

TEST(ServeJson, CompactStripsWhitespaceOutsideStrings) {
  EXPECT_EQ(json::compact("{ \"a b\" : [ 1 ,\n 2 ] }"), "{\"a b\":[1,2]}");
}

// ---- fingerprint -----------------------------------------------------------

TEST(Fingerprint, RebuiltGraphIsStable) {
  const Fingerprint f1 = serve::fingerprint_graph(build_mlp({}).graph);
  const Fingerprint f2 = serve::fingerprint_graph(build_mlp({}).graph);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1.hex().size(), 32u);
  EXPECT_EQ(serve::parse_fingerprint(f1.hex()), f1);
}

TEST(Fingerprint, ParseRejectsBadInput) {
  EXPECT_THROW(serve::parse_fingerprint("abc"), std::invalid_argument);
  EXPECT_THROW(serve::parse_fingerprint(std::string(32, 'g')),
               std::invalid_argument);
}

TEST(Fingerprint, NamesDoNotMatter) {
  EXPECT_EQ(serve::fingerprint_graph(two_branch(false, "")),
            serve::fingerprint_graph(two_branch(false, "_renamed")));
}

TEST(Fingerprint, InsertionOrderOfIndependentTasksDoesNotMatter) {
  EXPECT_EQ(serve::fingerprint_graph(two_branch(false)),
            serve::fingerprint_graph(two_branch(true)));
}

TEST(Fingerprint, RecordedIntermediateMetadataCannotSkew) {
  // The exact skew the ShapeMismatch/DTypeMismatch diagnostics catch:
  // builder-recorded intermediate metadata diverging from re-inference.
  // Such a graph is refused an identity rather than hashed.
  TaskGraph g1 = two_branch();
  g1.value_mut(g1.task(0).output).shape = Shape{3, 5, 7};
  EXPECT_THROW((void)serve::fingerprint_graph(g1), std::logic_error);
  TaskGraph g2 = two_branch();
  g2.value_mut(g2.task(0).output).dtype = DType::I64;
  EXPECT_THROW((void)serve::fingerprint_graph(g2), std::logic_error);
}

TEST(Fingerprint, SemanticMutationsChangeIt) {
  const Fingerprint clean = serve::fingerprint_graph(two_branch());

  {  // op kind
    TaskGraph g = two_branch();
    g.task_mut(0).kind = OpKind::Gelu;
    EXPECT_NE(serve::fingerprint_graph(g), clean);
  }
  // shape and dtype: the same graph built valid at another one
  EXPECT_NE(serve::fingerprint_graph(two_branch(false, "", Shape{4, 16})),
            clean);
  EXPECT_NE(serve::fingerprint_graph(
                two_branch(false, "", Shape{4, 8}, DType::F16)),
            clean);
  {  // attributes
    TaskGraph g = two_branch();
    g.task_mut(0).attrs.set("axis", std::int64_t{1});
    EXPECT_NE(serve::fingerprint_graph(g), clean);
    TaskGraph h = two_branch();
    h.task_mut(0).attrs.set("p", 0.5);
    EXPECT_NE(serve::fingerprint_graph(h), clean);
  }
  {  // edge rewire (back-edges kept consistent): Relu reads input b
    TaskGraph g = two_branch();
    const ValueId a = g.input_values()[0];
    const ValueId b = g.input_values()[1];
    g.task_mut(0).inputs[0] = b;
    g.value_mut(a).consumers.clear();
    g.value_mut(b).consumers.push_back(0);
    EXPECT_NE(serve::fingerprint_graph(g), clean);
  }
  {  // output marking
    TaskGraph g = two_branch();
    g.value_mut(g.task(0).output).is_output = true;
    EXPECT_NE(serve::fingerprint_graph(g), clean);
  }
}

TEST(Fingerprint, DistinctModelsDiffer) {
  const Fingerprint mlp = serve::fingerprint_graph(build_mlp({}).graph);
  MlpConfig narrow;
  narrow.input_dim = 32;
  EXPECT_NE(serve::fingerprint_graph(build_mlp(narrow).graph), mlp);
  BertConfig tiny;
  tiny.layers = 2;
  tiny.hidden = 64;
  tiny.heads = 2;
  tiny.seq_len = 32;
  tiny.vocab = 256;
  EXPECT_NE(serve::fingerprint_graph(build_bert(tiny).graph), mlp);
}

TEST(Fingerprint, MalformedGraphThrows) {
  TaskGraph g = two_branch();
  g.task_mut(1).id = 0;
  EXPECT_THROW(serve::fingerprint_graph(g), std::logic_error);
}

// ---- plan store ------------------------------------------------------------

class PlanStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fp_ = serve::fingerprint_graph(build_mlp({}).graph);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoredEntry entry() const {
    StoredEntry e;
    e.plan_json = "{\"version\": 1, \"fake\": \"plan\"}";
    return e;
  }

  std::filesystem::path dir_;
  Fingerprint fp_;
};

TEST_F(PlanStoreTest, SaveLoadRoundTrip) {
  PlanStore store(dir_);
  const PlanKey key = serve::make_plan_key(fp_, small_cfg());
  EXPECT_FALSE(store.load(key).has_value());
  ASSERT_TRUE(store.save(key, entry()));
  const auto got = store.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->plan_json, entry().plan_json);
  EXPECT_FALSE(got->infeasible);
  // Atomic write protocol leaves no temp droppings.
  for (const auto& de : std::filesystem::directory_iterator(dir_))
    EXPECT_EQ(de.path().extension(), ".json") << de.path();
}

TEST_F(PlanStoreTest, InfeasibleEntriesRoundTrip) {
  PlanStore store(dir_);
  const PlanKey key = serve::make_plan_key(fp_, small_cfg());
  StoredEntry e;
  e.infeasible = true;
  e.infeasible_reason = "does not fit";
  ASSERT_TRUE(store.save(key, e));
  const auto got = store.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->infeasible);
  EXPECT_EQ(got->infeasible_reason, "does not fit");
}

TEST_F(PlanStoreTest, CorruptionIsAMissNeverACrash) {
  PlanStore store(dir_);
  const PlanKey key = serve::make_plan_key(fp_, small_cfg());
  ASSERT_TRUE(store.save(key, entry()));
  const std::filesystem::path file = dir_ / key.filename();
  const std::string original = slurp(file);

  // Payload tampering: breaks the checksum.
  std::string tampered = original;
  const auto pos = tampered.find("fake");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = 'F';
  spit(file, tampered);
  EXPECT_FALSE(store.load(key).has_value());

  // Truncation: breaks the JSON.
  spit(file, original.substr(0, original.size() / 2));
  EXPECT_FALSE(store.load(key).has_value());

  // Not JSON at all.
  spit(file, "\x7f garbage \x01");
  EXPECT_FALSE(store.load(key).has_value());

  // Restored byte-exactly: loads again.
  spit(file, original);
  EXPECT_TRUE(store.load(key).has_value());
}

TEST_F(PlanStoreTest, FutureFormatVersionIsRejected) {
  PlanStore store(dir_);
  const PlanKey key = serve::make_plan_key(fp_, small_cfg());
  ASSERT_TRUE(store.save(key, entry()));
  const std::filesystem::path file = dir_ / key.filename();
  std::string text = slurp(file);
  const std::string want =
      "\"format_version\": " + std::to_string(PlanStore::kFormatVersion);
  const auto pos = text.find(want);
  ASSERT_NE(pos, std::string::npos);
  // The checksum covers only the payload, so this isolates the version
  // gate from the checksum gate.
  text.replace(pos, want.size(),
               "\"format_version\": " +
                   std::to_string(PlanStore::kFormatVersion + 1));
  spit(file, text);
  EXPECT_FALSE(store.load(key).has_value());
}

TEST_F(PlanStoreTest, FilenameCollisionGuardedByEchoedKey) {
  PlanStore store(dir_);
  const PlanKey key_a = serve::make_plan_key(fp_, small_cfg(16));
  const PlanKey key_b = serve::make_plan_key(fp_, small_cfg(32));
  ASSERT_TRUE(store.save(key_a, entry()));
  // Simulate a filename-hash collision: key A's entry sitting at key B's
  // path. The echoed geom_sig must reject it.
  std::filesystem::rename(dir_ / key_a.filename(), dir_ / key_b.filename());
  EXPECT_FALSE(store.load(key_b).has_value());
}

// ---- PlanServer ------------------------------------------------------------

TEST(PlanServerTest, MissThenHitAndPlanIsBitIdenticalToDirect) {
  PlanServer server(ServeOptions{});
  const ServeRequest req = mlp_request();

  const ServeResponse r1 = server.handle(req);
  ASSERT_EQ(r1.status, ServeResponse::Status::Miss) << r1.error;
  ASSERT_FALSE(r1.plan_json.empty());
  EXPECT_EQ(r1.fingerprint,
            serve::fingerprint_graph(build_mlp({}).graph).hex());

  const ServeResponse r2 = server.handle(req);
  EXPECT_EQ(r2.status, ServeResponse::Status::Hit);
  EXPECT_EQ(r2.plan_json, r1.plan_json);
  EXPECT_EQ(r2.key, r1.key);

  // Bit-identity against direct auto_partition at several thread counts.
  const BuiltModel m = serve::build_model(mlp_spec());
  for (int threads : {1, 2, 8}) {
    SearchRequest cfg = small_cfg();
    cfg.budget.threads = threads;
    EXPECT_EQ(plan_to_json(auto_partition(m.graph, cfg).plan), r1.plan_json)
        << "threads=" << threads;
  }

  const PlanServer::Stats s = server.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.searches, 1);
  EXPECT_EQ(s.errors, 0);
}

TEST(PlanServerTest, StatsJsonCarriesLatencyQuantiles) {
  PlanServer server(ServeOptions{});
  const ServeRequest req = mlp_request();
  ASSERT_EQ(server.handle(req).status, ServeResponse::Status::Miss);
  ASSERT_EQ(server.handle(req).status, ServeResponse::Status::Hit);

  // --metrics consumers read p50/p99 from the serve.* latency histograms;
  // the stats snapshot republishes them so `stats` over the wire carries
  // the same numbers.
  const json::Value v = json::parse(server.stats_json());
  const json::Value* hit = v.find("hit_latency_us");
  const json::Value* miss = v.find("miss_latency_us");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_GT(hit->getd("p50"), 0.0);
  EXPECT_GE(hit->getd("p99"), hit->getd("p50"));
  EXPECT_GT(miss->getd("p50"), 0.0);
  EXPECT_GE(miss->getd("p99"), miss->getd("p50"));
}

TEST(PlanServerTest, ColdThenSiblingMissVerifiesTheGraphOnce) {
  // The graph cache keeps each model's VerifiedGraph: a sibling geometry
  // misses the plan cache and searches again, but does not verify again.
  PlanServer server(ServeOptions{});
  ServeRequest sibling = mlp_request();
  sibling.search.cluster.devices_per_node = 4;
  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  const ServeResponse cold_resp = server.handle(mlp_request());
  const ServeResponse sibling_resp = server.handle(sibling);
  obs::set_recorder(nullptr);
  ASSERT_EQ(cold_resp.status, ServeResponse::Status::Miss) << cold_resp.error;
  ASSERT_EQ(sibling_resp.status, ServeResponse::Status::Miss)
      << sibling_resp.error;

  int verify = 0, searches = 0;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.ph != 'X') continue;
    verify += e.name == "verify";
    searches += e.name == "auto_partition";
  }
  EXPECT_EQ(searches, 2);
  EXPECT_EQ(verify, 1);
}

TEST(PlanServerTest, DiskWarmRestartHitsWithIdenticalPlan) {
  const auto dir = fresh_dir("restart");
  std::string first_plan;
  {
    ServeOptions o;
    o.store_dir = dir.string();
    PlanServer server(o);
    const ServeResponse r = server.handle(mlp_request());
    ASSERT_EQ(r.status, ServeResponse::Status::Miss) << r.error;
    first_plan = r.plan_json;
  }
  {
    ServeOptions o;
    o.store_dir = dir.string();
    PlanServer server(o);
    const ServeResponse r = server.handle(mlp_request());
    EXPECT_EQ(r.status, ServeResponse::Status::Hit);
    EXPECT_TRUE(r.from_disk);
    EXPECT_EQ(r.plan_json, first_plan);
    EXPECT_EQ(server.stats().disk_hits, 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanServerTest, VersionOneEntriesAreMissesThatTheNextSearchRewrites) {
  const auto dir = fresh_dir("v1_entry");
  ServeOptions o;
  o.store_dir = dir.string();
  std::string plan;
  std::filesystem::path file;
  {
    PlanServer server(o);
    const ServeResponse r = server.handle(mlp_request());
    ASSERT_EQ(r.status, ServeResponse::Status::Miss) << r.error;
    plan = r.plan_json;
    file = dir / (r.key + ".plan.json");
  }
  // Turn the entry into a well-formed version-1 one: version 1, a memo
  // payload, and the checksum version 1 computed over plan + '\n' + memo.
  const json::Value doc = json::parse(slurp(file));
  const std::string memo = "{\"version\": 1, \"entries\": []}";
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a, as the store hashes
  for (const unsigned char c : doc.gets("plan") + '\n' + memo) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx", static_cast<unsigned long long>(h));
  std::ostringstream v1;
  v1 << "{\"format_version\": 1, \"fingerprint\": "
     << obs::json_string(doc.gets("fingerprint"))
     << ", \"profile_sig\": " << obs::json_string(doc.gets("profile_sig"))
     << ", \"geom_sig\": " << obs::json_string(doc.gets("geom_sig"))
     << ", \"infeasible\": false, \"infeasible_reason\": \"\""
     << ", \"checksum\": \"" << sum << "\", \"plan\": "
     << obs::json_string(doc.gets("plan"))
     << ", \"memo\": " << obs::json_string(memo) << "}\n";
  spit(file, v1.str());
  {
    // The version-1 entry is a miss; the search rewrites it at the current
    // version with the same plan.
    PlanServer server(o);
    const ServeResponse r = server.handle(mlp_request());
    EXPECT_EQ(r.status, ServeResponse::Status::Miss);
    EXPECT_EQ(r.plan_json, plan);
    const json::Value now = json::parse(slurp(file));
    EXPECT_EQ(now.geti("format_version"), PlanStore::kFormatVersion);
    EXPECT_EQ(now.find("memo"), nullptr);
  }
  {
    PlanServer server(o);
    const ServeResponse r = server.handle(mlp_request());
    EXPECT_EQ(r.status, ServeResponse::Status::Hit);
    EXPECT_TRUE(r.from_disk);
    EXPECT_EQ(r.plan_json, plan);
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanServerTest, FingerprintKeyedHitAcrossSpecSpellings) {
  // Two different request spellings that build the same graph (the mlp
  // builder's default batch is 1): the plan cache is keyed by fingerprint,
  // not by request text, so the second is a hit.
  PlanServer server(ServeOptions{});
  ServeRequest a = mlp_request();
  ServeRequest b = mlp_request();
  b.model.batch = 1;
  ASSERT_NE(serve::canonical_sig(a.model), serve::canonical_sig(b.model));

  const ServeResponse ra = server.handle(a);
  ASSERT_EQ(ra.status, ServeResponse::Status::Miss) << ra.error;
  const ServeResponse rb = server.handle(b);
  EXPECT_EQ(rb.status, ServeResponse::Status::Hit);
  EXPECT_EQ(rb.fingerprint, ra.fingerprint);
  EXPECT_EQ(rb.plan_json, ra.plan_json);
}

TEST(PlanServerTest, InfeasibleResultsAreCachedToo) {
  PlanServer server(ServeOptions{});
  ServeRequest req = mlp_request();
  req.search.cluster.num_nodes = 1;
  req.search.cluster.devices_per_node = 1;
  // Small but positive: usable_memory() of 0 would disable the memory
  // check entirely, while ~1 KiB cannot hold even one MLP layer.
  req.search.cluster.device.memory_bytes = 1024;
  const ServeResponse r1 = server.handle(req);
  ASSERT_EQ(r1.status, ServeResponse::Status::Miss) << r1.error;
  EXPECT_TRUE(r1.infeasible);
  EXPECT_FALSE(r1.infeasible_reason.empty());
  const ServeResponse r2 = server.handle(req);
  EXPECT_EQ(r2.status, ServeResponse::Status::Hit);
  EXPECT_TRUE(r2.infeasible);
  EXPECT_EQ(server.stats().searches, 1);
}

TEST(PlanServerTest, UnknownModelIsAnErrorReplyNotACrash) {
  PlanServer server(ServeOptions{});
  ServeRequest req = mlp_request();
  req.model.model = "alexnet";
  const ServeResponse r = server.handle(req);
  EXPECT_EQ(r.status, ServeResponse::Status::Error);
  EXPECT_NE(r.error.find("alexnet"), std::string::npos);
  EXPECT_EQ(server.stats().errors, 1);
  // Errors are not cached: the server stays healthy for good requests.
  EXPECT_EQ(server.handle(mlp_request()).status,
            ServeResponse::Status::Miss);
}

TEST(PlanServerTest, ConcurrentDuplicatesCoalesceOntoOneSearch) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServeOptions o;
  o.search_fn = [gate](const VerifiedGraph& g, const SearchRequest& req) {
    gate.wait();  // hold the leader's search open
    return auto_partition(g, req);
  };
  PlanServer server(o);

  ServeResponse leader_resp, follower_resp;
  std::thread leader(
      [&] { leader_resp = server.handle(mlp_request()); });
  // The leader has registered in-flight by the time its search starts.
  ASSERT_TRUE(eventually([&] { return server.stats().searches == 1; }));
  std::thread follower(
      [&] { follower_resp = server.handle(mlp_request()); });
  ASSERT_TRUE(eventually([&] { return server.stats().coalesced == 1; }));
  release.set_value();
  leader.join();
  follower.join();

  ASSERT_EQ(leader_resp.status, ServeResponse::Status::Miss)
      << leader_resp.error;
  ASSERT_EQ(follower_resp.status, ServeResponse::Status::Miss)
      << follower_resp.error;
  EXPECT_FALSE(leader_resp.coalesced);
  EXPECT_TRUE(follower_resp.coalesced);
  EXPECT_FALSE(leader_resp.plan_json.empty());
  EXPECT_EQ(follower_resp.plan_json, leader_resp.plan_json);

  const PlanServer::Stats s = server.stats();
  EXPECT_EQ(s.searches, 1);  // single flight
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.coalesced, 1);
}

TEST(PlanServerTest, MissesBeyondTheQueueBoundAreShed) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ServeOptions o;
  o.max_queue = 1;
  o.search_fn = [gate](const VerifiedGraph& g, const SearchRequest& req) {
    gate.wait();
    return auto_partition(g, req);
  };
  PlanServer server(o);

  ServeResponse leader_resp;
  std::thread leader(
      [&] { leader_resp = server.handle(mlp_request(16)); });
  ASSERT_TRUE(eventually([&] { return server.stats().searches == 1; }));

  // A *different* key cannot coalesce; with the queue full it is shed
  // immediately instead of piling up behind the running search.
  const ServeResponse shed = server.handle(mlp_request(32));
  EXPECT_EQ(shed.status, ServeResponse::Status::Overloaded);
  EXPECT_TRUE(shed.plan_json.empty());

  release.set_value();
  leader.join();
  ASSERT_EQ(leader_resp.status, ServeResponse::Status::Miss)
      << leader_resp.error;
  EXPECT_EQ(server.stats().shed, 1);

  // Load gone: the same request now searches normally.
  EXPECT_EQ(server.handle(mlp_request(32)).status,
            ServeResponse::Status::Miss);
}

// ---- wire protocol ---------------------------------------------------------

TEST(ServeWire, RequestReplyRoundTrip) {
  PlanServer server(ServeOptions{});
  const std::string line =
      R"({"id": 7, "model": "mlp", "nodes": 1, "devices_per_node": 2, "batch_size": 16})";

  const auto r1 = server.serve_line(line);
  EXPECT_FALSE(r1.shutdown);
  const json::Value v1 = json::parse(r1.reply);
  EXPECT_EQ(v1.geti("id"), 7);
  EXPECT_EQ(v1.gets("status"), "miss");
  ASSERT_NE(v1.find("plan"), nullptr);
  EXPECT_TRUE(v1.find("plan")->is_object());
  EXPECT_EQ(v1.gets("fingerprint").size(), 32u);

  const auto r2 = server.serve_line(line);
  const json::Value v2 = json::parse(r2.reply);
  EXPECT_EQ(v2.gets("status"), "hit");

  const auto stats = server.serve_line(R"({"id": 8, "cmd": "stats"})");
  const json::Value vs = json::parse(stats.reply);
  EXPECT_EQ(vs.find("stats")->geti("hits"), 1);
  EXPECT_EQ(vs.find("stats")->geti("misses"), 1);

  const auto fp =
      server.serve_line(R"({"id": 9, "cmd": "fingerprint", "model": "mlp"})");
  EXPECT_EQ(json::parse(fp.reply).gets("fingerprint"),
            serve::fingerprint_graph(build_mlp({}).graph).hex());

  const auto bad = server.serve_line("this is not json");
  EXPECT_FALSE(bad.shutdown);
  EXPECT_EQ(json::parse(bad.reply).gets("status"), "error");

  // A thread count past kMaxThreads is refused by request
  // validation, before any pool is built. (A new geometry: a cached plan
  // would be a hit without searching. Just past the cap, so a broken
  // check costs this test 256 threads, not 2^31.)
  const json::Value many = json::parse(
      server
          .serve_line(R"({"id": 12, "model": "mlp", "nodes": 1, )"
                      R"("devices_per_node": 4, "threads": 257})")
          .reply);
  EXPECT_EQ(many.gets("status"), "error");
  EXPECT_NE(many.gets("error").find("budget.threads"), std::string::npos)
      << many.gets("error");

  const auto bye = server.serve_line(R"({"id": 10, "cmd": "shutdown"})");
  EXPECT_TRUE(bye.shutdown);
  EXPECT_EQ(json::parse(bye.reply).gets("status"), "ok");
}

TEST(ServeWire, UnknownKeyIsAnErrorNamingTheKey) {
  PlanServer server(ServeOptions{});
  // A misspelled field ("batchsize") and a retired one ("shards") must not
  // silently search at the defaults.
  for (const char* key : {"batchsize", "shards"}) {
    const std::string line =
        std::string(R"({"id": 11, "model": "mlp", "nodes": 1, ")") + key +
        R"(": 16})";
    const json::Value v = json::parse(server.serve_line(line).reply);
    EXPECT_EQ(v.geti("id"), 11);
    EXPECT_EQ(v.gets("status"), "error") << key;
    EXPECT_NE(v.gets("error").find(std::string("'") + key + "'"),
              std::string::npos)
        << v.gets("error");
  }
  EXPECT_EQ(server.stats().errors, 2);
  EXPECT_EQ(server.stats().misses, 0);
}

}  // namespace
