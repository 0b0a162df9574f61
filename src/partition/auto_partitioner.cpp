#include "partition/auto_partitioner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/atomic.h"
#include "partition/plan_eval.h"
#include "partition/search.h"
#include "util/thread_pool.h"

namespace rannc {

namespace {

/// A topologically-ordered sequence of units (blocks or atomic components)
/// with prefix-summed costs, so any consecutive range can be profiled in
/// O(1) after an O(T) per-batch-size precomputation (build_tables). This
/// plays the role of the paper's memoized `profile` procedure in
/// Algorithm 1.
class UnitSequence {
 public:
  UnitSequence(const AtomicPartition& ap, const GraphProfiler& prof,
               std::vector<std::vector<TaskId>> unit_tasks, bool standalone)
      : graph_(&ap.graph), prof_(&prof), units_(std::move(unit_tasks)),
        standalone_(standalone) {
    const int n = static_cast<int>(units_.size());
    pact_.assign(static_cast<std::size_t>(n) + 1, 0);
    pparams_.assign(static_cast<std::size_t>(n) + 1, 0);
    pnparams_.assign(static_cast<std::size_t>(n) + 1, 0);
    std::vector<int> unit_of_task(graph_->num_tasks(), -1);
    for (int u = 0; u < n; ++u) {
      double act = 0;
      std::int64_t pb = 0, np = 0;
      for (TaskId t : units_[static_cast<std::size_t>(u)]) {
        unit_of_task[static_cast<std::size_t>(t)] = u;
        act += static_cast<double>(
            graph_->value(graph_->task(t).output).bytes());
        for (ValueId in : graph_->task(t).inputs) {
          const Value& v = graph_->value(in);
          if (v.kind == ValueKind::Param) {
            pb += v.bytes();
            np += v.shape.numel();
          }
        }
      }
      pact_[static_cast<std::size_t>(u) + 1] =
          pact_[static_cast<std::size_t>(u)] + act;
      pparams_[static_cast<std::size_t>(u) + 1] =
          pparams_[static_cast<std::size_t>(u)] + pb;
      pnparams_[static_cast<std::size_t>(u) + 1] =
          pnparams_[static_cast<std::size_t>(u)] + np;
    }
    // cross_[b]: activation bytes (batch 1, fp32) crossing the boundary
    // between unit b-1 and unit b, i.e. cut by a split at position b.
    std::vector<double> diff(static_cast<std::size_t>(n) + 2, 0);
    for (const Value& v : graph_->values()) {
      if (v.producer == kNoTask) continue;
      const int pu = unit_of_task[static_cast<std::size_t>(v.producer)];
      if (pu < 0) continue;
      int maxc = pu;
      for (TaskId c : v.consumers) {
        const int cu = unit_of_task[static_cast<std::size_t>(c)];
        maxc = std::max(maxc, cu);
      }
      if (maxc > pu) {
        diff[static_cast<std::size_t>(pu) + 1] += static_cast<double>(v.bytes());
        diff[static_cast<std::size_t>(maxc) + 1] -= static_cast<double>(v.bytes());
      }
    }
    cross_.assign(static_cast<std::size_t>(n) + 1, 0);
    double run = 0;
    for (int b = 1; b <= n; ++b) {
      run += diff[static_cast<std::size_t>(b)];
      cross_[static_cast<std::size_t>(b)] = run;
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(units_.size()); }
  [[nodiscard]] bool standalone() const { return standalone_; }
  [[nodiscard]] const std::vector<TaskId>& unit(int u) const {
    return units_[static_cast<std::size_t>(u)];
  }

  /// Merged task list of units (lo, hi].
  [[nodiscard]] std::vector<TaskId> range_tasks(int lo, int hi) const {
    std::vector<TaskId> out;
    for (int u = lo; u < hi; ++u)
      out.insert(out.end(), units_[static_cast<std::size_t>(u)].begin(),
                 units_[static_cast<std::size_t>(u)].end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Outgoing boundary bytes of range (lo, hi] at batch 1 / fp32.
  [[nodiscard]] double cross_out(int hi) const {
    return hi < size() ? cross_[static_cast<std::size_t>(hi)] : 0.0;
  }
  [[nodiscard]] double cross_in(int lo) const {
    return lo > 0 ? cross_[static_cast<std::size_t>(lo)] : 0.0;
  }

  [[nodiscard]] std::int64_t range_nparams(int lo, int hi) const {
    return pnparams_[static_cast<std::size_t>(hi)] -
           pnparams_[static_cast<std::size_t>(lo)];
  }
  [[nodiscard]] std::int64_t range_param_bytes(int lo, int hi) const {
    return pparams_[static_cast<std::size_t>(hi)] -
           pparams_[static_cast<std::size_t>(lo)];
  }
  [[nodiscard]] double range_act_bytes1(int lo, int hi) const {
    return pact_[static_cast<std::size_t>(hi)] -
           pact_[static_cast<std::size_t>(lo)];
  }

  /// What a stage profile reads for one microbatch size: prefix-summed
  /// forward/backward compute seconds, and the comm seconds of a range
  /// sending its outputs across boundary hi (comm_out[hi]) or receiving
  /// its inputs across boundary lo (comm_in[lo]).
  struct ProfileTable {
    std::vector<double> f, b, comm_out, comm_in;
  };

  /// Builds a ProfileTable for each microbatch size in `bsizes` that has
  /// none yet. Runs before each node group's jobs start; the tables are
  /// never written while jobs run, so concurrent jobs read them without
  /// locks.
  void build_tables(const std::set<std::int64_t>& bsizes,
                    const ClusterSpec& cluster) {
    const std::size_t n = units_.size();
    const double af = prof_->act_factor();
    for (const std::int64_t bsize : bsizes) {
      const auto it = std::lower_bound(bsizes_.begin(), bsizes_.end(), bsize);
      if (it != bsizes_.end() && *it == bsize) continue;
      ProfileTable& t = *tables_.emplace(
          tables_.begin() + (it - bsizes_.begin()), ProfileTable{});
      bsizes_.insert(it, bsize);
      t.f.assign(n + 1, 0);
      t.b.assign(n + 1, 0);
      for (std::size_t u = 0; u < n; ++u) {
        double f = 0, b = 0;
        for (TaskId task : units_[u]) {
          f += prof_->task_time_f(task, bsize, standalone_);
          b += prof_->task_time_b(task, bsize, standalone_);
        }
        t.f[u + 1] = t.f[u] + f;
        t.b[u + 1] = t.b[u] + b;
      }
      t.comm_out.resize(n + 1);
      t.comm_in.resize(n + 1);
      for (std::size_t k = 0; k <= n; ++k) {
        const int pos = static_cast<int>(k);
        t.comm_out[k] = partitioner_comm_time(
            cluster, static_cast<std::int64_t>(
                         cross_out(pos) * static_cast<double>(bsize) * af));
        t.comm_in[k] = partitioner_comm_time(
            cluster, static_cast<std::int64_t>(
                         cross_in(pos) * static_cast<double>(bsize) * af));
      }
    }
  }

  /// The table of a microbatch size built by build_tables.
  const ProfileTable& table(std::int64_t bsize) const {
    const auto it = std::lower_bound(bsizes_.begin(), bsizes_.end(), bsize);
    if (it == bsizes_.end() || *it != bsize)
      throw std::logic_error("no profile table for microbatch size " +
                             std::to_string(bsize));
    return tables_[static_cast<std::size_t>(it - bsizes_.begin())];
  }
  [[nodiscard]] const std::vector<std::int64_t>& bsizes() const {
    return bsizes_;
  }

 private:
  const TaskGraph* graph_;
  const GraphProfiler* prof_;
  std::vector<std::vector<TaskId>> units_;
  bool standalone_;
  std::vector<double> pact_;  // batch-1 fp32 activation bytes
  std::vector<std::int64_t> pparams_, pnparams_;
  std::vector<double> cross_;
  std::vector<std::int64_t> bsizes_;  // ascending; tables_[i] is bsizes_[i]'s
  std::vector<ProfileTable> tables_;
};

/// Replica memory of stage (lo, hi] at microbatch `bsize` receiving
/// `in_bytes` of boundary activations (the memory half of a profile).
/// `summed_estimates`: see make_profile_fn.
std::int64_t range_memory(const UnitSequence& seq, int lo, int hi,
                          std::int64_t bsize, double af, double in_bytes,
                          Precision prec, OptimizerKind opt, int microbatches,
                          int num_stages, bool summed_estimates) {
  ProfileResult pr;
  pr.num_params = seq.range_nparams(lo, hi);
  pr.param_bytes = seq.range_param_bytes(lo, hi);
  pr.act_bytes = static_cast<std::int64_t>(seq.range_act_bytes1(lo, hi) *
                                           static_cast<double>(bsize) * af);
  pr.boundary_bytes = static_cast<std::int64_t>(in_bytes);
  // A single stage has no pipeline fill: each microbatch's backward runs
  // immediately after its forward (plain gradient accumulation), so only
  // one microbatch of activations is ever live. With S > 1 the GPipe
  // flush keeps all MB microbatches in flight per stage.
  const std::int64_t inflight = num_stages == 1 ? 1 : microbatches;
  return stage_memory(pr, prec, opt, inflight,
                      num_stages > 1 && !summed_estimates)
      .total();
}

/// Builds the RangeProfileFn over a unit sequence whose tables are built:
/// a profile is about six table reads plus a few flops.
///
/// `summed_estimates` selects the Section IV-C ablation semantics: times
/// are sums of standalone component profiles (already baked into the
/// sequence's `standalone` mode) and stage memory is the plain sum of all
/// activation bytes — the variant cannot profile the merged subcomponent,
/// so it cannot model gradient-checkpointing's reduced footprint either.
RangeProfileFn make_profile_fn(const UnitSequence& seq,
                               const GraphProfiler& prof, Precision prec,
                               OptimizerKind opt, bool summed_estimates) {
  const double af = prof.act_factor();
  return [&seq, prec, opt, af, summed_estimates](
             int lo, int hi, std::int64_t bsize, int microbatches,
             int num_stages) -> StageProfile {
    const UnitSequence::ProfileTable& t = seq.table(bsize);
    const std::size_t l = static_cast<std::size_t>(lo);
    const std::size_t h = static_cast<std::size_t>(hi);
    const double tf_c = t.f[h] - t.f[l];
    StageProfile p;
    // h() includes the time to send outputs to the following stage
    // (Section III-C); the backward pass symmetrically returns input
    // gradients to the preceding stage, plus the checkpoint recompute.
    p.t_f = tf_c + t.comm_out[h];
    p.t_b = (t.b[h] - t.b[l]) + t.comm_in[l];
    if (num_stages > 1 && !summed_estimates) p.t_b += tf_c;
    p.mem = range_memory(seq, lo, hi, bsize, af,
                         seq.cross_in(lo) * static_cast<double>(bsize) * af,
                         prec, opt, microbatches, num_stages,
                         summed_estimates);
    return p;
  };
}

/// The slow oracle of make_profile_fn (detail::SweepProfiles): the same
/// formula with no shared table, so every query rebuilds its microbatch's
/// prefix sums and calls partitioner_comm_time itself.
RangeProfileFn make_oracle_profile_fn(const UnitSequence& seq,
                                      const GraphProfiler& prof,
                                      const ClusterSpec& cluster,
                                      Precision prec, OptimizerKind opt,
                                      bool summed_estimates) {
  const double af = prof.act_factor();
  return [&seq, &prof, &cluster, prec, opt, af, summed_estimates](
             int lo, int hi, std::int64_t bsize, int microbatches,
             int num_stages) -> StageProfile {
    const std::size_t n = static_cast<std::size_t>(seq.size());
    std::vector<double> f(n + 1, 0), b(n + 1, 0);
    for (std::size_t u = 0; u < n; ++u) {
      double uf = 0, ub = 0;
      for (TaskId task : seq.unit(static_cast<int>(u))) {
        uf += prof.task_time_f(task, bsize, seq.standalone());
        ub += prof.task_time_b(task, bsize, seq.standalone());
      }
      f[u + 1] = f[u] + uf;
      b[u + 1] = b[u] + ub;
    }
    const std::size_t l = static_cast<std::size_t>(lo);
    const std::size_t h = static_cast<std::size_t>(hi);
    const double tf_c = f[h] - f[l];
    const double tb_c = b[h] - b[l];
    const double out_bytes = seq.cross_out(hi) * static_cast<double>(bsize) * af;
    const double in_bytes = seq.cross_in(lo) * static_cast<double>(bsize) * af;
    StageProfile p;
    p.t_f = tf_c + partitioner_comm_time(cluster, static_cast<std::int64_t>(out_bytes));
    p.t_b = tb_c + partitioner_comm_time(cluster, static_cast<std::int64_t>(in_bytes));
    if (num_stages > 1 && !summed_estimates) p.t_b += tf_c;
    p.mem = range_memory(seq, lo, hi, bsize, af, in_bytes, prec, opt,
                         microbatches, num_stages, summed_estimates);
    return p;
  };
}

/// Estimated wall-clock of one mini-batch for a concrete DP solution: its
/// stages profiled by `fn` (comm folded into t_f / t_b, matching h() in the
/// DP) and scored by evaluate_plan, so the sweep and the final plan share
/// one formula.
double estimate_iteration(const UnitSequence& seq, const RangeProfileFn& fn,
                          const SearchRequest& req, const StageDpSolution& sol,
                          int R, int MB) {
  const int S = static_cast<int>(sol.stage_end.size());
  PartitionResult plan;
  plan.microbatches = MB;
  plan.pipelines = R;
  plan.stages.resize(static_cast<std::size_t>(S));
  int lo = 0;
  for (int i = 0; i < S; ++i) {
    const int hi = sol.stage_end[static_cast<std::size_t>(i)];
    StagePlan& sp = plan.stages[static_cast<std::size_t>(i)];
    sp.devices = sol.stage_devices[static_cast<std::size_t>(i)];
    const std::int64_t bsize =
        std::max<std::int64_t>(1, req.batch_size / R / MB / sp.devices);
    const StageProfile p = fn(lo, hi, bsize, MB, S);
    sp.t_f = p.t_f;
    sp.t_b = p.t_b;
    sp.param_bytes = seq.range_param_bytes(lo, hi);
    lo = hi;
  }
  return evaluate_plan(plan, req).iteration_time;
}

struct Candidate {
  StageDpSolution sol;
  int S = 0, D = 0, R = 0, MB = 0, n = 0;
  double est_iter = 0;
};

/// Every microbatch size the jobs of one node group (D devices per
/// pipeline, R pipelines) or estimate_iteration can ask the profile fn
/// for: bsize = BS / R / MB / stage_devs over the exact (MB, stage_devs)
/// ranges Algorithm 2 enumerates, clamped to >= 1.
/// UnitSequence::build_tables builds one profile table for each.
std::set<std::int64_t> enumerate_bsizes(std::int64_t BS, int R, int D) {
  std::set<std::int64_t> out{1};
  for (int MB = 1; MB <= BS / R; MB *= 2)
    for (int sd = 1; sd <= D; ++sd) {
      const std::int64_t b = BS / R / MB / sd;
      if (b >= 1) out.insert(b);
    }
  return out;
}

/// Phase 2: block-level partitioning, or the atomic components themselves
/// for the Section IV-C ablation. Returns the units' task lists in
/// topological order and records the block statistics.
std::vector<std::vector<TaskId>> partition_units(const AtomicPartition& ap,
                                                 const GraphProfiler& prof,
                                                 const SearchRequest& req,
                                                 SearchStats& stats) {
  obs::Scope sc("phase2:block_partition");
  std::vector<std::vector<TaskId>> unit_tasks;
  if (req.use_coarsening) {
    BlockPartitionConfig bcfg;
    bcfg.k = req.num_blocks;
    bcfg.device_memory = req.usable_memory();
    // Balance blocks at the smallest microbatch size a stage replica can
    // see. Per-op overheads weigh most at batch 1, so blocks equalized
    // there only get more even as the batch grows compute-bound — whereas
    // blocks balanced at a large batch can be badly skewed at microbatch
    // 1, which is exactly the regime the very largest models run in
    // (many stages, many microbatches).
    bcfg.profile_batch = 1;
    BlockPartition bp = block_partition(ap, prof, bcfg);
    stats.blocks = static_cast<int>(bp.blocks.size());
    stats.coarsen_levels = bp.coarsen_levels;
    stats.uncoarsen_moves = bp.uncoarsen_moves;
    stats.compaction_merges = bp.compaction_merges;
    unit_tasks.reserve(bp.blocks.size());
    for (Block& b : bp.blocks) unit_tasks.push_back(std::move(b.tasks));
  } else {
    unit_tasks.reserve(ap.comps.size());
    for (const AtomicComponent& c : ap.comps) unit_tasks.push_back(c.tasks);
    stats.blocks = static_cast<int>(unit_tasks.size());
  }
  sc.arg("blocks", stats.blocks);
  return unit_tasks;
}

}  // namespace

int resolve_search_threads(int threads_knob) {
  if (threads_knob > 0) return threads_knob;
  return parse_thread_count(std::getenv("RANNC_THREADS")).value_or(1);
}

SearchResult auto_partition(const VerifiedGraph& model,
                            const SearchRequest& req) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult out;
  PartitionResult& res = out.plan;
  obs::Scope sc_all("auto_partition");

  // Request gate, symmetric with the graph verifier: reject nonsense knobs
  // with every violation listed, not just the first.
  if (std::vector<Diagnostic> ds = req.validate(); has_errors(ds))
    throw std::invalid_argument("invalid SearchRequest:\n" + render(ds));

  // Phase 1: atomic-level partitioning.
  std::shared_ptr<AtomicPartition> ap;
  {
    obs::Scope sc("phase1:atomic_partition");
    ap = std::make_shared<AtomicPartition>(atomic_partition(model.graph()));
    sc.arg("components", ap->comps.size());
  }
  GraphProfiler prof(ap->graph, req.cluster.device, req.precision);
  res.stats.atomic_components = ap->comps.size();
  res.stats.cloned_constant_tasks = ap->num_cloned_tasks;

  const std::int64_t M = req.usable_memory();
  const std::int64_t BS = req.batch_size;
  const int N_nodes = req.cluster.num_nodes;
  const int Dnode = req.cluster.devices_per_node;

  // Global fast-infeasibility precheck from src/analysis facts: every
  // partition replicates the full parameter state across each pipeline, so
  // the busiest device of the largest pipeline (R = 1, D = total devices)
  // holds at least total_state / D bytes; on a single device the liveness
  // peak of the dataflow analysis additionally lower-bounds activations
  // (no pipelining, no checkpointing, microbatch >= 1). Both floors are
  // admissible w.r.t. the stage_memory model, so tripping one proves every
  // (n, S, MB) job infeasible without profiling a single DP cell.
  if (req.prune) {
    ProfileResult state;
    for (const Value& v : ap->graph.values()) {
      if (v.kind == ValueKind::Param) {
        state.num_params += v.shape.numel();
        state.param_bytes += v.bytes();
      }
    }
    const std::int64_t state_total =
        stage_memory(state, req.precision, req.optimizer, 1, false).total();
    const int D_total = req.cluster.total_devices();
    std::int64_t floor = state_total / D_total;
    if (D_total == 1)
      floor += static_cast<std::int64_t>(
          static_cast<double>(peak_activation_bytes(ap->graph)) *
          prof.act_factor());
    obs::metrics().gauge("partition.precheck_floor_bytes")
        .set(static_cast<double>(floor));
    if (floor > M) {
      res.graph = std::shared_ptr<const TaskGraph>(ap, &ap->graph);
      res.feasible = false;
      res.infeasible_reason =
          "precheck: at least " + std::to_string(floor) +
          " bytes/device of model state, only " + std::to_string(M) +
          " usable";
      res.stats.threads_used = resolve_search_threads(req.budget.threads);
      res.stats.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      return out;
    }
  }

  UnitSequence seq(*ap, prof, partition_units(*ap, prof, req, res.stats),
                   /*standalone=*/!req.use_coarsening);
  const RangeProfileFn sweep_fn =
      make_profile_fn(seq, prof, req.precision, req.optimizer,
                      /*summed_estimates=*/!req.use_coarsening);

  // Phase 3: Algorithm 2 (form_stage), dispatched as a parallel,
  // branch-and-bound sweep. Every (S, MB) pair of a node group is an
  // independent stage-DP invocation; they run on a pool sized by
  // budget.threads, read one set of read-only profile tables, share one
  // incumbent-cost channel and (when set) one atomic cell budget, and are
  // aggregated in job order so the resulting *plan* is bit-identical at any
  // thread count and pruned vs exhaustive (docs/ALGORITHMS.md §12).
  const int threads = resolve_search_threads(req.budget.threads);
  res.stats.threads_used = threads;
  const auto t_search0 = std::chrono::steady_clock::now();

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1)
    pool = std::make_unique<ThreadPool>(static_cast<unsigned>(threads - 1));
  std::atomic<std::int64_t> shared_cells{0};

  // Branch-and-bound state shared by the whole sweep. Best iteration
  // estimate published so far, as the bit pattern of a positive double
  // (IEEE order matches uint64 order, so CAS-min works on the integer
  // view). Live: every finished job lowers it at once.
  std::atomic<std::uint64_t> incumbent{
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity())};
  std::atomic<std::int64_t> incumbent_updates{0};
  std::atomic<std::int64_t> jobs_pruned{0};
  const auto publish_est = [&](double est) {
    if (!req.prune) return;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(est);
    std::uint64_t cur = incumbent.load(std::memory_order_relaxed);
    while (est < std::bit_cast<double>(cur)) {
      if (incumbent.compare_exchange_weak(cur, bits,
                                          std::memory_order_relaxed)) {
        incumbent_updates.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  };
  struct JobBounds {
    std::int64_t bsize_min = 1;  ///< smallest reachable per-replica microbatch
    double job_lb = 0;           ///< admissible floor on the job's bottleneck V
    std::vector<double> suffix;  ///< suffix[b]: V floor past unit b (size N+1)
    std::vector<double> rem;     ///< rem[b]: load floor past unit b (size N+1)
    double load = 0;             ///< T: floor on the summed stage t_f + t_b
    double allreduce = 0;        ///< A: floor on the slowest all-reduce
  };
  // Parameter bytes of the whole model and of its largest unit: the stage
  // holding the most parameters holds at least max(P / S, largest unit).
  const std::int64_t params_total = seq.range_param_bytes(0, seq.size());
  std::int64_t params_unit_max = 0;
  for (int u = 0; u < seq.size(); ++u)
    params_unit_max = std::max(params_unit_max, seq.range_param_bytes(u, u + 1));
  const double grad_factor = req.precision == Precision::Mixed ? 0.5 : 1.0;

  // Cumulative sweep progress, sampled into the search trace once per
  // finished job. The mutex (taken only while a recorder is attached) keeps
  // the series non-decreasing in timestamp order across worker threads.
  std::mutex progress_mu;
  std::int64_t progress_cells = 0, progress_queries = 0, progress_jobs = 0;
  const auto trace_progress = [&](const StageDpSolution& sol) {
    obs::TraceRecorder* rec = obs::recorder();
    if (rec == nullptr) return;
    std::lock_guard<std::mutex> lk(progress_mu);
    progress_cells += sol.dp_cells_visited;
    progress_queries += sol.profile_queries;
    ++progress_jobs;
    json::Writer args(json::Layout::Compact);
    args.begin_object().field("dp_cells", progress_cells);
    args.field("profile_queries", progress_queries);
    args.field("jobs_done", progress_jobs).end_object();
    rec->counter(obs::Domain::Search, 0, "sweep_progress", rec->now_us(),
                 args.str());
  };

  bool aborted = false;
  Candidate best;
  bool found = false;
  // unique_ptr rather than a block scope: the sweep loop both writes the
  // locals above and feeds the aggregation below.
  auto sweep_scope = std::make_unique<obs::Scope>("phase3:stage_dp_sweep");
  sweep_scope->arg("threads", threads);
  for (int n = 1; n <= N_nodes && !found && !aborted; n *= 2) {
    const int D = Dnode * n;
    const int R = N_nodes / n;
    // Deviation from the Algorithm 2 listing: candidates are accumulated
    // across the whole stage-count range of this node group and the best is
    // returned, instead of returning at the first S with any solution. The
    // listing's early return can miss a strictly better uniform split at
    // S+1 (e.g. 8 one-device stages vs 7 stages where one stage's two
    // replicas cannot split the microbatch further).
    struct SweepJob {
      int S = 0, MB = 0;
    };
    std::vector<SweepJob> jobs;  // (S asc, MB asc) — the aggregation order
    for (int S = Dnode * (n - 1) + 1;
         S <= std::min(Dnode * n, seq.size()); ++S)
      for (int MB = 1; MB <= BS / R; MB *= 2) jobs.push_back({S, MB});
    std::vector<StageDpSolution> sols(jobs.size());
    std::vector<double> ests(jobs.size(), 0);
    std::vector<char> skipped(jobs.size(), 0);

    // Only this group's microbatch sizes: the sweep stops at the first
    // group with a feasible plan, so later groups' tables are never read.
    {
      obs::Scope sc("phase3:prebuild_times");
      seq.build_tables(enumerate_bsizes(BS, R, D), req.cluster);
    }

    // Admissible per-job lower bounds (docs/ALGORITHMS.md §12). Every DP
    // cell of job (S, MB) profiles at a per-replica microbatch >=
    // bsize_min = BS / R / MB / (D - S + 1) (integer division is antitone
    // in stage_devs, which maxes out at D - S + 1), and times/memory are
    // monotone in the microbatch, so the profile at bsize_min floors every
    // reachable profile. Unit time floors come from the compute prefix
    // sums alone — the comm terms depend on the enclosing range's
    // boundaries, so only their nonnegativity is used (dropped).
    std::vector<JobBounds> jb(jobs.size());
    if (req.prune) {
      const int NU = seq.size();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob& j = jobs[i];
        JobBounds& b = jb[i];
        b.bsize_min = std::max<std::int64_t>(1, BS / R / j.MB / (D - j.S + 1));
        const auto& tp = seq.table(b.bsize_min);
        b.suffix.assign(static_cast<std::size_t>(NU) + 1, 0.0);
        b.rem.assign(static_cast<std::size_t>(NU) + 1, 0.0);
        for (int u = NU - 1; u >= 0; --u) {
          const std::size_t k = static_cast<std::size_t>(u);
          const double f = tp.f[k + 1] - tp.f[k];
          const double bb = tp.b[k + 1] - tp.b[k];
          // Any stage containing unit u spends at least the unit's own
          // compute, plus its checkpoint recompute when the merged-profile
          // semantics apply (matches make_profile_fn).
          const double ub =
              f + bb + (j.S > 1 && req.use_coarsening ? f : 0.0);
          b.rem[k] = b.rem[k + 1] + ub;
          b.suffix[k] = std::max(b.suffix[k + 1], ub);
        }
        b.load = b.rem[0];
        // Bottleneck floor: some stage contains the worst unit, and the
        // busiest of S stages carries at least 1/S of the total compute.
        b.job_lb = std::max(b.suffix[0], b.load / static_cast<double>(j.S));
        // Every stage all-reduces across >= R ranks (all-reduce time is
        // monotone in bytes and ranks).
        const std::int64_t params =
            std::max(params_total / j.S, params_unit_max);
        b.allreduce = allreduce_time(
            req.cluster,
            static_cast<std::int64_t>(static_cast<double>(params) *
                                      grad_factor),
            R, R > 1);
      }
    }

    const auto run_job = [&](std::int64_t idx_) {
      const std::size_t i = static_cast<std::size_t>(idx_);
      const SweepJob& j = jobs[i];
      // Any solution's estimate is at least the GPipe makespan floor at
      // the job's V floor plus its all-reduce floor (estimate_floor); a job
      // whose floor already loses to the incumbent cannot produce the
      // winner (strictly — ties survive) and is skipped whole.
      const double est_scale = static_cast<double>(j.MB);
      if (req.prune) {
        const double I = std::bit_cast<double>(
            incumbent.load(std::memory_order_relaxed));
        if (estimate_floor(jb[i].job_lb, est_scale, jb[i].load,
                           jb[i].allreduce) > I) {
          skipped[i] = 1;
          jobs_pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      obs::Scope sc(
          [&] {
            return "job n=" + std::to_string(n) +
                   " S=" + std::to_string(j.S) +
                   " MB=" + std::to_string(j.MB);
          },
          "sweep");
      StageDpInput in;
      in.num_units = seq.size();
      in.num_stages = j.S;
      in.num_devices = D;
      in.batch_size = BS;
      in.replica_factor = R;
      in.microbatches = j.MB;
      in.device_memory = M;
      in.max_cells = req.budget.max_dp_cells;
      in.shared_cells = req.budget.max_dp_cells > 0 ? &shared_cells : nullptr;
      in.profile = sweep_fn;
      in.prune = req.prune;
      if (in.prune) {
        const std::int64_t bmin = jb[i].bsize_min;
        const int S = j.S;
        const int MB = j.MB;
        in.bound = [&sweep_fn, bmin, MB, S](int lo, int hi) -> StageBound {
          const StageProfile p = sweep_fn(lo, hi, bmin, MB, S);
          return {p.t_f + p.t_b, p.mem};
        };
        in.incumbent = &incumbent;
        in.est_scale = est_scale;
        in.total_load = jb[i].load;
        in.allreduce_floor = jb[i].allreduce;
        in.suffix_bound = jb[i].suffix.data();
        in.remaining_load = jb[i].rem.data();
        in.job_bound = jb[i].job_lb;
      }
      StageDpSolution sol = form_stage_dp(in);
      sc.arg("feasible", static_cast<int>(sol.feasible));
      sc.arg("dp_cells", sol.dp_cells_visited);
      trace_progress(sol);
      if (sol.feasible) {
        ests[i] = estimate_iteration(seq, sweep_fn, req, sol, R, j.MB);
        sc.arg("est_iter", ests[i]);
        publish_est(ests[i]);
      }
      sols[i] = std::move(sol);
    };
    if (pool) {
      pool->parallel_each(static_cast<std::int64_t>(jobs.size()), run_job);
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i)
        run_job(static_cast<std::int64_t>(i));
    }

    // Serial aggregation in job (S, MB) order, independent of completion
    // order. The first strict est_iter minimum wins, which realizes the
    // deterministic (n, S, MB) tie-break: equal estimates resolve to the
    // smallest stage count, then the fewest microbatches. Pruned and
    // dominated jobs never hold the winner (their estimates are provably
    // strictly above it), so excluding them preserves the exhaustive
    // engine's choice exactly.
    std::vector<Candidate> A;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (skipped[i]) continue;  // no DP ran
      StageDpSolution& sol = sols[i];
      res.stats.dp_cells_visited += sol.dp_cells_visited;
      res.stats.profile_queries += sol.profile_queries;
      res.stats.profile_queries_saved += sol.profile_queries_saved;
      res.stats.prune.ranges_mem_pruned += sol.ranges_mem_pruned;
      res.stats.prune.ranges_bound_pruned += sol.ranges_bound_pruned;
      res.stats.prune.columns_pruned += sol.columns_pruned;
      res.stats.prune.paths_pruned += sol.paths_pruned;
      res.stats.prune.bound_queries += sol.bound_queries;
      ++res.stats.dp_invocations;
      if (sol.dominated) ++res.stats.prune.jobs_dominated;
      if (sol.aborted) aborted = true;
    }
    if (aborted) {
      // All-or-nothing: which sibling jobs completed before the shared
      // budget ran out is scheduling-dependent, so none of this node
      // group's candidates may be used or traced.
      break;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      StageDpSolution& sol = sols[i];
      if (skipped[i] || sol.dominated) {
        res.stats.candidates.push_back(
            {n, jobs[i].S, jobs[i].MB, false, 0, true});
        continue;
      }
      if (!sol.feasible) {
        res.stats.candidates.push_back({n, jobs[i].S, jobs[i].MB, false, 0});
        continue;
      }
      res.stats.candidates.push_back(
          {n, jobs[i].S, jobs[i].MB, true, ests[i]});
      Candidate c;
      c.est_iter = ests[i];
      c.sol = std::move(sol);
      c.S = jobs[i].S;
      c.D = D;
      c.R = R;
      c.MB = jobs[i].MB;
      c.n = n;
      A.push_back(std::move(c));
    }
    if (!A.empty()) {
      best = *std::min_element(A.begin(), A.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return a.est_iter < b.est_iter;
                               });
      found = true;
    }
  }
  sweep_scope.reset();
  PruneStats& ps = res.stats.prune;
  ps.jobs_pruned = jobs_pruned.load(std::memory_order_relaxed);
  ps.incumbent_updates = incumbent_updates.load(std::memory_order_relaxed);
  // Defensive: candidates are pushed in (n, S, MB) order above; keep the
  // documented ordering guarantee even if a future refactor perturbs it.
  std::sort(res.stats.candidates.begin(), res.stats.candidates.end(),
            [](const CandidateTrace& a, const CandidateTrace& b) {
              return std::tie(a.nodes, a.stages, a.microbatches) <
                     std::tie(b.nodes, b.stages, b.microbatches);
            });
  res.stats.search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_search0)
          .count();

  res.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Publish the search's quantitative story to the metrics registry
  // (always on — one mutex-guarded lookup per metric per partition call).
  {
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("partition.dp_invocations").add(res.stats.dp_invocations);
    m.counter("partition.dp_cells_visited").add(res.stats.dp_cells_visited);
    m.counter("partition.profile_queries").add(res.stats.profile_queries);
    m.counter("partition.profile_queries_saved")
        .add(res.stats.profile_queries_saved);
    m.gauge("partition.search_seconds").set(res.stats.search_seconds);
    m.gauge("partition.wall_seconds").set(res.stats.wall_seconds);
    const std::pair<const char*, std::int64_t> prune_counters[] = {
        {"jobs_pruned", ps.jobs_pruned},
        {"jobs_dominated", ps.jobs_dominated},
        {"ranges_pruned", ps.ranges_pruned()},
        {"columns_pruned", ps.columns_pruned},
        {"paths_pruned", ps.paths_pruned},
        {"bound_queries", ps.bound_queries},
        {"incumbent_updates", ps.incumbent_updates}};
    for (const auto& [name, v] : prune_counters)
      m.counter(std::string("partition.prune.") + name).add(v);
    obs::Histogram& h = m.histogram("partition.candidate_est_iter");
    for (const CandidateTrace& c : res.stats.candidates)
      if (c.feasible) h.record(c.est_iteration);
  }

  res.graph = std::shared_ptr<const TaskGraph>(ap, &ap->graph);
  if (!found) {
    res.feasible = false;
    res.infeasible_reason =
        aborted ? "search budget exceeded" : "no memory-feasible partition";
    return out;
  }

  // Assemble the plan, re-profiled with merged semantics: the ablation
  // variant *searches* with summed estimates but physically runs the merged
  // stages (Section IV-C). When coarsening is on, the search sequence
  // already uses merged semantics and is reused directly.
  std::optional<UnitSequence> merged_seq;
  RangeProfileFn eval_fn = sweep_fn;
  if (!req.use_coarsening) {
    std::vector<std::vector<TaskId>> units;
    units.reserve(static_cast<std::size_t>(seq.size()));
    for (int i = 0; i < seq.size(); ++i) units.push_back(seq.unit(i));
    merged_seq.emplace(*ap, prof, std::move(units), false);
    std::set<std::int64_t> used;
    for (int devs : best.sol.stage_devices)
      used.insert(std::max<std::int64_t>(1, BS / best.R / best.MB / devs));
    merged_seq->build_tables(used, req.cluster);
    eval_fn = make_profile_fn(*merged_seq, prof, req.precision, req.optimizer,
                              /*summed_estimates=*/false);
  }
  res.feasible = true;
  res.microbatches = best.MB;
  res.pipelines = best.R;
  res.nodes_used = best.n;
  const int S = best.S;
  int lo = 0;
  for (int i = 0; i < S; ++i) {
    const int hi = best.sol.stage_end[static_cast<std::size_t>(i)];
    const int devs = best.sol.stage_devices[static_cast<std::size_t>(i)];
    StagePlan sp;
    sp.tasks = seq.range_tasks(lo, hi);
    sp.devices = devs;
    sp.replicas_total = devs * best.R;
    sp.microbatch_size =
        std::max<std::int64_t>(1, BS / best.R / best.MB / devs);
    const StageProfile p = eval_fn(lo, hi, sp.microbatch_size, best.MB, S);
    sp.t_f = p.t_f;
    sp.t_b = p.t_b;
    sp.mem = p.mem;
    sp.param_bytes = seq.range_param_bytes(lo, hi);
    sp.comm_out_bytes = static_cast<std::int64_t>(
        seq.cross_out(hi) * static_cast<double>(sp.microbatch_size) *
        prof.act_factor());
    res.stages.push_back(std::move(sp));
    lo = hi;
  }
  res.est_iteration_time = evaluate_plan(res, req).iteration_time;
  double mf = 0, mb = 0;
  for (const StagePlan& sp : res.stages) {
    mf = std::max(mf, sp.t_f);
    mb = std::max(mb, sp.t_b);
  }
  res.bottleneck_value = mf + mb;
  {
    obs::MetricsRegistry& m = obs::metrics();
    for (std::size_t i = 0; i < res.stages.size(); ++i)
      m.gauge("plan.stage" + std::to_string(i) + ".mem_bytes")
          .set(static_cast<double>(res.stages[i].mem));
    m.gauge("plan.est_iteration_time").set(res.est_iteration_time);
    m.gauge("plan.bottleneck_value").set(res.bottleneck_value);
  }
  return out;
}

std::string describe(const PartitionResult& r) {
  std::ostringstream os;
  if (!r.feasible) {
    os << "INFEASIBLE (" << r.infeasible_reason << ")\n";
    return os.str();
  }
  os << "stages=" << r.stages.size() << " microbatches=" << r.microbatches
     << " pipelines(R)=" << r.pipelines << " nodes=" << r.nodes_used
     << " est_iter=" << r.est_iteration_time << "s\n";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const StagePlan& s = r.stages[i];
    os << "  stage " << i << ": tasks=" << s.tasks.size()
       << " devices=" << s.devices << " (x" << r.pipelines << " pipelines)"
       << " ubatch=" << s.microbatch_size << " t_f=" << s.t_f * 1e3
       << "ms t_b=" << s.t_b * 1e3 << "ms mem="
       << static_cast<double>(s.mem) / (1024.0 * 1024 * 1024) << "GiB"
       << " params=" << static_cast<double>(s.param_bytes) / 4.0 / 1e6
       << "M\n";
  }
  return os.str();
}

namespace detail {

struct SweepProfiles::Impl {
  ClusterSpec cluster;  // the oracle holds a reference
  AtomicPartition ap;
  GraphProfiler prof;
  SearchStats stats;
  UnitSequence seq;
  RangeProfileFn table_fn, oracle_fn;

  Impl(const TaskGraph& model, const SearchRequest& req)
      : cluster(req.cluster),
        ap(atomic_partition(model)),
        prof(ap.graph, req.cluster.device, req.precision),
        seq(ap, prof, partition_units(ap, prof, req, stats),
            /*standalone=*/!req.use_coarsening) {
    for (int n = 1; n <= cluster.num_nodes; n *= 2)
      seq.build_tables(enumerate_bsizes(req.batch_size, cluster.num_nodes / n,
                                        cluster.devices_per_node * n),
                       cluster);
    table_fn = make_profile_fn(seq, prof, req.precision, req.optimizer,
                               !req.use_coarsening);
    oracle_fn = make_oracle_profile_fn(seq, prof, cluster, req.precision,
                                       req.optimizer, !req.use_coarsening);
  }
};

SweepProfiles::SweepProfiles(const TaskGraph& model, const SearchRequest& req)
    : impl_(std::make_unique<Impl>(model, req)) {}
SweepProfiles::~SweepProfiles() = default;

int SweepProfiles::num_units() const { return impl_->seq.size(); }
const std::vector<std::int64_t>& SweepProfiles::bsizes() const {
  return impl_->seq.bsizes();
}
StageProfile SweepProfiles::table(int lo, int hi, std::int64_t bsize,
                                  int microbatches, int num_stages) const {
  return impl_->table_fn(lo, hi, bsize, microbatches, num_stages);
}
StageProfile SweepProfiles::oracle(int lo, int hi, std::int64_t bsize,
                                   int microbatches, int num_stages) const {
  return impl_->oracle_fn(lo, hi, bsize, microbatches, num_stages);
}

}  // namespace detail

}  // namespace rannc
