#include "runtime/pipeline_runtime.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/trainer.h"
#include "util/arena.h"

namespace rannc {

namespace {

/// Internal control-flow signal: a peer stage failed and closed the
/// boundary channels; unwind this stage quietly.
struct PipelineAborted {};

std::int64_t tensor_map_bytes(const TensorMap& m) {
  std::int64_t bytes = 0;
  for (const auto& [v, t] : m)
    bytes += t.numel() * static_cast<std::int64_t>(sizeof(float));
  return bytes;
}

}  // namespace

PipelineTrainer::PipelineTrainer(const TaskGraph& g,
                                 std::vector<std::vector<TaskId>> stage_tasks,
                                 PipelineOptions options)
    : interp_(g), options_(options) {
  interp_.set_param_memo(!naive_kernels());
  const auto outs = g.output_values();
  if (outs.size() != 1 || g.value(outs.front()).shape.numel() != 1)
    throw std::invalid_argument("PipelineTrainer requires one scalar loss");
  loss_value_ = outs.front();

  const int S = static_cast<int>(stage_tasks.size());
  std::vector<int> stage_of_task(g.num_tasks(), -1);
  for (int s = 0; s < S; ++s) {
    for (TaskId t : stage_tasks[static_cast<std::size_t>(s)]) {
      if (stage_of_task[static_cast<std::size_t>(t)] != -1)
        throw std::invalid_argument("stages overlap");
      stage_of_task[static_cast<std::size_t>(t)] = s;
    }
  }
  for (int v : stage_of_task)
    if (v < 0) throw std::invalid_argument("stages do not cover the graph");

  TensorMap all_params = init_params(g, options_.seed);
  stages_.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    stages_.emplace_back(options_.opt);
    stages_.back().index = s;
    stages_.back().tasks = std::move(stage_tasks[static_cast<std::size_t>(s)]);
    std::sort(stages_.back().tasks.begin(), stages_.back().tasks.end());
  }

  // Assign parameters (exclusively) and graph inputs to stages; route every
  // crossing value onto a stage-pair edge.
  std::vector<int> param_owner(g.num_values(), -1);
  std::map<std::pair<int, int>, std::vector<ValueId>> edge_values;
  for (const Value& v : g.values()) {
    if (v.kind == ValueKind::Param) {
      for (TaskId c : v.consumers) {
        const int s = stage_of_task[static_cast<std::size_t>(c)];
        if (param_owner[static_cast<std::size_t>(v.id)] == -1) {
          param_owner[static_cast<std::size_t>(v.id)] = s;
          stages_[static_cast<std::size_t>(s)].params.emplace(
              v.id, all_params.at(v.id));
        } else if (param_owner[static_cast<std::size_t>(v.id)] != s) {
          throw std::invalid_argument(
              "parameter shared across stages (tied weights) is not "
              "supported by the pipeline runtime: " + v.name);
        }
      }
    } else if (v.kind == ValueKind::Input) {
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int s = stage_of_task[static_cast<std::size_t>(c)];
        if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
          seen.push_back(s);
          stages_[static_cast<std::size_t>(s)].input_values.push_back(v.id);
        }
      }
    } else if (v.producer != kNoTask) {
      const int ps = stage_of_task[static_cast<std::size_t>(v.producer)];
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int cs = stage_of_task[static_cast<std::size_t>(c)];
        if (cs == ps) continue;
        if (cs < ps)
          throw std::invalid_argument("stages are not topologically ordered");
        if (std::find(seen.begin(), seen.end(), cs) == seen.end()) {
          seen.push_back(cs);
          edge_values[{ps, cs}].push_back(v.id);
        }
      }
    }
  }
  // Stage s is pinned to device s, so the link class of an edge follows
  // the node boundary of the cluster (when one is configured).
  const int dpn = options_.cluster ? options_.cluster->devices_per_node : 0;
  for (auto& [key, vals] : edge_values) {
    auto e = std::make_unique<Edge>();
    e->from = key.first;
    e->to = key.second;
    e->same_node = dpn <= 0 || (e->from / dpn == e->to / dpn);
    std::sort(vals.begin(), vals.end());
    e->values = std::move(vals);
    e->fwd_name = "fwd " + std::to_string(e->from) + "->" +
                  std::to_string(e->to);
    e->bwd_name = "bwd " + std::to_string(e->to) + "->" +
                  std::to_string(e->from);
    stages_[static_cast<std::size_t>(e->from)].out_edges.push_back(e.get());
    stages_[static_cast<std::size_t>(e->to)].in_edges.push_back(e.get());
    edges_.push_back(std::move(e));
  }
  stages_[static_cast<std::size_t>(
              stage_of_task[static_cast<std::size_t>(
                  g.value(loss_value_).producer)])]
      .owns_loss = true;
}

TensorMap PipelineTrainer::gather_params() const {
  TensorMap all;
  for (const Stage& st : stages_)
    for (const auto& [v, t] : st.params) all.emplace(v, t);
  return all;
}

void PipelineTrainer::abort_pipeline() {
  for (auto& e : edges_) {
    e->fwd.close();
    e->bwd.close();
  }
}

void PipelineTrainer::accrue(Tally& t, const TensorMap& m,
                             bool same_node) const {
  if (!options_.cluster) return;
  const std::int64_t b = tensor_map_bytes(m);
  t.seconds += p2p_time(*options_.cluster, b, same_node);
  t.bytes += b;
}

void PipelineTrainer::collect_comm_reports() {
  for (Stage& st : stages_) {
    st.report.comm_seconds = 0;
    st.report.bytes_in = 0;
    st.report.bytes_out = 0;
  }
  for (const auto& e : edges_) {
    Stage& from = stages_[static_cast<std::size_t>(e->from)];
    Stage& to = stages_[static_cast<std::size_t>(e->to)];
    // fwd flows from->to (activations), bwd flows to->from (gradients).
    from.report.comm_seconds += e->fwd_sent.seconds + e->bwd_recv.seconds;
    from.report.bytes_out += e->fwd_sent.bytes;
    from.report.bytes_in += e->bwd_recv.bytes;
    to.report.comm_seconds += e->fwd_recv.seconds + e->bwd_sent.seconds;
    to.report.bytes_in += e->fwd_recv.bytes;
    to.report.bytes_out += e->bwd_sent.bytes;
  }
}

void PipelineTrainer::run_stage(Stage& stage,
                                const std::vector<TensorMap>& microbatches,
                                double* loss_out) {
  const int MB = static_cast<int>(microbatches.size());
  const float seed_grad = 1.0f / static_cast<float>(MB);
  using Clock = std::chrono::steady_clock;
  const auto timed = [&stage](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    stage.report.compute_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  };

  struct Ctx {
    TensorMap values;
    ForwardCache cache;
    TensorMap boundary;  ///< recompute mode: inputs needed to re-run forward
  };
  std::vector<Ctx> ctxs(static_cast<std::size_t>(MB));

  // A closed channel means a peer aborted; an expired bounded wait fails
  // the step.
  const auto receive = [&](Channel<TensorMap>& ch, Tally& tally,
                           bool same_node, const std::string& name) {
    RecvStatus st = RecvStatus::Closed;
    const std::chrono::duration<double> timeout(options_.recv_timeout_s);
    std::optional<TensorMap> m =
        timeout.count() > 0 ? ch.recv_for(timeout, &st) : ch.recv();
    if (st == RecvStatus::Timeout)
      throw StageTimeoutError(stage.index, name, options_.recv_timeout_s);
    if (!m) throw PipelineAborted{};
    accrue(tally, *m, same_node);
    return std::move(*m);
  };
  const auto send = [&](Channel<TensorMap>& ch, Tally& tally, bool same_node,
                        TensorMap m) {
    accrue(tally, m, same_node);
    if (!ch.send(std::move(m))) throw PipelineAborted{};
  };

  // ---- forward flush -------------------------------------------------------
  for (int j = 0; j < MB; ++j) {
    if (options_.stage_hook) options_.stage_hook(stage.index, j);
    Ctx& ctx = ctxs[static_cast<std::size_t>(j)];
    TensorMap values = stage.params;
    for (ValueId v : stage.input_values)
      values[v] = microbatches[static_cast<std::size_t>(j)].at(v);
    for (Edge* e : stage.in_edges)
      for (auto& [v, t] :
           receive(e->fwd, e->fwd_recv, e->same_node, e->fwd_name))
        values[v] = std::move(t);
    if (options_.recompute) {
      // Keep only what is needed to re-run the forward pass.
      ctx.boundary = values;
    }
    ForwardCache cache;
    timed([&] { interp_.forward(stage.tasks, values, cache); });
    for (Edge* e : stage.out_edges) {
      TensorMap m;
      for (ValueId v : e->values) m.emplace(v, values.at(v));
      send(e->fwd, e->fwd_sent, e->same_node, std::move(m));
    }
    if (stage.owns_loss && loss_out)
      *loss_out += values.at(loss_value_).at(0);
    if (options_.recompute) {
      ctx.values.clear();  // discard intermediates; recompute in backward
    } else {
      ctx.values = std::move(values);
      ctx.cache = std::move(cache);
    }
  }

  // ---- backward flush ------------------------------------------------------
  std::vector<TensorMap> mb_grads(static_cast<std::size_t>(MB));
  for (int j = MB - 1; j >= 0; --j) {
    Ctx& ctx = ctxs[static_cast<std::size_t>(j)];
    TensorMap grads;
    if (stage.owns_loss)
      grads.emplace(loss_value_, Tensor::full(Shape{}, seed_grad));
    for (Edge* e : stage.out_edges)
      for (auto& [v, t] :
           receive(e->bwd, e->bwd_recv, e->same_node, e->bwd_name))
        accumulate_grad(grads, v, std::move(t));
    if (options_.recompute) {
      ctx.values = std::move(ctx.boundary);
      ForwardCache cache;
      timed([&] { interp_.forward(stage.tasks, ctx.values, cache); });
      ctx.cache = std::move(cache);
    }
    timed([&] { interp_.backward(stage.tasks, ctx.values, ctx.cache, grads); });
    for (Edge* e : stage.in_edges) {
      TensorMap gm;
      for (ValueId v : e->values) {
        auto it = grads.find(v);
        if (it != grads.end())
          gm.emplace(v, it->second);
        else  // value off the loss path: send explicit zeros for lockstep
          gm.emplace(v, Tensor::zeros(interp_.graph().value(v).shape));
      }
      send(e->bwd, e->bwd_sent, e->same_node, std::move(gm));
    }
    TensorMap& pg = mb_grads[static_cast<std::size_t>(j)];
    for (auto& [v, t] : grads)
      if (stage.params.count(v)) pg.emplace(v, std::move(t));
    ctx.values.clear();
    ctx.cache = ForwardCache{};
  }

  // Accumulate ascending over microbatches to match the single-device
  // Trainer's summation order exactly.
  TensorMap grad_acc;
  for (int j = 0; j < MB; ++j)
    for (auto& [v, t] : mb_grads[static_cast<std::size_t>(j)])
      accumulate_grad(grad_acc, v, std::move(t));
  stage.opt.step(stage.params, grad_acc);
}

float PipelineTrainer::step(const std::vector<TensorMap>& microbatches) {
  // A failed step may have applied some stages' optimizer steps and not
  // others, and its channels stay closed: nothing consistent to resume.
  if (failed_)
    throw std::logic_error("trainer unusable after a failed step");
  if (microbatches.empty()) return 0;

  double loss_sum = 0;
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(stages_.size());
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    Stage& st = stages_[si];
    threads.emplace_back([this, si, &st, &microbatches, &loss_sum, &error,
                          &error_mu] {
      obs::set_thread_name("stage-" + std::to_string(si));
      try {
        obs::Scope sc(
            [si] { return "run_stage " + std::to_string(si); }, "runtime");
        run_stage(st, microbatches, st.owns_loss ? &loss_sum : nullptr);
      } catch (const PipelineAborted&) {
        // A peer already failed and closed the channels; nothing to record.
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
        RANNC_LOG_ERROR("pipeline stage " << si
                                          << " failed; aborting pipeline");
        abort_pipeline();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  collect_comm_reports();
  Arena::global().end_epoch();
  // The optimizer updated the params in place: same data pointers, new
  // bytes, so the pointer-keyed memo must not serve them again.
  interp_.invalidate_param_memo();
  if (error) {
    failed_ = true;
    std::rethrow_exception(error);
  }
  // Publish per-stage causal attribution inputs: cumulative compute/comm
  // seconds and boundary bytes, keyed by stage index so rannc explain and
  // the bench sentinel can correlate measured runtime against the
  // simulated schedule without parsing logs.
  obs::metrics().counter("runtime.steps").add(1);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const StageReport& rep = stages_[s].report;
    const std::string prefix = "runtime.stage." + std::to_string(s);
    obs::metrics().gauge(prefix + ".compute_s").set(rep.compute_seconds);
    obs::metrics().gauge(prefix + ".comm_s").set(rep.comm_seconds);
    obs::metrics().gauge(prefix + ".bytes_in")
        .set(static_cast<double>(rep.bytes_in));
    obs::metrics().gauge(prefix + ".bytes_out")
        .set(static_cast<double>(rep.bytes_out));
  }
  return static_cast<float>(loss_sum / static_cast<double>(microbatches.size()));
}

}  // namespace rannc
