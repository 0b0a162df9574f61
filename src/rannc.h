// rannc.h — the single public entry point to the RaNNC reproduction.
//
// Link the `rannc` CMake target and include this header (installed as
// rannc/rannc.h); everything below is the supported surface, grouped by
// layer in dependency order. Tools, benchmarks and examples in this repo
// include only this header — deep includes of individual module headers
// are an internal affair and may be reorganized without notice.
//
// The layers, bottom to top:
//
//   json        the JSON reader and the JSON writer every document uses
//   obs         tracing (Chrome trace-event), metrics registry, logging
//   graph       task/value graph, builder API, subgraph queries
//   analysis    structural verifier, shape re-inference, diagnostics
//   tensor      dense float tensors and the kernel library
//   autodiff    forward/backward interpreter over task graphs
//   models      BERT / GPT-2 / T5 / ResNet / MLP reference builders
//   profiler    per-op cost model, graph profiler, memory estimator
//   cluster     cluster topology and the closed-form communication costs
//   pipeline    GPipe / 1F1B schedule simulators
//   partition   the automatic partitioner (paper Algorithms 1 & 2)
//   baselines   Megatron-LM / GPipe-Model / PipeDream comparisons
//   runtime     single-device trainer and the pipelined trainer
//   serve       graph fingerprints, durable plan store, PlanServer
#pragma once

// ---- JSON ------------------------------------------------------------------
#include "util/json.h"

// ---- observability ---------------------------------------------------------
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// ---- graph and static analysis --------------------------------------------
#include "analysis/analysis.h"
#include "graph/subgraph.h"
#include "graph/task_graph.h"

// ---- tensors and autodiff --------------------------------------------------
#include "autodiff/interpreter.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

// ---- reference models ------------------------------------------------------
#include "models/bert.h"
#include "models/built_model.h"
#include "models/gpt2.h"
#include "models/mlp.h"
#include "models/moe.h"
#include "models/resnet.h"
#include "models/t5.h"

// ---- profiling and cluster modelling ---------------------------------------
#include "cluster/cluster_spec.h"
#include "profiler/graph_profiler.h"
#include "profiler/memory.h"

// ---- schedules ---------------------------------------------------------------
#include "pipeline/schedule.h"

// ---- partitioning ----------------------------------------------------------
#include "partition/atomic.h"
#include "partition/auto_partitioner.h"
#include "partition/block.h"
#include "partition/plan_eval.h"
#include "partition/plan_io.h"
#include "partition/search.h"
#include "partition/stage_dp.h"

// ---- baselines -------------------------------------------------------------
#include "baselines/data_parallel.h"
#include "baselines/feature_table.h"
#include "baselines/gpipe.h"
#include "baselines/megatron.h"
#include "baselines/pipedream.h"

// ---- runtime ---------------------------------------------------------------
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"

// ---- serving ---------------------------------------------------------------
#include "serve/fingerprint.h"
#include "serve/model_zoo.h"
#include "serve/plan_store.h"
#include "serve/server.h"
