// Layer probes of the traced pass.
//
// After the measured loop, each layer's public entry point is timed for at
// least kMinProbeCalls calls on copies of the live rows the TimedPolicy
// decorator took mid-run. Per-worker probes cycle through every worker's
// row, so each call meets the working set the loop meets (16 MB-rows spill
// the LLC on mlp_wide_parallel; a hot single row would not). Every probe
// builds its own objects (model graph, optimizers, monitor, compressor,
// network, injector, store), so the simulation itself is never touched and
// traced and untraced runs stay bit-identical. A probe's estimated share of
// the loop is its median call time times the number of calls the loop made
// (LayerCalls).
//
// All layer call sites of the benchmark live in this file: a change that
// reshapes a layer API edits only this file, and the end-to-end path keeps
// running unmodified.

#ifndef FEDRA_BENCH_E2E_PROBES_H_
#define FEDRA_BENCH_E2E_PROBES_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/trainer.h"
#include "core/variance_monitor.h"
#include "data/batching.h"
#include "data/partition.h"
#include "data/synth.h"
#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "tensor/vec_ops.h"
#include "workloads.h"

namespace fedra {
namespace e2e {

inline constexpr size_t kMinProbeCalls = 50;
inline constexpr double kMinProbeSeconds = 0.05;

/// Row k of a [rows x len] row-major buffer.
inline float* Row(std::vector<float>& rows, size_t k, size_t len) {
  return rows.data() + k * len;
}
inline const float* Row(const std::vector<float>& rows, size_t k, size_t len) {
  return rows.data() + k * len;
}

/// Copies of every worker's rows at the start of one mid-run round's sync
/// decision.
struct LiveRows {
  size_t step = 0;  // 0 until captured
  size_t workers = 0;
  size_t dim = 0;
  size_t state_size = 0;
  size_t opt_floats = 0;         // optimizer-state floats per worker
  std::vector<float> params;     // [workers x dim]
  std::vector<float> states;     // [workers x state_size]
  std::vector<float> opt_state;  // [workers x opt_floats]
  std::vector<float> sync_params;
  std::vector<float> prev_sync_params;
  std::vector<int> participants;

  void Capture(ClusterContext& ctx) {
    step = ctx.step;
    workers = static_cast<size_t>(ctx.num_workers());
    dim = ctx.dim;
    state_size = ctx.arena->state_size();
    opt_floats = ctx.arena->opt_state_slots() * dim;
    params.resize(workers * dim);
    states.resize(workers * state_size);
    opt_state.resize(workers * opt_floats);
    for (size_t k = 0; k < workers; ++k) {
      const int slot = static_cast<int>(k);
      vec::Copy(ctx.arena->params(slot), Row(params, k, dim), dim);
      vec::Copy(ctx.arena->state(slot), Row(states, k, state_size),
                state_size);
      if (opt_floats > 0) {
        vec::Copy(ctx.arena->opt_state(slot), Row(opt_state, k, opt_floats),
                  opt_floats);
      }
    }
    sync_params = *ctx.sync_params;
    prev_sync_params = *ctx.prev_sync_params;
    participants = ctx.ActiveWorkers();
  }
};

/// One round as the decorator saw it.
struct RoundRecord {
  size_t step = 0;
  double begin_s = 0.0;  // MaybeSync entry, seconds after Initialize
  double end_s = 0.0;    // MaybeSync return
  bool synced = false;   // ctx.sync_count advanced
  int participants = 0;
};

/// How many times the measured loop called each probed layer function.
struct LayerCalls {
  uint64_t worker_steps = 0;  // batch + forward/backward + optimizer step
  uint64_t mask = 0;          // monitor-side MaskPreview
  uint64_t encode = 0;        // CompressInPlace per shipped payload
  uint64_t state_allreduce = 0;
  uint64_t model_allreduce = 0;
  uint64_t fault_rounds = 0;
  uint64_t swaps = 0;
  uint64_t evals = 0;
};

/// Call counts of one run. Every workload here is fault-free or churn-only,
/// so a round's participants are exactly the workers that stepped.
inline LayerCalls CountLayerCalls(const Workload& w,
                                  const std::vector<RoundRecord>& rounds,
                                  const TrainResult& result) {
  LayerCalls calls;
  const TrainerConfig& config = w.trainer;
  const bool compressed = config.sync_compression.enabled();
  for (const RoundRecord& r : rounds) {
    calls.worker_steps += static_cast<uint64_t>(r.participants);
    if (r.synced && compressed) {
      calls.encode += static_cast<uint64_t>(r.participants);
    }
  }
  const SyncCompressor codec(config.sync_compression, 1, 1);
  calls.mask = compressed && codec.has_mask() ? calls.worker_steps : 0;
  uint64_t state_groups = 1;
  if (config.topology.enabled()) {
    state_groups = 0;
    for (int g = 0; g < config.topology.num_leaf_groups(); ++g) {
      state_groups += config.topology.GroupSize(g, config.num_workers) > 0;
    }
  }
  calls.state_allreduce = rounds.size() * state_groups;
  calls.model_allreduce =
      result.comm.model_sync_count + result.comm.subtree_sync_count;
  calls.fault_rounds = config.faults.enabled() ? result.total_steps : 0;
  calls.swaps = result.comm.check_in_syncs;
  // Two EvaluateSubset passes per eval point; the last point runs after the
  // final MaybeSync, outside the measured loop.
  const size_t last_step = rounds.empty() ? 0 : rounds.back().step;
  for (const EvalPoint& point : result.history) {
    calls.evals += point.step < last_step ? 2 : 0;
  }
  return calls;
}

struct ProbeStat {
  std::string name;
  double p50_us = 0.0;
  uint64_t calls = 0;
  double est_s = 0.0;
};

/// Median wall time of `call(i)` in microseconds over calls i = 0, 1, ...,
/// at least kMinProbeCalls of them and kMinProbeSeconds in all;
/// `prepare(i)` runs untimed before each call.
template <typename Prepare, typename Call>
double MedianMicros(Prepare&& prepare, Call&& call) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> micros;
  const Clock::time_point start = Clock::now();
  while (micros.size() < kMinProbeCalls ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             kMinProbeSeconds) {
    const size_t i = micros.size();
    prepare(i);
    const Clock::time_point begin = Clock::now();
    call(i);
    micros.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - begin)
            .count());
  }
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  return micros[micros.size() / 2];
}

template <typename Call>
double MedianMicros(Call&& call) {
  return MedianMicros([](size_t) {}, call);
}

/// Times every layer probe. `step_width` is how many worker steps the
/// trainer runs concurrently (the pool size under parallel_workers, else 1);
/// per-worker-step probes divide their estimate by it.
inline std::vector<ProbeStat> RunProbes(const Workload& w,
                                        const SynthImageData& data,
                                        const LiveRows& rows,
                                        const LayerCalls& calls,
                                        double step_width) {
  const TrainerConfig& config = w.trainer;
  const size_t dim = rows.dim;
  const size_t workers = rows.workers;
  const size_t state_size = rows.state_size;
  std::vector<ProbeStat> stats;
  auto add = [&stats](const char* name, double p50_us, uint64_t n,
                      double width) {
    stats.push_back({name, p50_us, n,
                     1e-6 * p50_us * static_cast<double>(n) / width});
  };

  // data.batch: each worker's sampler and batch gather.
  auto shards = PartitionDataset(data.train.labels(), config.num_workers,
                                 config.partition);
  FEDRA_CHECK_OK(shards.status());
  std::vector<BatchSampler> samplers;
  for (size_t k = 0; k < workers; ++k) {
    samplers.emplace_back((*shards)[k], config.batch_size,
                          Rng(config.seed).Fork(k + 1));
  }
  add("data.batch", MedianMicros([&](size_t i) {
        const std::vector<size_t>& batch = samplers[i % workers].NextBatch();
        Tensor images = data.train.GatherImages(batch);
        std::vector<int> labels = data.train.GatherLabels(batch);
      }),
      calls.worker_steps, step_width);

  // nn.fwd_bwd: one worker step's gradient (zeroing included, as in the
  // trainer) against that worker's row of a copied params slab.
  std::unique_ptr<Model> model = w.factory();
  ModelGraph& graph = model->graph();
  ModelGraph::ExecSlot slot = graph.AcquireSlot();
  std::vector<float> params = rows.params;
  std::vector<float> grads(workers * dim);
  std::vector<Tensor> images;
  std::vector<std::vector<int>> labels;
  for (size_t k = 0; k < workers; ++k) {
    const std::vector<size_t> batch = samplers[k].NextBatch();
    images.push_back(data.train.GatherImages(batch));
    labels.push_back(data.train.GatherLabels(batch));
  }
  Rng dropout_rng(config.seed);
  add("nn.fwd_bwd", MedianMicros([&](size_t i) {
        const size_t k = i % workers;
        const ParameterView view{Row(params, k, dim), Row(grads, k, dim), dim};
        vec::Fill(view.grads, dim, 0.0f);
        Tensor logits =
            graph.Forward(images[k], view, slot, /*training=*/true,
                          &dropout_rng);
        LossResult loss = SoftmaxCrossEntropy(logits, labels[k]);
        graph.Backward(loss.grad_logits, view, slot);
      }),
      calls.worker_steps, step_width);

  // opt.step: each worker's optimizer, on its own copied state, applying
  // the gradient the previous probe left in its row.
  std::vector<float> opt_state = rows.opt_state;
  std::vector<std::unique_ptr<Optimizer>> optimizers;
  for (size_t k = 0; k < workers; ++k) {
    optimizers.push_back(Optimizer::Create(
        config.local_optimizer, dim,
        rows.opt_floats > 0 ? Row(opt_state, k, rows.opt_floats) : nullptr));
  }
  // Create zeroed the rows it was given.
  std::copy(rows.opt_state.begin(), rows.opt_state.end(), opt_state.begin());
  add("opt.step", MedianMicros([&](size_t i) {
        const size_t k = i % workers;
        optimizers[k]->Step(Row(params, k, dim), Row(grads, k, dim), dim);
      }),
      calls.worker_steps, step_width);

  // core.variance_monitor.state: drift + local state of each live row, on
  // the masked drift when the codec masks (the mask selection itself is
  // its own probe). Workloads without a codec time the dense path, and the
  // codec probes use the fleet's top-5% + q8 stack as a stand-in.
  auto monitor = MakeVarianceMonitor(WorkloadMonitor(w), dim);
  FEDRA_CHECK_OK(monitor.status());
  (*monitor)->OnSynchronized(rows.sync_params.data(),
                             rows.prev_sync_params.data());
  const CompressionConfig codec_config =
      config.sync_compression.enabled()
          ? config.sync_compression
          : CompressionConfig::TopKQuantize(0.05, 8);
  SyncCompressor compressor(codec_config, dim, static_cast<int>(workers));
  std::vector<size_t> layer_offsets;
  for (size_t b = 0; b < model->store().num_blocks(); ++b) {
    layer_offsets.push_back(model->store().block(b).offset);
  }
  compressor.SetLayerOffsets(layer_offsets, dim);
  std::vector<float> drift(workers * dim);
  std::vector<float> states = rows.states;
  std::vector<std::vector<uint32_t>> kept(workers);
  for (size_t k = 0; k < workers; ++k) {
    vec::Sub(Row(rows.params, k, dim), rows.sync_params.data(),
             Row(drift, k, dim), dim);
    const size_t count = compressor.MaskPreview(Row(drift, k, dim), dim);
    kept[k].assign(compressor.kept_indices().begin(),
                   compressor.kept_indices().begin() +
                       static_cast<std::ptrdiff_t>(count));
  }
  const bool masked = calls.mask > 0;
  add("core.variance_monitor.state", MedianMicros([&](size_t i) {
        const size_t k = i % workers;
        float* drift_k = Row(drift, k, dim);
        float* state_k = Row(states, k, state_size);
        if (masked) {
          vec::Sub(Row(rows.params, k, dim), rows.sync_params.data(), drift_k,
                   dim);
          (*monitor)->ComputeLocalStateSparse(drift_k, kept[k].data(),
                                              kept[k].size(), state_k);
        } else {
          (*monitor)->ComputeDriftAndState(Row(rows.params, k, dim),
                                           rows.sync_params.data(), drift_k,
                                           state_k);
        }
      }),
      calls.worker_steps, 1.0);

  // core.compression.{mask,encode}: the monitor's mask preview and the
  // sync-time encode (with each worker's error-feedback residual).
  for (size_t k = 0; k < workers; ++k) {
    vec::Sub(Row(rows.params, k, dim), rows.sync_params.data(),
             Row(drift, k, dim), dim);
  }
  add("core.compression.mask", MedianMicros([&](size_t i) {
        compressor.MaskPreview(Row(drift, i % workers, dim), dim);
      }),
      calls.mask, 1.0);
  std::vector<float> payload(dim);
  add("core.compression.encode",
      MedianMicros(
          [&](size_t i) {
            vec::Copy(Row(drift, i % workers, dim), payload.data(), dim);
          },
          [&](size_t i) {
            compressor.CompressInPlace(static_cast<int>(i % workers),
                                       payload.data(), dim);
          }),
      calls.encode, 1.0);

  // sim.collectives.{state,model}_allreduce: the variant the workload's
  // policy calls, over copies of the live rows.
  SimNetwork network = MakeSimNetwork(config);
  std::vector<float> state_rows = rows.states;
  std::vector<float> param_rows = rows.params;
  auto pointers = [](std::vector<float>& slab, size_t len,
                     const std::vector<int>& ids) {
    std::vector<float*> out;
    for (int id : ids) {
      out.push_back(Row(slab, static_cast<size_t>(id), len));
    }
    return out;
  };
  if (config.topology.enabled()) {
    // Leaf group 0: the hierarchical scheduler's per-group state AllReduce
    // and its most frequent subtree model average.
    const TopologyTree& tree = network.tree();
    const int begin = tree.GroupBegin(0, config.num_workers);
    std::vector<int> group(
        static_cast<size_t>(tree.GroupSize(0, config.num_workers)));
    for (size_t i = 0; i < group.size(); ++i) {
      group[i] = begin + static_cast<int>(i);
    }
    const int node = tree.NodeOfLeafGroup(0);
    const std::vector<float*> group_states =
        pointers(state_rows, state_size, group);
    const std::vector<float*> group_params = pointers(param_rows, dim, group);
    add("sim.collectives.state_allreduce", MedianMicros([&](size_t) {
          network.SubtreeAllReduceAverage(node, group_states, state_size,
                                          TrafficClass::kLocalState);
        }),
        calls.state_allreduce, 1.0);
    add("sim.collectives.model_allreduce", MedianMicros([&](size_t) {
          network.SubtreeAllReduceAverage(node, group_params, dim,
                                          TrafficClass::kModelSync);
        }),
        calls.model_allreduce, 1.0);
  } else if (config.faults.enabled()) {
    // Survivors-only collectives; compressed syncs ship coded deltas.
    const std::vector<int>& active = rows.participants;
    const std::vector<float*> active_states =
        pointers(state_rows, state_size, active);
    const std::vector<float*> active_params =
        pointers(param_rows, dim, active);
    const std::vector<size_t> wire(active.size(), compressor.WireBytes(dim));
    add("sim.collectives.state_allreduce", MedianMicros([&](size_t) {
          network.AllReduceAverageSubset(active_states, active, state_size,
                                         TrafficClass::kLocalState);
        }),
        calls.state_allreduce, 1.0);
    add("sim.collectives.model_allreduce", MedianMicros([&](size_t) {
          if (config.sync_compression.enabled()) {
            network.AllReduceAverageSubsetWithPayloads(
                active_params, active, dim, wire, TrafficClass::kModelSync);
          } else {
            network.AllReduceAverageSubset(active_params, active, dim,
                                           TrafficClass::kModelSync);
          }
        }),
        calls.model_allreduce, 1.0);
  } else {
    std::vector<int> all(workers);
    for (size_t k = 0; k < workers; ++k) {
      all[k] = static_cast<int>(k);
    }
    const std::vector<float*> all_states =
        pointers(state_rows, state_size, all);
    const std::vector<float*> all_params = pointers(param_rows, dim, all);
    add("sim.collectives.state_allreduce", MedianMicros([&](size_t) {
          network.AllReduceAverage(all_states, state_size,
                                   TrafficClass::kLocalState);
        }),
        calls.state_allreduce, 1.0);
    add("sim.collectives.model_allreduce", MedianMicros([&](size_t) {
          network.AllReduceAverage(all_params, dim, TrafficClass::kModelSync);
        }),
        calls.model_allreduce, 1.0);
  }

  // sim.fault_model.round: one BeginRound over every fault entity (the
  // whole population in fleet mode); a churn stand-in where faults are off.
  const FaultConfig faults =
      config.faults.enabled() ? config.faults : FaultConfig::Churn(10.0, 2.5);
  std::unique_ptr<FaultInjector> injector;
  if (config.fleet_enabled()) {
    std::vector<int> client_links(config.population);
    for (size_t c = 0; c < config.population; ++c) {
      client_links[c] = static_cast<int>(c);
    }
    injector = std::make_unique<FaultInjector>(
        faults, static_cast<int>(config.population), config.seed,
        std::move(client_links), static_cast<int>(config.population));
  } else {
    injector = std::make_unique<FaultInjector>(
        faults, config.num_workers, config.seed,
        network.tree().enabled() ? &network.tree() : nullptr);
  }
  add("sim.fault_model.round",
      MedianMicros([&](size_t) { injector->BeginRound(); }),
      calls.fault_rounds, 1.0);

  // core.client_store.swap: one check-out + check-in of a client's page
  // (drift, optimizer vectors, monitor state, EF residual).
  ClientStoreConfig store_config;
  store_config.population = config.fleet_enabled() ? config.population
                                                   : 2 * workers;
  store_config.cohort_slots = config.num_workers;
  store_config.dim = dim;
  store_config.opt_state_slots = config.local_optimizer.StateSlots();
  store_config.seed = config.seed;
  ClientStateStore store(store_config, network.tree().enabled()
                                           ? &network.tree()
                                           : nullptr);
  store.SetStateSize(state_size);
  store.SetResidualSize(compressor.has_residuals() ? dim : 0);
  std::vector<float> swap_params(Row(rows.params, 0, dim),
                                 Row(rows.params, 0, dim) + dim);
  std::vector<float> swap_opt(rows.opt_state.begin(),
                              rows.opt_state.begin() +
                                  static_cast<std::ptrdiff_t>(rows.opt_floats));
  std::vector<float> swap_state(Row(rows.states, 0, state_size),
                                Row(rows.states, 0, state_size) + state_size);
  std::vector<float> residual(compressor.has_residuals() ? dim : 0);
  const uint32_t client = static_cast<uint32_t>(workers);
  store.AdoptInitialResident(client);
  add("core.client_store.swap", MedianMicros([&](size_t) {
        store.CheckOut(client, swap_params.data(), rows.sync_params.data(),
                       swap_opt.empty() ? nullptr : swap_opt.data(), Rng(1),
                       Rng(2), 1, 1, monitor->get(),
                       residual.empty() ? nullptr : residual.data());
        store.CheckIn(client, rows.sync_params.data(), swap_params.data(),
                      swap_opt.empty() ? nullptr : swap_opt.data(),
                      swap_state.data(),
                      residual.empty() ? nullptr : residual.data());
      }),
      calls.swaps, 1.0);

  // metrics.eval: one mid-training EvaluateSubset pass over the model the
  // loop evaluates (here: worker 0's live row).
  vec::Copy(Row(rows.params, 0, dim), model->params(), dim);
  uint64_t eval_seed = config.seed;
  add("metrics.eval", MedianMicros([&](size_t) {
        EvaluateSubset(model.get(), data.test, config.eval_subset,
                       ++eval_seed);
      }),
      calls.evals, 1.0);
  return stats;
}

}  // namespace e2e
}  // namespace fedra

#endif  // FEDRA_BENCH_E2E_PROBES_H_
