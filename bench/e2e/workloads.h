// The end-to-end benchmark's workload table.
//
// Four closed-loop FDA training runs, each a single trainer running a fixed
// number of rounds back to back with early stop off. They were chosen so
// that each layer of the round is exercised by one workload and bypassed by
// another (bench/e2e/README.md has the full rationale and the layer -> metric
// prediction table):
//
//   lenet_sketchfda    conv forward/backward dominates; L2-resident rows.
//   mlp_wide_parallel  parallel worker steps, serial dense monitor pass over
//                      rows that spill the LLC.
//   fleet_codec        paged 10^5-client fleet, churn, top-k + q8 codec with
//                      error feedback: the masked monitor and subset
//                      payload collectives.
//   tree_hierfda       3-tier tree, hierarchical FDA: many subtree model
//                      averages through the grouped schedule.
//
// Only the stable public surface is used: TrainerConfig, the policy
// factories and DistributedTrainer::Run.

#ifndef FEDRA_BENCH_E2E_WORKLOADS_H_
#define FEDRA_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"

namespace fedra {
namespace e2e {

struct Workload {
  std::string name;
  SynthImageConfig data;
  ModelFactory factory;
  TrainerConfig trainer;
  /// Flat FDA policy (ignored when `hierarchical` is set).
  AlgorithmConfig algorithm;
  /// Hierarchical FDA over trainer.topology.
  bool hierarchical = false;
  HierarchicalFdaConfig hier;
  /// Global thread-pool size (capped at the host's core count).
  size_t threads = 1;
  /// Test accuracy whose first eval point defines time-to-target.
  double target = 1.0;
  /// Final test accuracy every correct run must reach, on any seed.
  double floor = 0.0;
};

/// MNIST-like 16x16 synthetic digits; the seed is set per run.
inline SynthImageConfig MnistLike(size_t train, size_t test) {
  SynthImageConfig data = MnistLikeConfig();
  data.num_train = train;
  data.num_test = test;
  return data;
}

inline std::vector<Workload> Workloads() {
  std::vector<Workload> table;
  {
    // The paper's Fig. 3 setting (LeNet-5, SketchFDA) on 16x16 inputs.
    Workload w;
    w.name = "lenet_sketchfda";
    w.data = MnistLike(4096, 1024);
    w.factory = [] { return zoo::LeNet5(1, 16, 10); };
    w.trainer.num_workers = 8;
    w.trainer.batch_size = 32;
    w.trainer.local_optimizer = OptimizerConfig::Adam(0.002f);
    w.trainer.max_steps = 300;
    w.trainer.eval_every_steps = 25;
    w.trainer.eval_subset = 512;
    w.algorithm = AlgorithmConfig::SketchFda(2.0);
    w.target = 0.975;
    w.floor = 0.9;
    table.push_back(std::move(w));
  }
  {
    // 16 workers x 5 model-sized rows of a d = 265k MLP: ~85 MB of slabs.
    Workload w;
    w.name = "mlp_wide_parallel";
    w.data = MnistLike(4096, 1024);
    w.factory = [] { return zoo::Mlp(16 * 16, {512, 256}, 10); };
    w.trainer.num_workers = 16;
    w.trainer.batch_size = 8;
    w.trainer.local_optimizer = OptimizerConfig::Adam(0.001f);
    w.trainer.network = NetworkModel::Federated();
    w.trainer.parallel_workers = true;
    w.trainer.max_steps = 300;
    w.trainer.eval_every_steps = 25;
    w.trainer.eval_subset = 512;
    w.algorithm = AlgorithmConfig::SketchFda(0.5);
    w.threads = 4;
    w.target = 0.99;
    w.floor = 0.9;
    table.push_back(std::move(w));
  }
  {
    // examples/compressed_fleet_fda.cpp's churned fleet with the top-5% +
    // q8 codec.
    Workload w;
    w.name = "fleet_codec";
    w.data = MnistLike(2048, 512);
    w.factory = [] { return zoo::Mlp(16 * 16, {64}, 10); };
    w.trainer.num_workers = 64;
    w.trainer.population = 100000;
    w.trainer.cohort_size = 64;
    w.trainer.cohort_steps = 20;
    w.trainer.cohort_schedule = CohortScheduleKind::kAvailability;
    w.trainer.batch_size = 8;
    w.trainer.local_optimizer = OptimizerConfig::Sgd(0.05f);
    w.trainer.partition = PartitionConfig::SortedFraction(0.5);
    w.trainer.network = NetworkModel::Federated();
    w.trainer.faults = FaultConfig::Churn(10.0, 2.5);
    w.trainer.sync_compression = CompressionConfig::TopKQuantize(0.05, 8);
    w.trainer.max_steps = 600;
    w.trainer.eval_every_steps = 40;
    w.trainer.eval_subset = 256;
    w.algorithm = AlgorithmConfig::LinearFda(0.15);
    w.target = 0.8;
    w.floor = 0.6;
    table.push_back(std::move(w));
  }
  {
    // Device -> site -> cloud: 4 sites of 2 device groups, 32 devices.
    Workload w;
    w.name = "tree_hierfda";
    w.data = MnistLike(2048, 512);
    w.factory = [] { return zoo::Mlp(16 * 16, {256}, 10); };
    w.trainer.num_workers = 32;
    w.trainer.batch_size = 4;
    w.trainer.local_optimizer = OptimizerConfig::Adam(0.002f);
    w.trainer.topology = TopologyTree::DeviceSiteCloud(4, 2);
    w.trainer.max_steps = 600;
    w.trainer.eval_every_steps = 40;
    w.trainer.eval_subset = 256;
    w.hierarchical = true;
    w.hier.monitor.kind = MonitorKind::kLinear;
    w.hier.theta_by_depth = {1.0, 0.5, 0.2};
    w.target = 0.99;
    w.floor = 0.9;
    table.push_back(std::move(w));
  }
  return table;
}

/// The workload's sync policy for a model of dimension `dim`.
inline StatusOr<std::unique_ptr<SyncPolicy>> MakeWorkloadPolicy(
    const Workload& w, size_t dim) {
  if (!w.hierarchical) {
    return MakeSyncPolicy(w.algorithm, dim);
  }
  auto policy = MakeHierarchicalFdaPolicy(w.hier, dim);
  if (!policy.ok()) {
    return policy.status();
  }
  return std::unique_ptr<SyncPolicy>(std::move(policy).value());
}

/// The variance monitor configuration the workload's policy runs.
inline const MonitorConfig& WorkloadMonitor(const Workload& w) {
  return w.hierarchical ? w.hier.monitor : w.algorithm.monitor;
}

}  // namespace e2e
}  // namespace fedra

#endif  // FEDRA_BENCH_E2E_WORKLOADS_H_
