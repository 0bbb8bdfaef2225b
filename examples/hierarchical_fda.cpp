// Hierarchical (edge -> cloud) FDA: the same training run under a flat
// federated channel vs. a two-tier topology — 8 edge workers in 2 clusters,
// fast LAN links inside each cluster, one slow uplink between them. The
// grouped AllReduce (reduce within cluster -> exchange across -> broadcast
// down) keeps most payload movement on the cheap tier, and the per-depth
// CommStats breakdown shows exactly where the simulated seconds went.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/hierarchical_fda

#include <cstdio>

#include "core/algorithms.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"
#include "util/string_util.h"

using namespace fedra;

int main() {
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 2048;
  data_config.num_test = 512;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  FEDRA_CHECK_OK(data.status());

  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {32}, 10); };
  std::printf("model: MLP with d = %zu parameters\n",
              factory()->num_params());

  TrainerConfig config;
  config.num_workers = 8;  // K edge workers
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 17;
  config.max_steps = 400;
  config.eval_every_steps = 50;
  config.eval_subset = 256;
  config.network = NetworkModel::Federated();

  struct Scenario {
    const char* label;
    TopologyTree topology;
  };
  const Scenario scenarios[] = {
      {"flat federated channel", TopologyTree()},
      {"edge->cloud, 2 clusters", TopologyTree::EdgeCloud(2)},
  };

  for (const Scenario& scenario : scenarios) {
    TrainerConfig run_config = config;
    run_config.topology = scenario.topology;
    DistributedTrainer trainer(factory, data->train, data->test, run_config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(/*theta=*/1.0),
                                 trainer.model_dim());
    FEDRA_CHECK_OK(policy.status());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK_OK(result.status());
    const CommStats& comm = result->comm;
    std::printf(
        "\n%s [%s]\n"
        "  final test accuracy: %.1f%%  (model syncs: %llu)\n"
        "  communication: %s total (state %s, model %s)\n"
        "  comm seconds: %.3fs total\n"
        "    by tier:  intra-cluster %.3fs | cross-cluster uplink %.3fs\n"
        "    by class: local state %.3fs | model sync %.3fs\n",
        result->algorithm.c_str(), scenario.label,
        100.0 * result->final_test_accuracy,
        static_cast<unsigned long long>(result->total_syncs),
        HumanBytes(static_cast<double>(comm.bytes_total)).c_str(),
        HumanBytes(static_cast<double>(comm.bytes_local_state)).c_str(),
        HumanBytes(static_cast<double>(comm.bytes_model_sync)).c_str(),
        comm.comm_seconds, comm.SecondsAtDepth(1), comm.SecondsAtDepth(0),
        comm.seconds_local_state, comm.seconds_model_sync);
  }
  std::printf(
      "\nIn the flat topology every synchronization pushes all K payloads\n"
      "through the slow shared channel; grouped over the hierarchy, only\n"
      "the cluster leaders cross the uplink while member traffic stays on\n"
      "the edge LAN tier.\n");
  return 0;
}
