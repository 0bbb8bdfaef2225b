#include "sim/network_model.h"

#include "util/check.h"

namespace fedra {

namespace {

// ceil(log2 k) for k >= 1: the round count of recursive halving/doubling.
int CeilLog2(int k) {
  int rounds = 0;
  int reach = 1;
  while (reach < k) {
    reach *= 2;
    ++rounds;
  }
  return rounds;
}

}  // namespace

const char* AllReduceAlgorithmName(AllReduceAlgorithm algorithm) {
  switch (algorithm) {
    case AllReduceAlgorithm::kFlat:
      return "flat";
    case AllReduceAlgorithm::kRing:
      return "ring";
    case AllReduceAlgorithm::kRecursiveHalving:
      return "halving";
  }
  return "unknown";
}

double NetworkModel::AllReduceSeconds(double payload_bytes, int num_workers,
                                      AllReduceAlgorithm algorithm) const {
  FEDRA_CHECK_GT(num_workers, 0);
  FEDRA_CHECK_GT(bandwidth_bytes_per_sec, 0.0);
  if (num_workers == 1) {
    return 0.0;  // nothing to communicate
  }
  switch (algorithm) {
    case AllReduceAlgorithm::kFlat:
      // Shared channel: every worker transmits its payload once and all K
      // payloads transit the same medium serially — the duration charges K
      // payloads, matching AllReduceTotalBytesFromSum.
      return latency_seconds + static_cast<double>(num_workers) *
                                   payload_bytes / bandwidth_bytes_per_sec;
    case AllReduceAlgorithm::kRing:
      // Textbook alpha-beta cost (Thakur et al.): 2 (K-1) rounds, each
      // paying the link latency and moving payload/K per worker
      // concurrently.
      return 2.0 * (num_workers - 1) *
             (latency_seconds +
              payload_bytes / (num_workers * bandwidth_bytes_per_sec));
    case AllReduceAlgorithm::kRecursiveHalving:
      // Recursive-halving reduce-scatter + recursive-doubling allgather:
      // 2 ceil(log2 K) rounds, each worker moving 2 (K-1)/K of a payload in
      // total, all links active concurrently.
      return 2.0 * CeilLog2(num_workers) * latency_seconds +
             2.0 * (num_workers - 1) * payload_bytes /
                 (num_workers * bandwidth_bytes_per_sec);
  }
  FEDRA_CHECK(false) << "unknown allreduce algorithm";
  return 0.0;
}

double NetworkModel::AllReduceTotalBytesFromSum(
    double payload_bytes_sum, int num_workers,
    AllReduceAlgorithm algorithm) {
  FEDRA_CHECK_GT(num_workers, 0);
  if (num_workers == 1) {
    return 0.0;
  }
  switch (algorithm) {
    case AllReduceAlgorithm::kFlat:
      return payload_bytes_sum;
    case AllReduceAlgorithm::kRing:
    case AllReduceAlgorithm::kRecursiveHalving:
      return 2.0 * (num_workers - 1) * payload_bytes_sum / num_workers;
  }
  FEDRA_CHECK(false) << "unknown allreduce algorithm";
  return 0.0;
}

Status NetworkModel::Validate() const {
  if (!(bandwidth_bytes_per_sec > 0.0)) {  // NaN fails too
    return Status::InvalidArgument("link bandwidth must be > 0 (" + name +
                                   ")");
  }
  if (!(latency_seconds >= 0.0)) {
    return Status::InvalidArgument("link latency must be >= 0 (" + name +
                                   ")");
  }
  return Status::Ok();
}

NetworkModel NetworkModel::Hpc() {
  NetworkModel model;
  model.name = "HPC";
  model.bandwidth_bytes_per_sec = 56e9 / 8.0;  // 56 Gb/s InfiniBand FDR14
  model.latency_seconds = 5e-6;
  return model;
}

NetworkModel NetworkModel::Federated() {
  NetworkModel model;
  model.name = "FL";
  model.bandwidth_bytes_per_sec = 0.5e9 / 8.0;  // 0.5 Gb/s shared channel
  model.latency_seconds = 20e-3;
  return model;
}

NetworkModel NetworkModel::Balanced() {
  NetworkModel model;
  model.name = "Balanced";
  model.bandwidth_bytes_per_sec = 5e9 / 8.0;
  model.latency_seconds = 1e-3;
  return model;
}

NetworkModel NetworkModel::EdgeLan() {
  NetworkModel model;
  model.name = "EdgeLAN";
  model.bandwidth_bytes_per_sec = 10e9 / 8.0;  // 10 Gb/s local links
  model.latency_seconds = 0.5e-3;
  return model;
}

}  // namespace fedra
