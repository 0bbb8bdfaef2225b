// NetworkModel: converts transmitted bytes into simulated wall-clock time.
//
// The paper evaluates three connectivity regimes when discussing the choice
// of Theta (Fig. 12): an HPC cluster (InfiniBand FDR14, up to 56 Gb/s), a
// federated setting with a 0.5 Gb/s shared channel, and a balanced middle
// ground. The model is intentionally simple — per-collective latency plus
// payload/bandwidth — because the paper's metrics only need relative time.
//
// Multi-tier topologies (edge -> cloud, device -> site -> cloud and deeper)
// live in sim/topology_tree.h: every tier node of a TopologyTree owns one
// NetworkModel.

#ifndef FEDRA_SIM_NETWORK_MODEL_H_
#define FEDRA_SIM_NETWORK_MODEL_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace fedra {

enum class AllReduceAlgorithm {
  kFlat,  // reduce-to-root + broadcast; paper-style accounting: each worker
          // transmits its payload once per collective
  kRing,  // bandwidth-optimal ring: 2 (K-1)/K payload per worker
  kRecursiveHalving,  // recursive-halving reduce-scatter + recursive-doubling
                      // allgather: 2 ceil(log2 K) latency rounds, ring-equal
                      // bytes — the latency-optimal choice for small payloads
};

/// Short display name ("flat", "ring", "halving") for logs and benches.
const char* AllReduceAlgorithmName(AllReduceAlgorithm algorithm);

struct NetworkModel {
  std::string name = "custom";
  double bandwidth_bytes_per_sec = 1e9;  // per worker uplink
  double latency_seconds = 1e-4;         // per collective, fixed overhead

  /// Simulated duration of one AllReduce of `payload_bytes` per worker.
  /// kFlat models a shared channel: all K payloads transit it serially, so
  /// the duration charges K payloads (consistent with
  /// AllReduceTotalBytesFromSum — every worker transmits its payload once).
  /// kRing/kRecursiveHalving move per-worker shares concurrently and pay
  /// per-round latencies instead.
  /// Takes a double so variable-size compressed collectives can bill their
  /// exact mean wire size (sum / K) without integer truncation.
  double AllReduceSeconds(double payload_bytes, int num_workers,
                          AllReduceAlgorithm algorithm) const;

  /// Total bytes transmitted by all workers for one AllReduce, computed
  /// from the summed wire size of all workers: flat transmits the sum once,
  /// ring and recursive halving move 2 (K-1)/K of it. Double in/out so no
  /// truncation happens before the caller rounds to whole bytes.
  static double AllReduceTotalBytesFromSum(double payload_bytes_sum,
                                           int num_workers,
                                           AllReduceAlgorithm algorithm);

  /// OK when the link can carry traffic: bandwidth > 0 and latency >= 0,
  /// NaN failing both.
  Status Validate() const;

  /// ARIS-like HPC interconnect (InfiniBand FDR14, 56 Gb/s).
  static NetworkModel Hpc();
  /// Federated setting: 0.5 Gb/s shared channel, higher latency (paper
  /// Fig. 12 "FL" line).
  static NetworkModel Federated();
  /// Balanced communication/computation regime (paper Fig. 12 "Balanced").
  static NetworkModel Balanced();
  /// Edge LAN: fast local links between co-located edge workers (the
  /// cluster tier of TopologyTree::EdgeCloud).
  static NetworkModel EdgeLan();
};

}  // namespace fedra

#endif  // FEDRA_SIM_NETWORK_MODEL_H_
