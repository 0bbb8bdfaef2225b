// Communication accounting for a simulated training run.
//
// The paper's primary metric is "total data (in bytes) transmitted by all
// workers" (§4.1 Evaluation Methodology). The simulator attributes every
// transmitted byte to one of two traffic classes so benches can report the
// split the paper discusses: small per-step local-state traffic vs. the
// expensive model synchronization traffic. Simulated time and bytes are
// broken down two ways: by traffic class and per topology depth (index 0
// is the root tier — the one shared channel of a single-tier network —
// and deeper tiers of a TopologyTree follow). Each breakdown sums to the
// totals.

#ifndef FEDRA_SIM_COMM_STATS_H_
#define FEDRA_SIM_COMM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fedra {

enum class TrafficClass {
  kLocalState,  // FDA per-step state AllReduce (sketch / scalars)
  kModelSync,   // full-model AllReduce (the costly synchronization)
};

struct CommStats {
  uint64_t allreduce_calls = 0;
  uint64_t broadcast_calls = 0;
  uint64_t p2p_calls = 0;
  uint64_t model_sync_count = 0;     // #full-model synchronizations
  // Cluster-scoped traffic of the hierarchical FDA scheduler: collectives
  // confined to one subtree of the topology tree.
  uint64_t subtree_allreduce_calls = 0;  // all subtree collectives
  uint64_t subtree_sync_count = 0;       // model-payload subtree averages
  uint64_t child_exchange_calls = 0;     // escalation state exchanges
  // Fault-layer accounting (FaultInjector runs): lost sync contributions
  // retried with exponential backoff, contributions dropped after the
  // retry budget, and catch-up model downloads paid by rejoining workers.
  uint64_t retries = 0;           // retransmissions of lost contributions
  uint64_t dropped_messages = 0;  // contributions lost after max_retries
  uint64_t catch_up_syncs = 0;    // rejoin model downloads
  // Fleet accounting: model downloads paid by freshly sampled clients on
  // cohort check-in (sticky re-sampled residents pay nothing).
  uint64_t check_in_syncs = 0;
  uint64_t bytes_total = 0;          // all bytes transmitted by all workers
  uint64_t bytes_local_state = 0;
  uint64_t bytes_model_sync = 0;
  // Downlink share of bytes_model_sync: catch-up and check-in model
  // downloads (server -> client). bytes_model_sync minus this is the
  // uplink-side synchronization traffic — the part a sync compressor
  // shrinks.
  uint64_t bytes_model_downlink = 0;
  double comm_seconds = 0.0;         // simulated time spent communicating
  // Per-traffic-class time split; sums to comm_seconds.
  double seconds_local_state = 0.0;
  double seconds_model_sync = 0.0;
  // Time spent on retransmissions + backoff. Informational subset marker:
  // retry charges are attributed to their traffic class and depth like any
  // other transfer, and additionally accumulated here.
  double seconds_retry = 0.0;
  // Per-depth split; [0] is the root tier. Sized on first charge
  // (single-tier networks charge depth 0), sums to comm_seconds /
  // bytes_total.
  std::vector<double> seconds_by_depth;
  std::vector<uint64_t> bytes_by_depth;

  /// Accumulates one tier charge into the per-depth arrays (grows them on
  /// demand). The caller is responsible for also updating the aggregate
  /// fields; SimNetwork is the only writer.
  void ChargeDepth(size_t depth, uint64_t bytes, double seconds) {
    if (seconds_by_depth.size() <= depth) {
      seconds_by_depth.resize(depth + 1, 0.0);
      bytes_by_depth.resize(depth + 1, 0);
    }
    seconds_by_depth[depth] += seconds;
    bytes_by_depth[depth] += bytes;
  }

  double SecondsAtDepth(size_t depth) const {
    return depth < seconds_by_depth.size() ? seconds_by_depth[depth] : 0.0;
  }
  uint64_t BytesAtDepth(size_t depth) const {
    return depth < bytes_by_depth.size() ? bytes_by_depth[depth] : 0;
  }

  /// Resets all counters to zero.
  void Clear() { *this = CommStats(); }

  /// Accumulates another stats record into this one.
  void Merge(const CommStats& other) {
    allreduce_calls += other.allreduce_calls;
    broadcast_calls += other.broadcast_calls;
    p2p_calls += other.p2p_calls;
    model_sync_count += other.model_sync_count;
    subtree_allreduce_calls += other.subtree_allreduce_calls;
    subtree_sync_count += other.subtree_sync_count;
    child_exchange_calls += other.child_exchange_calls;
    retries += other.retries;
    dropped_messages += other.dropped_messages;
    catch_up_syncs += other.catch_up_syncs;
    check_in_syncs += other.check_in_syncs;
    bytes_total += other.bytes_total;
    bytes_local_state += other.bytes_local_state;
    bytes_model_sync += other.bytes_model_sync;
    bytes_model_downlink += other.bytes_model_downlink;
    comm_seconds += other.comm_seconds;
    seconds_local_state += other.seconds_local_state;
    seconds_model_sync += other.seconds_model_sync;
    seconds_retry += other.seconds_retry;
    for (size_t d = 0; d < other.seconds_by_depth.size(); ++d) {
      ChargeDepth(d, other.bytes_by_depth[d], other.seconds_by_depth[d]);
    }
  }

  double gigabytes_total() const {
    return static_cast<double>(bytes_total) / (1024.0 * 1024.0 * 1024.0);
  }

  std::string ToString() const;
};

}  // namespace fedra

#endif  // FEDRA_SIM_COMM_STATS_H_
