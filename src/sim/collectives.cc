#include "sim/collectives.h"

#include <algorithm>
#include <cmath>

#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fedra {

namespace {

// Elements per reduction-engine chunk. Boundaries depend only on the span
// length (the pool hands out fixed [i*grain, (i+1)*grain) ranges), so the
// combine order — and therefore the result — is bit-deterministic for any
// thread count.
constexpr size_t kReduceChunk = 1 << 15;

// Elements per install tile: the reduced block is staged in an L1-resident
// buffer and streamed to every worker's span from there, so each worker
// buffer is read exactly once and written exactly once per collective (the
// old serial path made 4x the memory passes via its n-double scratch).
constexpr size_t kInstallBlock = 4096;

// Mean over the given buffers installed into every one of them: the one
// reduce path of the global and subtree collectives. Each chunk reduces
// [begin, end) of all k buffers into a stack tile and installs the tile
// into every buffer's span.
void ReduceMeanBuffers(const std::vector<float*>& buffers, size_t n) {
  const size_t k = buffers.size();
  if (k <= 1) {
    return;  // the mean of one buffer is itself
  }
  const double inv_k = 1.0 / static_cast<double>(k);
  // Two captures keep the closure inside std::function's inline buffer: a
  // collective allocates nothing beyond its per-chunk source list.
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&buffers, inv_k](size_t begin, size_t end) {
        std::vector<const float*> srcs(buffers.size());
        float tile[kInstallBlock];
        for (size_t base = begin; base < end; base += kInstallBlock) {
          const size_t len = std::min(kInstallBlock, end - base);
          for (size_t kk = 0; kk < srcs.size(); ++kk) {
            srcs[kk] = buffers[kk] + base;
          }
          vec::ReduceScale(srcs.data(), srcs.size(), len, inv_k, tile);
          for (float* buffer : buffers) {
            vec::Copy(tile, buffer + base, len);
          }
        }
      });
}

}  // namespace

void ReduceMeanInto(const float* const* srcs, size_t num_srcs, size_t n,
                    float* dst) {
  FEDRA_CHECK_GT(num_srcs, 0u);
  const double inv_k = 1.0 / static_cast<double>(num_srcs);
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&](size_t begin, size_t end) {
        std::vector<const float*> chunk(num_srcs);
        for (size_t k = 0; k < num_srcs; ++k) {
          chunk[k] = srcs[k] + begin;
        }
        vec::ReduceScale(chunk.data(), num_srcs, end - begin, inv_k,
                         dst + begin);
      });
}

SimNetwork::SimNetwork(int num_workers, NetworkModel model,
                       AllReduceAlgorithm algorithm)
    : SimNetwork(num_workers, TopologyTree::SingleTier(std::move(model)),
                 algorithm) {}

SimNetwork::SimNetwork(int num_workers, TopologyTree tree,
                       AllReduceAlgorithm root_algorithm)
    : num_workers_(num_workers),
      tree_(std::move(tree)),
      algorithm_(root_algorithm) {
  FEDRA_CHECK_GT(num_workers, 0);
  FEDRA_CHECK(tree_.enabled());
}

void SimNetwork::SetWorkerLinkFactors(std::vector<double> factors) {
  FEDRA_CHECK_EQ(factors.size(), static_cast<size_t>(num_workers_));
  for (double factor : factors) {
    FEDRA_CHECK_GE(factor, 1.0) << "link factors are slowdowns (>= 1)";
  }
  worker_link_factors_ = std::move(factors);
}

const std::vector<double>* SimNetwork::LinkFactorsOrNull() const {
  return worker_link_factors_.empty() ? nullptr : &worker_link_factors_;
}

void SimNetwork::ChargeTree(const TreeCost& cost, TrafficClass traffic) {
  // Total every deeper tier before the root tier: the goldens pin
  // comm_seconds to this summation order.
  double seconds = 0.0;
  uint64_t bytes = 0;
  for (size_t d = 1; d < cost.seconds_by_depth.size(); ++d) {
    seconds += cost.seconds_by_depth[d];
    bytes += cost.bytes_by_depth[d];
  }
  seconds += cost.SecondsAt(0);
  bytes += cost.BytesAt(0);
  stats_.bytes_total += bytes;
  stats_.comm_seconds += seconds;
  for (size_t d = 0; d < cost.seconds_by_depth.size(); ++d) {
    stats_.ChargeDepth(d, cost.bytes_by_depth[d],
                       cost.seconds_by_depth[d]);
  }
  if (traffic == TrafficClass::kLocalState) {
    stats_.bytes_local_state += bytes;
    stats_.seconds_local_state += seconds;
  } else {
    stats_.bytes_model_sync += bytes;
    stats_.seconds_model_sync += seconds;
  }
}

void SimNetwork::AllReduceAverage(const std::vector<float*>& buffers,
                                  size_t n, TrafficClass traffic) {
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(num_workers_));
  std::vector<int> everyone(buffers.size());
  for (size_t k = 0; k < everyone.size(); ++k) {
    everyone[k] = static_cast<int>(k);
  }
  AllReduceAverageSubset(buffers, everyone, n, traffic);
}

void SimNetwork::CheckParticipants(const std::vector<int>& participants,
                                   size_t num_buffers) const {
  FEDRA_CHECK_EQ(participants.size(), num_buffers)
      << "one buffer per participant";
  int prev = -1;
  for (int worker : participants) {
    FEDRA_CHECK(worker >= 0 && worker < num_workers_);
    FEDRA_CHECK_GT(worker, prev) << "participants must be ascending/unique";
    prev = worker;
  }
}

void SimNetwork::AccountAllReduceSubset(size_t payload_bytes_sum,
                                        const std::vector<int>& participants,
                                        TrafficClass traffic) {
  ++stats_.allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.model_sync_count;
  }
  const size_t m = participants.size();
  if (m <= 1) {
    return;  // nothing transits any link
  }
  // Mean wire size in double: variable-size compressed payloads are billed
  // from their exact sum, never a truncated per-worker quotient.
  const double per_worker =
      static_cast<double>(payload_bytes_sum) / static_cast<double>(m);
  active_scratch_.assign(static_cast<size_t>(num_workers_), 0);
  for (int worker : participants) {
    active_scratch_[static_cast<size_t>(worker)] = 1;
  }
  ChargeTree(tree_.GroupedAllReduceCost(per_worker, num_workers_, algorithm_,
                                        LinkFactorsOrNull(), &active_scratch_),
             traffic);
}

void SimNetwork::AllReduceAverageSubset(const std::vector<float*>& buffers,
                                        const std::vector<int>& participants,
                                        size_t n, TrafficClass traffic) {
  CheckParticipants(participants, buffers.size());
  ReduceMeanBuffers(buffers, n);
  AccountAllReduceSubset(n * sizeof(float) * participants.size(),
                         participants, traffic);
}

void SimNetwork::AllReduceAverageSubsetWithPayloads(
    const std::vector<float*>& buffers, const std::vector<int>& participants,
    size_t n, const std::vector<size_t>& payload_bytes,
    TrafficClass traffic) {
  CheckParticipants(participants, buffers.size());
  FEDRA_CHECK_EQ(payload_bytes.size(), buffers.size());
  size_t sum = 0;
  for (size_t bytes : payload_bytes) {
    sum += bytes;
  }
  ReduceMeanBuffers(buffers, n);
  AccountAllReduceSubset(sum, participants, traffic);
}

TreeCost SimNetwork::PathCost(size_t payload_bytes, int worker,
                              size_t* edge_depth) const {
  int leaf_group = 0;
  double factor = 1.0;
  if (worker >= 0) {
    leaf_group = tree_.LeafGroupOfWorker(worker, num_workers_);
    if (!worker_link_factors_.empty()) {
      factor = worker_link_factors_[static_cast<size_t>(worker)];
    }
  }
  if (edge_depth != nullptr) {
    *edge_depth = static_cast<size_t>(
        tree_.node(tree_.NodeOfLeafGroup(leaf_group)).depth);
  }
  return tree_.PointToPointCost(payload_bytes, num_workers_, leaf_group,
                                factor);
}

void SimNetwork::PointToPoint(size_t n, TrafficClass traffic, int worker) {
  ++stats_.p2p_calls;
  ChargeTree(PathCost(n * sizeof(float), worker), traffic);
}

void SimNetwork::SubtreeAllReduceAverage(
    int node_id, const std::vector<float*>& buffers, size_t n,
    TrafficClass traffic, const std::vector<char>* active,
    const std::vector<size_t>* payload_bytes) {
  int begin = 0;
  int end = 0;
  tree_.SubtreeSpan(node_id, num_workers_, &begin, &end);
  size_t members = static_cast<size_t>(end - begin);
  if (active != nullptr) {
    FEDRA_CHECK_EQ(active->size(), static_cast<size_t>(num_workers_));
    members = 0;
    for (int w = begin; w < end; ++w) {
      members += (*active)[static_cast<size_t>(w)] != 0;
    }
  }
  FEDRA_CHECK_EQ(buffers.size(), members)
      << "buffers must cover the subtree's active workers";
  if (payload_bytes != nullptr) {
    FEDRA_CHECK_EQ(payload_bytes->size(), buffers.size());
  }
  ReduceMeanBuffers(buffers, n);
  ++stats_.subtree_allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.subtree_sync_count;
  }
  if (members <= 1) {
    return;  // single active member: nothing transits any link
  }
  // Mean wire size in double, as the global payload collectives bill it.
  double per_member = static_cast<double>(n * sizeof(float));
  if (payload_bytes != nullptr) {
    size_t sum = 0;
    for (size_t bytes : *payload_bytes) {
      sum += bytes;
    }
    per_member = static_cast<double>(sum) / static_cast<double>(members);
  }
  ChargeTree(tree_.SubtreeSyncCost(node_id, per_member, num_workers_,
                                   LinkFactorsOrNull(), active),
             traffic);
}

void SimNetwork::AccountSyncRetries(int worker, size_t payload_bytes,
                                    int retries, double backoff_base_seconds,
                                    TrafficClass traffic) {
  for (int attempt = 0; attempt < retries; ++attempt) {
    // Exponential backoff before retry i, then one retransmission over the
    // worker's own path. Backoff stalls the worker's edge link, so it is
    // attributed to the deepest tier of the path — both breakdowns (class
    // and depth) keep summing to comm_seconds.
    size_t edge = 0;
    TreeCost cost = PathCost(payload_bytes, worker, &edge);
    cost.seconds_by_depth[edge] += std::ldexp(backoff_base_seconds, attempt);
    ++stats_.retries;
    stats_.seconds_retry += cost.total_seconds();
    ChargeTree(cost, traffic);
  }
}

void SimNetwork::AccountCatchUpSync(size_t n, int worker) {
  PointToPoint(n, TrafficClass::kModelSync, worker);
  ++stats_.catch_up_syncs;
  stats_.bytes_model_downlink += n * sizeof(float);
}

void SimNetwork::AccountCheckInSync(size_t n, int worker) {
  PointToPoint(n, TrafficClass::kModelSync, worker);
  ++stats_.check_in_syncs;
  stats_.bytes_model_downlink += n * sizeof(float);
}

void SimNetwork::AccountChildExchange(int node_id, size_t n,
                                      TrafficClass traffic,
                                      const std::vector<char>* active) {
  ++stats_.child_exchange_calls;
  ChargeTree(tree_.ChildExchangeCost(node_id, n * sizeof(float),
                                     num_workers_, LinkFactorsOrNull(),
                                     active),
             traffic);
}

double SimNetwork::ModelSyncSeconds(size_t payload_bytes) const {
  return tree_
      .GroupedAllReduceCost(payload_bytes, num_workers_, algorithm_,
                            LinkFactorsOrNull())
      .total_seconds();
}

}  // namespace fedra
