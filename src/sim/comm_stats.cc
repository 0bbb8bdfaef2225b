#include "sim/comm_stats.h"

#include "util/string_util.h"

namespace fedra {

std::string CommStats::ToString() const {
  std::string s = StrFormat(
      "CommStats{allreduce=%llu, bcast=%llu, p2p=%llu, syncs=%llu, "
      "total=%s (state=%s, model=%s), comm_time=%.3fs",
      static_cast<unsigned long long>(allreduce_calls),
      static_cast<unsigned long long>(broadcast_calls),
      static_cast<unsigned long long>(p2p_calls),
      static_cast<unsigned long long>(model_sync_count),
      HumanBytes(static_cast<double>(bytes_total)).c_str(),
      HumanBytes(static_cast<double>(bytes_local_state)).c_str(),
      HumanBytes(static_cast<double>(bytes_model_sync)).c_str(),
      comm_seconds);
  if (subtree_allreduce_calls > 0 || child_exchange_calls > 0) {
    s += StrFormat(", subtree=%llu (model=%llu), escalations=%llu",
                   static_cast<unsigned long long>(subtree_allreduce_calls),
                   static_cast<unsigned long long>(subtree_sync_count),
                   static_cast<unsigned long long>(child_exchange_calls));
  }
  if (retries > 0 || dropped_messages > 0 || catch_up_syncs > 0) {
    s += StrFormat(", retries=%llu (%.3fs), dropped=%llu, catch_up=%llu",
                   static_cast<unsigned long long>(retries), seconds_retry,
                   static_cast<unsigned long long>(dropped_messages),
                   static_cast<unsigned long long>(catch_up_syncs));
  }
  if (check_in_syncs > 0) {
    s += StrFormat(", check_in=%llu",
                   static_cast<unsigned long long>(check_in_syncs));
  }
  if (seconds_by_depth.size() >= 2) {
    s += ", by_depth=[";
    for (size_t d = 0; d < seconds_by_depth.size(); ++d) {
      s += StrFormat("%s%.3fs", d == 0 ? "" : ", ", seconds_by_depth[d]);
    }
    s += "]";
  }
  s += "}";
  return s;
}

}  // namespace fedra
