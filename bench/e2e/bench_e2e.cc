// bench_e2e: closed-loop training runs of the end-to-end workloads.
//
//   bench_e2e --workload <name> [--seed N] [--trace 0|1] [--setup-reps R]
//             [--trace-out FILE]
//   bench_e2e --smoke
//   bench_e2e --list
//
// With --workload, one invocation is one rep in its own process
// (bench/e2e/run.py starts them, aggregates the reps and checks
// correctness). The rep:
//
//   1. generates the workload's data from --seed (load generation: never
//      timed);
//   2. trains once under TimedPolicy, a SyncPolicy decorator that reads the
//      clock when the wrapped policy's Initialize returns and around every
//      MaybeSync -- the only clock reads, so the trainer runs exactly as it
//      would without the benchmark;
//   3. repeats the set-up alone (--setup-reps one-round runs) and reports
//      the median set-up time;
//   4. with --trace 1, also copies the live rows of one mid-run round,
//      times every layer's probe after the loop (probes.h), and writes the
//      per-round spans as Chrome trace-event JSON to --trace-out.
//
// The last line of stdout is one JSON object: the run's end-to-end numbers,
// an FNV-1a fingerprint of the training history and final CommStats (equal
// across reps and between traced and untraced runs of one seed), and with
// --trace 1 the per-layer metrics under "layers".
//
// --smoke runs every workload for kSmokeRounds rounds, untraced and traced,
// in this one process, and fails unless both runs succeed with equal
// fingerprints.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/synth.h"
#include "probes.h"
#include "tensor/simd_dispatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace fedra {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSmokeRounds = 30;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Wraps the workload's policy and records when set-up ends and when each
/// round's sync decision starts and ends. With a capture step it also
/// copies the live rows that round starts from, before the wrapped
/// MaybeSync runs.
class TimedPolicy : public SyncPolicy {
 public:
  TimedPolicy(SyncPolicy* inner, Clock::time_point construct_start,
              size_t capture_step, LiveRows* capture)
      : inner_(inner),
        construct_start_(construct_start),
        capture_step_(capture_step),
        capture_(capture) {}

  void Initialize(ClusterContext& ctx) override {
    inner_->Initialize(ctx);
    init_end_ = Clock::now();
  }

  bool MaybeSync(ClusterContext& ctx) override {
    if (capture_ != nullptr && ctx.step == capture_step_) {
      capture_->Capture(ctx);
    }
    RoundRecord record;
    record.step = ctx.step;
    record.participants = static_cast<int>(ctx.ActiveWorkers().size());
    const size_t syncs_before = ctx.sync_count;
    const Clock::time_point begin = Clock::now();
    const bool synced = inner_->MaybeSync(ctx);
    const Clock::time_point end = Clock::now();
    record.begin_s = SecondsBetween(init_end_, begin);
    record.end_s = SecondsBetween(init_end_, end);
    record.synced = ctx.sync_count != syncs_before;
    rounds_.push_back(record);
    return synced;
  }

  std::string name() const override { return inner_->name(); }

  double setup_seconds() const {
    return SecondsBetween(construct_start_, init_end_);
  }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }

 private:
  SyncPolicy* inner_;
  Clock::time_point construct_start_;
  Clock::time_point init_end_;
  size_t capture_step_;
  LiveRows* capture_;
  std::vector<RoundRecord> rounds_;
};

struct RunOutput {
  Status status;
  TrainResult result;
  double setup_s = 0.0;
  std::vector<RoundRecord> rounds;
};

RunOutput TrainOnce(const Workload& w, const SynthImageData& data,
                    const TrainerConfig& config, size_t capture_step,
                    LiveRows* capture) {
  RunOutput out;
  const Clock::time_point start = Clock::now();
  DistributedTrainer trainer(w.factory, data.train, data.test, config);
  auto policy = MakeWorkloadPolicy(w, trainer.model_dim());
  if (!policy.ok()) {
    out.status = policy.status();
    return out;
  }
  TimedPolicy timed(policy->get(), start, capture_step, capture);
  auto result = trainer.Run(&timed);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.result = std::move(result).value();
  out.setup_s = timed.setup_seconds();
  out.rounds = timed.rounds();
  if (out.rounds.empty()) {
    out.status = Status::InvalidArgument("no round reached the policy");
  }
  return out;
}

// ------------------------------------------------------------ fingerprint --

class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Fingerprint(const TrainResult& r) {
  Fnv1a h;
  for (const EvalPoint& p : r.history) {
    h.Add(p.step);
    h.Add(p.train_accuracy);
    h.Add(p.test_accuracy);
    h.Add(p.bytes);
    h.Add(p.sync_count);
    h.Add(p.sim_seconds);
  }
  h.Add(r.total_syncs);
  h.Add(r.final_test_accuracy);
  h.Add(r.final_train_accuracy);
  h.Add(r.compute_seconds);
  h.Add(r.rejoin_count);
  h.Add(r.zero_participant_rounds);
  h.Add(r.skipped_syncs);
  const CommStats& c = r.comm;
  for (uint64_t v :
       {c.allreduce_calls, c.broadcast_calls, c.p2p_calls,
        c.model_sync_count, c.subtree_allreduce_calls, c.subtree_sync_count,
        c.child_exchange_calls, c.retries, c.dropped_messages,
        c.catch_up_syncs, c.check_in_syncs, c.bytes_total,
        c.bytes_local_state, c.bytes_model_sync, c.bytes_model_downlink}) {
    h.Add(v);
  }
  for (double v : {c.comm_seconds, c.seconds_local_state,
                   c.seconds_model_sync, c.seconds_retry}) {
    h.Add(v);
  }
  for (size_t d = 0; d < c.bytes_by_depth.size(); ++d) {
    h.Add(c.bytes_by_depth[d]);
    h.Add(c.seconds_by_depth[d]);
  }
  return h.value();
}

std::string FingerprintHex(const TrainResult& r) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, Fingerprint(r));
  return hex;
}

// ------------------------------------------------------------------ stats --

/// Linear-interpolated quantile q in [0, 1] of `values` (copied).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Throughput of consecutive windows of `window` rounds. A window ends at
/// the first recorded round at least `window` steps past the previous end.
std::vector<double> WindowRates(const std::vector<RoundRecord>& rounds,
                                size_t window) {
  std::vector<double> rates;
  double start_s = 0.0;
  size_t start_step = 0;
  for (const RoundRecord& r : rounds) {
    if (r.step - start_step >= window) {
      rates.push_back(static_cast<double>(r.step - start_step) /
                      (r.end_s - start_s));
      start_s = r.end_s;
      start_step = r.step;
    }
  }
  return rates;
}

// ------------------------------------------------------------------- JSON --

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += (out.empty() ? "" : ", ") + JsonNumber(v);
  }
  return "[" + out + "]";
}

/// Flat JSON object writer; numbers keep every digit.
class JsonObject {
 public:
  void Num(const std::string& key, double value) { Raw(key, JsonNumber(value)); }
  void Int(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += (c == '\n') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------ traced-pass split --

/// Per-layer metrics of a traced run: the round split measured by the
/// decorator, exact counters, and the probe estimates.
std::string LayerMetrics(const TrainerConfig& config, const RunOutput& run,
                         const std::vector<ProbeStat>& probes,
                         double loop_s) {
  const std::vector<RoundRecord>& rounds = run.rounds;
  std::vector<double> round_ms, local_ms, policy_ms, monitor_ms, sync_ms;
  double policy_total = 0.0;
  double prev_end = 0.0;
  size_t prev_step = 0;
  // Local time of a record covers steps (prev_step, step]: the eval after
  // an eval step and the cohort rotation at the start of a rotation step
  // land in the *next* record's local time.
  enum Kind { kPlain = 0, kEval = 1, kRotate = 2 };
  std::vector<int> kinds;
  for (const RoundRecord& r : rounds) {
    const double local = r.begin_s - prev_end;
    const double policy = r.end_s - r.begin_s;
    round_ms.push_back(1e3 * (r.end_s - prev_end));
    local_ms.push_back(1e3 * local);
    policy_ms.push_back(1e3 * policy);
    (r.synced ? sync_ms : monitor_ms).push_back(1e3 * policy);
    policy_total += policy;
    int kind = kPlain;
    for (size_t t = prev_step; t < r.step; ++t) {
      if (t > 0 && t % config.eval_every_steps == 0) {
        kind |= kEval;
      }
      if (config.fleet_enabled() &&
          t % static_cast<size_t>(config.cohort_steps) == 0) {
        kind |= kRotate;
      }
    }
    kinds.push_back(kind);
    prev_end = r.end_s;
    prev_step = r.step;
  }
  // Eval and rotation cost: a round's local time above the median plain
  // round. A round with both gives rotation its median excess first.
  std::vector<double> plain, rotate_excess;
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (kinds[i] == kPlain) {
      plain.push_back(1e-3 * local_ms[i]);
    }
  }
  const double plain_local = Quantile(plain, 0.5);
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (kinds[i] == kRotate) {
      rotate_excess.push_back(1e-3 * local_ms[i] - plain_local);
    }
  }
  const double rotate_typical = Quantile(rotate_excess, 0.5);
  double eval_s = 0.0;
  double rotate_s = 0.0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const double excess = 1e-3 * local_ms[i] - plain_local;
    if (kinds[i] == kEval) {
      eval_s += excess;
    } else if (kinds[i] == kRotate) {
      rotate_s += excess;
    } else if (kinds[i] == (kEval | kRotate)) {
      const double rotate_part = std::min(excess, rotate_typical);
      rotate_s += rotate_part;
      eval_s += excess - rotate_part;
    }
  }

  JsonObject m;
  m.Num("core.trainer.round_ms.p50", Quantile(round_ms, 0.5));
  m.Num("core.trainer.round_ms.p95", Quantile(round_ms, 0.95));
  m.Num("core.trainer.local_ms.p50", Quantile(local_ms, 0.5));
  m.Num("core.trainer.local_ms.p95", Quantile(local_ms, 0.95));
  m.Num("core.policy.ms.p50", Quantile(policy_ms, 0.5));
  m.Num("core.policy.ms.p95", Quantile(policy_ms, 0.95));
  m.Num("core.policy.share", policy_total / loop_s);
  m.Num("core.policy.monitor_ms.p50", Quantile(monitor_ms, 0.5));
  m.Num("core.policy.sync_ms.p50", Quantile(sync_ms, 0.5));
  m.Int("core.policy.sync_rounds", sync_ms.size());
  m.Num("core.policy.sync_ratio", static_cast<double>(sync_ms.size()) /
                                      static_cast<double>(rounds.size()));
  m.Num("metrics.eval_s", eval_s);
  m.Num("core.client_store.rotate_s", rotate_s);
  m.Num("core.client_store.rotate.share", rotate_s / loop_s);

  const TrainResult& r = run.result;
  m.Int("sim.collectives.allreduce_calls", r.comm.allreduce_calls);
  m.Int("sim.collectives.subtree_allreduce_calls",
        r.comm.subtree_allreduce_calls);
  m.Int("sim.collectives.bytes_local_state", r.comm.bytes_local_state);
  m.Int("sim.collectives.bytes_model_sync", r.comm.bytes_model_sync);
  m.Int("sim.collectives.bytes_model_downlink", r.comm.bytes_model_downlink);
  m.Int("sim.fault_model.retries", r.comm.retries);
  m.Int("sim.fault_model.dropped_messages", r.comm.dropped_messages);
  m.Int("core.trainer.rejoins", r.rejoin_count);
  m.Int("core.trainer.zero_participant_rounds", r.zero_participant_rounds);
  m.Int("core.client_store.check_in_syncs", r.comm.check_in_syncs);

  double attributed = 0.0;
  for (const ProbeStat& p : probes) {
    m.Num(p.name + "_us.p50", p.p50_us);
    m.Int(p.name + ".calls", p.calls);
    m.Num(p.name + ".est_s", p.est_s);
    m.Num(p.name + ".share", p.est_s / loop_s);
    attributed += p.est_s;
  }
  m.Num("trace.coverage", attributed / loop_s);
  m.Num("trace.unattributed_s", loop_s - attributed);
  return m.str();
}

/// Chrome trace-event JSON: one "round" span per recorded round, with its
/// "local" and "policy" children sharing the round id.
void WriteChromeTrace(const std::string& path, const RunOutput& run) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  auto event = [&out](const char* name, size_t round, double begin_s,
                      double end_s, bool last) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"round\": %zu}}%s\n",
                  name, 1e6 * begin_s, 1e6 * (end_s - begin_s), round,
                  last ? "" : ",");
    out << buf;
  };
  double prev_end = 0.0;
  for (size_t i = 0; i < run.rounds.size(); ++i) {
    const RoundRecord& r = run.rounds[i];
    event("round", r.step, prev_end, r.end_s, false);
    event("local", r.step, prev_end, r.begin_s, false);
    event(r.synced ? "policy.sync" : "policy.monitor", r.step, r.begin_s,
          r.end_s, i + 1 == run.rounds.size());
    prev_end = r.end_s;
  }
  out << "]}\n";
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  int setup_reps = 9;
  std::string trace_out;
  bool list = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--list") {
      args->list = true;
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--setup-reps" && has_value) {
      args->setup_reps = std::max(0, std::atoi(argv[++i]));
    } else if (flag == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "bench_e2e: bad argument '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

size_t Cores() { return std::max(1u, std::thread::hardware_concurrency()); }

SynthImageData MakeData(const Workload& w, uint64_t seed) {
  SynthImageConfig data_config = w.data;
  data_config.seed = seed;
  auto data = GenerateSynthImages(data_config);
  FEDRA_CHECK_OK(data.status());
  return std::move(data).value();
}

TrainerConfig MakeConfig(const Workload& w, uint64_t seed) {
  TrainerConfig config = w.trainer;
  config.seed = seed;
  config.accuracy_target = 1.1;  // closed loop: never stop early
  return config;
}

/// One rep of one workload; prints its JSON line.
int RunWorkload(const Workload& w, const Args& args) {
  // Threads are fixed before anything touches the global pool, and never
  // exceed the host's cores.
  const size_t threads = std::min(w.threads, Cores());
  SetGlobalThreadPoolThreads(threads);
  const SynthImageData data = MakeData(w, args.seed);
  const TrainerConfig config = MakeConfig(w, args.seed);

  JsonObject out;
  out.Str("workload", w.name);
  out.Int("seed", args.seed);
  out.Int("threads", threads);
  out.Str("simd", simd::LevelName(simd::ActiveLevel()));
  out.Str("compiler", __VERSION__);

  LiveRows rows;
  const RunOutput run = TrainOnce(w, data, config, config.max_steps / 2,
                                  args.trace ? &rows : nullptr);
  if (!run.status.ok()) {
    out.Str("status", run.status.ToString());
    std::printf("%s\n", out.str().c_str());
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Set-up alone, repeated: one-round runs whose loop is never timed.
  std::vector<double> setups = {run.setup_s};
  TrainerConfig setup_config = config;
  setup_config.max_steps = 1;
  for (int i = 0; i < args.setup_reps; ++i) {
    const RunOutput rep = TrainOnce(w, data, setup_config, 0, nullptr);
    FEDRA_CHECK_OK(rep.status);
    setups.push_back(rep.setup_s);
  }

  const TrainResult& r = run.result;
  const double loop_s = run.rounds.back().end_s;
  const size_t rounds = run.rounds.back().step;
  out.Str("status", "OK");
  out.Str("fingerprint", FingerprintHex(r));
  out.Int("rounds", rounds);
  out.Num("loop_s", loop_s);
  out.Num("loop_rounds_per_s", static_cast<double>(rounds) / loop_s);
  // Every window holds the same mix of eval and rotation rounds; the median
  // window shrugs off bursts of interference from other processes.
  const size_t window = std::lcm(
      config.eval_every_steps,
      config.fleet_enabled() ? static_cast<size_t>(config.cohort_steps) : 1);
  const std::vector<double> rates = WindowRates(run.rounds, window);
  out.Num("rounds_per_s", Quantile(rates, 0.5));
  out.Raw("window_rates", JsonArray(rates));
  out.Num("setup_s", Quantile(setups, 0.5));
  out.Raw("setup_samples", JsonArray(setups));
  out.Num("peak_rss_mb", peak_rss_mb);
  out.Num("floor", w.floor);
  out.Num("final_test_accuracy", r.final_test_accuracy);

  // Time to target: the first eval point at or above the target, timed at
  // the end of that round's sync decision (its eval runs right after).
  // Absent when the run never reaches the target.
  const EvalPoint* hit = nullptr;
  for (const EvalPoint& p : r.history) {
    if (p.test_accuracy >= w.target) {
      hit = &p;
      break;
    }
  }
  if (hit != nullptr) {
    double at = 0.0;
    for (const RoundRecord& rec : run.rounds) {
      if (rec.step <= hit->step) {
        at = rec.end_s;
      }
    }
    out.Num("time_to_target_s", at);
    out.Int("sim_steps_to_target", hit->step);
    out.Int("sim_bytes_to_target", hit->bytes);
    out.Num("sim_seconds_to_target", hit->sim_seconds);
  }

  if (args.trace) {
    FEDRA_CHECK(rows.step != 0) << "mid-run round was never captured";
    const LayerCalls calls = CountLayerCalls(w, run.rounds, r);
    const double width =
        config.parallel_workers ? static_cast<double>(threads) : 1.0;
    const std::vector<ProbeStat> probes =
        RunProbes(w, data, rows, calls, width);
    out.Raw("layers", LayerMetrics(config, run, probes, loop_s));
    if (!args.trace_out.empty()) {
      WriteChromeTrace(args.trace_out, run);
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Every workload for kSmokeRounds rounds, untraced then traced, in this
/// process (the pool gets the largest workload's thread count; results do
/// not depend on it).
int Smoke(const std::vector<Workload>& table, uint64_t seed) {
  size_t threads = 1;
  for (const Workload& w : table) {
    threads = std::max(threads, w.threads);
  }
  SetGlobalThreadPoolThreads(std::min(threads, Cores()));
  int failures = 0;
  for (const Workload& w : table) {
    const Clock::time_point start = Clock::now();
    const SynthImageData data = MakeData(w, seed);
    TrainerConfig config = MakeConfig(w, seed);
    config.max_steps = kSmokeRounds;
    config.eval_every_steps = kSmokeRounds / 3;
    const RunOutput plain = TrainOnce(w, data, config, 0, nullptr);
    LiveRows rows;
    const RunOutput traced =
        TrainOnce(w, data, config, kSmokeRounds / 2, &rows);
    std::string verdict = "ok";
    if (!plain.status.ok() || !traced.status.ok()) {
      verdict = (plain.status.ok() ? traced.status : plain.status).ToString();
    } else if (FingerprintHex(plain.result) != FingerprintHex(traced.result)) {
      verdict = "traced fingerprint differs";
    } else {
      const LayerCalls calls = CountLayerCalls(w, traced.rounds,
                                               traced.result);
      RunProbes(w, data, rows, calls, 1.0);
    }
    failures += verdict != "ok";
    std::printf("smoke %-18s %s (%.1f s)\n", w.name.c_str(), verdict.c_str(),
                SecondsBetween(start, Clock::now()));
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const std::vector<Workload> table = Workloads();
  if (args.list) {
    for (const Workload& w : table) {
      std::printf("%s\n", w.name.c_str());
    }
    return 0;
  }
  if (args.smoke) {
    return Smoke(table, args.seed);
  }
  auto it = std::find_if(table.begin(), table.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == table.end()) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s' (try --list)\n",
                 args.workload.c_str());
    return 2;
  }
  return RunWorkload(*it, args);
}

}  // namespace
}  // namespace e2e
}  // namespace fedra

int main(int argc, char** argv) { return fedra::e2e::Main(argc, argv); }
