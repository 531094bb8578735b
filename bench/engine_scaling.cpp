// Engine-scaling component harness. perfbench/ is the end-to-end
// benchmark: churn, checkpoint and restore cost, fault overhead and MTTR
// are measured there, inside the real run. This harness keeps only what
// perfbench cannot express, all written into one JSON file:
//
//   1. Shard sweep: ns/epoch across a process-count x worker-thread grid
//      (8..4096 processes, 1..8 threads), measuring the sharded step's
//      speedup over the sequential path. Every point is bit-identical to
//      the sequential engine, so this is pure throughput. Each row also
//      records the schedule executions per epoch — pool dispatches PLUS
//      inline runs, so single-shard rows report the true 1 per epoch
//      instead of the 0.0 the dispatch counter alone under-reports — plus
//      an `inline` flag for single-shard rows.
//   2. Batch kernels: scalar-vs-batch per-item cost of the shipped
//      detector kernels (MLP window inference, SVM/GBT/stat measurement
//      votes) over a feature plane at batch sizes 16/256/4096, recording
//      the speedup the cross-slot batching buys per detector family.
//   3. Sim breakdown: per-component timing of one simulated epoch
//      (workload/HPC draw per RNG kind, feature extract, history append
//      vector-vs-ring, window fold, batch inference, serial commit,
//      full-step reference).
//   4. Pid scale: peak RSS and ns/proc/epoch held flat while an open
//      population churns through millions of pids, plus the pid-map
//      lookup duel against the dense table it replaced.
//
// An environment header (hardware threads, cgroup CPU quota, timer noise)
// leads the file, and the RSS after every section closes it.
//
//   ./engine_scaling [out.json] [max_threads] [--smoke]
//
// --smoke shrinks every experiment to a seconds-scale CI sanity run. The
// emitted JSON is always validated for well-formedness before the process
// exits 0.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/responses.hpp"
#include "core/valkyrie.hpp"
#include "engine_bench_common.hpp"
#include "hpc/hpc.hpp"
#include "ml/gbt.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/system.hpp"
#include "util/pid_map.hpp"
#include "util/rng.hpp"

namespace {

using namespace valkyrie;
using Clock = std::chrono::steady_clock;

struct SweepPoint {
  std::size_t processes;
  std::size_t threads;         // requested
  std::size_t effective_shards;  // after the engine's hardware clamp
  double ns_per_epoch;
  double ns_per_proc_epoch;
  double dispatches_per_epoch;  // schedule executions (incl. inline runs)
};

SweepPoint run_sweep_point(const ml::Detector& detector, std::size_t processes,
                           std::size_t threads) {
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, threads);
  for (std::size_t p = 0; p < processes; ++p) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<bench::SignatureWorkload>(
        bench::engine_bench_benign_signature()));
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }

  const std::uint64_t warmup = 20;
  const std::uint64_t probe = std::clamp<std::uint64_t>(
      40960 / static_cast<std::uint64_t>(processes), 10, 2000);
  // Best-of-R probes: the sweep runs on shared machines, and a single
  // averaged probe inherits whatever the neighbours were doing. The minimum
  // over repeats is the stable statistic for a deterministic workload; five
  // repeats ride over the multi-second throttling windows CPU-share-capped
  // containers impose (observed swinging single-run numbers by 2-4x).
  constexpr std::uint64_t kRepeats = 5;
  sys.reserve_history(warmup + kRepeats * probe + 1);
  for (std::uint64_t i = 0; i < warmup; ++i) engine.step();

  // schedule_run_count counts inline executions too, so a single-shard run
  // reports its real schedule (1 per epoch) instead of the dispatch
  // counter's misleading 0.
  const std::uint64_t runs_before = engine.schedule_run_count();
  double best_ns = 0.0;
  for (std::uint64_t r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < probe; ++i) engine.step();
    const auto stop = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()) /
        static_cast<double>(probe);
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  const double dispatches =
      static_cast<double>(engine.schedule_run_count() - runs_before) /
      static_cast<double>(kRepeats * probe);
  return {processes,
          threads,
          engine.shard_count(),
          best_ns,
          best_ns / static_cast<double>(processes),
          dispatches};
}

// --- Batch-kernel micro-measurements -----------------------------------------
//
// Scalar-vs-batch per-item cost of one detector family over a synthetic
// feature plane: the scalar side walks the per-process streaming path (one
// WindowSummary / one measurement vote per column), the batch side issues
// the single plane-sweep call the engine's batch route issues per shard.

struct KernelRow {
  const char* detector;
  std::size_t batch;
  double scalar_ns;  // per item
  double batch_ns;   // per item
  double speedup;
};

template <typename F>
double best_of_ns_per_item(std::size_t items, int repeats, const F& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    const auto stop = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()) /
        static_cast<double>(items);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

std::vector<KernelRow> run_batch_kernels(bool smoke) {
  std::vector<KernelRow> rows;
  const ml::TraceSet corpus = bench::engine_bench_corpus(0x5ca1e);
  const ml::MlpDetector mlp = bench::engine_bench_detector();
  const ml::SvmDetector svm = ml::SvmDetector::make(corpus, 3);
  const ml::GbtDetector gbt = ml::GbtDetector::make(corpus);
  ml::StatisticalDetector stat;
  stat.fit(ml::flatten(corpus));

  const int repeats = smoke ? 2 : 5;
  const int inner = smoke ? 4 : 16;  // plane sweeps per timing probe
  std::vector<std::size_t> sizes = {16, 256, 4096};
  if (smoke) sizes = {16, 256};

  for (const std::size_t n : sizes) {
    const bench::BatchPlane kp = bench::make_batch_plane(n);
    const ml::SummaryMatrixView view = kp.view();
    const ml::FeatureMatrixView newest = view.newest_view();
    std::vector<ml::Inference> inferences(n);
    std::vector<std::uint8_t> votes(n);
    volatile std::size_t sink = 0;

    // MLP: the per-epoch window inference (its "vote" on the batch route),
    // scalar streaming path vs. the blocked batch GEMV.
    const double mlp_scalar =
        best_of_ns_per_item(n * inner, repeats, [&] {
          std::size_t acc = 0;
          for (int k = 0; k < inner; ++k) {
            for (std::size_t c = 0; c < n; ++c) {
              acc += static_cast<std::size_t>(mlp.infer(kp.summaries[c]));
            }
          }
          sink = acc;
        });
    const double mlp_batch = best_of_ns_per_item(n * inner, repeats, [&] {
      for (int k = 0; k < inner; ++k) mlp.infer_batch(view, inferences);
      sink = static_cast<std::size_t>(inferences[0]);
    });
    rows.push_back({"mlp", n, mlp_scalar, mlp_batch, mlp_scalar / mlp_batch});

    const auto vote_pair = [&](const char* name, const ml::Detector& d) {
      const double scalar = best_of_ns_per_item(n * inner, repeats, [&] {
        std::size_t acc = 0;
        for (int k = 0; k < inner; ++k) {
          for (std::size_t c = 0; c < n; ++c) {
            acc += d.measurement_vote(kp.summaries[c].newest) ? 1u : 0u;
          }
        }
        sink = acc;
      });
      const double batch = best_of_ns_per_item(n * inner, repeats, [&] {
        for (int k = 0; k < inner; ++k) d.measurement_votes(newest, votes);
        sink = votes[0];
      });
      rows.push_back({name, n, scalar, batch, scalar / batch});
    };
    vote_pair("svm", svm);
    vote_pair("gbt", gbt);
    vote_pair("stat", stat);
  }
  return rows;
}

// --- Honest environment header -----------------------------------------------
//
// A perf artifact committed from a CPU-share-capped container is misleading
// unless the cap travels with the numbers: hardware_concurrency() reports
// the host's cores, not the runnable share. The header records both, plus a
// timer-noise estimate (min vs median of a fixed spin workload) so a reader
// can judge how much of any row-to-row delta is machine, not code.

/// Effective CPU quota in cores from the cgroup (v2 then v1), or -1.0 when
/// unlimited / undetectable.
double cgroup_cpu_quota() {
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
    char quota[32] = {0};
    long period = 0;
    const int got = std::fscanf(f, "%31s %ld", quota, &period);
    std::fclose(f);
    if (got == 2 && period > 0 && std::strcmp(quota, "max") != 0) {
      return std::strtod(quota, nullptr) / static_cast<double>(period);
    }
    if (got >= 1 && std::strcmp(quota, "max") == 0) return -1.0;
  }
  long quota = 0;
  long period = 0;
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "r")) {
    if (std::fscanf(f, "%ld", &quota) != 1) quota = 0;
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "r")) {
    if (std::fscanf(f, "%ld", &period) != 1) period = 0;
    std::fclose(f);
  }
  if (quota > 0 && period > 0) {
    return static_cast<double>(quota) / static_cast<double>(period);
  }
  return -1.0;
}

struct NoiseEstimate {
  double min_us = 0.0;     // cleanest run of the fixed spin
  double median_us = 0.0;  // typical run
  double spread_pct = 0.0; // (median/min - 1) * 100
};

NoiseEstimate measure_timer_noise() {
  std::vector<double> us;
  volatile std::uint64_t sink = 0;
  (void)sink;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t acc = 1469598103934665603ull;
    for (std::uint64_t i = 0; i < (1u << 20); ++i) {
      acc = (acc ^ i) * 1099511628211ull;
    }
    sink = acc;
    us.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count()) /
        1e3);
  }
  std::sort(us.begin(), us.end());
  NoiseEstimate est;
  est.min_us = us.front();
  est.median_us = us[us.size() / 2];
  est.spread_pct =
      est.min_us > 0.0 ? (est.median_us / est.min_us - 1.0) * 100.0 : 0.0;
  return est;
}

/// Process memory, from /proc/self/status: VmHWM (peak RSS since start —
/// the number the flat-RSS acceptance claim is judged on, since a transient
/// O(total-pids) table would spike it even if freed later) and VmRSS
/// (current). -1 when the pseudo-file is unavailable (non-Linux).
struct RssSample {
  long peak_kb = -1;
  long current_kb = -1;
};

RssSample read_rss() {
  RssSample r;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
        r.peak_kb = kb;
      } else if (std::sscanf(line, "VmRSS: %ld", &kb) == 1) {
        r.current_kb = kb;
      }
    }
    std::fclose(f);
  }
  return r;
}

// --- Pid-map scale ----------------------------------------------------------
//
// The million-pid claim, measured: an open population churning through
// `total` short-lived pids while only `target_live` are live, with the
// retirement-retention policy reclaiming every cold row (and parked
// scheduler weight) two epochs after death. Every pid-keyed structure is
// O(tracked) now, so peak RSS and ns/proc/epoch measured at the START of
// steady state must match the values at the END of the run — any
// O(total-pids-ever) residue in the tables would show up in both.

struct PidScalePoint {
  std::size_t target_live = 0;
  std::uint64_t spawned = 0;
  double early_ns_per_proc_epoch = 0.0;  // probe right after warmup
  double late_ns_per_proc_epoch = 0.0;   // probe at the end of the run
  long steady_peak_rss_kb = -1;  // VmHWM once steady state is reached
  long end_peak_rss_kb = -1;     // VmHWM after the full churn
  long end_current_rss_kb = -1;
  std::size_t tracked_end = 0;        // live + retired-in-window
  std::size_t pid_table_capacity = 0;
  std::size_t cold_rows = 0;
  std::size_t sched_table_capacity = 0;
};

PidScalePoint run_pid_scale_point(std::size_t target_live,
                                  std::uint64_t total, bool smoke) {
  sim::SimSystem sys;
  sys.enable_counter_rng();
  sys.set_history_window(8);
  sys.enable_history_recycling();
  sys.enable_retirement_retention(2);
  const std::size_t batch = std::max<std::size_t>(1, target_live / 8);
  sys.reserve(target_live + batch * 4);

  auto spawn_one = [&sys] {
    (void)sys.spawn(std::make_unique<bench::SignatureWorkload>(
        bench::engine_bench_benign_signature()));
  };
  // Kill through a forward cursor over the (dense, ascending) pid space:
  // the oldest live pid dies first, exactly the shortest-lifetime-first
  // order a real churn driver produces. A pid the cursor finds already
  // gone (self-completed, then reclaimed by the retention window) is
  // skipped.
  sim::ProcessId kill_cursor = 0;
  auto try_kill = [&sys](sim::ProcessId pid) {
    try {
      if (sys.is_live(pid)) {
        sys.kill(pid);
        return true;
      }
    } catch (const std::out_of_range&) {  // reclaimed: nothing to kill
    }
    return false;
  };
  auto churn_epoch = [&] {
    const std::size_t live_now = sys.live_processes().size();
    const std::size_t want = target_live + batch;
    for (std::size_t b = live_now; b < want; ++b) spawn_one();
    std::size_t killed = 0;
    while (killed < batch) {
      if (try_kill(kill_cursor)) ++killed;
      ++kill_cursor;
    }
    sys.run_epoch();
  };

  for (std::size_t i = 0; i < target_live; ++i) spawn_one();
  sys.run_epoch();  // admit the seed population
  // Warm until the retention pipeline is full (several windows deep), so
  // the steady-state RSS mark already includes every table at final size.
  for (int e = 0; e < 12; ++e) churn_epoch();

  PidScalePoint p;
  p.target_live = target_live;
  p.steady_peak_rss_kb = read_rss().peak_kb;

  const int probe = smoke ? 4 : 16;
  auto timed_probe = [&] {
    const auto t0 = Clock::now();
    for (int e = 0; e < probe; ++e) churn_epoch();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    return ns / (static_cast<double>(probe) *
                 static_cast<double>(target_live));
  };
  p.early_ns_per_proc_epoch = timed_probe();
  while (sys.total_spawned() < total) churn_epoch();
  p.late_ns_per_proc_epoch = timed_probe();

  const RssSample end = read_rss();
  p.end_peak_rss_kb = end.peak_kb;
  p.end_current_rss_kb = end.current_kb;
  p.spawned = sys.total_spawned();
  p.tracked_end = sys.tracked_processes();
  p.pid_table_capacity = sys.pid_table_capacity();
  p.cold_rows = sys.cold_rows_allocated();
  p.sched_table_capacity = sys.scheduler().table_capacity();
  return p;
}

// The lookup duel behind the port: `live` pids surviving out of a
// `pid_space`-sized churn, looked up through the dense pid-indexed vector
// the old code used (O(pid_space) memory, one dependent load), the hashed
// map's scalar find, and its prefetching batched find_many. The dense row
// is the memory-for-latency trade the refactor rejects; batched-vs-scalar
// is the speedup the epoch loop actually runs on.

struct PidLookupPoint {
  std::size_t live = 0;
  std::uint64_t pid_space = 0;
  double dense_ns = 0.0;
  double scalar_ns = 0.0;
  double batched_ns = 0.0;
  std::size_t dense_bytes = 0;
  std::size_t map_bytes = 0;
};

PidLookupPoint run_pid_lookup_point(std::size_t live,
                                    std::uint64_t pid_space, bool smoke) {
  PidLookupPoint p;
  p.live = live;
  p.pid_space = pid_space;

  // Survivor pids spread across the whole churned pid space (stride keeps
  // them distinct), visited in shuffled order like a hash-ordered caller.
  std::vector<std::uint32_t> keys(live);
  const std::uint64_t stride = pid_space / live;
  std::mt19937_64 shuffle_rng(0x9d1d5ca1eull);
  for (std::size_t i = 0; i < live; ++i) {
    keys[i] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(i) * stride +
        (shuffle_rng() % std::max<std::uint64_t>(stride, 1)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), shuffle_rng);

  util::PidMap<std::uint32_t> map;
  map.reserve(keys.size());
  std::vector<std::uint32_t> dense(pid_space, 0xffffffffu);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map.insert(keys[i], static_cast<std::uint32_t>(i));
    dense[keys[i]] = static_cast<std::uint32_t>(i);
  }
  p.dense_bytes = dense.size() * sizeof(std::uint32_t);
  // keys + values + distance byte per bucket.
  p.map_bytes = map.capacity() * (sizeof(std::uint32_t) * 2 + 1);

  const int reps = smoke ? 64 : 512;
  volatile std::uint64_t sink = 0;
  auto time_pass = [&](auto&& body) {
    body();  // warm
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) body();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    return ns / (static_cast<double>(reps) *
                 static_cast<double>(keys.size()));
  };
  p.dense_ns = time_pass([&] {
    std::uint64_t acc = 0;
    for (const std::uint32_t pid : keys) acc += dense[pid];
    sink = acc;
  });
  p.scalar_ns = time_pass([&] {
    std::uint64_t acc = 0;
    for (const std::uint32_t pid : keys) acc += *map.find(pid);
    sink = acc;
  });
  p.batched_ns = time_pass([&] {
    std::uint64_t acc = 0;
    map.find_many(keys, [&](std::size_t, const std::uint32_t* v) {
      acc += *v;
    });
    sink = acc;
  });
  (void)sink;
  return p;
}

// --- Sim-side component breakdown --------------------------------------------
//
// Where one simulated epoch's nanoseconds actually go, component by
// component, each timed in isolation over the same population size: the RNG
// + signature draw that is workload execution and HPC capture for the bench
// workload (xoshiro stream vs the opt-in counter stream), feature
// extraction, the history append (whole-window vector vs finite ring), the
// per-slot Welford window fold, batch inference, and the serial epoch
// bookkeeping — plus one
// full engine step as the reference total. This is the map that justifies
// which component the next optimisation should attack.

struct BreakdownRow {
  const char* component;
  double ns_per_proc;
};

std::vector<BreakdownRow> run_sim_breakdown(const ml::MlpDetector& detector,
                                            bool smoke) {
  const std::size_t n = smoke ? 256 : 2048;
  const int reps = smoke ? 3 : 7;
  const int inner = smoke ? 4 : 8;  // population passes per timing probe
  std::vector<BreakdownRow> rows;
  const hpc::HpcSignature sig = bench::engine_bench_benign_signature();

  // Workload execution + HPC capture: one signature draw per process.
  {
    util::Rng rng(0x1234);
    volatile double sink = 0;
    rows.push_back({"workload_hpc_xoshiro",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      double acc = 0.0;
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          acc += sig.sample(rng, 1.0, 1.0).counts[0];
                        }
                      }
                      sink = acc;
                    })});
  }
  {
    util::Rng rng = util::Rng::counter_stream(0x1234);
    volatile double sink = 0;
    rows.push_back({"workload_hpc_counter",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      double acc = 0.0;
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          acc += sig.sample(rng, 1.0, 1.0).counts[0];
                        }
                      }
                      sink = acc;
                    })});
  }

  // Shared sample set for the downstream components.
  util::Rng rng(0xfeed);
  std::vector<hpc::HpcSample> samples;
  samples.reserve(n);
  for (std::size_t c = 0; c < n; ++c) samples.push_back(sig.sample(rng));

  // Feature extraction into a plane column.
  const std::size_t stride = (n + 7) / 8 * 8;
  std::vector<double> newest_rows(hpc::kFeatureDim * stride, 0.0);
  {
    volatile double sink = 0;
    rows.push_back({"to_features", best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          hpc::to_features(samples[c], newest_rows.data() + c,
                                           stride);
                        }
                      }
                      sink = newest_rows[0];
                    })});
  }

  // History append: whole-window vector push vs finite ring overwrite.
  {
    std::vector<std::vector<hpc::HpcSample>> hist(n);
    for (auto& h : hist) h.reserve(static_cast<std::size_t>(inner) * 8);
    int round = 0;
    rows.push_back({"history_append_vector",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      if (++round % 8 == 0) {
                        for (auto& h : hist) h.clear();
                      }
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          hist[c].push_back(samples[c]);
                        }
                      }
                    })});
  }
  {
    constexpr std::size_t kCap = 64;
    std::vector<std::vector<hpc::HpcSample>> hist(n);
    std::vector<std::size_t> head(n, 0);
    for (auto& h : hist) h.resize(kCap);
    rows.push_back({"history_append_ring",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          hist[c][head[c]] = samples[c];
                          head[c] = head[c] + 1 == kCap ? 0 : head[c] + 1;
                        }
                      }
                    })});
  }

  // Window fold: the per-slot Welford update (fold cost is
  // count-independent, so the accumulating state does not skew the
  // repeats).
  {
    std::vector<ml::WindowAccumulator> accs(n);
    hpc::FeatureVec f;
    rows.push_back({"window_fold_scalar",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) {
                        for (std::size_t c = 0; c < n; ++c) {
                          hpc::to_features(samples[c], f);
                          accs[c].add_features(f);
                        }
                      }
                    })});
  }

  // Batch inference over a populated plane (the per-epoch detector cost the
  // batch route pays per live slot).
  {
    const bench::BatchPlane bp = bench::make_batch_plane(n);
    std::vector<ml::Inference> out(n);
    volatile std::size_t sink = 0;
    rows.push_back({"inference_mlp_batch",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) {
                        detector.infer_batch(bp.view(), out);
                      }
                      sink = static_cast<std::size_t>(out[0]);
                    })});
  }

  // Serial epoch bookkeeping: the begin/end pair (CFS share snapshot,
  // lifecycle commit, epoch close) with no slots stepped in between.
  {
    sim::SimSystem sys;
    for (std::size_t c = 0; c < n; ++c) {
      (void)sys.spawn(std::make_unique<bench::SignatureWorkload>(sig));
    }
    rows.push_back({"epoch_commit_serial",
                    best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) {
                        sys.begin_epoch();
                        sys.end_epoch();
                      }
                    })});
  }

  // Reference: one full single-thread engine step.
  {
    sim::SimSystem sys;
    core::ValkyrieEngine engine(sys, detector, 1);
    for (std::size_t c = 0; c < n; ++c) {
      const sim::ProcessId pid =
          sys.spawn(std::make_unique<bench::SignatureWorkload>(sig));
      engine.attach(pid, core::ValkyrieConfig{},
                    std::make_unique<core::SchedulerWeightActuator>());
    }
    sys.reserve_history(
        static_cast<std::size_t>(reps * inner) + 24);
    for (int i = 0; i < 16; ++i) engine.step();
    rows.push_back({"total_epoch", best_of_ns_per_item(n * inner, reps, [&] {
                      for (int k = 0; k < inner; ++k) engine.step();
                    })});
  }
  return rows;
}

// --- Minimal JSON well-formedness check --------------------------------------
//
// Not a full validator — just enough structure awareness (objects, arrays,
// strings, numbers, literals, commas/colons) to catch an emitter bug like a
// trailing comma or unbalanced bracket before the file is committed as a
// perf artifact.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
      } else if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t begin = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    const auto eat_digits = [&] {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    return digits && pos_ > begin;
  }
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        for (;;) {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (pos_ >= s_.size() || s_[pos_] != ':') return false;
          ++pos_;
          skip_ws();
          if (!value()) return false;
          skip_ws();
          if (pos_ < s_.size() && s_[pos_] == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        if (pos_ >= s_.size() || s_[pos_] != '}') return false;
        ++pos_;
        return true;
      }
      case '[': {
        ++pos_;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        for (;;) {
          skip_ws();
          if (!value()) return false;
          skip_ws();
          if (pos_ < s_.size() && s_[pos_] == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        if (pos_ >= s_.size() || s_[pos_] != ']') return false;
        ++pos_;
        return true;
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_engine.json";
  std::size_t max_threads = 8;
  bool smoke = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (positional == 0) {
      out_path = argv[i];
    } else if (positional == 1) {
      char* parse_end = nullptr;
      const unsigned long parsed = std::strtoul(argv[i], &parse_end, 10);
      if (parse_end == argv[i] || *parse_end != '\0' || parsed == 0) {
        std::fprintf(stderr, "max_threads must be a positive integer, got %s\n",
                     argv[i]);
        return 1;
      }
      max_threads = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr, "usage: %s [out.json] [max_threads] [--smoke]\n",
                   argv[0]);
      return 1;
    }
    ++positional;
  }

  const ml::MlpDetector detector = bench::engine_bench_detector();

  std::string json = "{\n  \"benchmark\": \"engine_scaling\",\n";
  json += "  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n";
  // Honest environment header: hardware_concurrency is the host's view;
  // the cgroup quota is how much of it this container may actually run,
  // and the noise probe says how repeatable a single timing is here today.
  // Current/peak RSS sampled after every bench section — the memory
  // counterpart of the timing rows, and what makes the pid_scale flat-RSS
  // claim checkable from the artifact alone.
  std::vector<std::pair<const char*, RssSample>> rss_sections;
  const auto sample_section_rss = [&rss_sections](const char* section) {
    rss_sections.emplace_back(section, read_rss());
  };
  {
    const double quota = cgroup_cpu_quota();
    const NoiseEstimate noise = measure_timer_noise();
    const RssSample rss = read_rss();
    char quota_str[32] = "null";
    if (quota > 0.0) std::snprintf(quota_str, sizeof(quota_str), "%.2f", quota);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"environment\": {\"hardware_threads\": %u, "
                  "\"cgroup_cpu_quota\": %s, "
                  "\"peak_rss_kb\": %ld, \"current_rss_kb\": %ld, "
                  "\"noise\": {\"spin_min_us\": %.1f, \"spin_median_us\": "
                  "%.1f, \"spread_pct\": %.1f}},\n",
                  std::thread::hardware_concurrency(), quota_str, rss.peak_kb,
                  rss.current_kb, noise.min_us, noise.median_us,
                  noise.spread_pct);
    json += buf;
    std::printf(
        "environment: %u hardware threads, cpu quota %s, peak rss %ld kB, "
        "spin noise min %.1f us median %.1f us (+%.1f%%)\n",
        std::thread::hardware_concurrency(),
        quota > 0.0 ? "limited" : "unlimited", rss.peak_kb, noise.min_us,
        noise.median_us, noise.spread_pct);
  }
  json += "  \"sweep\": [\n";

  // Shard sweep: thread-count x process-count grid.
  std::vector<std::size_t> sweep_processes = {8, 64, 256, 1024, 4096};
  if (smoke) sweep_processes = {8, 64};
  std::vector<std::size_t> sweep_threads;
  for (std::size_t t = 1; t <= max_threads; t *= 2) sweep_threads.push_back(t);
  // A non-power-of-two cap (e.g. a 6-core box) still gets its own row.
  if (sweep_threads.back() != max_threads) sweep_threads.push_back(max_threads);
  bool first_point = true;
  for (const std::size_t processes : sweep_processes) {
    double baseline_ns = 0.0;
    for (const std::size_t threads : sweep_threads) {
      const SweepPoint p = run_sweep_point(detector, processes, threads);
      if (threads == 1) baseline_ns = p.ns_per_epoch;
      const double speedup =
          baseline_ns > 0.0 ? baseline_ns / p.ns_per_epoch : 0.0;
      if (!first_point) json += ",\n";
      first_point = false;
      char buf[384];
      std::snprintf(buf, sizeof(buf),
                    "    {\"processes\": %zu, \"threads\": %zu, "
                    "\"effective_shards\": %zu, \"ns_per_epoch\": %.1f, "
                    "\"ns_per_proc_epoch\": %.1f, \"speedup\": %.2f, "
                    "\"dispatches_per_epoch\": %.1f, \"inline\": %s}",
                    p.processes, p.threads, p.effective_shards, p.ns_per_epoch,
                    p.ns_per_proc_epoch, speedup, p.dispatches_per_epoch,
                    p.effective_shards == 1 ? "true" : "false");
      json += buf;
      std::printf(
          "processes=%zu threads=%zu (shards=%zu): %.0f ns/epoch  "
          "%.1f ns/proc/epoch  speedup %.2fx  %.1f dispatches/epoch\n",
          p.processes, p.threads, p.effective_shards, p.ns_per_epoch,
          p.ns_per_proc_epoch, speedup, p.dispatches_per_epoch);
    }
  }
  sample_section_rss("sweep");
  json += "\n  ],\n  \"batch_kernels\": [\n";

  const std::vector<KernelRow> kernels = run_batch_kernels(smoke);
  bool first_kernel = true;
  for (const KernelRow& row : kernels) {
    if (!first_kernel) json += ",\n";
    first_kernel = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"detector\": \"%s\", \"batch\": %zu, "
                  "\"scalar_ns_per_item\": %.1f, \"batch_ns_per_item\": %.1f, "
                  "\"speedup\": %.2f}",
                  row.detector, row.batch, row.scalar_ns, row.batch_ns,
                  row.speedup);
    json += buf;
    std::printf("kernel %s batch=%zu: scalar %.1f ns/item  batch %.1f "
                "ns/item  speedup %.2fx\n",
                row.detector, row.batch, row.scalar_ns, row.batch_ns,
                row.speedup);
  }
  sample_section_rss("batch_kernels");
  json += "\n  ],\n  \"sim_breakdown\": [\n";

  // Component map of one simulated epoch: each row times one stage in
  // isolation at the same population, so a reader can see which stage is
  // the next floor.
  {
    const std::vector<BreakdownRow> rows = run_sim_breakdown(detector, smoke);
    bool first_row = true;
    for (const BreakdownRow& row : rows) {
      if (!first_row) json += ",\n";
      first_row = false;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "    {\"component\": \"%s\", \"ns_per_proc\": %.2f}",
                    row.component, row.ns_per_proc);
      json += buf;
      std::printf("sim_breakdown %-22s %8.2f ns/proc\n", row.component,
                  row.ns_per_proc);
    }
  }
  sample_section_rss("sim_breakdown");
  json += "\n  ],\n  \"pid_scale\": [\n";

  // The million-pid proof: open-population churn through `total` pids with
  // a small live set and full cold-row reclamation. A flat table is one
  // whose steady-state peak RSS and ns/proc/epoch match the end-of-run
  // values; the lookup rows record what the hashed port costs (and buys)
  // per access against the dense table it replaced.
  {
    std::vector<std::size_t> scale_live = {4096, 65536};
    std::uint64_t scale_total = 10'000'000;
    if (smoke) {
      scale_live = {1024};
      scale_total = 60'000;
    }
    bool first_scale = true;
    for (const std::size_t live : scale_live) {
      const PidScalePoint p = run_pid_scale_point(live, scale_total, smoke);
      if (!first_scale) json += ",\n";
      first_scale = false;
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"kind\": \"churn\", \"target_live\": %zu, \"spawned\": %llu, "
          "\"ns_per_proc_epoch_early\": %.1f, \"ns_per_proc_epoch_late\": "
          "%.1f, \"steady_peak_rss_kb\": %ld, \"end_peak_rss_kb\": %ld, "
          "\"end_current_rss_kb\": %ld, \"tracked_end\": %zu, "
          "\"pid_table_capacity\": %zu, \"cold_rows\": %zu, "
          "\"sched_table_capacity\": %zu}",
          p.target_live, static_cast<unsigned long long>(p.spawned),
          p.early_ns_per_proc_epoch, p.late_ns_per_proc_epoch,
          p.steady_peak_rss_kb, p.end_peak_rss_kb, p.end_current_rss_kb,
          p.tracked_end, p.pid_table_capacity, p.cold_rows,
          p.sched_table_capacity);
      json += buf;
      std::printf(
          "pid_scale live=%zu spawned=%llu: early %.1f late %.1f "
          "ns/proc/epoch  peak rss %ld -> %ld kB  tracked %zu  "
          "pid table cap %zu  cold rows %zu  sched cap %zu\n",
          p.target_live, static_cast<unsigned long long>(p.spawned),
          p.early_ns_per_proc_epoch, p.late_ns_per_proc_epoch,
          p.steady_peak_rss_kb, p.end_peak_rss_kb, p.tracked_end,
          p.pid_table_capacity, p.cold_rows, p.sched_table_capacity);
    }
    std::vector<std::size_t> lookup_live = {4096, 65536};
    std::uint64_t lookup_space = 10'000'000;
    if (smoke) {
      lookup_live = {4096};
      lookup_space = 1'000'000;
    }
    for (const std::size_t live : lookup_live) {
      const PidLookupPoint p = run_pid_lookup_point(live, lookup_space, smoke);
      // The headline ratio is batched-find_many against the DENSE
      // pid-indexed vector the tables used to be — the baseline the
      // refactor replaced (and whose O(pid_space) footprint it rejects).
      // batched_vs_scalar is the prefetch lookahead's own contribution;
      // on a table small enough to sit in L1/L2 it hovers near (or below)
      // 1.0, and grows with the working set as probes start missing.
      const double batched_speedup =
          p.batched_ns > 0.0 ? p.dense_ns / p.batched_ns : 0.0;
      const double batched_vs_scalar =
          p.batched_ns > 0.0 ? p.scalar_ns / p.batched_ns : 0.0;
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          ",\n    {\"kind\": \"lookup\", \"live\": %zu, \"pid_space\": %llu, "
          "\"dense_ns\": %.2f, \"scalar_ns\": %.2f, \"batched_ns\": %.2f, "
          "\"batched_speedup\": %.2f, \"batched_vs_scalar\": %.2f, "
          "\"dense_bytes\": %zu, \"map_bytes\": %zu}",
          p.live, static_cast<unsigned long long>(p.pid_space), p.dense_ns,
          p.scalar_ns, p.batched_ns, batched_speedup, batched_vs_scalar,
          p.dense_bytes, p.map_bytes);
      json += buf;
      std::printf(
          "pid_scale lookup live=%zu space=%llu: dense %.2f  scalar %.2f  "
          "batched %.2f ns/lookup  batched %.2fx vs dense (%.2fx vs scalar)  "
          "dense %zu bytes  map %zu bytes\n",
          p.live, static_cast<unsigned long long>(p.pid_space), p.dense_ns,
          p.scalar_ns, p.batched_ns, batched_speedup, batched_vs_scalar,
          p.dense_bytes, p.map_bytes);
    }
  }
  sample_section_rss("pid_scale");
  json += "\n  ],\n  \"rss_sections\": [\n";
  {
    bool first_rss = true;
    for (const auto& [section, rss] : rss_sections) {
      if (!first_rss) json += ",\n";
      first_rss = false;
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "    {\"section\": \"%s\", \"peak_rss_kb\": %ld, "
                    "\"current_rss_kb\": %ld}",
                    section, rss.peak_kb, rss.current_kb);
      json += buf;
    }
  }
  json += "\n  ]\n}\n";

  if (!JsonChecker(json).valid()) {
    std::fprintf(stderr, "emitted JSON failed well-formedness check\n");
    return 1;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
