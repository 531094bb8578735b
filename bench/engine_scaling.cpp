// Engine-epoch scaling harness. Three experiments, all written into one
// JSON file so CI can track the perf trajectory across PRs:
//
//   1. Window growth: ValkyrieEngine::step() cost as the accumulated
//      measurement window grows (target: ns/epoch flat in window length,
//      i.e. O(1) per-epoch inference — the PR 1 contract).
//   2. Shard sweep: ns/epoch across a process-count x worker-thread grid
//      (8..4096 processes, 1..8 threads), measuring the sharded step's
//      speedup over the sequential path. Every point is bit-identical to
//      the sequential engine, so this is pure throughput. Each row also
//      records the schedule executions per epoch — pool dispatches PLUS
//      inline runs, so single-shard rows report the true 1 per epoch
//      instead of the 0.0 the dispatch counter alone under-reports — plus
//      an `inline` flag for single-shard rows.
//   3. Batch kernels: scalar-vs-batch per-item cost of the shipped
//      detector kernels (MLP window inference, SVM/GBT/stat measurement
//      votes) over a feature plane at batch sizes 16/256/4096, recording
//      the speedup the cross-slot batching buys per detector family.
//   4. Churn: ScenarioDriver-fed open-population runs — Poisson arrivals,
//      geometric lifetimes, kill/completion departures — at 1024-4096
//      steady-state live processes, sweeping the arrival/exit rate.
//      Records ns/proc/epoch (the epoch-open lifecycle must not tax the
//      closed-population hot path) plus admissions/exits per epoch.
//   5. Snapshot: the operational-recovery cost model at 1024/4096 live
//      processes — capture latency (synchronous on the engine thread),
//      off-thread encode latency, artifact bytes, and parse+restore
//      latency into a fresh engine.
//   6. Sim breakdown: per-component timing of one simulated epoch
//      (workload/HPC draw per RNG kind, feature extract, history append
//      vector-vs-ring, window fold, batch inference, serial commit,
//      full-step reference).
//   7. Faults: what graceful degradation costs (PR 7). Closed-population
//      rows measure the hardened step against the fault-free baseline —
//      an armed-but-idle plane (the overhead contract: ~0), then 1% and
//      10% sensor-fault rates (quarantine + coast/blind accounting). A
//      faulted churn row runs the full chaos configuration (all three
//      fault planes) through the open-population driver — this row also
//      runs under --smoke, as CI's chaos smoke point. A recovery row
//      times one SupervisedEngine crash-restore-replay cycle end to end.
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
#include "core/supervisor.hpp"
#include "core/valkyrie.hpp"
#include "engine_bench_common.hpp"
#include "fault/fault_plane.hpp"
#include "hpc/hpc.hpp"
#include "ml/gbt.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/pid_map.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace valkyrie;
using Clock = std::chrono::steady_clock;

struct Point {
  std::uint64_t epoch;
  double ns_per_epoch;
};

std::vector<Point> run_series(const ml::Detector& detector,
                              std::size_t processes,
                              std::uint64_t max_epoch) {
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector);
  for (std::size_t p = 0; p < processes; ++p) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<bench::SignatureWorkload>(
        bench::engine_bench_benign_signature()));
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
  sys.reserve_history(max_epoch + 1);

  constexpr std::uint64_t kProbe = 10;  // epochs timed per checkpoint
  std::vector<Point> points;
  std::uint64_t epoch = 0;
  for (std::uint64_t target = 50; target <= max_epoch; target *= 10) {
    while (epoch + kProbe < target) {
      engine.step();
      ++epoch;
    }
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kProbe; ++i) engine.step();
    const auto stop = Clock::now();
    epoch += kProbe;
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()) /
        static_cast<double>(kProbe);
    points.push_back({epoch, ns});
  }
  return points;
}

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

// --- Churn measurements ------------------------------------------------------
//
// An open population at steady state: `target_live` processes, Poisson
// arrivals at `arrival_rate` per epoch, geometric lifetimes with mean
// target_live / arrival_rate (so departures balance arrivals), half the
// departures by scheduled kill and half by natural completion. The
// system/engine/driver tables are all reserved up front, so the engine's
// own lifecycle machinery (admission queue, scheduler batch deltas,
// compaction, attachment table) adds no allocator traffic — that contract
// is pinned by test_parallel_no_alloc's churn suites. What the measured
// epochs DO include is the cost of materialising each arrival (workload +
// actuator construction, early history growth until the retirement pool
// warms): that is the workload of churn itself, and exactly what a
// production monitor pays per admission.

struct ChurnPoint {
  std::size_t target_live;
  double arrival_rate;
  std::size_t threads;
  double ns_per_epoch;
  double ns_per_proc_epoch;
  double mean_live;
  double admissions_per_epoch;
  double exits_per_epoch;
};

ChurnPoint run_churn_point(const ml::Detector& detector,
                           std::size_t target_live, double arrival_rate,
                           std::size_t threads, bool smoke,
                           const fault::FaultPlane* plane = nullptr) {
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, threads);
  if (plane != nullptr) engine.arm_faults(plane);

  sim::ScenarioScript script;
  script.seed = 0xcafe + target_live;
  script.initial_processes = target_live;
  script.arrival_rate = arrival_rate;
  script.mean_lifetime = static_cast<double>(target_live) / arrival_rate;
  script.kill_exit_fraction = 0.5;
  script.recycle_histories = true;  // bounded memory at bench scale
  // The shared bench signature keeps the bench MLP quiet (the population
  // holds its steady state — the experiment measures lifecycle cost, not
  // detector FP dynamics) and makes churn rows directly comparable to the
  // closed-population sweep rows.
  sim::ScenarioDriver driver(
      engine, script, nullptr, [](std::uint64_t lifetime) {
        return std::make_unique<bench::SignatureWorkload>(
            bench::engine_bench_benign_signature(), lifetime);
      });

  const std::uint64_t warmup = smoke ? 10 : 20;
  const std::uint64_t probe = std::clamp<std::uint64_t>(
      40960 / static_cast<std::uint64_t>(target_live), 10, 2000);
  const std::uint64_t repeats = smoke ? 2 : 5;
  const std::size_t total_epochs =
      static_cast<std::size_t>(warmup + repeats * probe + 1);
  const std::size_t expected = driver.expected_processes(total_epochs);
  sys.reserve(expected);
  engine.reserve(expected);
  driver.reserve(expected);
  sys.reserve_history(total_epochs);

  for (std::uint64_t i = 0; i < warmup; ++i) driver.step();

  const sim::ScenarioDriver::Stats before = driver.stats();
  double best_ns = 0.0;
  double best_mean_live = 0.0;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const sim::ScenarioDriver::Stats repeat_before = driver.stats();
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < probe; ++i) driver.step();
    const auto stop = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()) /
        static_cast<double>(probe);
    // The per-process figure divides this repeat's timing by this
    // repeat's own live population — the windows must match, or drift
    // across repeats skews the ratio.
    const double repeat_mean_live =
        (driver.stats().live_epoch_sum - repeat_before.live_epoch_sum) /
        static_cast<double>(probe);
    if (r == 0 || ns < best_ns) {
      best_ns = ns;
      best_mean_live = repeat_mean_live;
    }
  }
  const sim::ScenarioDriver::Stats after = driver.stats();
  const double measured =
      static_cast<double>(after.epochs - before.epochs);
  const double mean_live =
      (after.live_epoch_sum - before.live_epoch_sum) / measured;
  const double admissions =
      static_cast<double>(after.spawned - before.spawned) / measured;
  const double exits =
      static_cast<double>((after.driver_kills + after.completed +
                           after.policy_kills) -
                          (before.driver_kills + before.completed +
                           before.policy_kills)) /
      measured;
  return {target_live,
          arrival_rate,
          threads,
          best_ns,
          best_ns / best_mean_live,
          mean_live,
          admissions,
          exits};
}

// --- Snapshot measurements ---------------------------------------------------
//
// The operational-recovery cost model: what a checkpoint actually charges
// the engine thread (capture = structured copy, taken synchronously at the
// epoch boundary), what it charges the Snapshotter worker (encode = byte
// projection + CRC32), how big the artifact is, and what recovery costs
// (parse + restore into a freshly constructed engine). Populations use the
// registered BenchmarkWorkload — the bench-local SignatureWorkload has no
// snapshot hook, and a production snapshot carries real workloads anyway.

struct SnapshotPoint {
  std::size_t processes;
  double capture_us;
  double encode_us;
  double restore_us;  // parse + restore, fresh engine
  std::size_t bytes;
};

SnapshotPoint run_snapshot_point(const ml::Detector& detector,
                                 std::size_t processes, bool smoke) {
  const std::vector<workloads::BenchmarkSpec> palette = workloads::spec2006();
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector);
  for (std::size_t p = 0; p < processes; ++p) {
    workloads::BenchmarkSpec spec = palette[p % palette.size()];
    spec.epochs_of_work = 1e12;  // keep the population fully live
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(spec));
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
  const std::uint64_t warm = smoke ? 32 : 128;  // history the snapshot carries
  sys.reserve_history(warm + 1);
  for (std::uint64_t i = 0; i < warm; ++i) engine.step();

  const int repeats = smoke ? 3 : 7;
  double capture_us = 0.0, encode_us = 0.0, restore_us = 0.0;
  std::vector<std::uint8_t> bytes;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const snapshot::SnapshotImage image = snapshot::capture(engine);
    const auto t1 = Clock::now();
    bytes = snapshot::encode(image);
    const auto t2 = Clock::now();

    sim::SimSystem sys2;
    core::ValkyrieEngine engine2(sys2, detector);
    const auto t3 = Clock::now();
    const snapshot::SnapshotImage reparsed = snapshot::parse(bytes);
    snapshot::restore(reparsed, engine2, snapshot::RestoreContext{});
    const auto t4 = Clock::now();

    const auto us = [](Clock::time_point a, Clock::time_point b) {
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                     .count()) /
             1e3;
    };
    if (r == 0 || us(t0, t1) < capture_us) capture_us = us(t0, t1);
    if (r == 0 || us(t1, t2) < encode_us) encode_us = us(t1, t2);
    if (r == 0 || us(t3, t4) < restore_us) restore_us = us(t3, t4);
  }
  return {processes, capture_us, encode_us, restore_us, bytes.size()};
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
  sys.enable_bounded_history(8);
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
// extraction, the history append (unbounded vector vs bounded ring), the
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

  // History append: unbounded vector push vs bounded ring overwrite.
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

// --- Fault-plane overhead + recovery latency ---------------------------------
//
// The graceful-degradation cost model. Overhead rows run the closed-
// population step with a fault plane armed: the armed-but-idle row prices
// the hardened paths themselves (per-(epoch, pid) sensor draws, sample
// validation, guarded inference, retry-aware commit) and must sit at ~0%
// over baseline — that contract is pinned allocation-wise by
// test_parallel_no_alloc and priced here. The sensor rows price real
// quarantine traffic at production-plausible (1%) and pathological (10%)
// loss rates. The recovery row times one full SupervisedEngine
// crash-restore-replay cycle: snapshotter flush + parse + world rebuild +
// deterministic replay to the present.

double run_fault_ns(const ml::Detector& detector,
                    const fault::FaultPlane* plane, std::size_t processes,
                    std::size_t threads, bool smoke,
                    core::ValkyrieEngine::FaultHealth* health) {
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, threads);
  if (plane != nullptr) engine.arm_faults(plane);
  for (std::size_t p = 0; p < processes; ++p) {
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<bench::SignatureWorkload>(
            bench::engine_bench_benign_signature()));
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }

  const std::uint64_t warmup = 20;
  const std::uint64_t probe = std::clamp<std::uint64_t>(
      40960 / static_cast<std::uint64_t>(processes), 10, 2000);
  const std::uint64_t repeats = smoke ? 2 : 5;
  sys.reserve_history(warmup + repeats * probe + 1);
  for (std::uint64_t i = 0; i < warmup; ++i) engine.step();

  double best_ns = 0.0;
  for (std::uint64_t r = 0; r < repeats; ++r) {
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
  if (health != nullptr) *health = engine.fault_health();
  return best_ns;
}

struct RecoveryPoint {
  std::size_t processes;
  std::uint64_t replay_epochs;
  double step_us;      // one steady-state supervised step, for reference
  double recovery_us;  // the crash step: epoch + flush/parse/rebuild/replay
};

RecoveryPoint run_recovery_point(const ml::Detector& detector,
                                 std::size_t processes, bool smoke) {
  const std::uint64_t crash_at = smoke ? 24 : 40;
  const auto factory =
      [&detector,
       processes](const snapshot::SnapshotImage* image) -> core::SupervisedWorld {
    core::SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>();
    world.engine =
        std::make_unique<core::ValkyrieEngine>(*world.system, detector);
    if (image == nullptr) {
      const std::vector<workloads::BenchmarkSpec> palette =
          workloads::spec2006();
      // An unreachable measurement budget keeps the monitors out of the
      // terminable phase: the bench MLP flags benchmark workloads, and a
      // policy-killed population would make the recovery replay trivial.
      core::ValkyrieConfig monitor_config;
      monitor_config.required_measurements = 1'000'000'000;
      for (std::size_t p = 0; p < processes; ++p) {
        workloads::BenchmarkSpec spec = palette[p % palette.size()];
        spec.epochs_of_work = 1e12;  // keep the population fully live
        const sim::ProcessId pid = world.system->spawn(
            std::make_unique<workloads::BenchmarkWorkload>(spec));
        world.engine->attach(pid, monitor_config,
                             std::make_unique<core::SchedulerWeightActuator>());
      }
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
    }
    return world;
  };
  core::SupervisedEngine::Config config;
  config.checkpoint_interval = 16;  // crash mid-interval: replay 8 epochs
  config.crash_epochs = {crash_at};
  core::SupervisedEngine supervisor(factory, config);
  supervisor.run(crash_at - 2);

  const auto us_since = [](Clock::time_point a) {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - a)
                                   .count()) /
           1e3;
  };
  const auto t0 = Clock::now();
  supervisor.step();  // steady-state reference step
  const double step_us = us_since(t0);
  const auto t1 = Clock::now();
  supervisor.step();  // completes epoch `crash_at`, then crash + recovery
  const double recovery_us = us_since(t1);
  return {processes, supervisor.health().epochs_replayed, step_us, recovery_us};
}

// --- The priced MTTR model ---------------------------------------------------
//
// Recovery cost is replay distance, and replay distance is bought down by
// checkpoint cadence: a short interval pays encode/confirm overhead every
// few epochs so that a crash replays almost nothing; a long interval is
// nearly free until the crash, which then replays up to a full interval
// (or two, if the latest generation is torn). This sweep prices both
// sides of that trade across checkpoint_interval x domain-burst severity,
// over a fixed deterministic crash schedule, so the committed JSON holds
// the actual curve instead of the folklore version of it.

struct MttrPoint {
  std::uint64_t interval;
  std::uint64_t checkpoints;      // sink-confirmed
  std::uint64_t recoveries;
  std::uint64_t worst_replay;     // epochs
  double mean_replay;             // epochs
  double campaign_ms;             // whole campaign incl. checkpoint cost
  double mean_recovery_us;        // mean wall time of the crash steps
};

MttrPoint run_mttr_point(const ml::Detector& detector,
                         const fault::FaultPlane& plane,
                         std::uint64_t interval, bool smoke) {
  const std::size_t processes = smoke ? 128 : 512;
  const std::uint64_t epochs = smoke ? 120 : 400;
  const std::vector<std::uint64_t> crashes =
      smoke ? std::vector<std::uint64_t>{40, 80}
            : std::vector<std::uint64_t>{97, 210, 340};

  const auto factory =
      [&detector, &plane,
       processes](const snapshot::SnapshotImage* image) -> core::SupervisedWorld {
    core::SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>();
    world.engine =
        std::make_unique<core::ValkyrieEngine>(*world.system, detector);
    world.engine->arm_faults(&plane);
    if (image == nullptr) {
      // Snapshot-capable population (SignatureWorkload has no snapshot
      // hooks), pinned live: the monitors stay out of the terminable
      // phase so every replay re-runs the full population.
      const std::vector<workloads::BenchmarkSpec> palette =
          workloads::spec2006();
      core::ValkyrieConfig monitor_config;
      monitor_config.required_measurements = 1'000'000'000;
      for (std::size_t p = 0; p < processes; ++p) {
        workloads::BenchmarkSpec spec = palette[p % palette.size()];
        spec.epochs_of_work = 1e12;
        const sim::ProcessId pid = world.system->spawn(
            std::make_unique<workloads::BenchmarkWorkload>(spec));
        world.engine->attach(pid, monitor_config,
                             std::make_unique<core::SchedulerWeightActuator>());
      }
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
    }
    return world;
  };

  core::SupervisedEngine::Config config;
  config.checkpoint_interval = interval;
  config.crash_epochs = crashes;
  core::SupervisedEngine supervisor(factory, config);

  double recovery_ns = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 1; i <= epochs; ++i) {
    const bool crash_step =
        std::find(crashes.begin(), crashes.end(), i) != crashes.end();
    const auto t1 = crash_step ? Clock::now() : Clock::time_point{};
    supervisor.step();
    if (crash_step) {
      recovery_ns += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t1)
              .count());
    }
  }
  const double campaign_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count()) /
      1e6;

  (void)supervisor.latest_checkpoint();  // settle the confirmed count
  const core::SupervisedEngine::Health health = supervisor.health();
  const double mean_replay =
      health.recoveries > 0
          ? static_cast<double>(health.epochs_replayed) /
                static_cast<double>(health.recoveries)
          : 0.0;
  const double mean_recovery_us =
      health.recoveries > 0
          ? recovery_ns / 1e3 / static_cast<double>(health.recoveries)
          : 0.0;
  return {interval,     health.checkpoints, health.recoveries,
          health.worst_replay, mean_replay,  campaign_ms,
          mean_recovery_us};
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
  json += "  \"series\": [\n";
  const std::size_t process_counts[] = {1, 8};
  const std::uint64_t series_max_epoch = smoke ? 500 : 5000;
  bool first_series = true;
  for (const std::size_t processes : process_counts) {
    const std::vector<Point> points =
        run_series(detector, processes, series_max_epoch);
    if (!first_series) json += ",\n";
    first_series = false;
    json += "    {\"processes\": " + std::to_string(processes) +
            ", \"points\": [";
    bool first = true;
    for (const Point& p : points) {
      if (!first) json += ", ";
      first = false;
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"epoch\": %llu, \"ns_per_epoch\": %.1f}",
                    static_cast<unsigned long long>(p.epoch), p.ns_per_epoch);
      json += buf;
    }
    json += "]}";
    std::printf("processes=%zu:", processes);
    for (const Point& p : points) {
      std::printf("  epoch %llu: %.0f ns/epoch",
                  static_cast<unsigned long long>(p.epoch), p.ns_per_epoch);
    }
    std::printf("\n");
  }
  sample_section_rss("series");
  json += "\n  ],\n  \"sweep\": [\n";

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
  json += "\n  ],\n  \"churn\": [\n";

  // Churn sweep: open population, arrivals/exits balanced at the target
  // live count.
  std::vector<std::size_t> churn_live = {1024, 4096};
  std::vector<double> churn_rate_div = {128.0, 32.0};  // rate = live / div
  std::vector<std::size_t> churn_threads = {1};
  if (max_threads > 1) churn_threads.push_back(max_threads);
  if (smoke) {
    churn_live = {1024};
    churn_rate_div = {64.0};
    churn_threads = {max_threads};
  }
  bool first_churn = true;
  for (const std::size_t live : churn_live) {
    for (const double div : churn_rate_div) {
      const double rate = static_cast<double>(live) / div;
      for (const std::size_t threads : churn_threads) {
        const ChurnPoint p =
            run_churn_point(detector, live, rate, threads, smoke);
        if (!first_churn) json += ",\n";
        first_churn = false;
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"target_live\": %zu, \"arrival_rate\": %.1f, "
            "\"threads\": %zu, \"ns_per_epoch\": %.1f, "
            "\"ns_per_proc_epoch\": %.1f, \"mean_live\": %.1f, "
            "\"admissions_per_epoch\": %.2f, \"exits_per_epoch\": %.2f}",
            p.target_live, p.arrival_rate, p.threads, p.ns_per_epoch,
            p.ns_per_proc_epoch, p.mean_live, p.admissions_per_epoch,
            p.exits_per_epoch);
        json += buf;
        std::printf(
            "churn live=%zu rate=%.1f/epoch threads=%zu: %.0f ns/epoch  "
            "%.1f ns/proc/epoch  mean_live %.0f  %.2f admissions/epoch  "
            "%.2f exits/epoch\n",
            p.target_live, p.arrival_rate, p.threads, p.ns_per_epoch,
            p.ns_per_proc_epoch, p.mean_live, p.admissions_per_epoch,
            p.exits_per_epoch);
      }
    }
  }
  sample_section_rss("churn");
  json += "\n  ],\n  \"snapshot\": [\n";

  // Snapshot cost model: capture (engine-thread, synchronous), encode
  // (Snapshotter worker), artifact size, restore (parse + rebuild).
  std::vector<std::size_t> snapshot_live = {1024, 4096};
  if (smoke) snapshot_live = {1024};
  bool first_snap = true;
  for (const std::size_t live : snapshot_live) {
    const SnapshotPoint p = run_snapshot_point(detector, live, smoke);
    if (!first_snap) json += ",\n";
    first_snap = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"processes\": %zu, \"capture_us\": %.1f, "
                  "\"encode_us\": %.1f, \"restore_us\": %.1f, "
                  "\"bytes\": %zu}",
                  p.processes, p.capture_us, p.encode_us, p.restore_us,
                  p.bytes);
    json += buf;
    std::printf(
        "snapshot %4zu live: capture %.1f us  encode %.1f us  "
        "restore %.1f us  %zu bytes\n",
        p.processes, p.capture_us, p.encode_us, p.restore_us, p.bytes);
  }

  sample_section_rss("snapshot");
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
  json += "\n  ],\n  \"faults\": [\n";

  // Fault-plane cost model: hardened-path overhead against baseline, then
  // real sensor-fault traffic, the chaos churn point, and one timed
  // crash-recovery cycle.
  {
    const std::size_t fault_procs = smoke ? 256 : 1024;
    const std::size_t fault_threads = max_threads;

    fault::FaultPlane idle(0xbe9c);
    fault::FaultPlane sensor1(0xbe9c);
    sensor1.sensor = {.dropout_rate = 0.004,
                      .stuck_rate = 0.002,
                      .nan_rate = 0.002,
                      .saturate_rate = 0.002};
    fault::FaultPlane sensor10(0xbe9c);
    sensor10.sensor = {.dropout_rate = 0.04,
                       .stuck_rate = 0.02,
                       .nan_rate = 0.02,
                       .saturate_rate = 0.02};
    struct OverheadRow {
      const char* scenario;
      const fault::FaultPlane* plane;
    };
    const OverheadRow overhead_rows[] = {{"baseline", nullptr},
                                         {"armed_idle", &idle},
                                         {"sensor_1pct", &sensor1},
                                         {"sensor_10pct", &sensor10}};
    double baseline_ns = 0.0;
    bool first_fault = true;
    for (const OverheadRow& row : overhead_rows) {
      core::ValkyrieEngine::FaultHealth health{};
      const double ns =
          run_fault_ns(detector, row.plane, fault_procs, fault_threads, smoke,
                       &health);
      if (row.plane == nullptr) baseline_ns = ns;
      const double overhead =
          baseline_ns > 0.0 ? ns / baseline_ns - 1.0 : 0.0;
      if (!first_fault) json += ",\n";
      first_fault = false;
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s\", \"processes\": %zu, \"threads\": %zu, "
          "\"ns_per_proc_epoch\": %.1f, "
          "\"overhead_pct\": %.1f, \"coasted\": %llu, \"blind\": %llu}",
          row.scenario, fault_procs, fault_threads,
          ns / static_cast<double>(fault_procs), overhead * 100.0,
          static_cast<unsigned long long>(health.coasted),
          static_cast<unsigned long long>(health.blind));
      json += buf;
      std::printf(
          "faults %-12s procs=%zu threads=%zu: %.1f ns/proc/epoch  "
          "overhead %+.1f%%  coasted %llu  blind %llu\n",
          row.scenario, fault_procs, fault_threads,
          ns / static_cast<double>(fault_procs), overhead * 100.0,
          static_cast<unsigned long long>(health.coasted),
          static_cast<unsigned long long>(health.blind));
    }

    // Chaos churn: all three fault planes armed over the open-population
    // driver, detector faults injected through the FaultyDetector wrapper.
    // Runs under --smoke too — CI's chaos smoke point.
    fault::FaultPlane chaos(0xc4a05);
    chaos.sensor = {.dropout_rate = 0.005,
                    .stuck_rate = 0.003,
                    .nan_rate = 0.002,
                    .saturate_rate = 0.002};
    chaos.detector = {.throw_rate = 0.005, .garbage_rate = 0.005};
    chaos.actuator = {.transient_rate = 0.02, .permanent_rate = 0.01};
    const fault::FaultyDetector faulty(detector, chaos);
    const ChurnPoint cp =
        run_churn_point(faulty, 1024, 16.0, max_threads, smoke, &chaos);
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        ",\n    {\"scenario\": \"faulted_churn\", \"target_live\": %zu, "
        "\"arrival_rate\": %.1f, \"threads\": %zu, "
        "\"ns_per_epoch\": %.1f, \"ns_per_proc_epoch\": %.1f, "
        "\"mean_live\": %.1f}",
        cp.target_live, cp.arrival_rate, cp.threads,
        cp.ns_per_epoch, cp.ns_per_proc_epoch, cp.mean_live);
    json += buf;
    std::printf(
        "faults faulted_churn live=%zu threads=%zu: %.0f ns/epoch  "
        "%.1f ns/proc/epoch  mean_live %.0f\n",
        cp.target_live, cp.threads, cp.ns_per_epoch,
        cp.ns_per_proc_epoch, cp.mean_live);

    const RecoveryPoint rp =
        run_recovery_point(detector, smoke ? 256 : 1024, smoke);
    std::snprintf(
        buf, sizeof(buf),
        ",\n    {\"scenario\": \"recovery\", \"processes\": %zu, "
        "\"replay_epochs\": %llu, \"step_us\": %.1f, \"recovery_us\": %.1f}",
        rp.processes, static_cast<unsigned long long>(rp.replay_epochs),
        rp.step_us, rp.recovery_us);
    json += buf;
    std::printf(
        "faults recovery procs=%zu: replay %llu epochs  step %.1f us  "
        "recovery %.1f us\n",
        rp.processes, static_cast<unsigned long long>(rp.replay_epochs),
        rp.step_us, rp.recovery_us);
  }
  sample_section_rss("faults");
  json += "\n  ],\n  \"mttr\": [\n";

  // The priced MTTR curve: checkpoint cadence x domain-burst severity over
  // a fixed crash schedule. Severity stresses the degraded-inference load
  // the replays run under; the interval buys replay distance down.
  {
    fault::FaultPlane mild(0xbe9c);
    mild.sensor = {.dropout_rate = 0.004,
                   .stuck_rate = 0.002,
                   .nan_rate = 0.002,
                   .saturate_rate = 0.002};
    mild.sensor.feature_fraction = 0.4;
    mild.domains = {.domain_count = 4,
                    .node_width = 8,
                    .sensor_outage_rate = 0.01,
                    .actuator_outage_rate = 0.005,
                    .mean_outage_epochs = 4.0};
    fault::FaultPlane harsh(0xbe9c);
    harsh.sensor = mild.sensor;
    harsh.domains = {.domain_count = 4,
                     .node_width = 8,
                     .sensor_outage_rate = 0.05,
                     .actuator_outage_rate = 0.02,
                     .mean_outage_epochs = 8.0};
    struct SeverityRow {
      const char* name;
      const fault::FaultPlane* plane;
    };
    const SeverityRow severities[] = {{"mild", &mild}, {"harsh", &harsh}};
    const std::uint64_t intervals[] = {4, 16, 64, 256};
    bool first_mttr = true;
    for (const SeverityRow& severity : severities) {
      for (const std::uint64_t interval : intervals) {
        const MttrPoint mp =
            run_mttr_point(detector, *severity.plane, interval, smoke);
        if (!first_mttr) json += ",\n";
        first_mttr = false;
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"interval\": %llu, \"severity\": \"%s\", "
            "\"checkpoints\": %llu, \"recoveries\": %llu, "
            "\"mean_replay_epochs\": %.1f, \"worst_replay_epochs\": %llu, "
            "\"campaign_ms\": %.1f, \"mean_recovery_us\": %.1f}",
            static_cast<unsigned long long>(mp.interval), severity.name,
            static_cast<unsigned long long>(mp.checkpoints),
            static_cast<unsigned long long>(mp.recoveries), mp.mean_replay,
            static_cast<unsigned long long>(mp.worst_replay), mp.campaign_ms,
            mp.mean_recovery_us);
        json += buf;
        std::printf(
            "mttr interval=%-3llu %-5s: checkpoints %llu  "
            "mean replay %.1f  worst %llu  campaign %.1f ms  "
            "recovery %.1f us\n",
            static_cast<unsigned long long>(mp.interval), severity.name,
            static_cast<unsigned long long>(mp.checkpoints), mp.mean_replay,
            static_cast<unsigned long long>(mp.worst_replay), mp.campaign_ms,
            mp.mean_recovery_us);
      }
    }
  }
  sample_section_rss("mttr");
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
