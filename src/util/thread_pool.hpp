// Persistent worker pool with a static-sharding parallel-for primitive.
//
// Built for the engine's epoch loop: one job per epoch phase, dispatched to
// long-lived workers, with the index range split into one contiguous chunk
// per shard. Dispatch stores a plain function pointer + context pointer, so
// a parallel_for call performs zero heap allocations — a requirement of the
// steady-state no-allocation contract on the per-epoch hot path.
//
// The chunk assignment depends only on (n, shard count), never on timing,
// so work that is deterministic per index stays deterministic under any
// worker count; ordered results are recovered by draining per-shard buffers
// in shard order (see ValkyrieEngine::step's commit phase).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace valkyrie::util {

class ThreadPool {
 public:
  /// `threads` counts the calling thread: a pool of `threads` runs jobs on
  /// `threads - 1` workers plus the caller. 0 and 1 mean no workers at all
  /// (every job runs inline on the caller).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of shards a job is split into (workers + the calling thread).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Jobs dispatched to the worker shards since construction. Degenerate
  /// runs that stay inline on the caller (no workers, or n <= 1) are not
  /// counted here — they land in inline_run_count(). This is the
  /// observability hook behind the engine-step contract: one engine epoch
  /// must cost exactly one dispatch.
  [[nodiscard]] std::uint64_t dispatch_count() const noexcept {
    return dispatch_count_;
  }

  /// Non-empty jobs that ran inline on the caller (no workers, or n <= 1)
  /// instead of being dispatched to the shards. dispatch_count() +
  /// inline_run_count() is therefore the number of jobs the pool actually
  /// executed — the schedule cost benches must report, where counting
  /// dispatches alone under-reports single-shard runs as zero.
  [[nodiscard]] std::uint64_t inline_run_count() const noexcept {
    return inline_run_count_;
  }

  /// Runs body(begin, end) over a partition of [0, n). Blocks until every
  /// shard has finished. Only one thread may dispatch jobs at a time (the
  /// pool is an engine-loop primitive, not a general task queue). If any
  /// shard throws, the pool still joins every shard, then rethrows the
  /// first exception on the dispatching thread — matching the sequential
  /// path's behavior (remaining shards may or may not have run).
  template <typename F>
  void parallel_for(std::size_t n, const F& body) {
    run_job(
        n,
        [](void* ctx, std::size_t, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(ctx))(begin, end);
        },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// As parallel_for, but body(shard, begin, end) also receives the shard
  /// index (< shard_count()), for writers that own per-shard buffers.
  template <typename F>
  void parallel_for_shards(std::size_t n, const F& body) {
    run_job(
        n,
        [](void* ctx, std::size_t shard, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(ctx))(shard, begin, end);
        },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// The contiguous chunk [begin, end) of [0, n) owned by `shard` of
  /// `shards`: sizes differ by at most one, earlier shards take the excess.
  static void chunk(std::size_t n, std::size_t shards, std::size_t shard,
                    std::size_t& begin, std::size_t& end) noexcept;

 private:
  using JobFn = void (*)(void* ctx, std::size_t shard, std::size_t begin,
                         std::size_t end);

  void run_job(std::size_t n, JobFn fn, void* ctx);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  // Dispatches to the workers / inline runs on the caller; written only by
  // the (single) dispatching thread, so plain counters suffice.
  std::uint64_t dispatch_count_ = 0;
  std::uint64_t inline_run_count_ = 0;
  // Spin budget for waiters: positive when the pool fits the machine,
  // zero (block immediately) when oversubscribed — spinning workers would
  // steal the cores the actual work needs.
  int spin_iterations_ = 0;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  // Job descriptor: written by the dispatcher before the release-store of
  // generation_, read by workers after its acquire-load.
  JobFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_n_ = 0;
  // Workers spin briefly on generation_/pending_ before blocking on the
  // condvars, keeping per-epoch dispatch latency in the sub-microsecond
  // range when jobs arrive back-to-back (the engine loop's pattern).
  std::atomic<std::uint64_t> generation_{0};  // bumped per job
  std::atomic<std::size_t> pending_{0};  // workers yet to finish current job
  std::atomic<bool> stop_{false};
  // First exception thrown by any shard of the current job (guarded by
  // mu_); rethrown on the dispatching thread after all shards join.
  std::exception_ptr job_error_;
};

}  // namespace valkyrie::util
