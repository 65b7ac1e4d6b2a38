#pragma once
// Shared-memory parallelism for parameter sweeps.
//
// The discrete-event simulator itself is deterministic and single-threaded;
// parallelism in greenhpc lives one level up — design-space exploration,
// multi-seed replicas and calibration sweeps all fan out over independent
// work items. ThreadPool provides a contention-light dynamically
// self-scheduled parallel_for with chunking, which is the right shape for
// these uniform-to-mildly-skewed workloads.
//
// Dispatch model: the calling thread is part of the team (it executes
// chunks alongside the workers, OpenMP-style), and loops fall back to a
// plain serial loop when parallel dispatch provably cannot win — a
// single-worker pool, a single chunk, or a nested call from inside a
// parallel region. The fallback is what keeps small sweeps (below the
// serial/parallel crossover) from paying wakeup latency for nothing:
// below it, "parallel" IS the serial loop. run_team is the
// other shape: one long-running body per team member, lane 0 on the
// caller, for work where the caller holds a role of its own (the sweep
// engine's in-order fold).
//
// The chunked entry points are templates, so the body is invoked directly
// within a chunk — the type-erasure cost (one indirect call) is paid per
// chunk, not per iteration, unlike the legacy std::function overload.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace greenhpc::util {

namespace detail {
/// Out-of-line observability hook (defined in parallel.cpp): counts
/// serial-fallback dispatches without pulling obs headers into this
/// template header. Called once per fallen-back loop, not per iteration.
void note_pool_serial_fallback();
}  // namespace detail

class ThreadPool {
 public:
  /// Pool with `threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Run body(i) for each i in [0, n). Blocks until all iterations finish.
  /// Iterations must be independent.
  ///
  /// Exception contract (shared with parallel_for_chunked): the first
  /// exception a body throws is captured and rethrown on the calling
  /// thread after the loop quiesces — never swallowed, never a call to
  /// std::terminate, never a deadlocked caller. Once a task has failed,
  /// chunks that have not yet started are abandoned (their iterations do
  /// not run), in-flight chunks finish, and later exceptions are dropped.
  /// The pool itself is left fully usable: workers survive, and the next
  /// parallel loop behaves as if the failure never happened. On the
  /// serial-fallback path the exception propagates directly from the body
  /// at the throwing iteration, which satisfies the same contract.
  ///
  /// Legacy std::function shape (one indirect call per iteration); new
  /// code and hot fan-outs should prefer parallel_for_chunked.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Chunked parallel loop: iterations [0, n) are handed out to the team
  /// (workers + the calling thread) `grain` at a time, and the body is
  /// called directly inside each chunk — no per-iteration type erasure.
  /// grain == 0 picks a heuristic grain (enough chunks for dynamic load
  /// balance, few enough that dispatch cost stays invisible). Falls back
  /// to a serial loop below the crossover (single-worker pool, a single
  /// chunk, or a nested call). Same independence/exception contract as
  /// parallel_for (first exception rethrown on the calling thread,
  /// unstarted chunks abandoned after a failure, pool remains usable);
  /// results written to preallocated slots are bit-identical for every
  /// thread count including the serial fallback.
  template <typename Body>
  void parallel_for_chunked(std::size_t n, std::size_t grain, Body&& body) {
    if (n == 0) return;
    if (grain == 0) grain = default_grain(n);
    const std::size_t chunks = (n + grain - 1) / grain;
    if (chunks <= 1 || team_size() == 1) {
      detail::note_pool_serial_fallback();
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    using Fn = std::remove_reference_t<Body>;
    Task task;
    task.invoke = [](void* ctx, std::size_t begin, std::size_t end) {
      Fn& f = *static_cast<Fn*>(ctx);
      for (std::size_t i = begin; i < end; ++i) f(i);
    };
    task.ctx = const_cast<void*>(static_cast<const void*>(&body));
    task.n = n;
    task.grain = grain;
    task.chunks = chunks;
    run_task(task);
  }

  /// Team entry point: body(lane) runs once for each lane in
  /// [0, team_size()), all lanes concurrently. Lane 0 always runs on the
  /// calling thread and lane k > 0 on a worker of its own, so a body can
  /// give lane 0 work that must stay on the caller (parallel_for_chunked
  /// cannot promise the caller any chunk). A nested call or a pool with at
  /// most one worker runs lane 0 alone, so a body must be able to finish
  /// the job on lane 0 by itself. Lanes that wait on each other must also
  /// watch for a failed lane themselves: the pool cannot interrupt a
  /// running body. Same exception contract as parallel_for: the first
  /// exception is rethrown on the calling thread once every started lane
  /// has returned, lanes not yet started are skipped, and the pool stays
  /// usable.
  template <typename Body>
  void run_team(Body&& body) {
    if (team_size() == 1) {
      detail::note_pool_serial_fallback();
      body(std::size_t{0});
      return;
    }
    using Fn = std::remove_reference_t<Body>;
    Task task;
    task.invoke = [](void* ctx, std::size_t lane, std::size_t) {
      (*static_cast<Fn*>(ctx))(lane);
    };
    task.ctx = const_cast<void*>(static_cast<const void*>(&body));
    task.n = team_size();
    task.chunks = task.n;
    task.team = true;
    run_task(task);
  }

  /// Lanes run_team() would run from the current thread: workers + 1, or 1
  /// for a nested call or a pool with at most one worker.
  [[nodiscard]] std::size_t team_size() const {
    return workers_.size() <= 1 || in_parallel_region() ? 1 : workers_.size() + 1;
  }

  /// Heuristic chunk size for n iterations on this pool: aims at ~8 chunks
  /// per team member so dynamic self-scheduling can absorb skew without
  /// the per-chunk dispatch showing up.
  [[nodiscard]] std::size_t default_grain(std::size_t n) const;

  /// Whether the current thread is already inside a parallel region (on a
  /// worker, or in a body fanned out by any pool); nested loops run
  /// serially.
  [[nodiscard]] static bool in_parallel_region();

  /// Process-wide default pool, lazily constructed on first use. Sizing
  /// precedence: configure_global() > GREENHPC_THREADS env var > hardware
  /// concurrency.
  static ThreadPool& global();

  /// Fix the global pool's thread count before its first use (e.g. from a
  /// --threads CLI flag). Throws InvalidArgument if the global pool has
  /// already been constructed — late reconfiguration would silently not
  /// apply.
  static void configure_global(std::size_t threads);

  /// Thread count requested by the GREENHPC_THREADS environment variable;
  /// 0 when unset, empty, or not a positive integer (= use hardware
  /// concurrency). Exposed for tests and for CLI --threads precedence.
  [[nodiscard]] static std::size_t env_thread_override();

 private:
  struct Task {
    /// Type-erased chunk runner: invoke(ctx, begin, end) calls the body
    /// for each iteration in [begin, end).
    void (*invoke)(void*, std::size_t, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> remaining{0};
    /// Set when any chunk throws; executors observe it before claiming
    /// another chunk and abandon the rest of the loop (cancel-on-error).
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    /// run_team: chunk c is lane c. The caller runs chunk 0 and each
    /// worker claims at most one chunk, so every lane has a thread of its
    /// own.
    bool team = false;
  };

  /// Post the task to the workers, help run it from the calling thread,
  /// wait for completion and rethrow the first captured exception.
  void run_task(Task& task);
  void worker_loop();
  static void run_chunks(Task& task);
  static void run_chunk(Task& task, std::size_t c);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Task* current_ = nullptr;
  std::size_t generation_ = 0;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Convenience wrapper over ThreadPool::global().parallel_for_chunked.
template <typename Body>
void parallel_for_chunked(std::size_t n, std::size_t grain, Body&& body) {
  ThreadPool::global().parallel_for_chunked(n, grain, std::forward<Body>(body));
}

}  // namespace greenhpc::util
