#pragma once
// General-purpose parallel job runtime for batch workloads: wafer-scale
// yield analysis, campaigns and the policy compiler, each parallel across
// dies or jobs.  A Monte-Carlo SSTA run stays serial inside its worker
// (DESIGN.md §10).
//
// Design constraints, in order:
//
//  1. *Determinism under parallelism.*  Results must be bit-identical
//     regardless of thread count — the repo's reproducibility contract
//     (see util/rng.hpp) extends to parallel runs.  The runtime therefore
//     never imposes an ordering on results: callers write into
//     per-index slots and seed per-index RNG sub-streams with
//     substream_seed(), so the schedule (which thread ran which index,
//     and when) cannot leak into the output.
//
//  2. *Worker-local mutable state.*  The hot engines (StaEngine) use
//     mutable scratch and per-corner base delays, so workers cannot share
//     one instance.  parallel_for takes a state factory invoked once per
//     participating worker; the body receives that worker's state by
//     reference.
//
//  3. *No allocation in the steady state.*  The pool is fixed-size;
//     chunks are handed out by a single atomic counter.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace vipvt {

/// Fixed-size thread pool.  Threads are launched at construction and
/// joined at destruction; jobs are type-erased closures.
class ThreadPool {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one fire-and-forget job.  Exceptions escaping the job
  /// terminate (jobs are expected to capture their own failures); use
  /// run_on_workers() for the rethrowing structured form.
  void submit(std::function<void()> job);

  /// Run fn(slot) for slot in [0, count) concurrently on the pool and
  /// block until all invocations return.  The first exception thrown by
  /// any invocation is rethrown here (the remaining slots still run to
  /// completion, so the pool stays in a clean state).
  void run_on_workers(unsigned count, const std::function<void(unsigned)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// parallel_for with worker-local state: `make_state()` is called once
/// per participating worker (at most min(pool.size(), n) times) and
/// `body(state, i)` exactly once for every i in [0, n), in unspecified
/// order.  Deterministic output is the CALLER's job: write results into
/// slot i and derive any randomness from i (substream_seed), never from
/// the schedule.  Runs inline (single state, ascending order) when the
/// pool has one thread or n <= 1.
/// parallel_for with an explicit self-scheduling grain: workers claim
/// `grain` consecutive indices per atomic fetch.  parallel_for picks a
/// throughput-oriented grain automatically; parallel_jobs pins it to 1
/// for heterogeneous job queues.  Same contract otherwise: make_state()
/// once per participating worker, body(state, i) exactly once per index,
/// unspecified order, inline when the pool has one thread or n <= 1.
template <typename StateFactory, typename Body>
void parallel_for_grained(ThreadPool& pool, std::size_t n, std::size_t grain,
                          StateFactory&& make_state, Body&& body) {
  if (n == 0) return;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(pool.size(), n));
  if (workers <= 1) {
    auto state = make_state();
    for (std::size_t i = 0; i < n; ++i) body(state, i);
    return;
  }
  const std::size_t chunk = std::max<std::size_t>(1, grain);
  std::atomic<std::size_t> next{0};
  pool.run_on_workers(workers, [&](unsigned) {
    auto state = make_state();
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) body(state, i);
    }
  });
}

template <typename StateFactory, typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, StateFactory&& make_state,
                  Body&& body) {
  // Dynamic chunking: small enough to balance skewed per-item cost (a
  // discarded die escalates through every corner config), large enough
  // that the atomic is not contended.
  const auto workers =
      std::max<std::size_t>(1, std::min<std::size_t>(pool.size(), n));
  parallel_for_grained(pool, n, n / (8 * workers),
                       std::forward<StateFactory>(make_state),
                       std::forward<Body>(body));
}

/// Self-scheduling job queue for HETEROGENEOUS batch jobs: grain 1, so a
/// worker pulls the next job the moment it finishes the last one.  This
/// is the campaign scheduler's shape — wafer-shard jobs differ in cost
/// by orders of magnitude across sweep cells (per-die MC budget, wafer
/// geometry, escalation mix), so the contiguous chunks parallel_for
/// hands out would strand the tail of a sweep on one worker.  Same
/// determinism stance as parallel_for: the schedule must not leak into
/// the output; callers write into per-job slots and derive randomness
/// from the job index alone.
template <typename StateFactory, typename Body>
void parallel_jobs(ThreadPool& pool, std::size_t n, StateFactory&& make_state,
                   Body&& body) {
  parallel_for_grained(pool, n, 1, std::forward<StateFactory>(make_state),
                       std::forward<Body>(body));
}

/// Stateless parallel_for: body(i) exactly once per index, unspecified
/// order.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body) {
  parallel_for(
      pool, n, [] { return 0; },
      [&body](int&, std::size_t i) { body(i); });
}

}  // namespace vipvt
