// Parallel sweep runner: fans independent simulation runs (seeds x modes)
// across a worker pool.
//
// Each Testbed is fully self-contained (own Simulator, own Rng, no global
// mutable state), so independent runs parallelize trivially; only the
// *collection* of results needs care. run_indexed_sweep() guarantees
// deterministic output: results land in index order regardless of worker
// count or completion order, and a failing task rethrows the
// lowest-indexed exception. Running with threads=1 therefore yields
// results identical to any worker count — tests/invariant_test.cc asserts
// exactly that.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ignem::bench {

/// Worker-pool width: IGNEM_SWEEP_THREADS if set (>= 1), else the hardware
/// concurrency (at least 1).
std::size_t sweep_thread_count();

namespace detail {
inline thread_local std::size_t sweep_index = 0;
}  // namespace detail

/// The index of the sweep task running on this thread; 0 outside a sweep.
/// Lets state that tasks record as they finish (BenchReport's fingerprint)
/// follow task order rather than completion order.
inline std::size_t current_sweep_index() { return detail::sweep_index; }

/// Runs fn(0) .. fn(n-1) across `threads` workers (0 = sweep_thread_count())
/// and returns the results in index order. Tasks are claimed from a shared
/// atomic counter, so the schedule is dynamic but the output is not: slot i
/// always holds fn(i). If any task throws, the exception from the lowest
/// index is rethrown after all workers finish.
template <typename Fn>
auto run_indexed_sweep(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "sweep tasks must return a value (results are collected)");
  if (threads == 0) threads = sweep_thread_count();
  threads = std::max<std::size_t>(1, std::min(threads, std::max<std::size_t>(n, 1)));

  std::vector<std::optional<Result>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    const std::size_t outer = detail::sweep_index;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      detail::sweep_index = i;
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    detail::sweep_index = outer;
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i] != nullptr) std::rethrow_exception(errors[i]);
  }
  std::vector<Result> out;
  out.reserve(n);
  for (std::optional<Result>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace ignem::bench
