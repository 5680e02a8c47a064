// Intra-instance parallelism: parallel_for and deterministic
// block-ordered reduction over the process-wide executor.
//
// The batch layer (api/engine.cpp) fans whole instances across
// threads; this utility parallelizes *inside* one instance — the
// per-node cone-growth loop of the oracle, the per-edge optimization
// passes, the per-node metric loops — without giving up
// reproducibility. The determinism recipe is the same seed-block
// pattern the batch reducer uses:
//
//   * parallel_for writes each index's result into its own slot, so
//     the outcome is independent of scheduling by construction;
//   * reduce() folds a FIXED block size (`reduce_block`, independent of
//     the thread count) into per-block partials and merges the
//     partials in block order, so floating-point sums are bitwise
//     identical whether 1 or 64 threads ran the loop.
//
// A thread_pool owns no threads: it is a thin view over the
// process-wide util::executor (executor.h) carrying only a width — the
// maximum number of threads that may work one of its loops at once.
// Construction is free, pools nest (a loop body may drive its own
// pool; the executor composes the two by task submission instead of
// spawning width x width threads), and a pool with num_threads == 1
// runs everything inline on the calling thread. Every pooled pass
// therefore has exactly one implementation: its trailing
// `const thread_pool& pool = thread_pool(1)` parameter makes the
// width-1 call the serial path.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace cbtc::util {

/// Resolves a thread-count knob: 0 means "hardware concurrency",
/// anything else is clamped to at least 1.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Fixed work-block size for deterministic reductions. Independent of
/// the thread count on purpose — see the header comment.
inline constexpr std::size_t reduce_block = 1024;

/// A per-run handle on the process-wide executor: parallel_for /
/// reduce calls fan across at most `size()` threads (the caller plus
/// executor workers). Loops block until complete; nested use from
/// inside a loop body is supported (and is how batch-level and
/// intra-instance parallelism compose).
class thread_pool {
 public:
  /// A view of width resolve_threads(num_threads); spawns nothing.
  explicit thread_pool(unsigned num_threads) : width_(resolve_threads(num_threads)) {}

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Maximum threads that execute one of this pool's loops (the
  /// calling thread participates in every loop).
  [[nodiscard]] unsigned size() const { return width_; }

  /// Runs body(i) for every i in [0, n), in parallel, and blocks until
  /// all are done. The first exception thrown by any body is rethrown
  /// on the caller (remaining work is abandoned).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) const;

  /// Runs body(lo, hi) over [0, n) split into chunks of `chunk`
  /// indices. parallel_for is this with per-index chunks coalesced.
  void parallel_for_chunks(std::size_t n, std::size_t chunk,
                           const std::function<void(std::size_t, std::size_t)>& body) const;

  /// Deterministic block-ordered reduction: partials[b] =
  /// per_block(lo_b, hi_b) over fixed `reduce_block`-sized blocks, then
  /// merge(total, partials[b]) in ascending block order. The result
  /// does not depend on the pool width.
  template <class T, class PerBlock, class Merge>
  [[nodiscard]] T reduce(std::size_t n, T init, const PerBlock& per_block,
                         const Merge& merge) const {
    if (n == 0) return init;
    const std::size_t blocks = (n + reduce_block - 1) / reduce_block;
    // One slot per block. The wrapper keeps T = bool off the packed
    // std::vector<bool>, where two blocks' slots can share a word and
    // concurrent writes to them would race.
    struct slot {
      T value;
    };
    std::vector<slot> partials(blocks, slot{init});
    parallel_for_chunks(n, reduce_block, [&](std::size_t lo, std::size_t hi) {
      partials[lo / reduce_block].value = per_block(lo, hi);
    });
    T total = std::move(init);
    for (const slot& p : partials) merge(total, p.value);
    return total;
  }

 private:
  unsigned width_;
};

}  // namespace cbtc::util
