#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <span>
#include <thread>

#include "hdc/kernels/packed_item_memory.hpp"

namespace factorhd::core {

std::size_t BatchFactorizer::effective_threads(std::size_t batch) const {
  std::size_t n = opts_.num_threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(n, std::max<std::size_t>(1, batch));
}

std::vector<FactorizeResult> BatchFactorizer::factorize_all(
    const std::vector<hdc::Hypervector>& targets,
    const FactorizeOptions& opts) const {
  std::vector<FactorizeResult> results(targets.size());
  if (targets.empty()) return results;

  const std::size_t workers = effective_threads(targets.size());

  if (!opts.multi_object) {
    // Single-object batches route through Factorizer::factorize_block so
    // each worker's slice shares one codebook stream per class (the blocked
    // QueryBlockKernels scan). Slices are fixed contiguous ranges writing
    // disjoint result slots, and factorize_block is bit-identical per
    // target to factorize, so the determinism contract holds unchanged for
    // every worker count.
    const std::span<const hdc::Hypervector> all(targets);
    if (workers == 1) {
      return factorizer_->factorize_block(all, opts);
    }
    std::atomic<bool> slice_failed{false};
    std::exception_ptr slice_error;
    auto slice_work = [&](std::size_t begin, std::size_t end) {
      const hdc::kernels::ScanNestingGuard nesting_guard;
      try {
        std::vector<FactorizeResult> part =
            factorizer_->factorize_block(all.subspan(begin, end - begin), opts);
        std::move(part.begin(), part.end(),
                  results.begin() + static_cast<std::ptrdiff_t>(begin));
      } catch (...) {
        if (!slice_failed.exchange(true)) {
          slice_error = std::current_exception();
        }
      }
    };
    const std::size_t base = targets.size() / workers;
    const std::size_t extra = targets.size() % workers;
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    std::size_t begin = 0;
    try {
      for (std::size_t w = 0; w + 1 < workers; ++w) {
        const std::size_t end = begin + base + (w < extra ? 1 : 0);
        pool.emplace_back(slice_work, begin, end);
        begin = end;
      }
    } catch (...) {
      // A failed spawn (thread-limit pressure) must not let the vector
      // destructor run on joinable threads (std::terminate); join what
      // started, then propagate.
      for (auto& t : pool) t.join();
      throw;
    }
    slice_work(begin, targets.size());
    for (auto& t : pool) t.join();
    if (slice_error) std::rethrow_exception(slice_error);
    return results;
  }

  if (workers == 1) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      results[i] = factorizer_->factorize(targets[i], opts);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  auto work = [&]() {
    // Batch workers are the parallel layer; mark the thread so the packed
    // scans underneath stay sequential instead of nesting a second pool
    // (batch threads x scan threads) per call.
    const hdc::kernels::ScanNestingGuard nesting_guard;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= targets.size() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        results[i] = factorizer_->factorize(targets[i], opts);
      } catch (...) {
        // Keep only the first failure; stop handing out new work.
        if (!failed.exchange(true)) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  } catch (...) {
    // As above; the started workers stop at their next target.
    failed.store(true);
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace factorhd::core
