// Internal to the kernel layer: the one fork-join helper every scan, pack
// and build pass partitions its rows through.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace factorhd::hdc::kernels {

/// Number of blocks run_row_blocks(n, workers, fn) runs: at most
/// `workers`, none when n is 0.
inline std::size_t row_block_count(std::size_t n, std::size_t workers) {
  workers = std::min(workers, n);
  if (workers <= 1) return n > 0 ? 1 : 0;
  const std::size_t chunk = (n + workers - 1) / workers;
  return (n + chunk - 1) / chunk;
}

/// Runs fn(begin, end) over fixed contiguous blocks of [0, n), one block per
/// worker, the first on the calling thread. Block boundaries depend only on
/// n and the worker count, and every caller writes a disjoint output slice
/// per block, so results are byte-identical for any worker count. A
/// callable taking three indices is run as fn(block, begin, end), block in
/// [0, row_block_count(n, workers)), so it can index per-block scratch.
///
/// No exception escapes a thread: an exception from any block, or from a
/// failed thread spawn, is rethrown on the calling thread once every started
/// thread has joined (the first failing block's, in block order).
template <typename Fn>
void run_row_blocks(std::size_t n, std::size_t workers, const Fn& fn) {
  const auto call = [&fn](std::size_t block, std::size_t begin,
                          std::size_t end) {
    if constexpr (std::is_invocable_v<const Fn&, std::size_t, std::size_t,
                                      std::size_t>) {
      fn(block, begin, end);
    } else {
      fn(begin, end);
    }
  };
  workers = std::min(workers, n);
  if (workers <= 1) {
    if (n > 0) call(0, 0, n);
    return;
  }
  // Ceil division can leave fewer non-empty blocks than workers; stop at n
  // rather than spawn idle threads.
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t blocks = (n + chunk - 1) / chunk;
  std::vector<std::exception_ptr> errors(blocks);
  const auto run = [&call, &errors, chunk, n](std::size_t block) {
    try {
      call(block, block * chunk, std::min(n, (block + 1) * chunk));
    } catch (...) {
      errors[block] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(blocks - 1);
  try {
    for (std::size_t block = 1; block < blocks; ++block) {
      pool.emplace_back(run, block);
    }
  } catch (...) {
    // A failed spawn (thread-limit pressure) must not let the vector
    // destructor run on joinable threads (std::terminate); join what
    // started, then propagate.
    for (auto& t : pool) t.join();
    throw;
  }
  run(0);
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace factorhd::hdc::kernels
