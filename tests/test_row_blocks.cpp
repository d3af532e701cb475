// run_row_blocks: the fork-join helper behind every row-parallel scan, pack
// and tier-build pass of the kernel layer.
//
// Pins the two properties its callers rely on: the partition is a fixed
// function of (n, workers) that covers [0, n) once in contiguous blocks, and
// an exception thrown by any block — the calling thread's own block 0
// included — reaches the caller only after every spawned thread has joined,
// instead of calling std::terminate on a joinable thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hdc/kernels/row_blocks.hpp"

namespace {

using factorhd::hdc::kernels::row_block_count;
using factorhd::hdc::kernels::run_row_blocks;

std::vector<std::pair<std::size_t, std::size_t>> blocks_of(
    std::size_t n, std::size_t workers) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  run_row_blocks(n, workers, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(begin, end);
  });
  std::sort(seen.begin(), seen.end());
  return seen;
}

TEST(RowBlocks, PartitionCoversRangeInFixedContiguousBlocks) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{64}, std::size_t{1000}}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{9}}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " workers=" + std::to_string(workers));
      const auto blocks = blocks_of(n, workers);
      if (n == 0) {
        EXPECT_TRUE(blocks.empty());
        EXPECT_EQ(row_block_count(n, workers), 0u);
        continue;
      }
      ASSERT_FALSE(blocks.empty());
      EXPECT_LE(blocks.size(), workers);
      EXPECT_EQ(blocks.front().first, 0u);
      EXPECT_EQ(blocks.back().second, n);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_LT(blocks[i].first, blocks[i].second);
        if (i > 0) {
          EXPECT_EQ(blocks[i - 1].second, blocks[i].first);
        }
      }
      // The same inputs give the same partition.
      EXPECT_EQ(blocks, blocks_of(n, workers));
      // The three-index form numbers the same blocks 0, 1, ... in row order.
      EXPECT_EQ(row_block_count(n, workers), blocks.size());
      std::mutex mu;
      std::vector<std::pair<std::size_t, std::size_t>> indexed(blocks.size());
      run_row_blocks(n, workers, [&](std::size_t block, std::size_t begin,
                                     std::size_t end) {
        const std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(block, indexed.size());
        indexed[block] = {begin, end};
      });
      EXPECT_EQ(indexed, blocks);
    }
  }
}

// Runs a four-block pass in which the blocks listed in `throwing` throw
// after the other blocks have started; checks that the exception arrives
// only after every block finished, and that it is the first thrower's.
void expect_rethrow_after_join(const std::vector<std::size_t>& throwing) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kWorkers = 4;  // blocks of 16 rows
  std::atomic<std::size_t> finished{0};
  try {
    run_row_blocks(kN, kWorkers, [&](std::size_t begin, std::size_t) {
      const std::size_t block = begin / 16;
      for (std::size_t t : throwing) {
        if (t == block) {
          throw std::runtime_error("block " + std::to_string(block));
        }
      }
      // Outlive the throwing block, so a rethrow before the join would
      // leave this thread running.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(finished.load(), kWorkers - throwing.size());
    std::size_t first = kWorkers;
    for (std::size_t t : throwing) first = std::min(first, t);
    EXPECT_EQ(std::string(e.what()), "block " + std::to_string(first));
  }
}

TEST(RowBlocks, CallerBlockThrowRethrowsAfterEveryJoin) {
  expect_rethrow_after_join({0});
}

TEST(RowBlocks, WorkerBlockThrowRethrowsAfterEveryJoin) {
  expect_rethrow_after_join({2});
}

TEST(RowBlocks, SeveralThrowsRethrowTheFirstBlocksException) {
  expect_rethrow_after_join({3, 1});
}

}  // namespace
