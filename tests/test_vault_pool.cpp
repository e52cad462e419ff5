/**
 * @file
 * Unit tests for the host worker pool behind batched dispatch:
 * VaultWorkerPool::parallelFor runs every index exactly once, on one
 * worker or several, rethrows an operation's exception only after
 * every worker has returned, and stays usable afterwards.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sisa/vault_pool.hpp"

namespace {

using sisa::isa::VaultWorkerPool;

/** Per-index run counts of one parallelFor(n) call. */
std::vector<int>
countRuns(VaultWorkerPool &pool, std::size_t n)
{
    const auto hits = std::make_unique<std::atomic<int>[]>(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<int> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = hits[i].load();
    return out;
}

TEST(VaultPool, ParallelForRunsEachIndexExactlyOnce)
{
    for (const std::uint32_t workers : {1u, 4u}) {
        VaultWorkerPool pool(workers);
        EXPECT_EQ(pool.size(), workers);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{workers - 1},
              std::size_t{10000}}) {
            SCOPED_TRACE(::testing::Message()
                         << "workers=" << workers << " n=" << n);
            EXPECT_EQ(countRuns(pool, n), std::vector<int>(n, 1));
        }
    }
}

TEST(VaultPool, ExceptionIsRethrownAfterEveryWorkerReturned)
{
    constexpr std::size_t n = 400;
    constexpr std::size_t bad = 17;
    for (const std::uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        VaultWorkerPool pool(workers);
        std::atomic<int> active{0};
        const auto hits = std::make_unique<std::atomic<int>[]>(n);
        bool caught = false;
        try {
            pool.parallelFor(n, [&](std::size_t i) {
                active.fetch_add(1);
                hits[i].fetch_add(1);
                if (i == bad) {
                    active.fetch_sub(1);
                    throw std::runtime_error("op failed");
                }
                std::this_thread::sleep_for(std::chrono::microseconds(20));
                active.fetch_sub(1);
            });
        } catch (const std::runtime_error &err) {
            caught = true;
            // No operation may still be running once the caller sees
            // the exception.
            EXPECT_EQ(active.load(), 0);
            EXPECT_STREQ(err.what(), "op failed");
        }
        EXPECT_TRUE(caught);
        // No index ran twice; the failing one ran exactly once.
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_LE(hits[i].load(), 1) << "index " << i;
        EXPECT_EQ(hits[bad].load(), 1);
        if (workers > 1) {
            // The workers that did not throw drained the cursor.
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }

        // The pool stays usable after the failed call.
        EXPECT_EQ(countRuns(pool, 1000), std::vector<int>(1000, 1));
    }
}

} // namespace
