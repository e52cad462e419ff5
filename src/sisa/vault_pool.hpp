/**
 * @file
 * Host-side worker pool backing the SCU's batched dispatch. The pool
 * owns a fixed set of std::thread workers and offers one operation:
 * parallelFor(n, fn) runs fn(i) for every i in [0, n) exactly once,
 * with workers claiming indices from a shared atomic cursor, and
 * returns when all of them are done.
 *
 * The pool only EXECUTES operations. All *modeled* parallelism
 * (per-vault lane cycles, cross-vault transfer charges and byte
 * counters, the makespan merge) is accounted by the SCU afterwards,
 * serially on the issuing thread and in lane order, so modeled
 * cycles, counters and results never depend on the pool's size or on
 * which worker ran which operation.
 *
 * SHARING. One pool may back several SCUs (Scu::adoptPool): the
 * serving layer's K query sessions dispatch into one set of host
 * workers instead of spawning K pools. parallelFor is not reentrant,
 * so sharers must serialize their dispatches. The serving layer's
 * lockstep QueryScheduler (sisa/serving.hpp) guarantees exactly that:
 * every session is a fiber of one grant loop, and at most one holds
 * the dispatch grant at a time.
 */

#ifndef SISA_SISA_VAULT_POOL_HPP
#define SISA_SISA_VAULT_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sisa::isa {

/** Persistent worker threads for batched vault execution. */
class VaultWorkerPool
{
  public:
    /**
     * @param workers Number of host threads; clamped to >= 1. The
     *                caller decides the policy (hardware concurrency,
     *                config override, ...).
     */
    explicit VaultWorkerPool(std::uint32_t workers);

    ~VaultWorkerPool();

    VaultWorkerPool(const VaultWorkerPool &) = delete;
    VaultWorkerPool &operator=(const VaultWorkerPool &) = delete;

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(threads_.size());
    }

    /**
     * Run @p fn(i) exactly once for every i in [0, @p n) and wait for
     * all of them. Workers claim indices from one shared cursor; with
     * one worker, or n <= 1, the calling thread runs them inline. An
     * exception thrown by @p fn stops only the worker that threw (the
     * others drain the cursor) and is rethrown here once every worker
     * has returned; the pool stays usable.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop(std::uint32_t index);

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t count_ = 0;              ///< The job's index range.
    std::atomic<std::size_t> next_{0};   ///< Next unclaimed index.
    std::uint64_t generation_ = 0;
    std::uint32_t remaining_ = 0;
    bool shutdown_ = false;
    std::vector<std::exception_ptr> errors_;
};

} // namespace sisa::isa

#endif // SISA_SISA_VAULT_POOL_HPP
