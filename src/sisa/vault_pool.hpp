/**
 * @file
 * Host-side worker pool backing the SCU's batched dispatch. The pool
 * owns a fixed set of std::thread workers. run() hands every worker
 * the same job and blocks at a barrier until all of them finish,
 * mirroring the SCU waiting for the slowest vault.
 *
 * runQueues() layers the SCU's per-vault ("lane") operation queues on
 * top with work stealing: lane l is OWNED by worker l % owners, and
 * the owner is the only thread that charges the lane's modeled cycles
 * -- in exact lane-op order, so per-lane accounting stays
 * deterministic no matter which thread executed an operation. Workers
 * that run out of owned work steal whole operations from the back of
 * the deepest remaining queue and execute them functionally; the
 * owner then only waits for the result instead of recomputing it.
 * Stealing therefore moves HOST work only: modeled cycles, counters,
 * and results are bit-identical with stealing on or off, and
 * invariant under the worker count.
 *
 * The pool is purely an execution vehicle for the host simulator; all
 * *modeled* parallelism (per-vault cycle accounting, cross-vault
 * transfer charges and byte counters, makespan merge) lives in the
 * SCU's dispatch pipeline. On the barriered path each worker's
 * private SimContext carries its vaults' scu.xvault_transfers /
 * setops.xvault_bytes tallies until the barrier merges them into the
 * issuing thread's context.
 *
 * SHARING. One pool may back several SCUs (Scu::adoptPool): the
 * serving layer's K query sessions dispatch into one set of host
 * workers instead of spawning K pools. The pool itself stays
 * single-dispatch -- runQueues' claim scratch is not reentrant
 * -- so sharers must serialize their dispatches. The serving layer's
 * lockstep QueryScheduler (sisa/serving.hpp) guarantees exactly that:
 * every session is a fiber of one grant loop, and at most one holds
 * the dispatch grant at a time.
 */

#ifndef SISA_SISA_VAULT_POOL_HPP
#define SISA_SISA_VAULT_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
     * Execute @p job(w) on every worker w in [0, size()) and wait for
     * all of them (the batch barrier). Exceptions thrown by a job are
     * captured and rethrown here after the barrier.
     */
    void run(const std::function<void(std::uint32_t)> &job);

    /**
     * Execute one dispatch's per-lane operation queues across the
     * pool with work stealing. Lane l (of lane_sizes.size() lanes,
     * lane_sizes[l] operations each) is owned by worker l % owners
     * for owners = min(@p owners, lanes): the owner walks its lanes
     * in index order and their operations front to back, calling
     * @p execute(lane, pos) for each operation it claims and
     * @p charge(worker, lane, pos) for EVERY operation of its lanes,
     * in order, after that operation's execute() completed. Workers
     * without owned work left (including pool workers beyond
     * @p owners) steal: they claim single operations from the back
     * of the queue with the most unclaimed operations and run only
     * execute() -- the owner still does the charging, so per-lane
     * accounting order is deterministic. Each operation's execute()
     * runs exactly once, on exactly one thread, and its effects are
     * visible to the charging owner (release/acquire on the per-op
     * claim state).
     *
     * @p steal false disables thieving -- used when execute() is a
     * no-op (pre-executed batches) and all remaining work is
     * owner-side charging, which cannot be stolen.
     *
     * @p lane_dead (optional) is the fault model's fail-stop hook: a
     * lane for which it returns true is on a dead vault -- nobody
     * executes, steals, or charges its operations (the SCU re-routes
     * them in its recovery pass). nullptr (the fault-free case)
     * changes nothing.
     */
    void runQueues(
        const std::vector<std::uint32_t> &lane_sizes,
        std::uint32_t owners,
        const std::function<void(std::uint32_t lane, std::uint32_t pos)>
            &execute,
        const std::function<void(std::uint32_t worker,
                                 std::uint32_t lane, std::uint32_t pos)>
            &charge,
        bool steal,
        const std::function<bool(std::uint32_t lane)> *lane_dead =
            nullptr);

  private:
    void workerLoop(std::uint32_t index);

    /** Claim lifecycle of one queued operation. */
    enum : std::uint8_t { op_free = 0, op_claimed = 1, op_done = 2 };

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::uint32_t)> *job_ = nullptr;
    std::uint64_t generation_ = 0;
    std::uint32_t remaining_ = 0;
    bool shutdown_ = false;
    std::vector<std::exception_ptr> errors_;

    // runQueues scratch, reused across dispatches (runQueues is not
    // reentrant -- one batch at a time, like the SCU that calls it).
    std::vector<std::size_t> queueOffsets_; ///< lane -> flat op base.
    std::unique_ptr<std::atomic<std::uint8_t>[]> opState_;
    std::size_t opStateCapacity_ = 0;
    /** Per-lane count of claimed ops (the thieves' depth estimate). */
    std::unique_ptr<std::atomic<std::uint32_t>[]> laneClaimed_;
    std::size_t laneClaimedCapacity_ = 0;
};

} // namespace sisa::isa

#endif // SISA_SISA_VAULT_POOL_HPP
