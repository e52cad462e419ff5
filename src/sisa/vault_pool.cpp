#include "sisa/vault_pool.hpp"

#include <algorithm>

namespace sisa::isa {

VaultWorkerPool::VaultWorkerPool(std::uint32_t workers)
{
    const std::uint32_t count = std::max<std::uint32_t>(workers, 1);
    threads_.reserve(count);
    errors_.resize(count);
    for (std::uint32_t i = 0; i < count; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

VaultWorkerPool::~VaultWorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
VaultWorkerPool::run(const std::function<void(std::uint32_t)> &job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    remaining_ = size();
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
    for (std::exception_ptr &err : errors_) {
        if (err)
            std::rethrow_exception(err);
    }
}

void
VaultWorkerPool::runQueues(
    const std::vector<std::uint32_t> &lane_sizes, std::uint32_t owners,
    const std::function<void(std::uint32_t, std::uint32_t)> &execute,
    const std::function<void(std::uint32_t, std::uint32_t,
                             std::uint32_t)> &charge,
    bool steal,
    const std::function<bool(std::uint32_t)> *lane_dead)
{
    const auto lanes = static_cast<std::uint32_t>(lane_sizes.size());
    owners = std::min(std::max(owners, 1u), std::max(lanes, 1u));

    // A dead lane's vault fail-stopped: nobody executes or charges
    // its operations; the SCU re-routes them in its recovery pass.
    const auto dead = [&](std::uint32_t l) {
        return lane_dead && (*lane_dead)(l);
    };

    if (!steal) {
        // No thieves means owners are the only claimants: the plain
        // ordered walk needs no claim states at all (pre-executed
        // balanced batches take this path on every dispatch).
        run([&](std::uint32_t w) {
            if (w >= owners)
                return;
            for (std::uint32_t l = w; l < lanes; l += owners) {
                if (dead(l))
                    continue;
                for (std::uint32_t pos = 0; pos < lane_sizes[l];
                     ++pos) {
                    execute(l, pos);
                    charge(w, l, pos);
                }
            }
        });
        return;
    }

    queueOffsets_.resize(lanes);
    std::size_t total = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        queueOffsets_[l] = total;
        total += lane_sizes[l];
    }
    if (opStateCapacity_ < total) {
        opState_ = std::make_unique<std::atomic<std::uint8_t>[]>(total);
        opStateCapacity_ = total;
    }
    for (std::size_t i = 0; i < total; ++i)
        opState_[i].store(op_free, std::memory_order_relaxed);
    if (laneClaimedCapacity_ < lanes) {
        laneClaimed_ =
            std::make_unique<std::atomic<std::uint32_t>[]>(lanes);
        laneClaimedCapacity_ = lanes;
    }
    for (std::uint32_t l = 0; l < lanes; ++l)
        laneClaimed_[l].store(0, std::memory_order_relaxed);

    // Execute an op this thread just claimed and publish completion.
    // The done flag is set even when execute throws: an owner may be
    // spin-waiting on it, and the pool barrier rethrows afterwards --
    // a missing flag would turn the exception into a deadlock.
    const auto execute_claimed = [&](std::uint32_t lane,
                                     std::uint32_t pos) {
        std::atomic<std::uint8_t> &state =
            opState_[queueOffsets_[lane] + pos];
        laneClaimed_[lane].fetch_add(1, std::memory_order_relaxed);
        try {
            execute(lane, pos);
        } catch (...) {
            state.store(op_done, std::memory_order_release);
            throw;
        }
        state.store(op_done, std::memory_order_release);
    };

    run([&](std::uint32_t w) {
        if (w < owners) {
            for (std::uint32_t l = w; l < lanes; l += owners) {
                if (dead(l))
                    continue;
                for (std::uint32_t pos = 0; pos < lane_sizes[l];
                     ++pos) {
                    std::atomic<std::uint8_t> &state =
                        opState_[queueOffsets_[l] + pos];
                    std::uint8_t expected = op_free;
                    if (state.compare_exchange_strong(
                            expected, op_claimed,
                            std::memory_order_acq_rel)) {
                        execute_claimed(l, pos);
                    } else {
                        // A thief has it: wait for the result (its
                        // write to the outcome slot is published by
                        // the release store of op_done).
                        while (state.load(std::memory_order_acquire) !=
                               op_done)
                            std::this_thread::yield();
                    }
                    charge(w, l, pos);
                }
            }
        }
        // Out of owned work: steal single ops from the back of the
        // deepest remaining queue until nothing is left to claim.
        for (;;) {
            std::uint32_t best = UINT32_MAX;
            std::uint32_t best_left = 0;
            for (std::uint32_t l = 0; l < lanes; ++l) {
                if (dead(l))
                    continue;
                const std::uint32_t claimed = std::min(
                    laneClaimed_[l].load(std::memory_order_relaxed),
                    lane_sizes[l]);
                const std::uint32_t left = lane_sizes[l] - claimed;
                if (left > best_left) {
                    best = l;
                    best_left = left;
                }
            }
            if (best == UINT32_MAX)
                break;
            bool stole = false;
            for (std::uint32_t pos = lane_sizes[best]; pos-- > 0;) {
                std::atomic<std::uint8_t> &state =
                    opState_[queueOffsets_[best] + pos];
                if (state.load(std::memory_order_relaxed) != op_free)
                    continue;
                std::uint8_t expected = op_free;
                if (state.compare_exchange_strong(
                        expected, op_claimed,
                        std::memory_order_acq_rel)) {
                    execute_claimed(best, pos);
                    stole = true;
                    break;
                }
            }
            if (!stole) {
                // The depth estimate lagged the claim counters; let
                // them catch up instead of busy-rescanning.
                std::this_thread::yield();
            }
        }
    });
}

void
VaultWorkerPool::workerLoop(std::uint32_t index)
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::uint32_t)> *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            job = job_;
        }
        try {
            (*job)(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            errors_[index] = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--remaining_ == 0)
                done_.notify_all();
        }
    }
}

} // namespace sisa::isa
