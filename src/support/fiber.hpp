/**
 * @file
 * Stackful fibers: a body that runs on its own stack and can suspend
 * itself mid-call, to be resumed later on the same host thread. The
 * serving layer's grant loop (sisa/serving.hpp) runs each tenant
 * query as one fiber, so a handoff between queries is a user-space
 * context switch instead of an OS-thread wakeup.
 *
 * Each fiber owns a fixed-size mmap'd stack (MAP_NORESERVE: only the
 * pages the body touches become resident) with a PROT_NONE guard
 * page below it, so an overflow faults instead of corrupting a
 * neighbour. Switches are announced to AddressSanitizer and
 * ThreadSanitizer when the build uses them.
 *
 * Exceptions never cross a switch: a body that throws ends its fiber,
 * and resume() rethrows the exception on the resumer's stack. The C++
 * runtime keeps its caught-exception stack per OS thread, so a body
 * must not suspend from inside a catch block or during unwinding.
 */

#ifndef SISA_SUPPORT_FIBER_HPP
#define SISA_SUPPORT_FIBER_HPP

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace sisa::support {

/** One stackful coroutine, resumed by the thread that created it. */
class Fiber
{
  public:
    /** Usable stack per fiber (the guard page comes on top). */
    static constexpr std::size_t stack_bytes = std::size_t{1} << 20;

    /** Map the stack; @p body first runs at the first resume(). */
    explicit Fiber(std::function<void()> body);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the body until it suspends or returns. Rethrows what the
     * body threw, once, when it ended by an exception. Call from a
     * plain thread stack or another fiber, never on a finished fiber.
     */
    void resume();

    /** Suspend the running fiber; its resume() call returns. */
    static void suspend();

    /** The fiber running on this thread, or null on a plain stack. */
    static Fiber *current();

    /** Has the body returned (or thrown)? */
    bool done() const { return done_; }

  private:
    static void entry();

    /** Leave this fiber for its resumer (ASan/TSan bracketed). */
    void switchOut(bool finishing);

    std::function<void()> body_;
    void *map_ = nullptr; ///< Guard page + stack.
    ucontext_t context_{};
    ucontext_t resumer_{};
    bool done_ = false;
    std::exception_ptr error_;
#if defined(__SANITIZE_ADDRESS__)
    void *asanFakeStack_ = nullptr;
    const void *resumerStack_ = nullptr;
    std::size_t resumerStackSize_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsanFiber_ = nullptr;
    void *tsanResumer_ = nullptr;
#endif
};

} // namespace sisa::support

#endif // SISA_SUPPORT_FIBER_HPP
