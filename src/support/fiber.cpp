#include "support/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>

#include "support/logging.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace sisa::support {

namespace {

thread_local Fiber *running = nullptr;

std::size_t
guardBytes()
{
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body))
{
    const std::size_t guard = guardBytes();
    map_ = mmap(nullptr, guard + stack_bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1, 0);
    // mmap fails with MAP_FAILED, (void *)-1; compared without the
    // macro's integer-to-pointer cast.
    if (reinterpret_cast<std::uintptr_t>(map_) == ~std::uintptr_t{0})
        throw std::bad_alloc();
    // The stack grows down: the guard page sits below its lowest byte.
    if (mprotect(map_, guard, PROT_NONE) != 0) {
        munmap(map_, guard + stack_bytes);
        throw std::bad_alloc();
    }
    const int got = getcontext(&context_);
    sisa_assert(got == 0, "getcontext failed");
    context_.uc_stack.ss_sp = static_cast<char *>(map_) + guard;
    context_.uc_stack.ss_size = stack_bytes;
    context_.uc_link = nullptr;
    makecontext(&context_, &Fiber::entry, 0);
#if defined(__SANITIZE_THREAD__)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanFiber_);
#endif
    munmap(map_, guardBytes() + stack_bytes);
}

Fiber *
Fiber::current()
{
    return running;
}

void
Fiber::resume()
{
    sisa_assert(!done_, "resume() of a finished fiber");
    Fiber *const outer = std::exchange(running, this);
#if defined(__SANITIZE_ADDRESS__)
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, context_.uc_stack.ss_sp,
                                   stack_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
    tsanResumer_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    swapcontext(&resumer_, &context_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    running = outer;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
Fiber::suspend()
{
    sisa_assert(running, "suspend() outside a fiber");
    running->switchOut(/*finishing=*/false);
}

void
Fiber::switchOut(bool finishing)
{
#if defined(__SANITIZE_ADDRESS__)
    // A finishing fiber's stack dies: no fake stack to keep.
    __sanitizer_start_switch_fiber(finishing ? nullptr : &asanFakeStack_,
                                   resumerStack_, resumerStackSize_);
#else
    (void)finishing;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(tsanResumer_, 0);
#endif
    swapcontext(&context_, &resumer_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(asanFakeStack_, &resumerStack_,
                                    &resumerStackSize_);
#endif
}

void
Fiber::entry()
{
    Fiber *self = running;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &self->resumerStack_,
                                    &self->resumerStackSize_);
#endif
    try {
        self->body_();
    } catch (...) {
        self->error_ = std::current_exception();
    }
    self->done_ = true;
    self->switchOut(/*finishing=*/true);
    sisa_panic("a finished fiber was resumed");
}

} // namespace sisa::support
