/**
 * @file
 * Type-erased callables.
 *
 *  - EventFn: the engine's move-only event callable, a 16-byte inline
 *    buffer and one trampoline pointer. Coroutine resumes and every
 *    payload the models schedule (`[this]`, `[p]`, `[this, f]`,
 *    one-pointer functors) fit, which keeps an engine slot at 32 bytes
 *    and the event kernel allocation-free in steady state. Anything
 *    larger or non-trivially-copyable transparently falls back to a
 *    heap allocation.
 *  - FunctionRef: a non-owning reference to a callable that outlives
 *    the call, such as the deliver and abort lambdas a Mac::send
 *    borrows from its caller's co_await.
 */

#ifndef WISYNC_SIM_FUNCTION_HH
#define WISYNC_SIM_FUNCTION_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace wisync::sim {

/**
 * The engine's event callable: run once, then gone.
 *
 * One trampoline pointer serves both running and destroying the
 * payload. A coroutine resume is just a std::coroutine_handle<>
 * payload (its call operator resumes), so resumes and lambdas take the
 * same dispatch path. run() consumes the callable (a heap payload is
 * freed right after its call); the destructor only has work to do for
 * an event that never ran — one discarded by Engine::reset() or
 * ~Engine().
 */
class EventFn
{
  public:
    /** Payloads up to this size (and trivially copyable) stay inline. */
    static constexpr std::size_t kInlineSize = 16;
    static constexpr std::size_t kInlineAlign = alignof(void *);
    static_assert(kInlineSize == 2 * sizeof(std::uint64_t));

    EventFn() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_v<D &>>>
    EventFn(F &&f)
    {
        if constexpr (storesInline<D>) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(f));
            call_ = &inlineCall<D>;
        } else {
            D *p = new D(std::forward<F>(f));
            std::memcpy(storage_, &p, sizeof(p));
            call_ = &heapCall<D>;
        }
    }

    EventFn(EventFn &&other) noexcept : call_(other.call_)
    {
        copyPayload(storage_, other.storage_);
        other.call_ = nullptr;
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            if (call_ != nullptr)
                call_(storage_, false);
            copyPayload(storage_, other.storage_);
            call_ = std::exchange(other.call_, nullptr);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn()
    {
        if (call_ != nullptr)
            call_(storage_, false);
    }

    explicit operator bool() const { return call_ != nullptr; }

    /** Invoke the payload and release it (the callable is then empty). */
    void
    run()
    {
        std::exchange(call_, nullptr)(storage_, true);
    }

    /** True when a payload of type @p D is stored inline. */
    template <typename D>
    static constexpr bool storesInline =
        sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
        std::is_trivially_copyable_v<D>;

  private:
    /** Trampoline: run (and release) the payload, or only release it. */
    using Call = void (*)(void *storage, bool run);

    /**
     * Copy the buffer as two 8-byte words. A payload is usually written
     * by 8-byte stores (a frame address, a `this`) just before the slot
     * moves — into the ready ring, then out of it one event later. A
     * single 16-byte load of those bytes cannot be forwarded from the
     * pending stores and stalls until they retire; the empty asm keeps
     * the compiler from fusing the two word copies into one. Measured
     * on a 4-vCPU x86 host, this alone took BM_CoroutineResumeZeroDelay
     * from about 190 to about 125 us.
     */
    static void
    copyPayload(unsigned char *dst, const unsigned char *src)
    {
        std::uint64_t lo;
        std::uint64_t hi;
        std::memcpy(&lo, src, sizeof(lo));
        std::memcpy(&hi, src + sizeof(lo), sizeof(hi));
#if defined(__GNUC__)
        asm("" : "+r"(lo), "+r"(hi));
#endif
        std::memcpy(dst, &lo, sizeof(lo));
        std::memcpy(dst + sizeof(lo), &hi, sizeof(hi));
    }

    template <typename D>
    static void
    inlineCall(void *p, bool run)
    {
        if (run)
            (*std::launder(reinterpret_cast<D *>(p)))();
    }

    template <typename D>
    static void
    heapCall(void *p, bool run)
    {
        D *d;
        std::memcpy(&d, p, sizeof(d));
        if (run)
            (*d)();
        delete d;
    }

    // Zeroed, so a payload shorter than the buffer leaves no
    // indeterminate bytes for copyPayload to read.
    alignas(kInlineAlign) unsigned char storage_[kInlineSize] = {};
    Call call_ = nullptr;
};

/**
 * Non-owning reference to a callable (the cousin of C++26
 * std::function_ref). Used for callbacks whose referent provably
 * outlives the call — e.g. a commit lambda living in an awaiting
 * coroutine frame — where std::function's copy + possible heap
 * allocation is pure waste. A default-constructed reference is empty
 * (false) and must not be called.
 */
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    FunctionRef() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f) noexcept
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(obj))(
                  std::forward<Args>(args)...);
          })
    {}

    explicit operator bool() const { return call_ != nullptr; }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_ = nullptr;
    R (*call_)(void *, Args...) = nullptr;
};

} // namespace wisync::sim

#endif // WISYNC_SIM_FUNCTION_HH
