/**
 * @file
 * Unit tests for the small-buffer optimization of the engine's EventFn
 * and for the non-owning FunctionRef.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/function.hh"

namespace {

using wisync::sim::EventFn;
using wisync::sim::FunctionRef;

TEST(EventFn, CoroutineResumeAndModelPayloadsStayInline)
{
    // A resume stores the frame address; model events capture one or
    // two words (`[this]`, `[p]`, `[this, f]`). Resuming a real
    // coroutine is covered by the engine and primitives tests.
    struct TwoWords
    {
        void *self;
        void *f;
        void operator()() const {}
    };
    static_assert(EventFn::storesInline<void *>);
    static_assert(EventFn::storesInline<TwoWords>);
    EventFn resume{std::coroutine_handle<>{}};
    EXPECT_TRUE(static_cast<bool>(resume));

    int hits = 0;
    int *p = &hits;
    EventFn a([p] { ++*p; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    b.run();
    EXPECT_FALSE(static_cast<bool>(b)); // run() consumes
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, HeapPayloadIsReleasedExactlyOnce)
{
    // Run or discarded unrun (an engine reset), a heap payload is
    // destroyed once, and moving the callable does not copy it.
    auto counter = std::make_shared<int>(0);
    int calls = 0;
    struct Owning
    {
        std::shared_ptr<int> c;
        int *calls;
        Owning(std::shared_ptr<int> cc, int *n) : c(std::move(cc)), calls(n)
        {}
        Owning(Owning &&) = default;
        ~Owning()
        {
            if (c)
                ++*c;
        }
        void operator()() { ++*calls; }
    };
    static_assert(!EventFn::storesInline<Owning>);
    {
        EventFn ran{Owning{counter, &calls}};
        const int before = *counter;
        EventFn moved(std::move(ran));
        moved.run();
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(*counter, before + 1);
    }
    {
        EventFn unrun{Owning{counter, &calls}};
        const int before = *counter;
        unrun = EventFn([] {});
        EXPECT_EQ(*counter, before + 1);
    }
    EXPECT_EQ(calls, 1);
}

TEST(FunctionRef, CallsThroughWithoutOwning)
{
    int calls = 0;
    auto fn = [&calls](int d) { calls += d; };
    FunctionRef<void(int)> ref(fn);
    ref(2);
    ref(3);
    EXPECT_EQ(calls, 5);
}

TEST(FunctionRef, ReturnsValues)
{
    auto fn = [](int a, int b) { return a * b; };
    FunctionRef<int(int, int)> ref(fn);
    EXPECT_EQ(ref(6, 7), 42);
}

TEST(FunctionRef, DefaultConstructedIsEmpty)
{
    // Mac::send's optional abort predicate defaults to an empty ref.
    EXPECT_FALSE(static_cast<bool>(FunctionRef<bool()>{}));
    auto fn = [] { return true; };
    EXPECT_TRUE(static_cast<bool>(FunctionRef<bool()>(fn)));
}

} // namespace
