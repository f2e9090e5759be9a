/**
 * @file
 * Cross-scheduler equivalence: replays randomized event scripts against
 * a reference (when, seq) binary-heap scheduler and requires the
 * production three-tier engine to produce a bit-identical execution
 * trace — same event order, same cycles, same final time.
 *
 * The script generator is deliberately adversarial about tier
 * boundaries: zero delays, level-0 block crossings (deltas around 256),
 * level-1/level-2 window crossings (around 2^16), overflow-heap deltas
 * (>= 2^24), nested scheduling from inside callbacks, and run(limit)
 * parking between segments. It also attacks the rule that staging
 * sorts only marked level-0 buckets: reserved-seq events filed into
 * buckets that already hold later inserts, and level-1/level-2
 * cascades that land behind direct level-0 inserts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.hh"

namespace {

using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::kCycleMax;

/**
 * Reference scheduler: the textbook single min-heap ordered by
 * (cycle, insertion seq), with run(limit)/park semantics matching the
 * Engine contract. Deliberately simple enough to be obviously correct.
 */
class RefEngine
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        heap_.push_back(Ev{when, nextSeq_++, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void scheduleIn(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    std::uint64_t reserveSeq() { return nextSeq_++; }

    void
    scheduleReserved(Cycle when, std::uint64_t seq,
                     std::function<void()> fn)
    {
        heap_.push_back(Ev{when, seq, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    bool
    run(Cycle limit = kCycleMax)
    {
        while (!heap_.empty()) {
            if (heap_.front().when > limit) {
                if (limit > now_)
                    now_ = limit;
                return false;
            }
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Ev ev = std::move(heap_.back());
            heap_.pop_back();
            now_ = ev.when;
            ev.fn();
        }
        return true;
    }

    std::size_t pendingEvents() const { return heap_.size(); }

  private:
    struct Ev
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Ev> heap_;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** Delta distribution straddling every tier boundary. */
Cycle
pickDelta(std::mt19937 &rng)
{
    switch (rng() % 12) {
      case 0:
        return 0;
      case 1:
      case 2:
        return rng() % 4;
      case 3:
      case 4:
        return rng() % 256; // level 0
      case 5:
        return 250 + rng() % 12; // block boundary
      case 6:
        return rng() % 65536; // level 1
      case 7:
        return 65530 + rng() % 12; // level-1/2 boundary
      case 8:
        return rng() % (Cycle{1} << 20); // level 2
      case 9:
        return (Cycle{1} << 24) - 6 + rng() % 12; // wheel/heap boundary
      case 10:
        return (Cycle{1} << 24) + rng() % 1000; // overflow heap
      default:
        return rng() % 2048;
    }
}

/**
 * Drives one engine through the scripted workload. Every callback logs
 * (event id, cycle) and may schedule children; because both engines see
 * identical ids and rng streams *as long as execution order matches*,
 * any ordering divergence snowballs into a trace mismatch.
 */
template <typename Eng>
struct Driver
{
    Eng eng;
    std::mt19937 rng;
    std::vector<std::pair<int, Cycle>> trace;
    int nextId = 0;
    int budget; // bounds total event count

    explicit Driver(std::uint32_t seed, int budget_)
        : rng(seed), budget(budget_)
    {}

    void
    spawn(Cycle delta)
    {
        const int id = nextId++;
        --budget;
        eng.scheduleIn(delta, [this, id] { fire(id); });
    }

    /**
     * Claim a seq now for an event a few cycles out, and file it later
     * from a helper event that runs strictly before its cycle — by
     * then the target bucket usually holds later-seq inserts.
     */
    void
    reserve()
    {
        const int id = nextId++;
        --budget;
        const Cycle delta = 1 + rng() % 24;
        const Cycle when = eng.now() + delta;
        const std::uint64_t seq = eng.reserveSeq();
        eng.scheduleIn(rng() % delta, [this, id, when, seq] {
            eng.scheduleReserved(when, seq, [this, id] { fire(id); });
        });
    }

    void
    fire(int id)
    {
        trace.emplace_back(id, eng.now());
        const unsigned children = rng() % 3;
        for (unsigned c = 0; c < children && budget > 0; ++c)
            spawn(pickDelta(rng));
        if (budget > 0 && rng() % 3 == 0)
            reserve();
    }
};

template <typename Eng>
std::pair<std::vector<std::pair<int, Cycle>>, Cycle>
replay(std::uint32_t seed)
{
    Driver<Eng> d(seed, 600);
    std::mt19937 outer(seed ^ 0x9e3779b9u);

    // Phase 1: a batch of roots, drained completely.
    for (int i = 0; i < 40; ++i)
        d.spawn(pickDelta(outer));
    d.eng.run();

    // Phase 2: interleave run(limit) segments with outside insertions,
    // exercising parking inside blocks and across window boundaries.
    Cycle limit = d.eng.now();
    for (int seg = 0; seg < 25; ++seg) {
        for (int i = 0; i < 4; ++i)
            d.spawn(pickDelta(outer));
        limit += outer() % 70'000;
        d.eng.run(limit);
    }

    // Phase 3: a level-1 or level-2 event, a park one cycle short of
    // it, then an outside insert at its cycle. The insert goes straight
    // to level 0; staging cascades the older event in behind it and
    // must still run it first.
    for (int i = 0; i < 16; ++i) {
        const Cycle far = i % 2 == 0 ? 256 + outer() % 60'000
                                     : 65'536 + outer() % 2'000'000;
        const Cycle when = d.eng.now() + far;
        d.spawn(far);
        d.eng.run(when - 1);
        d.spawn(when - d.eng.now());
        d.spawn(when - d.eng.now());
    }
    d.eng.run();
    EXPECT_EQ(d.eng.pendingEvents(), 0u);
    return {std::move(d.trace), d.eng.now()};
}

class EngineDeterminism : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(EngineDeterminism, MatchesReferenceHeapScheduler)
{
    const auto [refTrace, refNow] = replay<RefEngine>(GetParam());
    const auto [trace, now] = replay<Engine>(GetParam());
    ASSERT_EQ(trace.size(), refTrace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(trace[i].first, refTrace[i].first)
            << "event order diverged at position " << i << " (cycle "
            << trace[i].second << " vs " << refTrace[i].second << ")";
        ASSERT_EQ(trace[i].second, refTrace[i].second)
            << "cycle diverged for event " << trace[i].first;
    }
    EXPECT_EQ(now, refNow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           0xdeadbeefu));

} // namespace
