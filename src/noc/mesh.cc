#include "noc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace wisync::noc {

namespace {

/** Directional link indices relative to a node. */
enum Dir : std::uint32_t { East = 0, West = 1, North = 2, South = 3 };

} // namespace

Mesh::Mesh(sim::Engine &engine, const MeshConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    WISYNC_ASSERT(cfg_.numNodes > 0, "mesh needs at least one node");
    WISYNC_ASSERT(cfg_.linkBits > 0, "links need nonzero width");
    width_ = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(cfg_.numNodes))));
    // Routes may pass through grid positions beyond the last populated
    // node (a non-square core count still has a full router grid), so
    // coordinates and links cover the whole width x width mesh.
    const std::uint32_t grid = width_ * width_;
    coord_.reserve(grid);
    for (std::uint32_t n = 0; n < grid; ++n)
        coord_.push_back(Coord{n % width_, n / width_});
    links_.reserve(grid * 4);
    inject_.reserve(cfg_.numNodes);
    for (std::uint32_t n = 0; n < grid * 4; ++n)
        links_.emplace_back(engine_);
    for (std::uint32_t n = 0; n < cfg_.numNodes; ++n)
        inject_.emplace_back(engine_);
}

void
Mesh::reset(const MeshConfig &cfg)
{
    WISYNC_FATAL_IF(cfg.numNodes != cfg_.numNodes,
                    "Mesh::reset cannot change the node count");
    WISYNC_ASSERT(cfg.linkBits > 0, "links need nonzero width");
    cfg_ = cfg;
    for (auto &link : links_)
        link.reset();
    for (auto &port : inject_)
        port.reset();
    stats_.reset();
}

std::uint32_t
Mesh::hops(sim::NodeId a, sim::NodeId b) const
{
    const auto dx = xOf(a) > xOf(b) ? xOf(a) - xOf(b) : xOf(b) - xOf(a);
    const auto dy = yOf(a) > yOf(b) ? yOf(a) - yOf(b) : yOf(b) - yOf(a);
    return dx + dy;
}

std::uint32_t
Mesh::flitsOf(std::uint32_t bits) const
{
    return std::max(1u, (bits + cfg_.linkBits - 1) / cfg_.linkBits);
}

Mesh::Hop
Mesh::nextHop(sim::NodeId cur, sim::NodeId dst) const
{
    // X first, then Y (dimension-order routing).
    const Coord c = coord_[cur];
    const Coord d = coord_[dst];
    if (d.x > c.x)
        return {cur + 1, cur * 4 + East};
    if (d.x < c.x)
        return {cur - 1, cur * 4 + West};
    if (d.y < c.y)
        return {cur - width_, cur * 4 + North};
    return {cur + width_, cur * 4 + South};
}

/**
 * Frameless head-flit driver.
 *
 * Awaited by send() (possibly several times; see send()); lives in
 * send()'s pooled frame. Each step runs at the cycle the wormhole
 * coroutine's head would reach that router — and, crucially, is
 * *scheduled* at the same instant the coroutine's per-hop delay would
 * be, so every insertion-sequence number the outside world can race
 * against is unchanged. A free link is taken as a timed reservation
 * (no release event unless a contender queues). A held link gets
 * send()'s frame in its FIFO, exactly where transferAlong's blocked
 * lock() would have queued; the grant resumes send(), which awaits the
 * driver again, and the driver holds the link for the tail and moves
 * on — the same reserved release and the same hop event, in the same
 * order, that transferAlong issues after its lock() returns.
 */
class Mesh::FastTransfer
{
  public:
    FastTransfer(Mesh &mesh, sim::NodeId src, sim::NodeId dst,
                 std::uint32_t flits)
        : mesh_(mesh), cur_(src), dst_(dst), flits_(flits)
    {}

    /** The head reached dst_ and the tail delay has passed. */
    bool arrived() const { return arrived_; }

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        caller_ = h;
        // The first await enters the first link inline, in the
        // co_await's own event — where transferAlong's first lock()
        // would run. A later await is a link grant, in the handoff
        // event where transferAlong's lock() would return.
        if (queued_)
            granted();
        else
            step();
    }

    void await_resume() const noexcept {}

  private:
    /** POD callback wrappers: 8 bytes, always in the event's SBO. */
    struct StepFn
    {
        FastTransfer *t;
        void operator()() const { t->step(); }
    };
    struct FinishFn
    {
        FastTransfer *t;
        void operator()() const { t->finish(); }
    };

    void
    step()
    {
        const Hop hop = mesh_.nextHop(cur_, dst_);
        coro::SimMutex &link = mesh_.links_[hop.link];
        // The link is busy until the tail flit crosses it (the same
        // window transferAlong's scheduleUnlock(flits) holds).
        if (!link.tryReserve(mesh_.engine_.now() + flits_)) {
            if (!contended_) {
                contended_ = true;
                mesh_.stats_.fastpathFallbacks.inc();
            }
            queued_ = true;
            link.queue(caller_);
            return;
        }
        advance(hop.next);
    }

    void
    granted()
    {
        queued_ = false;
        const Hop hop = mesh_.nextHop(cur_, dst_);
        mesh_.links_[hop.link].scheduleUnlock(flits_);
        advance(hop.next);
    }

    void
    advance(sim::NodeId next)
    {
        cur_ = next;
        if (cur_ == dst_)
            mesh_.engine_.scheduleIn(mesh_.cfg_.hopCycles, FinishFn{this});
        else
            mesh_.engine_.scheduleIn(mesh_.cfg_.hopCycles, StepFn{this});
    }

    void
    finish()
    {
        // Head arrived; the tail is flits-1 cycles behind. Single-flit
        // messages resume the sender inside this event, matching the
        // slow path's zero-cycle delay awaiter.
        if (!contended_)
            mesh_.stats_.fastpathHits.inc();
        arrived_ = true;
        if (flits_ > 1)
            mesh_.engine_.resumeHandle(flits_ - 1, caller_);
        else
            caller_.resume();
    }

    Mesh &mesh_;
    sim::NodeId cur_;
    sim::NodeId dst_;
    std::uint32_t flits_;
    std::coroutine_handle<> caller_;
    /** Waiting in a link's FIFO; the next await is its grant. */
    bool queued_ = false;
    /** Met a held link somewhere on the route. */
    bool contended_ = false;
    bool arrived_ = false;
};

coro::Task<void>
Mesh::transferAlong(sim::NodeId cur, sim::NodeId dst, std::uint32_t flits)
{
    while (cur != dst) {
        const Hop hop = nextHop(cur, dst);
        co_await links_[hop.link].lock();
        // The link stays busy until the tail flit crosses it; the head
        // moves on in parallel. Freeing on a timer (rather than when
        // the head secures the next hop) models routers with enough
        // buffering to absorb a blocked message — optimistic under
        // heavy congestion, exact otherwise.
        links_[hop.link].scheduleUnlock(flits);
        co_await coro::delay(engine_, cfg_.hopCycles);
        cur = hop.next;
    }
    if (flits > 1)
        co_await coro::delay(engine_, flits - 1);
}

coro::Task<void>
Mesh::send(sim::NodeId src, sim::NodeId dst, std::uint32_t bits)
{
    const sim::Cycle start = engine_.now();
    const std::uint32_t flits = flitsOf(bits);
    stats_.messages.inc();
    stats_.flits.inc(flits);
    if (src == dst) {
        // Local turnaround through the node's port.
        co_await coro::delay(engine_, 1);
    } else if (cfg_.fastpath && cfg_.hopCycles > 0) {
        // hopCycles == 0 must stay on the wormhole path: its delay(0)
        // awaiters complete inline, locking the whole route in one
        // event, whereas the step chain would round-trip each hop
        // through the ready ring — a different same-cycle grant order.
        // Each await returns at the head's arrival or at a link grant.
        FastTransfer t(*this, src, dst, flits);
        do
            co_await t;
        while (!t.arrived());
    } else {
        co_await transferAlong(src, dst, flits);
    }
    stats_.latency.sample(static_cast<double>(engine_.now() - start));
}

coro::Task<void>
Mesh::tailDelay(std::uint32_t flits)
{
    co_await coro::delay(engine_, flits - 1);
}

coro::Task<void>
Mesh::treeDeliver(sim::NodeId cur, std::span<sim::NodeId> dsts,
                  std::uint32_t flits)
{
    // Partition the targets in place into this router and the four
    // XY branches; each branch then recurses on its own subrange.
    // Order inside a group is irrelevant: every member shares the
    // branch's first step and is partitioned again downstream.
    std::span<sim::NodeId> rest = dsts;
    const auto take = [&rest](auto pred) {
        const auto mid = std::partition(rest.begin(), rest.end(), pred);
        const std::span<sim::NodeId> group(rest.begin(), mid);
        rest = std::span<sim::NodeId>(mid, rest.end());
        return group;
    };
    const Coord c = coord_[cur];
    const bool here =
        !take([cur](sim::NodeId d) { return d == cur; }).empty();
    const auto east = take([&](sim::NodeId d) { return xOf(d) > c.x; });
    const auto west = take([&](sim::NodeId d) { return xOf(d) < c.x; });
    const auto north = take([&](sim::NodeId d) { return yOf(d) < c.y; });
    const auto south = rest;

    sim::InlineVec<coro::Task<void>, 4> branches;
    auto descend = [&](std::span<sim::NodeId> group) -> coro::Task<void> {
        // Every node of a branch shares its first XY step.
        const Hop hop = nextHop(cur, group.front());
        co_await links_[hop.link].lock();
        links_[hop.link].scheduleUnlock(flits);
        co_await coro::delay(engine_, cfg_.hopCycles);
        co_await treeDeliver(hop.next, group, flits);
    };
    for (const auto group : {east, west, north, south})
        if (!group.empty())
            branches.push_back(descend(group));

    if (here && flits > 1) {
        // Local delivery: the tail arrives flits-1 cycles behind the
        // head, overlapping any downstream branch transfers.
        branches.push_back(tailDelay(flits));
    }

    if (!branches.empty())
        co_await coro::whenAll(engine_, std::move(branches));
}

coro::Task<void>
Mesh::multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                std::uint32_t bits)
{
    if (dsts.empty())
        co_return;
    stats_.multicasts.inc();
    const std::uint32_t flits = flitsOf(bits);

    if (cfg_.treeMulticast) {
        stats_.messages.inc();
        stats_.flits.inc(flits);
        // The tree partitions this copy in place; it lives here until
        // the last branch delivers.
        NodeVec targets;
        targets.reserve(dsts.size());
        for (const auto d : dsts)
            targets.push_back(d);
        co_await treeDeliver(src, std::span(targets.data(), targets.size()),
                             flits);
        co_return;
    }

    // Serial replication at the source: one unicast per destination,
    // injected one per cycle through the node's port.
    sim::InlineVec<coro::Task<void>, 8> sends;
    sends.reserve(dsts.size());
    auto one = [this, src, bits](sim::NodeId dst) -> coro::Task<void> {
        co_await inject_[src].lock();
        co_await coro::delay(engine_, 1);
        inject_[src].unlock();
        co_await send(src, dst, bits);
    };
    for (const auto d : dsts)
        sends.push_back(one(d));
    co_await coro::whenAll(engine_, std::move(sends));
}

sim::Cycle
Mesh::zeroLoadLatency(sim::NodeId src, sim::NodeId dst,
                      std::uint32_t bits) const
{
    if (src == dst)
        return 1;
    return static_cast<sim::Cycle>(hops(src, dst)) * cfg_.hopCycles +
           flitsOf(bits) - 1;
}

} // namespace wisync::noc
