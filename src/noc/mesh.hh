/**
 * @file
 * 2D-mesh on-chip network model.
 *
 * Matches the paper's Table 1: 2D mesh, 4 cycles/hop, 128-bit links.
 * Messages are wormhole-routed with XY (dimension-order) routing: the
 * head flit pays the per-hop latency at each router, the tail follows
 * `flits-1` cycles behind, and each directional link is occupied for
 * `flits` cycles per message, which is where contention comes from.
 *
 * XY routing's channel-dependency graph is acyclic, so the model's
 * hold-link-while-waiting-for-next-link discipline cannot deadlock.
 *
 * Two multicast modes (paper §6, Table 2):
 *  - serial:  the source injects one unicast per destination, one
 *    injection per cycle (plain `Baseline` router, no broadcast HW).
 *  - tree:    a single message is replicated at fan-out routers
 *    (`Baseline+`'s "virtual tree-based broadcast ... with flit
 *    replication at the router crossbars", Krishna et al. [22]).
 *
 * Link holds. Each link is a SimMutex held for `flits` cycles from the
 * moment the head takes it, as a timed reservation: its release claims
 * its place in the execution order at once but runs as an engine event
 * only if a contender queues on the link during the hold. Holds cost
 * no event on either route driver below.
 *
 * Frameless route driver (MeshConfig::fastpath, default on, kill switch
 * WISYNC_NO_FASTPATH=1): send() drives the head flit down the route
 * with a chain of plain callback events, one per hop, at exactly the
 * cycles (and scheduling instants) the wormhole coroutine's per-hop
 * awaits would occupy. A contended route stays frameless too: at a
 * held link the driver queues send()'s own frame in the link's FIFO,
 * where the wormhole coroutine's lock() would have queued, and the
 * grant resumes the chain. An uncontended unicast costs hops+2
 * events; each wait adds only the link's materialized release and the
 * grant. No route allocates a coroutine frame beyond send() itself,
 * and every route consumes exactly the insertion-sequence numbers of
 * the wormhole path — contention semantics, and therefore timing, are
 * bit-for-bit unchanged. The wormhole coroutine (transferAlong) serves
 * only the kill switch, as the identity oracle, and configs with
 * hopCycles == 0 (see send()). MeshStats counts routes that met no
 * held link (fastpathHits) and routes that queued at least once
 * (fastpathFallbacks).
 */

#ifndef WISYNC_NOC_MESH_HH
#define WISYNC_NOC_MESH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/env.hh"
#include "sim/fields.hh"
#include "sim/inline_vec.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wisync::noc {

/** Mesh geometry and timing knobs. */
struct MeshConfig
{
    std::uint32_t numNodes = 64;
    /** Router + link traversal latency per hop (cycles). */
    std::uint32_t hopCycles = 4;
    /** Link width in bits (one flit per cycle per link). */
    std::uint32_t linkBits = 128;
    /** Replicate flits at fan-out routers for multicast (Baseline+). */
    bool treeMulticast = false;
    /** Uncontended-route fast path (host-time only; cycle-exact). */
    bool fastpath = sim::fastpathDefault();

    bool operator==(const MeshConfig &) const = default;

    /** The field list (sim/fields.hh). */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::kShape, sim::kNoFlags;
        v(field("numNodes", self.numNodes, 1, UINT32_MAX, kShape));
        v(field("hopCycles", self.hopCycles, kNoFlags));
        v(field("linkBits", self.linkBits, 1, UINT32_MAX, kNoFlags));
        v(field("treeMulticast", self.treeMulticast, kNoFlags));
        v(field("fastpath", self.fastpath, kNoFlags));
    }
};

/** Aggregated network statistics. */
struct MeshStats
{
    sim::Counter messages;
    sim::Counter flits;
    sim::Counter multicasts;
    sim::Accumulator latency;
    /** Frameless-driver unicasts that met no held link. */
    sim::Counter fastpathHits;
    /** Frameless-driver unicasts that queued on a held link at least
     *  once (only counted while the fast path is enabled). */
    sim::Counter fastpathFallbacks;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The mesh fabric. One instance per simulated chip.
 *
 * All public operations are coroutines that resolve when the (last)
 * message is fully delivered.
 */
class Mesh
{
  public:
    /** Destination lists fit inline up to the Table 1 64-node chip. */
    using NodeVec = sim::InlineVec<sim::NodeId, 64>;

    Mesh(sim::Engine &engine, const MeshConfig &cfg);

    /** Grid side length (smallest square holding numNodes). */
    std::uint32_t width() const { return width_; }

    /** Manhattan hop distance between two nodes. */
    std::uint32_t hops(sim::NodeId a, sim::NodeId b) const;

    /**
     * Send @p bits from @p src to @p dst; resolves at delivery.
     * Same-node "transfers" cost one cycle (local bank port hop).
     */
    coro::Task<void> send(sim::NodeId src, sim::NodeId dst,
                          std::uint32_t bits);

    /**
     * Deliver @p bits to every destination; resolves when the last
     * destination has the message. Mode depends on cfg.treeMulticast.
     * @p dsts is a view — the backing storage must outlive the await
     * (it always lives in the caller's suspended frame).
     */
    coro::Task<void> multicast(sim::NodeId src,
                               std::span<const sim::NodeId> dsts,
                               std::uint32_t bits);

    /** Zero-load latency of a unicast, for calibration tests. */
    sim::Cycle zeroLoadLatency(sim::NodeId src, sim::NodeId dst,
                               std::uint32_t bits) const;

    const MeshStats &stats() const { return stats_; }
    const MeshConfig &config() const { return cfg_; }

    /**
     * Return to post-construction state, optionally retiming: frees
     * all links/ports and zeroes stats. @p cfg may change timing knobs
     * (hopCycles, linkBits, treeMulticast, fastpath) but must keep
     * numNodes. Callers (Machine::reset) must have destroyed in-flight
     * transfer coroutines first — link mutexes are cleared, not handed
     * off.
     */
    void reset(const MeshConfig &cfg);

  private:
    /** A router's grid position (tabled once: no per-hop division). */
    struct Coord
    {
        std::uint32_t x;
        std::uint32_t y;
    };

    /** One XY-route step: the next router and the link to it. */
    struct Hop
    {
        sim::NodeId next;
        /** Directional link id, cur * 4 + direction. */
        std::uint32_t link;
    };

    std::uint32_t xOf(sim::NodeId n) const { return coord_[n].x; }
    std::uint32_t yOf(sim::NodeId n) const { return coord_[n].y; }

    std::uint32_t flitsOf(std::uint32_t bits) const;

    /** Next step on the XY route from @p cur toward @p dst != cur. */
    Hop nextHop(sim::NodeId cur, sim::NodeId dst) const;

    /** Frameless route driver (awaiter; see mesh.cc). */
    class FastTransfer;

    /** Wormhole transfer of the XY route from @p cur to @p dst (the
     *  kill-switch oracle and hopCycles == 0). */
    coro::Task<void> transferAlong(sim::NodeId cur, sim::NodeId dst,
                                   std::uint32_t flits);

    /** Tail-flit arrival delay (flits-1 cycles). */
    coro::Task<void> tailDelay(std::uint32_t flits);

    /**
     * Recursive XY-tree delivery used in tree-multicast mode. @p dsts
     * is caller-owned storage that the call partitions in place; it
     * must outlive the await.
     */
    coro::Task<void> treeDeliver(sim::NodeId cur, std::span<sim::NodeId> dsts,
                                 std::uint32_t flits);

    sim::Engine &engine_;
    MeshConfig cfg_;
    std::uint32_t width_;
    /** Grid position of every router, index = node id. */
    std::vector<Coord> coord_;
    /** One FIFO mutex per directional link; index = Hop::link. Built
     *  once at full size, so the mutexes never move. */
    std::vector<coro::SimMutex> links_;
    /** Per-node injection port (serial multicast pacing). */
    std::vector<coro::SimMutex> inject_;
    MeshStats stats_;
};

} // namespace wisync::noc

#endif // WISYNC_NOC_MESH_HH
