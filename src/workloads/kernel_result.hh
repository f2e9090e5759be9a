/**
 * @file
 * Common result record for kernel/application runs.
 */

#ifndef WISYNC_WORKLOADS_KERNEL_RESULT_HH
#define WISYNC_WORKLOADS_KERNEL_RESULT_HH

#include <cstdint>

#include "sim/fields.hh"
#include "sim/types.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::workloads {

/** Outcome of one simulated workload run. */
struct KernelResult
{
    /** Total simulated execution time. */
    sim::Cycle cycles = 0;
    /** True if every thread finished before the run limit. */
    bool completed = false;
    /** Operations completed (kernel-specific: iterations, CASes...). */
    std::uint64_t operations = 0;
    /** Data-channel busy fraction (0 for wired configs). */
    double dataChannelUtilisation = 0.0;
    /** Wireless collisions observed (0 for wired configs). */
    std::uint64_t collisions = 0;

    // MAC-protocol telemetry (all 0 for wired configs; see
    // wireless::MacStats for the per-counter semantics).
    /** Cycles senders spent in collision backoff. */
    std::uint64_t macBackoffCycles = 0;
    /** Acquires that queued for the token (token/adaptive MACs). */
    std::uint64_t macTokenWaits = 0;
    /** Ring hops the token travelled (token-family MACs). */
    std::uint64_t macTokenRotations = 0;
    /** BRS <-> token transitions (adaptive MAC). */
    std::uint64_t macModeSwitches = 0;

    // Lossy-channel reliability telemetry (all 0 at lossPct = 0 with
    // no SNR-derived loss, which is what keeps these fields from
    // perturbing the loss0 identity gate). Simulated observables:
    // included in bitIdentical().
    /** Broadcasts corrupted by the channel (no node delivered). */
    std::uint64_t wirelessDrops = 0;
    /** Ack windows that expired. */
    std::uint64_t macAckTimeouts = 0;
    /** Retransmissions performed by the reliability layer. */
    std::uint64_t macRetransmits = 0;
    /** Sends abandoned after maxRetries (typed delivery failures). */
    std::uint64_t macGiveups = 0;

    // Multi-chip telemetry (all 0 on single-chip machines, which is
    // what keeps these fields from perturbing the numChips=1 identity
    // gate). Simulated observables: included in bitIdentical().
    /** Frames carried by the inter-chip bridge. */
    std::uint64_t bridgeFrames = 0;
    /** Cycles the bridge serializer was busy. */
    std::uint64_t bridgeBusyCycles = 0;
    /** RMWs aborted because a bridged update had not landed yet. */
    std::uint64_t staleRmwAborts = 0;

    // Lossy-bridge reliability telemetry (all 0 on an ideal bridge —
    // the multi-chip default — which keeps these fields from
    // perturbing the ideal-bridge identity gate). Simulated
    // observables: included in bitIdentical().
    /** Bridge serializations corrupted by the lossy link. */
    std::uint64_t bridgeDrops = 0;
    /** Bridge ack windows that expired (one per drop). */
    std::uint64_t bridgeAckTimeouts = 0;
    /** Bridge retransmissions within a frame's retry budget. */
    std::uint64_t bridgeRetransmits = 0;
    /** Bridge retry budgets exhausted (each triggers a re-issue, so
     *  no global BM update is ever lost). */
    std::uint64_t bridgeGiveups = 0;

    // Host-side fast-path telemetry, aggregated over the mesh, memory
    // and wireless layers. Deliberately NOT part of bitIdentical():
    // the fast paths are cycle-exact but these counters describe which
    // host-time route served each message, which legitimately differs
    // between a fastpath-on and a (WISYNC_NO_FASTPATH=1) fastpath-off
    // run of the *same* simulation.
    /** Messages/accesses served by an uncontended fast path. */
    std::uint64_t fastpathHits = 0;
    /** Fast-path attempts that fell back to the coroutine path. */
    std::uint64_t fastpathFallbacks = 0;

    double
    opsPerKiloCycle() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(operations) * 1000.0 /
                                 static_cast<double>(cycles);
    }

    /** The field list (sim/fields.hh). A new counter is one entry
     *  here plus its capture in captureChannelStats(). */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::kJson, sim::kHost;
        v(field("cycles", self.cycles, kJson));
        v(field("completed", self.completed, kJson));
        v(field("operations", self.operations, kJson));
        v(field("dataChannelUtilisation", self.dataChannelUtilisation, kJson));
        v(field("collisions", self.collisions, kJson));
        v(field("macBackoffCycles", self.macBackoffCycles, kJson));
        v(field("macTokenWaits", self.macTokenWaits, kJson));
        v(field("macTokenRotations", self.macTokenRotations, kJson));
        v(field("macModeSwitches", self.macModeSwitches, kJson));
        v(field("wirelessDrops", self.wirelessDrops, kJson));
        v(field("macAckTimeouts", self.macAckTimeouts, kJson));
        v(field("macRetransmits", self.macRetransmits, kJson));
        v(field("macGiveups", self.macGiveups, kJson));
        v(field("bridgeFrames", self.bridgeFrames, kJson));
        v(field("bridgeBusyCycles", self.bridgeBusyCycles, kJson));
        v(field("staleRmwAborts", self.staleRmwAborts, kJson));
        v(field("bridgeDrops", self.bridgeDrops, kJson));
        v(field("bridgeAckTimeouts", self.bridgeAckTimeouts, kJson));
        v(field("bridgeRetransmits", self.bridgeRetransmits, kJson));
        v(field("bridgeGiveups", self.bridgeGiveups, kJson));
        v(field("fastpathHits", self.fastpathHits, kHost));
        v(field("fastpathFallbacks", self.fastpathFallbacks, kHost));
    }
};

/**
 * Fill the wireless-channel columns (utilisation, collisions), the
 * MAC-protocol telemetry, the bridge counters and the fast-path
 * counters from @p machine. The wireless columns are a no-op on wired
 * configs, where the zero-initialized fields are already correct; the
 * fast-path counters aggregate mesh + memory (+ wireless) on every
 * config. On a multi-chip machine the channel columns sum over every
 * frequency-plan channel (utilisation is the mean busy fraction).
 * Every run*On workload epilogue calls this instead of reading the
 * channel by hand.
 */
void captureChannelStats(KernelResult &result, core::Machine &machine);

/**
 * Field-by-field equality, with the utilisation double compared by
 * bit pattern — the determinism contract the sweep benches and tests
 * assert between serial and parallel runs. The kHost fields (the
 * fastpath* counters) are host-route telemetry, not simulated
 * observables, and are excluded — which is also what lets the
 * fastpath-on vs -off identity gate use this same predicate.
 */
inline bool
bitIdentical(const KernelResult &a, const KernelResult &b)
{
    return sim::sameFields(a, b, sim::kNoFlags, sim::kHost);
}

} // namespace wisync::workloads

#endif // WISYNC_WORKLOADS_KERNEL_RESULT_HH
