/**
 * @file
 * Per-layer counters, read from each layer's public stats after every
 * operation of a traced run and summed over the run.
 *
 * Counts are simulated work and repeat exactly between two runs of one
 * seed; the *_ms / *_us / ns_per_event figures are host time taken from
 * the trace spans.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>

#include "coro/frame_pool.hh"
#include "results.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace perfbench {

struct LayerCounts
{
    // sim engine
    std::uint64_t events = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t tierReady = 0;
    std::uint64_t tierCalendar = 0;
    std::uint64_t tierCascades = 0;
    std::uint64_t tierHeap = 0;
    /** Events per ConfigKind (Baseline, Baseline+, WiSyncNoT, WiSync). */
    std::array<std::uint64_t, 4> eventsByKind{};
    // coro frame pool (deltas over the traced pass)
    std::uint64_t poolAllocs = 0;
    std::uint64_t poolReuses = 0;
    std::uint64_t poolFallbackAllocs = 0;
    // noc mesh
    std::uint64_t meshMessages = 0;
    std::uint64_t meshFlits = 0;
    std::uint64_t meshMulticasts = 0;
    double meshLatencySum = 0.0;
    std::uint64_t meshLatencyCount = 0;
    std::uint64_t meshFastHits = 0;
    std::uint64_t meshFastFallbacks = 0;
    // noc chip bridge
    std::uint64_t bridgeFrames = 0;
    std::uint64_t bridgeBusyCycles = 0;
    std::uint64_t bridgeQueueWaitCycles = 0;
    std::uint64_t bridgeRetransmits = 0;
    std::uint64_t bridgeGiveups = 0;
    // mem
    std::uint64_t memAccesses = 0;
    std::uint64_t memL1Hits = 0;
    std::uint64_t memL1Misses = 0;
    std::uint64_t memInvalidations = 0;
    std::uint64_t memDramFetches = 0;
    double memMissLatencySum = 0.0;
    std::uint64_t memMissLatencyCount = 0;
    std::uint64_t memFastHits = 0;
    std::uint64_t memFastFallbacks = 0;
    std::uint64_t memDirRehashes = 0;
    // bm
    std::uint64_t bmLoads = 0;
    std::uint64_t bmStores = 0;
    std::uint64_t bmRmws = 0;
    std::uint64_t bmAfbFailures = 0;
    std::uint64_t bmSendReissues = 0;
    // wireless tone channel
    std::uint64_t toneActivations = 0;
    std::uint64_t toneReleases = 0;
    std::uint64_t toneSlotCycles = 0;
    // wireless data channel + MAC
    std::uint64_t dataMessages = 0;
    std::uint64_t dataCollisions = 0;
    std::uint64_t dataBusyCycles = 0;
    std::uint64_t dataDrops = 0;
    double dataLatencySum = 0.0;
    std::uint64_t dataLatencyCount = 0;
    std::uint64_t dataFastHits = 0;
    std::uint64_t dataFastFallbacks = 0;
    std::uint64_t macAcquires = 0;
    std::uint64_t macBackoffCycles = 0;
    std::uint64_t macRetransmits = 0;
    // core / harness (host times from the acquire and run spans)
    std::uint64_t builds = 0;
    std::uint64_t reuses = 0;
    std::uint64_t buildNs = 0;
    std::uint64_t resetNs = 0;
    std::uint64_t runs = 0;
    std::uint64_t runNs = 0;
    // service
    std::uint64_t requests = 0;
    std::uint64_t requestNs = 0;
    std::uint64_t parseNs = 0;
    std::uint64_t serializeNs = 0;
    std::uint64_t serializedResults = 0;
    std::uint64_t servicePoints = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t storeBytesAppended = 0;
    std::uint64_t simulatedPoints = 0;

    /** Add the per-run stats of @p machine after @p result's run. The
     *  directory pool counts cumulatively, so the caller passes its
     *  rehash count from before the run. */
    void addRun(core::Machine &machine, const workloads::KernelResult &result,
                std::uint64_t dir_rehashes_before);

    /** Add the frame-pool activity between two snapshots. */
    void addPool(const coro::FramePool::Stats &before,
                 const coro::FramePool::Stats &after);

    /** Every per-layer metric, by its benchmark name. */
    void emit(JsonObject &out) const;
};

/** The machine's cumulative directory-pool rehash count. */
std::uint64_t dirRehashes(core::Machine &machine);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
