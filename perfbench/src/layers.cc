#include "layers.hh"

#include <algorithm>

#include "core/machine.hh"

namespace perfbench {

namespace {

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return ratio(double(part), double(whole));
}

} // namespace

std::uint64_t
dirRehashes(core::Machine &machine)
{
    return machine.mem().dirPoolStats().rehashes;
}

void
LayerCounts::addRun(core::Machine &machine,
                    const workloads::KernelResult &result,
                    std::uint64_t dir_rehashes_before)
{
    const sim::Engine &engine = machine.engine();
    events += engine.eventsExecuted();
    simCycles += result.cycles;
    tierReady += engine.tierStats().ready;
    tierCalendar += engine.tierStats().calendar;
    tierCascades += engine.tierStats().cascades;
    tierHeap += engine.tierStats().heap;
    eventsByKind[static_cast<std::size_t>(machine.config().kind)] +=
        engine.eventsExecuted();

    const noc::MeshStats &mesh = machine.mesh().stats();
    meshMessages += mesh.messages.value();
    meshFlits += mesh.flits.value();
    meshMulticasts += mesh.multicasts.value();
    meshLatencySum += mesh.latency.sum();
    meshLatencyCount += mesh.latency.count();
    meshFastHits += mesh.fastpathHits.value();
    meshFastFallbacks += mesh.fastpathFallbacks.value();

    const mem::MemStats &mem = machine.mem().stats();
    memAccesses += mem.loads.value() + mem.stores.value() + mem.rmws.value();
    memL1Hits += mem.l1Hits.value();
    memL1Misses += mem.l1Misses.value();
    memInvalidations += mem.invalidations.value();
    memDramFetches += mem.dramFetches.value();
    memMissLatencySum += mem.missLatency.sum();
    memMissLatencyCount += mem.missLatency.count();
    memFastHits += mem.fastpathHits.value();
    memFastFallbacks += mem.fastpathFallbacks.value();
    memDirRehashes += dirRehashes(machine) - dir_rehashes_before;

    bm::BmSystem *bm = machine.bm();
    if (bm == nullptr)
        return; // wired kinds: the wireless layers are gated off
    const bm::BmStats &bs = bm->stats();
    bmLoads += bs.loads.value();
    bmStores += bs.stores.value();
    bmRmws += bs.rmws.value();
    bmAfbFailures += bs.afbFailures.value();
    bmSendReissues += bs.sendReissues.value();

    for (std::uint32_t chip = 0; chip < bm->numChips(); ++chip) {
        if (const wireless::ToneChannel *tone = bm->toneChannel(chip)) {
            toneActivations += tone->stats().activations.value();
            toneReleases += tone->stats().releases.value();
            toneSlotCycles += tone->stats().slotCycles.value();
        }
    }
    for (std::uint32_t ch = 0; ch < bm->channelCount(); ++ch) {
        const wireless::DataChannelStats &ds = bm->dataChannel(ch).stats();
        dataMessages += ds.messages.value();
        dataCollisions += ds.collisions.value();
        dataBusyCycles += ds.busyCycles.value();
        dataDrops += ds.drops.value();
        dataLatencySum += ds.deliveryLatency.sum();
        dataLatencyCount += ds.deliveryLatency.count();
        dataFastHits += ds.fastpathHits.value();
        dataFastFallbacks += ds.fastpathFallbacks.value();
        const wireless::MacStats &mac = bm->macProtocol(ch).stats();
        macAcquires += mac.acquires.value();
        macBackoffCycles += mac.backoffCycles.value();
        macRetransmits += mac.retransmits.value();
    }
    if (const noc::ChipBridge *bridge = bm->bridge()) {
        const noc::BridgeStats &br = bridge->stats();
        bridgeFrames += br.frames.value();
        bridgeBusyCycles += br.busyCycles.value();
        bridgeQueueWaitCycles += br.queueWaitCycles.value();
        bridgeRetransmits += br.retransmits.value();
        bridgeGiveups += br.giveUps.value();
    }
}

void
LayerCounts::addPool(const coro::FramePool::Stats &before,
                     const coro::FramePool::Stats &after)
{
    poolAllocs += after.pooledAllocs - before.pooledAllocs;
    poolReuses += after.freelistReuses - before.freelistReuses;
    poolFallbackAllocs += after.fallbackAllocs - before.fallbackAllocs;
}

void
LayerCounts::emit(JsonObject &out) const
{
    out.num("engine.events", events)
        .num("engine.events_per_sim_cycle",
             share(events, simCycles))
        .num("engine.ns_per_event", share(runNs, events))
        .num("engine.tier_ready", tierReady)
        .num("engine.tier_calendar", tierCalendar)
        .num("engine.tier_cascades", tierCascades)
        .num("engine.tier_heap", tierHeap)
        .num("engine.events.baseline", eventsByKind[0])
        .num("engine.events.baseline_plus", eventsByKind[1])
        .num("engine.events.wisync_not", eventsByKind[2])
        .num("engine.events.wisync", eventsByKind[3]);
    out.num("coro.pool_reuse_share", share(poolReuses, poolAllocs))
        .num("coro.pool_fallback_allocs", poolFallbackAllocs);
    out.num("mesh.messages", meshMessages)
        .num("mesh.flits", meshFlits)
        .num("mesh.multicasts", meshMulticasts)
        .num("mesh.latency_mean_cycles",
             ratio(meshLatencySum, double(meshLatencyCount)))
        .num("mesh.fastpath_share",
             share(meshFastHits, meshFastHits + meshFastFallbacks));
    out.num("bridge.frames", bridgeFrames)
        .num("bridge.busy_cycles", bridgeBusyCycles)
        .num("bridge.queue_wait_cycles", bridgeQueueWaitCycles)
        .num("bridge.retransmits", bridgeRetransmits)
        .num("bridge.giveups", bridgeGiveups)
        .num("bridge.useful_share",
             share(bridgeFrames, bridgeFrames + bridgeRetransmits));
    out.num("mem.accesses", memAccesses)
        .num("mem.l1_hit_share", share(memL1Hits, memL1Hits + memL1Misses))
        .num("mem.invalidations", memInvalidations)
        .num("mem.dram_fetches", memDramFetches)
        .num("mem.miss_latency_mean_cycles",
             ratio(memMissLatencySum, double(memMissLatencyCount)))
        .num("mem.fastpath_share",
             share(memFastHits, memFastHits + memFastFallbacks))
        .num("mem.dir_rehashes", memDirRehashes);
    out.num("bm.loads", bmLoads)
        .num("bm.stores", bmStores)
        .num("bm.rmws", bmRmws)
        .num("bm.afb_failures", bmAfbFailures)
        .num("bm.rmw_success_share",
             share(bmRmws - std::min(bmRmws, bmAfbFailures), bmRmws))
        .num("bm.send_reissues", bmSendReissues);
    out.num("tone.activations", toneActivations)
        .num("tone.releases", toneReleases)
        .num("tone.slot_cycles", toneSlotCycles);
    out.num("data.messages", dataMessages)
        .num("data.collisions", dataCollisions)
        .num("data.busy_cycles", dataBusyCycles)
        .num("data.drops", dataDrops)
        .num("data.delivery_latency_mean_cycles",
             ratio(dataLatencySum, double(dataLatencyCount)))
        .num("data.fastpath_share",
             share(dataFastHits, dataFastHits + dataFastFallbacks))
        .num("mac.acquires", macAcquires)
        .num("mac.backoff_cycles", macBackoffCycles)
        .num("mac.retransmits", macRetransmits)
        .num("mac.useful_share", share(dataMessages, macAcquires));
    out.num("machine.build_ms", share(buildNs, builds) / 1e6)
        .num("machine.reset_ms", share(resetNs, reuses) / 1e6)
        .num("harness.builds", builds)
        .num("harness.reuses", reuses)
        .num("workload.run_ms", share(runNs, runs) / 1e6);
    out.num("daemon.request_ms", share(requestNs, requests) / 1e6)
        .num("codec.parse_us", share(parseNs, requests) / 1e3)
        .num("codec.serialize_us",
             share(serializeNs, serializedResults) / 1e3)
        .num("cache.hit_share", share(cacheHits, servicePoints))
        .num("cache.evictions", cacheEvictions)
        .num("store.bytes_appended", storeBytesAppended)
        .num("service.simulated_points", simulatedPoints);
}

} // namespace perfbench
