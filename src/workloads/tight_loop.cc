#include "workloads/tight_loop.hh"

#include <vector>

#include "core/machine.hh"
#include "sync/factory.hh"

namespace wisync::workloads {

namespace {

coro::Task<void>
tightLoopThread(core::ThreadCtx &ctx, sync::Barrier *barrier,
                sim::Addr array, const TightLoopParams *params)
{
    std::uint64_t local = 0;
    for (std::uint32_t it = 0; it < params->iterations; ++it) {
        // Sum the private 50-element array: sequential loads (L1 hits
        // after the first iteration) plus one add per element.
        for (std::uint32_t e = 0; e < params->arrayElems; ++e)
            local += co_await ctx.load(array + e * 8);
        co_await ctx.compute(params->arrayElems); // the adds
        co_await barrier->wait(ctx);
    }
    (void)local;
}

} // namespace

KernelResult
runTightLoop(core::ConfigKind kind, std::uint32_t cores,
             const TightLoopParams &params, core::Variant variant)
{
    return runTightLoopCfg(core::MachineConfig::make(kind, cores, variant),
                           params);
}

KernelResult
runTightLoopCfg(const core::MachineConfig &cfg,
                const TightLoopParams &params)
{
    core::Machine machine(cfg);
    return runTightLoopOn(machine, params);
}

KernelResult
runTightLoopOn(core::Machine &machine, const TightLoopParams &params)
{
    const std::uint32_t cores = machine.config().numCores;
    sync::SyncFactory factory(machine);

    std::vector<sim::NodeId> nodes;
    nodes.reserve(cores);
    for (sim::NodeId n = 0; n < cores; ++n)
        nodes.push_back(n);
    auto barrier = factory.makeBarrier(nodes);

    for (sim::NodeId n = 0; n < cores; ++n) {
        // A private array per thread, in its own region of memory.
        const sim::Addr array =
            machine.allocMem(std::uint64_t{params.arrayElems} * 8, 64);
        machine.spawnThread(n, [&barrier, array,
                                &params](core::ThreadCtx &ctx) {
            return tightLoopThread(ctx, barrier.get(), array, &params);
        });
    }

    KernelResult result;
    result.completed = machine.run(params.runLimit);
    result.cycles = machine.engine().now();
    result.operations = params.iterations;
    captureChannelStats(result, machine);
    return result;
}

} // namespace wisync::workloads
