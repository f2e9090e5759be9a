/**
 * @file
 * Multi-threaded sweep driver for figure regeneration.
 *
 * Every figure is a grid of *independent* simulations: (ConfigKind x
 * core count x workload parameters) points whose only shared state is
 * the table printed at the end. ParallelSweep lets a bench declare
 * that grid up front and fans it out over N host threads:
 *
 *   - each worker slot runs on a SweepHarness (machine cache) lent
 *     by the caller, so Machine reuse via reset() keeps working per
 *     worker. run() lends harnesses that live for that run only; a
 *     long-lived caller (SweepService) lends the same harnesses to
 *     every batch, so machines outlive the batch that built them;
 *   - points are block-distributed over per-worker job queues and
 *     idle workers steal from the tail of a victim's queue, so a grid
 *     of wildly uneven point costs (256-core points next to 16-core
 *     ones) still load-balances;
 *   - results are merged by point index, so the returned vector is in
 *     add() order regardless of completion order.
 *
 * Determinism contract: each point's simulation depends only on its
 * MachineConfig (fresh build and reset reuse are observationally
 * identical — tests/test_machine_reset.cc), so the merged results are
 * bit-identical for every thread count, worker assignment and
 * completion order. tests/test_parallel_sweep.cc locks this down,
 * including a forced straggler inversion.
 *
 * Results stream into the merge table as points complete (the merge
 * is by index, so streaming cannot reorder it): onPointComplete()
 * registers an observer called from the completing worker, and
 * WISYNC_SWEEP_PROGRESS=1 emits a stderr line per completed point —
 * both see completion order, while run()'s return stays in add()
 * order. A worker whose queue (and every victim's) has drained parks
 * on a condition variable until the grid finishes instead of exiting
 * through a scan race — with thousands-of-point grids this keeps idle
 * workers asleep, not rescanning.
 *
 * Lent machines cross threads between runs (slot k is a new thread
 * every run), but coroutine frames come from thread-local arenas. So
 * before a worker exits it destroys every machine whose body threw
 * and quiesces the rest (SweepHarness::quiesce): a machine that stops
 * with live roots is reset on the thread that allocated its frames.
 *
 * Thread count: WISYNC_SWEEP_THREADS, default = hardware concurrency;
 * 1 reproduces the serial path exactly (slot 0's harness on the
 * calling thread, no workers spawned).
 */

#ifndef WISYNC_HARNESS_PARALLEL_SWEEP_HH
#define WISYNC_HARNESS_PARALLEL_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::harness {

class SweepHarness;

/**
 * One grid point: the machine to prepare (built fresh or served by
 * reset from the worker's cache) and the workload to run on it.
 */
struct SweepPoint
{
    core::MachineConfig config;
    std::function<workloads::KernelResult(core::Machine &)> body;
};

/**
 * One point's outcome under the error-capturing run mode
 * (runCaptured): either a result (ok == true) or the typed per-point
 * failure that produced it (ok == false, result zero-initialized,
 * error holding the exception's what()). A long-lived sweep service
 * must answer "this one point failed" per point, not abandon a
 * thousand-point batch because one config livelocked.
 */
struct PointOutcome
{
    workloads::KernelResult result;
    bool ok = false;
    /** Empty when ok; the body exception's what() otherwise. */
    std::string error;
};

/** A declarative sweep grid plus the work-stealing driver over it. */
class ParallelSweep
{
  public:
    ParallelSweep() = default;

    /**
     * Append a point; @return its index — also its position in the
     * vector run() returns. @p body runs on a worker thread; anything
     * it captures must stay valid until run() returns and must not be
     * mutated by other points' bodies.
     */
    std::size_t add(core::MachineConfig config,
                    std::function<workloads::KernelResult(core::Machine &)>
                        body);

    std::size_t size() const { return points_.size(); }

    /**
     * Observe each point's result the moment it completes (before
     * run() returns the merged vector). Called in completion order —
     * indices arrive out of order on multi-worker runs — from the
     * completing worker's thread, serialized by an internal mutex.
     * The callback must not touch the sweep itself.
     */
    void
    onPointComplete(
        std::function<void(std::size_t index,
                           const workloads::KernelResult &result)> fn)
    {
        onPoint_ = std::move(fn);
    }

    /**
     * As onPointComplete, but observing the full PointOutcome —
     * including captured per-point failures under runCaptured(),
     * which onPointComplete never sees (it only streams successful
     * results). Same threading contract: completion order, completing
     * worker's thread, serialized with onPointComplete by the same
     * internal mutex.
     */
    void
    onOutcomeComplete(
        std::function<void(std::size_t index, const PointOutcome &outcome)>
            fn)
    {
        onOutcome_ = std::move(fn);
    }

    /** WISYNC_SWEEP_PROGRESS=1: stderr line per completed point. */
    static bool progressEnabled();

    /**
     * Run every point on @p threads workers (clamped to the grid
     * size) and return the results in add() order. The grid is left
     * intact, so the same sweep can be re-run — tests use that for
     * cross-thread-count comparisons.
     *
     * A throwing point body is batch-fatal: the first exception stops
     * every worker before its next point and is rethrown here — the
     * right behavior for benches, where a failing point means the
     * whole figure is wrong. Service front-ends use runCaptured().
     */
    std::vector<workloads::KernelResult> run(unsigned threads);

    /** run(threads()) — the environment-selected width. */
    std::vector<workloads::KernelResult> run();

    /**
     * As run(), but a throwing point body is captured as a typed
     * per-point error in the merged outcomes instead of stopping the
     * batch: the worker records what(), marks the point failed and
     * moves on to its next job. Successful points are bit-identical
     * to what run() would have produced — capture changes error
     * routing only, never simulation. Observer (onPointComplete)
     * exceptions remain batch-fatal in both modes: the observer is
     * harness code, not a sweep point.
     */
    std::vector<PointOutcome> runCaptured(unsigned threads);

    /** runCaptured(threads()) — the environment-selected width. */
    std::vector<PointOutcome> runCaptured();

    /**
     * runCaptured() on machines lent by the caller: worker slot k
     * acquires from @p machines[k] (the vector grows to the worker
     * count), so machines kept from earlier runs are served by reset.
     * On return every machine in @p machines is quiesced.
     */
    std::vector<PointOutcome> runCaptured(unsigned threads,
                                          std::vector<SweepHarness> &machines);

    /** WISYNC_SWEEP_THREADS, default hardware concurrency (min 1). */
    static unsigned threads();

  private:
    /** Shared driver behind run()/runCaptured(); see their docs. */
    std::vector<PointOutcome> execute(unsigned threads, bool capture,
                                      std::vector<SweepHarness> &machines);

    std::vector<SweepPoint> points_;
    std::function<void(std::size_t, const workloads::KernelResult &)>
        onPoint_;
    std::function<void(std::size_t, const PointOutcome &)> onOutcome_;
};

} // namespace wisync::harness

#endif // WISYNC_HARNESS_PARALLEL_SWEEP_HH
