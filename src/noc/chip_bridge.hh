/**
 * @file
 * The inter-chip bridge: a serialized broadcast link between chips.
 *
 * Multi-chip machines commit every global-scope BM broadcast on the
 * transmitting chip first; the bridge then carries the update to the
 * other chips' replica groups. The model is a single shared broadcast
 * medium (a package-level waveguide / interposer bus): frames
 * serialize in FIFO order at a configurable width — serialization IS
 * the bridge's MAC, there is no contention loss — and each frame lands
 * on the remote chips one propagation latency after its last flit
 * leaves. The caller's delivery callback is an engine event that runs
 * at the arrival instant, so the BM layer can apply the update and
 * fire AFB aborts in one atomic simulation step, exactly like a
 * Data-channel delivery.
 *
 * The link may be lossy: a package-level waveguide fails in bursts
 * (reflections / thermal episodes, Bandara et al.). The loss knobs,
 * the drop draw and the retry rule are the Data channel's
 * (wireless::LinkReliability, burst.hh): a single Gilbert–Elliott
 * chain over the shared medium (or an i.i.d. lossPct), stepped once
 * per serialization from the bridge's own forked RNG stream. A dropped
 * frame costs its serialization cycles plus an ack window, then
 * retransmits with bounded exponential spacing. After maxRetries the
 * bridge gives up AND immediately re-issues the frame with a fresh
 * retry budget: a global BM update is never silently lost (the version
 * clocks make an arbitrarily late arrival safe — stale cross-chip
 * RMWs still abort via AFB). The ideal link (the default) draws
 * nothing and is byte-identical to the pre-loss bridge.
 */

#ifndef WISYNC_NOC_CHIP_BRIDGE_HH
#define WISYNC_NOC_CHIP_BRIDGE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/fields.hh"
#include "sim/function.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/burst.hh"

namespace wisync::noc {

/** Bridge link knobs; the loss knobs (defaults: the ideal bridge)
 *  come from LinkReliability. A give-up re-issues the frame with a
 *  fresh budget instead of dropping it. */
struct BridgeConfig : wireless::LinkReliability
{
    /** Propagation latency, last flit out -> remote delivery, cycles. */
    sim::Cycle latencyCycles = 24;
    /** Serialization width: payload bits accepted per cycle. */
    std::uint32_t widthBits = 64;
    /** Fixed per-frame header (routing + word address + version). */
    std::uint32_t headerBits = 32;

    bool operator==(const BridgeConfig &) const = default;

    /** The field list (sim/fields.hh). The caps keep frame bit counts
     *  in 32 bits and every wait in a cycle count. */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::kJson;
        v(field("latencyCycles", self.latencyCycles, 0, 1ull << 32, kJson));
        v(field("widthBits", self.widthBits, 1, 65536, kJson));
        v(field("headerBits", self.headerBits, 0, 65536, kJson));
        LinkReliability::visitFields(self, v);
    }
};

/** Bridge statistics. */
struct BridgeStats
{
    sim::Counter frames;
    sim::Counter busyCycles;
    /** Cycles frames waited for the serializer behind earlier frames. */
    sim::Counter queueWaitCycles;
    /** Serializations corrupted by the lossy link. */
    sim::Counter drops;
    /** Ack windows expired (one per drop). */
    sim::Counter ackTimeouts;
    /** Retransmissions within a frame's retry budget. */
    sim::Counter retransmits;
    /** Retry budgets exhausted (each one triggers a re-issue). */
    sim::Counter giveUps;
    /** Frames re-issued with a fresh budget after a give-up. */
    sim::Counter reissues;

    void reset() { *this = {}; }
};

/** The shared inter-chip broadcast link (see file comment). */
class ChipBridge
{
  public:
    ChipBridge(sim::Engine &engine, const BridgeConfig &cfg)
        : engine_(engine), cfg_(cfg)
    {}

    /**
     * Ship a frame of @p payload_bits. Serialization starts when the
     * link frees (FIFO); @p deliver runs at the remote arrival
     * instant. Fire-and-forget: the sender does not wait (the BM
     * store already committed locally; WCB semantics are chip-local).
     * On a lossy link delivery may come arbitrarily later (retries /
     * re-issues), but it always comes: no frame is silently lost.
     */
    void
    post(std::uint32_t payload_bits, sim::EventFn deliver)
    {
        stats_.frames.inc();
        const std::uint32_t bits = cfg_.headerBits + payload_bits;
        if (!lossy()) {
            // The ideal link: exactly the pre-loss event stream — one
            // serialization, one delivery event, zero RNG draws.
            serialize(bits);
            scheduleDelivery(std::move(deliver));
            return;
        }
        InFlight *f = acquireInFlight();
        f->bits = bits;
        f->drops = 0;
        f->deliver = std::move(deliver);
        attempt(f);
    }

    /** First cycle a new frame could start serializing. */
    sim::Cycle nextFree() const { return nextFree_; }

    /** True when any frame can be corrupted. False costs nothing:
     *  zero RNG draws, the pre-loss event stream. */
    bool lossy() const { return cfg_.lossy(); }

    /** The bridge's private RNG stream for the loss draws. BmSystem
     *  forks it from the machine seed after the per-node Mac streams
     *  (construction and every reset), so single-chip machines and
     *  ideal bridges never perturb any other component's draws. A
     *  lossy bridge must be given a stream before the first post(). */
    void setRng(sim::Rng rng) { rng_ = rng; }

    /** The Gilbert–Elliott state of the link (test/introspection). */
    bool burstBad() const { return burstState_.bad(); }

    /**
     * Drop-accounting invariant of the reliability layer: every drop
     * costs exactly one ack window and resolves to a retransmission
     * or a give-up. Holds whenever the link is quiescent (all posted
     * frames delivered) — assert it at end of run.
     */
    bool
    dropAccountingConsistent() const
    {
        return stats_.drops.value() == stats_.ackTimeouts.value() &&
               stats_.drops.value() ==
                   stats_.retransmits.value() + stats_.giveUps.value() &&
               stats_.giveUps.value() == stats_.reissues.value();
    }

    const BridgeStats &stats() const { return stats_; }
    const BridgeConfig &config() const { return cfg_; }

    /** Idle link, zero stats, optionally retimed. In-flight frames
     *  must already be gone (the engine reset dropped their events);
     *  their buffers return to the pool here. */
    void
    reset(const BridgeConfig &cfg)
    {
        cfg_ = cfg;
        nextFree_ = 0;
        stats_.reset();
        burstState_.reset();
        free_.clear();
        for (auto &f : pool_) {
            f->deliver = {};
            free_.push_back(f.get());
        }
    }

  private:
    /** One frame of a lossy link awaiting a surviving serialization.
     *  Pooled: steady-state posts reuse recycled buffers, and every
     *  retry event of a frame carries only `[this, f]`. */
    struct InFlight
    {
        std::uint32_t bits = 0;
        /** Drops charged against the current retry budget. */
        std::uint32_t drops = 0;
        /** The scheduled step after a drop retransmits (else the
         *  budget is spent and the frame is re-issued). */
        bool retry = false;
        sim::EventFn deliver;
    };

    /**
     * One serialization attempt of @p f: occupy the link FIFO slot,
     * then draw the loss Bernoulli. A drop schedules the next attempt
     * after the ack window (+ bounded exponential backoff within the
     * budget; a give-up re-issues with a fresh budget instead of
     * losing the frame); a survival schedules the remote delivery and
     * recycles the buffer.
     */
    void
    attempt(InFlight *f)
    {
        serialize(f->bits);
        const double per = cfg_.dropRate(burstState_, rng_);
        if (per > 0.0 && rng_.chance(per)) {
            stats_.drops.inc();
            stats_.ackTimeouts.inc();
            const wireless::RetryStep step = cfg_.retryAfterDrop(++f->drops);
            f->retry = step.retry;
            engine_.schedule(nextFree_ + step.wait, [this, f] {
                if (!f->retry) {
                    // Budget spent — but a global BM update must not
                    // vanish, so the frame re-enters with a fresh
                    // budget (the degradation mirror of BmSystem's
                    // GaveUp re-issue path).
                    stats_.giveUps.inc();
                    stats_.reissues.inc();
                    f->drops = 0;
                } else {
                    stats_.retransmits.inc();
                }
                attempt(f);
            });
            return;
        }
        scheduleDelivery(std::move(f->deliver));
        free_.push_back(f);
    }

    /** Occupy the link FIFO for one serialization of @p bits. */
    void
    serialize(std::uint32_t bits)
    {
        const sim::Cycle ser = (bits + cfg_.widthBits - 1) / cfg_.widthBits;
        const sim::Cycle now = engine_.now();
        const sim::Cycle start = nextFree_ > now ? nextFree_ : now;
        stats_.busyCycles.inc(ser);
        stats_.queueWaitCycles.inc(start - now);
        nextFree_ = start + ser;
    }

    /** Run @p deliver at the remote arrival of the serialization that
     *  just ended: the callback is the delivery event itself. */
    void
    scheduleDelivery(sim::EventFn deliver)
    {
        engine_.schedule(nextFree_ + cfg_.latencyCycles, std::move(deliver));
    }

    InFlight *
    acquireInFlight()
    {
        if (free_.empty()) {
            pool_.push_back(std::make_unique<InFlight>());
            return pool_.back().get();
        }
        InFlight *f = free_.back();
        free_.pop_back();
        return f;
    }

    sim::Engine &engine_;
    BridgeConfig cfg_;
    sim::Cycle nextFree_ = 0;
    BridgeStats stats_;
    /** Loss-draw stream (setRng); untouched on an ideal link. */
    sim::Rng rng_;
    /** The shared medium's Gilbert–Elliott state (one per link). */
    wireless::BurstState burstState_;
    /** InFlight buffers, owned here and recycled through free_. */
    std::vector<std::unique_ptr<InFlight>> pool_;
    std::vector<InFlight *> free_;
};

} // namespace wisync::noc

#endif // WISYNC_NOC_CHIP_BRIDGE_HH
