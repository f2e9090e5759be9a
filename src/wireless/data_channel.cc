#include "wireless/data_channel.hh"

#include <utility>

#include "sim/logging.hh"
#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

DataChannel::DataChannel(sim::Engine &engine, const WirelessConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    lossEnabled_ = cfg_.lossPct > 0.0 || cfg_.burst.lossy();
}

void
DataChannel::reset(const WirelessConfig &cfg)
{
    cfg_ = cfg;
    nextFree_ = 0;
    openSlot_ = sim::kCycleMax;
    slotAttempts_.clear();
    dropData_.clear();
    dropBulk_.clear();
    burstStates_.clear();
    lossEnabled_ = cfg_.lossPct > 0.0 || cfg_.burst.lossy();
    stats_.reset();
}

void
DataChannel::setDropTable(std::vector<double> data, std::vector<double> bulk)
{
    dropData_ = std::move(data);
    dropBulk_ = std::move(bulk);
    lossEnabled_ =
        cfg_.lossPct > 0.0 || !dropData_.empty() || cfg_.burst.lossy();
}

double
DataChannel::dropProbability(sim::NodeId src, bool bulk) const
{
    // The uniform knob and the SNR-derived per-link rate are
    // independent corruption sources; survival probabilities multiply.
    double ok = 1.0 - cfg_.lossPct / 100.0;
    const auto &table = bulk ? dropBulk_ : dropData_;
    if (src < table.size())
        ok *= 1.0 - table[src];
    const double per = 1.0 - ok;
    return per < 0.0 ? 0.0 : (per > 1.0 ? 1.0 : per);
}

double
DataChannel::burstDropProbability(sim::NodeId src, bool bulk, sim::Rng &rng)
{
    // The Gilbert–Elliott chain replaces the uniform lossPct knob: its
    // per-state rate IS the "interference" corruption source. The
    // SNR-derived per-link rate is still an independent source, so the
    // survival probabilities multiply exactly as in dropProbability().
    if (burstStates_.size() <= src)
        burstStates_.resize(src + 1);
    double ok = 1.0 - burstStates_[src].step(cfg_.burst, rng);
    const auto &table = bulk ? dropBulk_ : dropData_;
    if (src < table.size())
        ok *= 1.0 - table[src];
    const double per = 1.0 - ok;
    return per < 0.0 ? 0.0 : (per > 1.0 ? 1.0 : per);
}

namespace {

/** Route an outcome to whichever completion sink the Pending carries. */
void
complete(DataChannel::Pending *p, DataChannel::Outcome outcome)
{
    if (p->done != nullptr)
        p->done->set(outcome);
    else
        p->fast->complete(outcome);
}

} // namespace

void
DataChannel::joinSlot(Pending &p)
{
    WISYNC_ASSERT(engine_.now() >= nextFree_,
                  "joinSlot while the channel is busy");
    if (openSlot_ != engine_.now()) {
        openSlot_ = engine_.now();
        slotAttempts_.clear();
        // Arbitrate after every same-cycle attempt has registered.
        engine_.scheduleIn(0, [this] { arbitrate(); });
    }
    slotAttempts_.push_back(&p);
}

coro::Task<DataChannel::Outcome>
DataChannel::attempt(sim::NodeId src, bool bulk, sim::UniqueFunction &deliver,
                     const std::function<bool()> *abort, sim::Rng *rng)
{
    // A ready transceiver waits for the cycle the channel is next
    // expected to be free (§4.1); the horizon can move while waiting.
    while (engine_.now() < nextFree_)
        co_await coro::delay(engine_, nextFree_ - engine_.now());

    coro::Future<Outcome> done(engine_);
    Pending pending;
    pending.bulk = bulk;
    pending.deliver = &deliver;
    pending.abort = abort;
    pending.done = &done;
    pending.src = src;
    pending.rng = rng;
    joinSlot(pending);
    co_return co_await done;
}

void
DataChannel::arbitrate()
{
    // Double-buffer the attempt list (both vectors keep their
    // capacity) and compact the abort survivors in place, so steady-
    // state arbitration is allocation-free.
    arbScratch_.clear();
    arbScratch_.swap(slotAttempts_);
    openSlot_ = sim::kCycleMax;
    if (arbScratch_.empty())
        return;

    // AFB semantics: a transmission whose abort predicate holds when
    // the write is attempted never reaches the air.
    std::size_t live = 0;
    for (Pending *p : arbScratch_) {
        if (p->abort && (*p->abort)())
            complete(p, Outcome::Aborted);
        else
            arbScratch_[live++] = p;
    }
    arbScratch_.resize(live);
    if (arbScratch_.empty())
        return;

    if (arbScratch_.size() == 1) {
        Pending *p = arbScratch_.front();
        const std::uint32_t dur =
            p->bulk ? cfg_.bulkCycles : cfg_.dataCycles;
        nextFree_ = engine_.now() + dur;
        stats_.busyCycles.inc(dur);
        stats_.messages.inc();
        if (p->bulk)
            stats_.bulkMessages.inc();
        // Lossy channel: one Bernoulli draw from the transmitting
        // node's RNG stream decides whether the frame survives at
        // every receiver — a broadcast is all-or-nothing, so replicas
        // can never diverge. The slot is consumed either way; on a
        // drop no deliver runs and the sender learns of the loss when
        // its ack window expires. The ideal channel draws nothing.
        if (lossEnabled_ && p->rng != nullptr) {
            // Burst mode steps the transmitter's Gilbert–Elliott chain
            // first (one extra draw per transmission — deterministic,
            // from the same per-node stream), then performs the usual
            // drop Bernoulli against the composed probability.
            const double per =
                cfg_.burst.enabled
                    ? burstDropProbability(p->src, p->bulk, *p->rng)
                    : dropProbability(p->src, p->bulk);
            if (per > 0.0 && p->rng->chance(per)) {
                stats_.drops.inc();
                engine_.scheduleIn(
                    dur, [p] { complete(p, Outcome::Dropped); });
                return;
            }
        }
        // Delivery happens at the end of the transmission: the deliver
        // callback is the total-order commit point for BM updates.
        engine_.scheduleIn(dur, [p] {
            if (*p->deliver)
                (*p->deliver)();
            complete(p, Outcome::Delivered);
        });
        return;
    }

    // Two or more heads in the same slot: every transmitter aborts
    // after the listen cycle; the channel frees after 2 cycles. One
    // event per transmitter (rather than one owning the whole vector)
    // keeps each callback inside the event slot's inline buffer; the
    // per-attempt completion order matches the registration order.
    nextFree_ = engine_.now() + cfg_.collisionCycles;
    stats_.collisions.inc();
    stats_.busyCycles.inc(cfg_.collisionCycles);
    for (Pending *p : arbScratch_)
        engine_.scheduleIn(cfg_.collisionCycles,
                           [p] { complete(p, Outcome::Collided); });
}

Mac::Mac(sim::Engine &engine, DataChannel &channel, MacProtocol &protocol,
         sim::NodeId node, sim::Rng rng)
    : engine_(engine), channel_(channel), protocol_(&protocol),
      node_(node), rng_(rng), order_(engine)
{}

void
Mac::reset(MacProtocol &protocol, sim::Rng rng)
{
    protocol_ = &protocol;
    rng_ = rng;
    order_.reset();
    retries_.reset();
}

coro::Task<bool>
Mac::ackTimeoutRetry(std::uint32_t drops)
{
    const WirelessConfig &cfg = channel_.config();
    if (drops > cfg.maxRetries) {
        // The retry budget is spent: wait out the final ack window
        // (the sender cannot know the frame was lost any earlier),
        // then surface the typed failure instead of retransmitting.
        protocol_->noteAckTimeout(cfg.ackTimeoutCycles);
        co_await coro::delay(engine_, cfg.ackTimeoutCycles);
        protocol_->noteGiveUp();
        co_return false;
    }
    // Ack window plus bounded exponential spacing before the
    // retransmission. Deterministic (no RNG): the packet-error draws
    // already decorrelate senders, and a fixed schedule keeps the
    // lossPct = 0 contract trivially intact.
    const std::uint32_t exp = drops < cfg.retryBackoffMaxExp
                                  ? drops
                                  : cfg.retryBackoffMaxExp;
    const sim::Cycle wait =
        cfg.ackTimeoutCycles + (sim::Cycle{1} << exp);
    protocol_->noteAckTimeout(wait);
    co_await coro::delay(engine_, wait);
    protocol_->noteRetransmit();
    co_return true;
}

coro::Task<SendOutcome>
Mac::sendLoop(bool bulk, sim::UniqueFunction &deliver,
              const std::function<bool()> *abort,
              sim::Cycle first_attempt, std::uint32_t drops)
{
    for (;;) {
        co_await protocol_->acquire(node_);
        if (abort && (*abort)()) {
            // Cancelled before reaching the channel. The claim must
            // still be dropped: a granted token (or a fuzzy-token
            // contention grant picked up during the last collision)
            // would otherwise stall every queued sender.
            protocol_->release(node_, false);
            co_return SendOutcome::Aborted;
        }
        const auto outcome =
            co_await channel_.attempt(node_, bulk, deliver, abort, &rng_);
        if (outcome == DataChannel::Outcome::Collided) {
            // The protocol drops the claim, updates contention state
            // and performs this node's backoff; then contend again.
            retries_.inc();
            co_await protocol_->onCollision(node_, rng_);
            continue;
        }
        if (outcome == DataChannel::Outcome::Dropped) {
            // The channel lost the frame. The claim is released like
            // a delivered send (the token must pass on) and the ack
            // window / bounded-retry machinery decides what follows.
            protocol_->release(node_, false);
            ++drops;
            if (!co_await ackTimeoutRetry(drops))
                co_return SendOutcome::GaveUp;
            continue;
        }
        protocol_->release(node_,
                           outcome == DataChannel::Outcome::Delivered);
        if (outcome == DataChannel::Outcome::Delivered) {
            channel_.noteDelivery(first_attempt);
            co_return SendOutcome::Delivered;
        }
        co_return SendOutcome::Aborted;
    }
}

coro::Task<SendOutcome>
Mac::send(bool bulk, sim::UniqueFunction deliver,
          const std::function<bool()> *abort)
{
    // Uncontended fast path: the node has no broadcast in flight, the
    // channel is joinable this cycle and the MAC protocol can grant
    // without waiting — skip the acquire/attempt coroutine frames and
    // the outcome future; the slot protocol itself (registration,
    // arbitration event, collision detection) is shared with the slow
    // path, so mixed fast/slow slots arbitrate exactly as before.
    if (channel_.config().fastpath) {
        if (engine_.now() >= channel_.nextFree() && order_.tryLock()) {
            if (!protocol_->tryAcquire(node_)) {
                order_.unlock();
            } else {
                channel_.noteFastpathHit();
                const sim::Cycle first_attempt = engine_.now();
                if (abort && (*abort)()) {
                    // AFB abort before reaching the channel: drop the
                    // claim, zero suspensions — as the slow path's
                    // inline acquire/abort-check sequence would.
                    protocol_->release(node_, false);
                    order_.unlock();
                    co_return SendOutcome::Aborted;
                }
                DataChannel::FastAttempt fa(channel_, node_, bulk,
                                            &deliver, abort, &rng_);
                const auto outcome = co_await fa;
                if (outcome == DataChannel::Outcome::Dropped) {
                    // Lost on the air: same recovery sequence as the
                    // slow path's Dropped branch (release, ack
                    // window, recontend through the generic loop with
                    // the loss already counted), order_ still held.
                    protocol_->release(node_, false);
                    SendOutcome sent = SendOutcome::GaveUp;
                    if (co_await ackTimeoutRetry(1))
                        sent = co_await sendLoop(bulk, deliver, abort,
                                                 first_attempt, 1);
                    order_.unlock();
                    co_return sent;
                }
                if (outcome != DataChannel::Outcome::Collided) {
                    protocol_->release(
                        node_,
                        outcome == DataChannel::Outcome::Delivered);
                    if (outcome == DataChannel::Outcome::Delivered) {
                        channel_.noteDelivery(first_attempt);
                        order_.unlock();
                        co_return SendOutcome::Delivered;
                    }
                    order_.unlock();
                    co_return SendOutcome::Aborted;
                }
                // Collided: back off and fall into the generic retry
                // loop, order_ still held.
                retries_.inc();
                co_await protocol_->onCollision(node_, rng_);
                const auto sent =
                    co_await sendLoop(bulk, deliver, abort,
                                      first_attempt, 0);
                order_.unlock();
                co_return sent;
            }
        }
        channel_.noteFastpathFallback();
    }
    // A node's broadcasts are strictly ordered (§4.2.1: no subsequent
    // store proceeds until the current one performed).
    co_await order_.lock();
    const auto sent = co_await sendLoop(bulk, deliver, abort,
                                        engine_.now(), 0);
    order_.unlock();
    co_return sent;
}

} // namespace wisync::wireless
