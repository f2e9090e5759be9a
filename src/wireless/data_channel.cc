#include "wireless/data_channel.hh"

#include <utility>

#include "sim/logging.hh"
#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

DataChannel::DataChannel(sim::Engine &engine, const WirelessConfig &cfg)
    : engine_(engine), cfg_(cfg), lossEnabled_(cfg_.lossy())
{}

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
    lossEnabled_ = cfg_.lossy();
    stats_.reset();
}

void
DataChannel::setDropTable(std::vector<double> data, std::vector<double> bulk)
{
    dropData_ = std::move(data);
    dropBulk_ = std::move(bulk);
    lossEnabled_ = cfg_.lossy() || !dropData_.empty();
}

double
DataChannel::dropProbability(sim::NodeId src, bool bulk,
                             double link_rate) const
{
    // The link-level rate (i.i.d. lossPct or the Gilbert–Elliott
    // state's) and the SNR-derived per-link rate are independent
    // corruption sources; survival probabilities multiply.
    double ok = 1.0 - link_rate;
    const auto &table = bulk ? dropBulk_ : dropData_;
    if (src < table.size())
        ok *= 1.0 - table[src];
    const double per = 1.0 - ok;
    return per < 0.0 ? 0.0 : (per > 1.0 ? 1.0 : per);
}

void
DataChannel::joinSlot(Attempt &a)
{
    WISYNC_ASSERT(engine_.now() >= nextFree_,
                  "joinSlot while the channel is busy");
    if (openSlot_ != engine_.now()) {
        openSlot_ = engine_.now();
        slotAttempts_.clear();
        // Arbitrate after every same-cycle attempt has registered.
        engine_.scheduleIn(0, [this] { arbitrate(); });
    }
    slotAttempts_.push_back(&a);
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
    for (Attempt *a : arbScratch_) {
        if (a->abort_ && a->abort_())
            a->complete(Outcome::Aborted);
        else
            arbScratch_[live++] = a;
    }
    arbScratch_.resize(live);
    if (arbScratch_.empty())
        return;

    if (arbScratch_.size() == 1) {
        Attempt *a = arbScratch_.front();
        const std::uint32_t dur =
            a->bulk_ ? cfg_.bulkCycles : cfg_.dataCycles;
        nextFree_ = engine_.now() + dur;
        stats_.busyCycles.inc(dur);
        stats_.messages.inc();
        if (a->bulk_)
            stats_.bulkMessages.inc();
        // Lossy channel: one Bernoulli draw from the transmitting
        // node's RNG stream decides whether the frame survives at
        // every receiver — a broadcast is all-or-nothing, so replicas
        // can never diverge. The slot is consumed either way; on a
        // drop no deliver runs and the sender learns of the loss when
        // its ack window expires. The ideal channel draws nothing.
        if (lossEnabled_) {
            // Burst mode steps the transmitter's Gilbert–Elliott chain
            // first (one extra draw per transmission — deterministic,
            // from the same per-node stream), then performs the usual
            // drop Bernoulli against the composed probability.
            if (burstStates_.size() <= a->src_)
                burstStates_.resize(a->src_ + 1);
            const double per = dropProbability(
                a->src_, a->bulk_,
                cfg_.dropRate(burstStates_[a->src_], *a->rng_));
            if (per > 0.0 && a->rng_->chance(per)) {
                stats_.drops.inc();
                engine_.scheduleIn(
                    dur, [a] { a->complete(Outcome::Dropped); });
                return;
            }
        }
        // Delivery happens at the end of the transmission: the deliver
        // callback is the total-order commit point for BM updates.
        engine_.scheduleIn(dur, [a] {
            a->deliver_();
            a->complete(Outcome::Delivered);
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
    for (Attempt *a : arbScratch_)
        engine_.scheduleIn(cfg_.collisionCycles,
                           [a] { a->complete(Outcome::Collided); });
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
    const RetryStep step = channel_.config().retryAfterDrop(drops);
    protocol_->noteAckTimeout(step.wait);
    co_await coro::delay(engine_, step.wait);
    if (step.retry)
        protocol_->noteRetransmit();
    else
        protocol_->noteGiveUp(); // the caller surfaces GaveUp
    co_return step.retry;
}

coro::Task<SendOutcome>
Mac::send(bool bulk, sim::FunctionRef<void()> deliver,
          sim::FunctionRef<bool()> abort)
{
    // A node's broadcasts are strictly ordered (§4.2.1: no subsequent
    // store proceeds until the current one performed). A send that
    // takes the order mutex, finds the channel free and is granted at
    // once joins its first slot without suspending (a fast-path hit).
    const bool ordered = order_.tryLock();
    bool granted = ordered && protocol_->tryAcquire(node_);
    if (granted && engine_.now() >= channel_.nextFree())
        channel_.noteFastpathHit();
    else
        channel_.noteFastpathFallback();
    if (!ordered)
        co_await order_.lock();
    const sim::Cycle first_attempt = engine_.now();
    std::uint32_t drops = 0;
    SendOutcome sent;
    for (;;) {
        // tryAcquire grants only where that is side-effect-identical
        // to an acquire() that never waits.
        if (!granted && !protocol_->tryAcquire(node_))
            co_await protocol_->acquire(node_);
        granted = false;
        if (abort && abort()) {
            // Cancelled before reaching the channel. The claim must
            // still be dropped: a granted token (or a fuzzy-token
            // contention grant picked up during the last collision)
            // would otherwise stall every queued sender.
            protocol_->release(node_, false);
            sent = SendOutcome::Aborted;
            break;
        }
        // A ready transceiver waits for the cycle the channel is next
        // expected to be free (§4.1); the horizon can move while
        // waiting.
        while (engine_.now() < channel_.nextFree())
            co_await coro::delay(engine_,
                                 channel_.nextFree() - engine_.now());
        const auto outcome = co_await DataChannel::Attempt(
            channel_, node_, bulk, deliver, abort, rng_);
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
            if (co_await ackTimeoutRetry(drops))
                continue;
            sent = SendOutcome::GaveUp;
            break;
        }
        const bool delivered = outcome == DataChannel::Outcome::Delivered;
        protocol_->release(node_, delivered);
        if (delivered)
            channel_.noteDelivery(first_attempt);
        sent = delivered ? SendOutcome::Delivered : SendOutcome::Aborted;
        break;
    }
    order_.unlock();
    co_return sent;
}

} // namespace wisync::wireless
