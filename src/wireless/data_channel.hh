/**
 * @file
 * The shared wireless Data channel (paper §4.1).
 *
 * One 19 GHz-wide channel centred at 60 GHz, time-slotted in 1 ns
 * (= 1 cycle) slots. A 77-bit message (64-bit datum + 11-bit address +
 * Bulk bit + Tone bit) transfers in 5 cycles; cycle 2 is the collision
 * listen slot, so a collision costs only 2 cycles before the channel
 * frees. Bulk messages carry 4 words in 15 cycles (the 3 trailing
 * words skip the collision check and headers).
 *
 * Arbitration matches the paper: a transceiver that becomes ready
 * while the channel is busy waits until the cycle the channel is next
 * expected to be free and transmits then — so bursts of ready senders
 * collide, and the MAC protocol (wireless/mac/) resolves the
 * contention: exponential backoff (§5.3 BRS, the paper's scheme and
 * the default), token passing, a fuzzy-token hybrid, or adaptive
 * switching, selected by WirelessConfig::macKind.
 *
 * Every broadcast takes one send path: Mac::send's loop, which awaits
 * a frameless DataChannel::Attempt per slot. A send that finds its
 * order mutex free, the channel free and the protocol willing to grant
 * at once joins its first slot without suspending; the others wait on
 * the same loop and land at the same event-stream positions.
 *
 * The channel may be lossy. Its loss knobs, drop-rate step and retry
 * rule are the chip bridge's (LinkReliability, wireless/burst.hh): an
 * i.i.d. lossPct or a per-transmitter Gilbert–Elliott chain, composed
 * with the RF model's SNR drop table, decides each won slot by one
 * Bernoulli draw from the transmitter's RNG stream.
 */

#ifndef WISYNC_WIRELESS_DATA_CHANNEL_HH
#define WISYNC_WIRELESS_DATA_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/fields.hh"
#include "sim/function.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/burst.hh"
#include "wireless/mac/mac_kind.hh"

namespace wisync::wireless {

class MacProtocol;

/** Data-channel frame sizes (§4.1): a 77-bit message (64-bit datum +
 *  11-bit address + Bulk + Tone bits), and a Bulk frame carrying 3
 *  further words. Used to price frames in the RF channel model. */
constexpr std::uint32_t kDataFrameBits = 77;
constexpr std::uint32_t kBulkFrameBits = 77 + 3 * 64;

/** Wireless timing knobs (Table 1 defaults) + MAC selection. The
 *  loss knobs come from LinkReliability; with lossPct = 0, no burst
 *  chain and berFromSnr = false (the defaults) the channel is ideal:
 *  no RNG draws, no retry machinery, byte-identical event streams to
 *  a build without the loss layer. A give-up surfaces as
 *  SendOutcome::GaveUp. */
struct WirelessConfig : LinkReliability
{
    /** Cycles to transmit an ordinary 77-bit message. */
    std::uint32_t dataCycles = 5;
    /** Cycles to transmit a 4-word Bulk message. */
    std::uint32_t bulkCycles = 15;
    /** Channel-busy cycles consumed by a collision. */
    std::uint32_t collisionCycles = 2;

    /** Derive per-transmitter loss from the RF channel model
     *  (distance -> path loss -> SNR -> BER) on top of the lossPct or
     *  burst draw (BmSystem installs the drop table). */
    bool berFromSnr = false;
    /** Transmit power for the SNR -> BER derivation, dBm. */
    double txPowerDbm = 10.0;
    /** Per-frequency-channel loss profile: extra attenuation folded
     *  into every link of spectrum slot s, channelLossBaseDb +
     *  s * channelLossStepDb (carriers at different frequencies see
     *  different path loss). Applied through the RF channel model, so
     *  it requires berFromSnr; 0 keeps all slots identical. */
    double channelLossBaseDb = 0.0;
    double channelLossStepDb = 0.0;

    /** Multi-chip: spectrum slots the FrequencyPlan may hand out.
     *  Chips sharing a slot share one channel + MAC arbitration
     *  domain; with >= numChips slots every chip's channel is
     *  private. At least 1; ignored on single-chip machines. */
    std::uint32_t spectrumSlots = 4;

    /** Which MAC protocol arbitrates the channel (default: §5.3 BRS). */
    MacKind macKind = MacKind::Brs;
    /** BRS: maximum exponential-backoff exponent (window = 2^i - 1). */
    std::uint32_t maxBackoffExp = 10;
    /** Token/fuzzy: per-ring-hop token pass latency, cycles; 0 means
     *  "price it through the RF channel model" — a tokenFrameBits
     *  control frame at the WiSync transceiver's bandwidth, which is
     *  1 cycle at the defaults (the legacy constant). */
    std::uint32_t tokenPassCycles = 0;
    /** Token-family control frame size, bits (tokenPassCycles = 0). */
    std::uint32_t tokenFrameBits = 16;
    /** Token: minimum channel reservation per grant, cycles. */
    std::uint32_t tokenHoldCycles = 0;
    /** Adaptive: channel events per policy-observation window. */
    std::uint32_t adaptWindowEvents = 32;
    /** Adaptive: switch BRS->token at >= this collision percentage. */
    std::uint32_t adaptHiPct = 25;
    /** Adaptive: switch token->BRS at <= this token-wait percentage. */
    std::uint32_t adaptLoPct = 25;

    bool operator==(const WirelessConfig &) const = default;

    /** The field list (sim/fields.hh). Exponents are capped so every
     *  2^exp wait fits a cycle count. */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::kJson, sim::kNoFlags;
        v(field("dataCycles", self.dataCycles, 1, UINT32_MAX, kNoFlags));
        v(field("bulkCycles", self.bulkCycles, kNoFlags));
        v(field("collisionCycles", self.collisionCycles, kNoFlags));
        LinkReliability::visitFields(self, v);
        v(field("berFromSnr", self.berFromSnr, kJson));
        v(field("txPowerDbm", self.txPowerDbm, -100.0, 100.0, kJson));
        v(field("channelLossBaseDb", self.channelLossBaseDb, -200.0, 200.0,
                kJson));
        v(field("channelLossStepDb", self.channelLossStepDb, -200.0, 200.0,
                kJson));
        v(field("spectrumSlots", self.spectrumSlots, 1, UINT32_MAX, kJson));
        v(field("mac", self.macKind, MacKind::Brs, MacKind::Adaptive, kJson));
        v(field("maxBackoffExp", self.maxBackoffExp, 0, 32, kJson));
        v(field("tokenPassCycles", self.tokenPassCycles, kJson));
        v(field("tokenFrameBits", self.tokenFrameBits, kJson));
        v(field("tokenHoldCycles", self.tokenHoldCycles, kJson));
        v(field("adaptWindowEvents", self.adaptWindowEvents, kJson));
        v(field("adaptHiPct", self.adaptHiPct, 0, 100, kJson));
        v(field("adaptLoPct", self.adaptLoPct, 0, 100, kJson));
    }
};

/** Channel-level statistics. */
struct DataChannelStats
{
    sim::Counter messages;
    sim::Counter bulkMessages;
    sim::Counter collisions;
    /** Transmissions corrupted by the lossy channel model (the slot
     *  is consumed, no node delivers, the sender's ack times out). */
    sim::Counter drops;
    /** Cycles the channel spent transmitting or recovering. */
    sim::Counter busyCycles;
    /** Latency from first attempt to delivery, per message. */
    sim::Accumulator deliveryLatency;
    /** Sends whose first attempt joined a slot without suspending:
     *  order mutex free, channel free and tryAcquire granted. */
    sim::Counter fastpathHits;
    /** Sends that had to wait first (held order mutex, busy channel
     *  or a MAC protocol that cannot grant at once). */
    sim::Counter fastpathFallbacks;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The single shared Data channel.
 *
 * transmit() resolves when this sender's message has been delivered
 * to every node; the caller-provided deliver callback runs exactly at
 * the delivery instant (used by the BM layer to update all replicas
 * in one atomic simulation step, giving the chip-wide total order of
 * BM writes).
 */
class DataChannel
{
  public:
    DataChannel(sim::Engine &engine, const WirelessConfig &cfg);

    /** Outcome of one slot attempt. */
    enum class Outcome
    {
        Delivered,
        Collided,
        /** Abort predicate fired when the transmit slot was won. */
        Aborted,
        /** Won the slot but the lossy channel corrupted the frame:
         *  deliver never ran; the sender's ack window will expire. */
        Dropped,
    };

    /**
     * One slot attempt, awaited by Mac::send: contend for the slot
     * opening at now(), then either transmit fully (running @p deliver
     * at the delivery instant), collide, or abort (the @p abort
     * predicate, if set, is evaluated at arbitration time, i.e. "when
     * the write is attempted" — the paper's AFB semantics). Under a lossy
     * channel (@see lossy()) a won slot may instead be Dropped, decided
     * by one Bernoulli draw from @p rng — the transmitting node's
     * stream, so runs stay bit-reproducible. The MAC layers retries,
     * backoff and ack timeouts on top of this.
     *
     * Registers on construction, which is only legal once now() >=
     * nextFree(). It lives in the sender's frame, and so do the
     * callables @p deliver and @p abort refer to; the channel's
     * completion event resumes the sender through the ready ring.
     */
    class Attempt
    {
      public:
        Attempt(DataChannel &channel, sim::NodeId src, bool bulk,
                sim::FunctionRef<void()> deliver,
                sim::FunctionRef<bool()> abort, sim::Rng &rng)
            : engine_(channel.engine_), deliver_(deliver), abort_(abort),
              rng_(&rng), src_(src), bulk_(bulk)
        {
            channel.joinSlot(*this);
        }

        Attempt(const Attempt &) = delete;
        Attempt &operator=(const Attempt &) = delete;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) { caller_ = h; }
        Outcome await_resume() const noexcept { return outcome_; }

      private:
        friend class DataChannel;

        void
        complete(Outcome outcome)
        {
            outcome_ = outcome;
            engine_.resumeHandle(0, caller_);
        }

        sim::Engine &engine_;
        sim::FunctionRef<void()> deliver_;
        sim::FunctionRef<bool()> abort_;
        /** Transmitter's RNG stream for the packet-error draw; only
         *  consulted when the channel is lossy. */
        sim::Rng *rng_;
        /** Transmitting node (drop-table lookup under loss). */
        sim::NodeId src_;
        bool bulk_;
        Outcome outcome_ = Outcome::Collided;
        std::coroutine_handle<> caller_;
    };

    /** First cycle a new transmission may start. */
    sim::Cycle nextFree() const { return nextFree_; }

    /** Record a successful send that first contended at @p started. */
    void
    noteDelivery(sim::Cycle started)
    {
        stats_.deliveryLatency.sample(
            static_cast<double>(engine_.now() - started));
    }

    /** Fast-path telemetry hooks (driven by the Mac front-ends). */
    void noteFastpathHit() { stats_.fastpathHits.inc(); }
    void noteFastpathFallback() { stats_.fastpathFallbacks.inc(); }

    const DataChannelStats &stats() const { return stats_; }
    const WirelessConfig &config() const { return cfg_; }

    // ---- Lossy channel model --------------------------------------

    /**
     * Install per-transmitter broadcast packet-error rates derived
     * from the RF channel model (index = transmitting node; one table
     * per frame size). Combined independently with the uniform
     * lossPct; empty tables revert to lossPct alone. BmSystem owns
     * the RfChannelModel and calls this when berFromSnr is set.
     */
    void setDropTable(std::vector<double> data, std::vector<double> bulk);

    /** True when any transmission can be lost (a positive lossPct or
     *  an installed drop table). False costs nothing: zero RNG draws,
     *  an event stream identical to the pre-loss simulator. */
    bool lossy() const { return lossEnabled_; }

    /** Probability a broadcast from @p src fails to reach every node:
     *  the link-level @p link_rate (a LinkReliability::dropRate) and
     *  the SNR drop table are independent sources. */
    double dropProbability(sim::NodeId src, bool bulk,
                           double link_rate) const;

    /** The same under the i.i.d. model (lossPct x SNR drop table). */
    double
    dropProbability(sim::NodeId src, bool bulk) const
    {
        return dropProbability(src, bulk, cfg_.lossPct / 100.0);
    }

    /** The Gilbert–Elliott state of transmitter @p src (Good until its
     *  first burst-mode transmission). Test/introspection hook. */
    bool
    burstBad(sim::NodeId src) const
    {
        return src < burstStates_.size() && burstStates_[src].bad();
    }

    /** Utilisation bookkeeping: total busy cycles / elapsed cycles. */
    double
    utilisation() const
    {
        const auto now = engine_.now();
        return now == 0 ? 0.0
                        : static_cast<double>(stats_.busyCycles.value()) /
                              static_cast<double>(now);
    }

    /**
     * Idle channel, zero stats, optionally retimed via @p cfg. Pending
     * attempts must already be gone (the sender frames holding them
     * destroyed by the engine reset that precedes this in
     * Machine::reset).
     */
    void reset(const WirelessConfig &cfg);

  private:
    /** Register @p a in the slot opening at now() (first registrant
     *  schedules the arbitration event). now() >= nextFree_ required. */
    void joinSlot(Attempt &a);

    void arbitrate();

    sim::Engine &engine_;
    WirelessConfig cfg_;
    sim::Cycle nextFree_ = 0;
    /** Cycle of the slot currently collecting attempts (or kCycleMax). */
    sim::Cycle openSlot_ = sim::kCycleMax;
    std::vector<Attempt *> slotAttempts_;
    /** Double buffer for arbitrate(): both keep their capacity, so
     *  steady-state arbitration never touches the allocator. */
    std::vector<Attempt *> arbScratch_;
    /** Per-tx SNR-derived packet-error rates (empty: uniform only). */
    std::vector<double> dropData_;
    std::vector<double> dropBulk_;
    /** Per-transmitter Gilbert–Elliott states, grown on a lossy
     *  channel's first drop draw per transmitter; stepped only when
     *  cfg_.burst.enabled. */
    std::vector<BurstState> burstStates_;
    bool lossEnabled_ = false;
    DataChannelStats stats_;
};

/**
 * How one Mac::send ended. GaveUp is the typed delivery failure of
 * the reliability layer: the channel lost the frame maxRetries + 1
 * times and the sender stopped — the broadcast never happened (no
 * replica changed), and the caller must re-issue or abort (BmSystem
 * maps it onto the AFB/software-retry contract).
 */
enum class SendOutcome
{
    Delivered,
    /** AFB abort predicate fired; nothing was broadcast. */
    Aborted,
    /** Lossy channel: exceeded maxRetries; nothing was broadcast. */
    GaveUp,
};

/**
 * Per-node Medium Access front-end.
 *
 * Serializes the node's broadcasts (§4.2.1: no subsequent store
 * proceeds until the current one performed) and drives the channel's
 * shared MacProtocol through its acquire / release / onCollision
 * hooks; the protocol decides when this node may contend and how
 * collisions resolve (wireless/mac/).
 */
class Mac
{
  public:
    Mac(sim::Engine &engine, DataChannel &channel, MacProtocol &protocol,
        sim::NodeId node, sim::Rng rng);

    /**
     * Broadcast one message, retrying through collisions until it is
     * delivered. @p deliver runs at the delivery instant (total-order
     * commit point). @p abort, if set and returning true when a slot
     * is won, cancels the transmission (used for RMW atomicity
     * failure: the instruction "neither broadcasts its value nor
     * updates the local BM"). Both are borrowed until the returned
     * task completes: a lambda written in the `co_await send(...)`
     * full-expression lives exactly that long.
     *
     * Under a lossy channel each corrupted transmission costs an ack
     * timeout plus a bounded exponential backoff before the
     * retransmission; after maxRetries retransmissions the send
     * returns SendOutcome::GaveUp instead of hanging. On the ideal
     * channel the result is always Delivered or Aborted.
     *
     * One loop serves every send: take the order mutex, then per
     * attempt probe tryAcquire (else await acquire), check @p abort,
     * wait for nextFree() and await one Attempt. No step suspends when
     * it need not: an uncontended send runs no coroutine but its own
     * and costs three events (the slot's arbitration, its delivery and
     * the sender's resumption).
     */
    coro::Task<SendOutcome> send(bool bulk, sim::FunctionRef<void()> deliver,
                                 sim::FunctionRef<bool()> abort = {});

    sim::NodeId node() const { return node_; }
    std::uint64_t retries() const { return retries_.value(); }

    /**
     * Fresh RNG stream, rebound to @p protocol (which BmSystem::reset
     * may have rebuilt under a new MacKind); the order mutex is freed.
     */
    void reset(MacProtocol &protocol, sim::Rng rng);

  private:
    /**
     * The per-send ack window: transmission @p drops was corrupted,
     * so wait out the ack timeout (plus the bounded exponential
     * backoff when a retransmission follows;
     * LinkReliability::retryAfterDrop) and report whether the sender
     * may retry (false: maxRetries exhausted — give up).
     */
    coro::Task<bool> ackTimeoutRetry(std::uint32_t drops);

    sim::Engine &engine_;
    DataChannel &channel_;
    MacProtocol *protocol_;
    sim::NodeId node_;
    sim::Rng rng_;
    coro::SimMutex order_;
    sim::Counter retries_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_DATA_CHANNEL_HH
