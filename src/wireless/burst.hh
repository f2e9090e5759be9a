/**
 * @file
 * The lossy-link layer shared by the Data channel and the chip
 * bridge: a deterministic two-state Gilbert–Elliott loss model, and
 * LinkReliability, the loss knobs, drop-rate step and bounded-retry
 * rule both links draw through.
 *
 * Real in-package channels do not fail i.i.d.: interference and
 * resonance episodes corrupt several consecutive frames, then clear
 * (Timoneda et al., "Engineer the Channel and Adapt to it"). The
 * classic abstraction is a two-state Markov chain — a Good state with
 * a low error rate and a Bad state with a high one — whose sojourn
 * times set the burst length. Bursts stress the reliability layer very
 * differently from i.i.d. loss at the same mean: consecutive drops
 * walk the bounded exponential backoff up instead of resampling it.
 *
 * The chain is stepped once per transmission, drawing ONLY from the
 * transmitter's existing RNG stream (DataChannel) or the link's own
 * forked stream (ChipBridge), so replay stays exact and a disabled
 * chain draws nothing — the byte-identity contract every "off" knob in
 * this simulator obeys. WirelessConfig and BridgeConfig each derive
 * from LinkReliability, so every loss knob is declared once and keeps
 * its JSON key under both "wireless" and "bridge".
 */

#ifndef WISYNC_WIRELESS_BURST_HH
#define WISYNC_WIRELESS_BURST_HH

#include "sim/fields.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wisync::wireless {

/**
 * Gilbert–Elliott parameters. The defaults keep the chain disabled
 * (and even enabled they describe a loss-free link): per-state error
 * rates in percent plus per-transmission transition probabilities.
 */
struct BurstParams
{
    /** Master gate: false means no chain state, no RNG draws. */
    bool enabled = false;
    /** Drop probability while in the Good state, percent. */
    double goodLossPct = 0.0;
    /** Drop probability while in the Bad state, percent. */
    double badLossPct = 100.0;
    /** Per-transmission probability of entering the Bad state. */
    double pGoodToBad = 0.0;
    /** Per-transmission probability of leaving the Bad state (the
     *  mean burst length is 1 / pBadToGood transmissions). */
    double pBadToGood = 0.5;

    /** True when an enabled chain can actually drop a frame. */
    bool
    lossy() const
    {
        return enabled &&
               (goodLossPct > 0.0 ||
                (badLossPct > 0.0 && pGoodToBad > 0.0));
    }

    /** Stationary fraction of transmissions spent in the Bad state. */
    double
    badFraction() const
    {
        const double denom = pGoodToBad + pBadToGood;
        return denom <= 0.0 ? 0.0 : pGoodToBad / denom;
    }

    /** Long-run mean loss, percent — the number to match against an
     *  i.i.d. lossPct for equal-average-loss comparisons. */
    double
    meanLossPct() const
    {
        const double bad = badFraction();
        return goodLossPct * (1.0 - bad) + badLossPct * bad;
    }

    /**
     * The canonical equal-mean parametrization: a clean Good state, a
     * fully-corrupting Bad state, mean burst length @p avg_burst_len
     * transmissions and long-run loss @p mean_loss_pct. With
     * avg_burst_len = 1 the chain degenerates to an i.i.d. draw at the
     * same rate, which is what makes the sensitivity axis comparable.
     */
    static BurstParams
    fromMean(double mean_loss_pct, double avg_burst_len)
    {
        BurstParams p;
        p.enabled = true;
        p.goodLossPct = 0.0;
        p.badLossPct = 100.0;
        p.pBadToGood = avg_burst_len < 1.0 ? 1.0 : 1.0 / avg_burst_len;
        const double bad = mean_loss_pct / 100.0;
        // badFraction() == bad  <=>  pGB = pBG * bad / (1 - bad).
        p.pGoodToBad =
            bad >= 1.0 ? 1.0 : p.pBadToGood * bad / (1.0 - bad);
        return p;
    }

    bool operator==(const BurstParams &) const = default;

    /** The field list (sim/fields.hh). */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::kJson;
        v(field("enabled", self.enabled, kJson));
        v(field("goodLossPct", self.goodLossPct, 0.0, 100.0, kJson));
        v(field("badLossPct", self.badLossPct, 0.0, 100.0, kJson));
        v(field("pGoodToBad", self.pGoodToBad, 0.0, 1.0, kJson));
        v(field("pBadToGood", self.pBadToGood, 0.0, 1.0, kJson));
    }
};

/** Runtime chain state for one link/transmitter. Starts Good. */
class BurstState
{
  public:
    bool bad() const { return bad_; }

    void reset() { bad_ = false; }

    /**
     * Advance the chain one transmission — exactly one draw from
     * @p rng — and return this transmission's drop probability as a
     * fraction in [0, 1]. The caller performs the drop Bernoulli
     * itself (composing with other corruption sources first).
     */
    double
    step(const BurstParams &p, sim::Rng &rng)
    {
        const double u = rng.uniform();
        if (bad_)
            bad_ = !(u < p.pBadToGood);
        else
            bad_ = u < p.pGoodToBad;
        return (bad_ ? p.badLossPct : p.goodLossPct) / 100.0;
    }

  private:
    bool bad_ = false;
};

/** What a lossy link does after a lost transmission. */
struct RetryStep
{
    /** Cycles from the end of the lost transmission to the next step. */
    sim::Cycle wait;
    /** True: retransmit after the wait. False: the retry budget is
     *  spent and the sender gives up once the ack window expires. */
    bool retry;
};

/**
 * The reliability layer of both lossy links, the Data channel and the
 * chip bridge: the loss knobs (defaults: the ideal link), the
 * per-transmission drop rate and the bounded-retry rule. Each link
 * config derives from it and splices visitFields() into its own list.
 */
struct LinkReliability
{
    /** i.i.d. probability, percent, that a transmission is corrupted
     *  and must be retransmitted. */
    double lossPct = 0.0;
    /** Correlated loss: a Gilbert–Elliott chain replaces the i.i.d.
     *  draw when enabled. Disabled (the default) draws nothing. */
    BurstParams burst;
    /** Cycles the sender waits for the missing ack before declaring a
     *  transmission lost. */
    sim::Cycle ackTimeoutCycles = 4;
    /** Retransmissions per budget before the sender gives up (the
     *  Mac surfaces SendOutcome::GaveUp; the bridge re-issues). */
    std::uint32_t maxRetries = 8;
    /** Cap on the bounded exponential retransmission backoff: the
     *  i-th retry waits min(2^i, 2^retryBackoffMaxExp) extra cycles. */
    std::uint32_t retryBackoffMaxExp = 6;

    bool operator==(const LinkReliability &) const = default;

    /** True when the link can drop a frame. False costs nothing: zero
     *  RNG draws, the event stream of a link without this layer. */
    bool lossy() const { return lossPct > 0.0 || burst.lossy(); }

    /**
     * This transmission's link-level drop probability, a fraction in
     * [0, 1]: the i.i.d. rate without a draw, or one step of the
     * Gilbert–Elliott chain @p state (exactly one draw from @p rng).
     */
    double
    dropRate(BurstState &state, sim::Rng &rng) const
    {
        return burst.enabled ? state.step(burst, rng) : lossPct / 100.0;
    }

    /**
     * The bounded-retry rule, after the @p drops-th loss charged to the
     * current budget: retransmit after the ack window plus
     * 2^min(drops, retryBackoffMaxExp) cycles, or give up once drops
     * exceeds maxRetries, waiting only the ack window (the sender
     * cannot know of the loss any earlier). Deterministic: the
     * packet-error draws already decorrelate senders.
     */
    RetryStep
    retryAfterDrop(std::uint32_t drops) const
    {
        if (drops > maxRetries)
            return {ackTimeoutCycles, false};
        const std::uint32_t exp =
            drops < retryBackoffMaxExp ? drops : retryBackoffMaxExp;
        return {ackTimeoutCycles + (sim::Cycle{1} << exp), true};
    }

    /** The field list (sim/fields.hh), spliced into each link's own.
     *  The caps keep every wait in a cycle count. */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::group, sim::kJson;
        v(field("lossPct", self.lossPct, 0.0, 100.0, kJson));
        v(group("burst", self.burst, kJson));
        v(field("ackTimeoutCycles", self.ackTimeoutCycles, 0, 1ull << 32,
                kJson));
        v(field("maxRetries", self.maxRetries, kJson));
        v(field("retryBackoffMaxExp", self.retryBackoffMaxExp, 0, 32, kJson));
    }
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_BURST_HH
