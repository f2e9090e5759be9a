/**
 * @file
 * Deterministic two-state Gilbert–Elliott link model.
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
 * this simulator obeys.
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
 * The bounded-retry rule of both lossy links (the Data channel's Mac
 * and the chip bridge), after the @p drops-th loss charged to the
 * current budget: retransmit after the ack window plus
 * 2^min(drops, backoff_max_exp) cycles, or give up once drops exceeds
 * @p max_retries, waiting only the ack window (the sender cannot know
 * of the loss any earlier). Deterministic: the packet-error draws
 * already decorrelate senders.
 */
inline RetryStep
retryAfterDrop(std::uint32_t drops, sim::Cycle ack_timeout,
               std::uint32_t max_retries, std::uint32_t backoff_max_exp)
{
    if (drops > max_retries)
        return {ack_timeout, false};
    const std::uint32_t exp =
        drops < backoff_max_exp ? drops : backoff_max_exp;
    return {ack_timeout + (sim::Cycle{1} << exp), true};
}

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_BURST_HH
