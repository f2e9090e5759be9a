/**
 * @file
 * Spectrum slots for multi-chip wireless domains.
 *
 * Each chip's transceivers reach only their own die, so spatially
 * separate chips could share a frequency — but chips assigned the same
 * spectrum slot here are modelled conservatively as one arbitration
 * domain: they share a DataChannel and a MacProtocol instance, so
 * their transmissions contend (and collide) with each other, while
 * chips on different slots transmit concurrently. With at least as
 * many slots as chips (the default plan) every chip owns a private
 * channel and the plan is pure bookkeeping.
 *
 * The plan also defines the channel-local node numbering: a chip's
 * cores occupy one contiguous block per chip sharing the channel, in
 * chip order — which is what the per-transmitter drop tables and the
 * MAC protocols index by.
 */

#ifndef WISYNC_WIRELESS_FREQUENCY_PLAN_HH
#define WISYNC_WIRELESS_FREQUENCY_PLAN_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace wisync::wireless {

/** chip -> spectrum slot assignment (round-robin over the slots). */
class FrequencyPlan
{
  public:
    FrequencyPlan(std::uint32_t num_chips = 1,
                  std::uint32_t spectrum_slots = 4,
                  double loss_base_db = 0.0, double loss_step_db = 0.0)
        : numChips_(num_chips),
          channels_(spectrum_slots < numChips_ ? spectrum_slots : numChips_),
          lossBaseDb_(loss_base_db), lossStepDb_(loss_step_db)
    {
        WISYNC_ASSERT(num_chips >= 1, "a plan needs a chip");
        WISYNC_ASSERT(spectrum_slots >= 1, "a plan needs a spectrum slot");
    }

    std::uint32_t chips() const { return numChips_; }

    /** Distinct arbitration domains (= DataChannel instances). */
    std::uint32_t channels() const { return channels_; }

    /** The spectrum slot / channel @p chip transmits on. */
    std::uint32_t channelOf(std::uint32_t chip) const
    {
        return chip % channels_;
    }

    /** @p chip's position among the chips sharing its channel. */
    std::uint32_t chipIndexOnChannel(std::uint32_t chip) const
    {
        return chip / channels_;
    }

    /** How many chips share channel @p channel. */
    std::uint32_t chipsOnChannel(std::uint32_t channel) const
    {
        return (numChips_ - channel - 1) / channels_ + 1;
    }

    /** The chip at @p index on @p channel (inverse of the above). */
    std::uint32_t chipAt(std::uint32_t channel, std::uint32_t index) const
    {
        return channel + index * channels_;
    }

    /**
     * Extra link attenuation of spectrum slot @p channel, dB: carriers
     * at different frequencies see different path loss and dispersion
     * (Timoneda et al.), so each slot gets its own profile,
     * lossBaseDb + channel * lossStepDb. BmSystem folds this into the
     * RF attenuation matrix of every chip on the slot — the chips
     * sharing a slot (the far-apart pairs) share its physics. Both
     * knobs default to 0: identical slots, the pre-profile model.
     */
    double channelLossDb(std::uint32_t channel) const
    {
        return lossBaseDb_ + channel * lossStepDb_;
    }

    bool operator==(const FrequencyPlan &) const = default;

  private:
    std::uint32_t numChips_;
    std::uint32_t channels_;
    double lossBaseDb_ = 0.0;
    double lossStepDb_ = 0.0;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_FREQUENCY_PLAN_HH
