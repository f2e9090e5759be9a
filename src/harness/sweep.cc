#include "harness/sweep.hh"

#include <cstdlib>
#include <cstring>
#include <utility>

namespace wisync::harness {

bool
SweepHarness::reuseEnabled()
{
    static const bool enabled = [] {
        const char *v = std::getenv("WISYNC_NO_REUSE");
        return v == nullptr || std::strcmp(v, "0") == 0 || *v == '\0';
    }();
    return enabled;
}

std::size_t
SweepHarness::capacity()
{
    static const std::size_t cap = [] {
        const char *v = std::getenv("WISYNC_SWEEP_CACHE");
        if (v != nullptr && *v != '\0') {
            const long n = std::strtol(v, nullptr, 10);
            if (n > 0)
                return static_cast<std::size_t>(n);
        }
        return std::size_t{4};
    }();
    return cap;
}

core::Machine &
SweepHarness::acquire(const core::MachineConfig &cfg)
{
    if (reuseEnabled()) {
        for (std::size_t i = 0; i < machines_.size(); ++i) {
            if (machines_[i]->config().compatibleShape(cfg)) {
                // Move to the MRU end, reset, serve.
                auto m = std::move(machines_[i]);
                machines_.erase(machines_.begin() +
                                static_cast<std::ptrdiff_t>(i));
                m->reset(cfg);
                machines_.push_back(std::move(m));
                ++reuses_;
                return *machines_.back();
            }
        }
        // Evict least-recently-used shapes so their pages recycle into
        // the build below instead of staying pinned under dead tags.
        while (machines_.size() >= capacity())
            machines_.erase(machines_.begin());
    } else {
        // A/B mode: every sweep point pays the full build, matching
        // the pre-reuse behaviour (cache cleared so memory use stays
        // comparable to one machine per point).
        machines_.clear();
    }
    machines_.push_back(std::make_unique<core::Machine>(cfg));
    ++builds_;
    return *machines_.back();
}

void
SweepHarness::discard(const core::Machine &machine)
{
    std::erase_if(machines_, [&](const std::unique_ptr<core::Machine> &m) {
        return m.get() == &machine;
    });
}

void
SweepHarness::quiesce()
{
    for (auto &m : machines_)
        if (m->engine().liveRootCount() != 0)
            m->reset();
}

} // namespace wisync::harness
