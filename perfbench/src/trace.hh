/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into the
 * simulator, written out when the run ends.
 *
 * A span has a name, start and end (host ns since the tracer started),
 * the span that was open when it began (its parent), the operation it
 * belongs to (the request id; -1 for set-up) and an optional tag. A
 * disabled tracer records nothing and never reads the clock.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t parent;
        std::int64_t op;
        const char *tag;
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void tag(const char *tag);

      private:
        Tracer &tracer_;
        std::int32_t index_ = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Per span name: {"count", "total_ms", "self_ms"}, where self
     *  time is the span's duration minus its children's. */
    std::string summaryJson() const;

    /** Write every span as JSON to @p path. */
    bool write(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
