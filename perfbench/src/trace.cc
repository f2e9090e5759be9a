#include "trace.hh"

#include <fstream>
#include <map>

#include "results.hh"

namespace perfbench {

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::int64_t op)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<std::int32_t>(tracer_.spans_.size());
    tracer_.spans_.push_back(
        Span{name, tracer_.nowNs(), 0, tracer_.open_, op, ""});
    tracer_.open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.endNs = tracer_.nowNs();
    tracer_.open_ = span.parent;
}

void
Tracer::Scope::tag(const char *tag)
{
    if (index_ >= 0)
        tracer_.spans_[static_cast<std::size_t>(index_)].tag = tag;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::string
Tracer::summaryJson() const
{
    struct Sum
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    std::map<std::string, Sum> sums;
    for (const Span &s : spans_) {
        Sum &sum = sums[s.name];
        ++sum.count;
        sum.totalNs += s.endNs - s.startNs;
        sum.selfNs += s.endNs - s.startNs;
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            sums[p.name].selfNs -= s.endNs - s.startNs;
        }
    }
    JsonObject out;
    for (const auto &[name, sum] : sums) {
        out.raw(name, JsonObject()
                          .num("count", sum.count)
                          .num("total_ms", double(sum.totalNs) / 1e6)
                          .num("self_ms", double(sum.selfNs) / 1e6)
                          .text());
    }
    return out.text();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n")
            << JsonObject()
                   .num("id", std::uint64_t(i))
                   .str("name", s.name)
                   .num("start_ns", double(s.startNs))
                   .num("end_ns", double(s.endNs))
                   .num("parent", double(s.parent))
                   .num("op", double(s.op))
                   .str("tag", s.tag)
                   .text();
    }
    out << "\n],\"summary\":" << summaryJson() << "}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
