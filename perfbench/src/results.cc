#include "results.hh"

#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "service/config_codec.hh"

namespace perfbench {

namespace {

using workloads::KernelResult;

/** The u64 fields of serializeResult's block, by name. */
struct U64Field
{
    const char *name;
    std::uint64_t KernelResult::*member;
};

constexpr std::array<U64Field, 18> kU64Fields = {{
    {"cycles", &KernelResult::cycles},
    {"operations", &KernelResult::operations},
    {"collisions", &KernelResult::collisions},
    {"macBackoffCycles", &KernelResult::macBackoffCycles},
    {"macTokenWaits", &KernelResult::macTokenWaits},
    {"macTokenRotations", &KernelResult::macTokenRotations},
    {"macModeSwitches", &KernelResult::macModeSwitches},
    {"wirelessDrops", &KernelResult::wirelessDrops},
    {"macAckTimeouts", &KernelResult::macAckTimeouts},
    {"macRetransmits", &KernelResult::macRetransmits},
    {"macGiveups", &KernelResult::macGiveups},
    {"bridgeFrames", &KernelResult::bridgeFrames},
    {"bridgeBusyCycles", &KernelResult::bridgeBusyCycles},
    {"staleRmwAborts", &KernelResult::staleRmwAborts},
    {"bridgeDrops", &KernelResult::bridgeDrops},
    {"bridgeAckTimeouts", &KernelResult::bridgeAckTimeouts},
    {"bridgeRetransmits", &KernelResult::bridgeRetransmits},
    {"bridgeGiveups", &KernelResult::bridgeGiveups},
}};

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("result block: " + what);
}

std::uint64_t
parseU64(const service::Json &v, const std::string &key)
{
    if (!v.isNumber())
        bad(key + " is not a number");
    const std::string &raw = v.rawNumber();
    std::uint64_t out = 0;
    const auto [end, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), out);
    if (ec != std::errc() || end != raw.data() + raw.size())
        bad(key + " is not an unsigned integer: " + raw);
    return out;
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
resultDigest(const KernelResult &r)
{
    return fnv1a(service::ConfigCodec::serializeResult(r));
}

KernelResult
resultFromJson(const service::Json &block)
{
    if (!block.isObject())
        bad("not an object");
    KernelResult r;
    std::size_t seen = 0;
    for (const auto &[key, v] : block.object()) {
        ++seen;
        if (key == "completed") {
            if (!v.isBool())
                bad("completed is not a bool");
            r.completed = v.boolean();
        } else if (key == "dataChannelUtilisation") {
            if (!v.isNumber())
                bad(key + " is not a number");
            r.dataChannelUtilisation = v.number();
        } else {
            bool known = false;
            for (const U64Field &f : kU64Fields) {
                if (key == f.name) {
                    r.*f.member = parseU64(v, key);
                    known = true;
                    break;
                }
            }
            if (!known)
                bad("unknown field " + key);
        }
    }
    if (seen != kU64Fields.size() + 2)
        bad("expected " + std::to_string(kU64Fields.size() + 2) +
            " fields, got " + std::to_string(seen));
    return r;
}

std::vector<std::uint64_t>
loadPins(const std::string &path, const std::string &workload,
         std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pin file " + path);
    std::stringstream text;
    text << in.rdbuf();
    const service::Json doc = service::Json::parse(text.str());
    std::vector<std::uint64_t> pins;
    const service::Json *w = doc.find(workload);
    const service::Json *s =
        w != nullptr ? w->find(std::to_string(seed)) : nullptr;
    if (s == nullptr)
        return pins;
    if (!s->isArray())
        throw std::runtime_error("pin file: " + workload + "." +
                                 std::to_string(seed) + " is not a list");
    for (const service::Json &d : s->array()) {
        std::uint64_t v = 0;
        const std::string &hex = d.str();
        const auto [end, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), v, 16);
        if (!d.isString() || hex.size() != 16 || ec != std::errc() ||
            end != hex.data() + hex.size())
            throw std::runtime_error("pin file: bad digest in " + workload);
        pins.push_back(v);
    }
    return pins;
}

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ",";
    body_ += service::jsonQuote(k) + ":";
}

JsonObject &
JsonObject::num(const std::string &k, double v)
{
    key(k);
    body_ += service::jsonNumber(v);
    return *this;
}

JsonObject &
JsonObject::num(const std::string &k, std::uint64_t v)
{
    key(k);
    body_ += service::jsonNumber(v);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &v)
{
    key(k);
    body_ += service::jsonQuote(v);
    return *this;
}

JsonObject &
JsonObject::boolean(const std::string &k, bool v)
{
    key(k);
    body_ += v ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

} // namespace perfbench
