/**
 * @file
 * The declared config fields as a contract: core::validate() is the
 * one validator, the daemon answers every out-of-range knob with a
 * typed field-path error (it used to abort or divide by zero), and a
 * boundary fuzz driven by the declarations themselves puts every JSON
 * field at its minimum, its maximum and just outside its range.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "core/machine_config.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/json.hh"
#include "sim/fields.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::Variant;
using wisync::service::ConfigCodec;
using wisync::service::Daemon;
using wisync::service::DaemonOptions;
using wisync::service::DeadlineExceeded;
using wisync::service::ParseError;
using wisync::service::WorkloadSpec;
using wisync::wireless::LinkReliability;
namespace sim = wisync::sim;

// ---- the one validator --------------------------------------------

TEST(ConfigValidate, EveryMakeConfigIsValid)
{
    for (const auto kind :
         {ConfigKind::Baseline, ConfigKind::BaselinePlus,
          ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
        for (const auto variant :
             {Variant::Default, Variant::SlowNet, Variant::SlowNetL2,
              Variant::FastNet, Variant::SlowBmem}) {
            const auto issue =
                validate(MachineConfig::make(kind, 64, variant));
            EXPECT_FALSE(issue.has_value())
                << issue->field << ": " << issue->message;
        }
    }
}

TEST(ConfigValidate, ReportsTheFirstBrokenFieldByPath)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 16);
    cfg.wireless.burst.pGoodToBad = 2.0;
    cfg.bridge.widthBits = 0;
    auto issue = validate(cfg);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->field, "wireless.burst.pGoodToBad");
    EXPECT_NE(issue->message.find("[0, 1]"), std::string::npos)
        << issue->message;

    cfg.wireless.burst.pGoodToBad = 0.5;
    issue = validate(cfg);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->field, "bridge.widthBits");

    cfg.bridge.widthBits = 64;
    cfg.numChips = 3;
    issue = validate(cfg);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->field, "chips");
    EXPECT_NE(issue->message.find("divide evenly"), std::string::npos);

    cfg.numChips = 1;
    cfg.wireless.collisionCycles = cfg.wireless.dataCycles;
    issue = validate(cfg);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->field, "wireless.collisionCycles");

    // Zero spectrum slots is out of range (a plan needs one slot).
    cfg.wireless.collisionCycles = 1;
    cfg.wireless.spectrumSlots = 0;
    issue = validate(cfg);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->field, "wireless.spectrumSlots");
}

TEST(ConfigValidate, TightLoopArrayElemsHasADeclaredRange)
{
    const auto request = [](std::uint64_t elems) {
        return R"({"points":[{"config":{"kind":"WiSync","cores":16},)"
               R"("workload":{"kind":"tightloop","arrayElems":)" +
               std::to_string(elems) + "}}]}";
    };
    const std::uint64_t max =
        wisync::workloads::TightLoopParams::kMaxArrayElems;
    EXPECT_EQ(ConfigCodec::parseRequest(request(max))
                  .points.at(0)
                  .workload.tightLoop.arrayElems,
              max);
    try {
        (void)ConfigCodec::parseRequest(request(max + 1));
        ADD_FAILURE() << "arrayElems past its range was accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field(), "points[0].workload.arrayElems") << e.what();
    }
}

/** A 2-chip request whose config carries @p link under @p key. */
std::string
linkRequest(const std::string &key, const std::string &link)
{
    return R"({"points":[{"config":{"kind":"WiSync","cores":16,"chips":2,")" +
           key + R"(":)" + link +
           R"(},"workload":{"kind":"tightloop","iterations":2}}]})";
}

/** The ParseError field of @p request, or "" if it parses. */
std::string
rejectedField(const std::string &request)
{
    try {
        (void)ConfigCodec::parseRequest(request);
    } catch (const ParseError &e) {
        return e.field();
    }
    return "";
}

TEST(ConfigValidate, LinkReliabilityKeysParseUnderBothLinks)
{
    const std::string knobs =
        R"({"lossPct":2.5,"burst":{"enabled":true,"pGoodToBad":0.125},)"
        R"("ackTimeoutCycles":11,"maxRetries":3,"retryBackoffMaxExp":5})";
    for (const std::string key : {"wireless", "bridge"}) {
        const MachineConfig cfg =
            ConfigCodec::parseRequest(linkRequest(key, knobs))
                .points.at(0)
                .config;
        const LinkReliability *link = &cfg.bridge;
        if (key == "wireless")
            link = &cfg.wireless;
        EXPECT_EQ(link->lossPct, 2.5) << key;
        EXPECT_TRUE(link->burst.enabled) << key;
        EXPECT_EQ(link->burst.pGoodToBad, 0.125) << key;
        EXPECT_EQ(link->ackTimeoutCycles, 11u) << key;
        EXPECT_EQ(link->maxRetries, 3u) << key;
        EXPECT_EQ(link->retryBackoffMaxExp, 5u) << key;

        // Out of range: the error names the full path of the knob.
        const std::pair<const char *, const char *> bad[] = {
            {"lossPct", R"({"lossPct":100.5})"},
            {"burst.pGoodToBad", R"({"burst":{"pGoodToBad":2}})"},
            {"ackTimeoutCycles", R"({"ackTimeoutCycles":4294967297})"},
            {"maxRetries", R"({"maxRetries":4294967296})"},
            {"retryBackoffMaxExp", R"({"retryBackoffMaxExp":33})"},
        };
        for (const auto &[field, link_json] : bad)
            EXPECT_EQ(rejectedField(linkRequest(key, link_json)),
                      "points[0].config." + key + "." + field);
    }
}

TEST(ConfigValidate, WirelessAckTimeoutTakesTheBridgeRange)
{
    // Both links declare [0, 2^32] once; the wireless knob used to end
    // at 2^32 - 1, so no input that validated before is rejected.
    const MachineConfig cfg =
        ConfigCodec::parseRequest(
            linkRequest("wireless", R"({"ackTimeoutCycles":4294967296})"))
            .points.at(0)
            .config;
    EXPECT_EQ(cfg.wireless.ackTimeoutCycles, std::uint64_t{1} << 32);
    EXPECT_EQ(rejectedField(linkRequest(
                  "wireless", R"({"ackTimeoutCycles":4294967297})")),
              "points[0].config.wireless.ackTimeoutCycles");
}

// ---- the daemon survives every reported crash line -----------------

std::string
requestLine(const std::string &config)
{
    return R"({"points":[{"config":)" + config +
           R"(,"workload":{"kind":"tightloop","iterations":2}}]})";
}

const std::string kGoodConfig = R"({"kind":"WiSync","cores":16})";

/** The daemon answers @p config with a typed error naming @p field,
 *  then serves a good line as usual. */
void
expectTypedRejection(const std::string &config, const std::string &field)
{
    DaemonOptions opt;
    opt.threads = 1;
    Daemon daemon(opt);
    bool ok = true;
    const std::string bad = daemon.handleRequest(requestLine(config), &ok);
    EXPECT_FALSE(ok);
    const auto doc = wisync::service::Json::parse(bad);
    const auto *error = doc.find("error");
    ASSERT_NE(error, nullptr) << bad;
    ASSERT_NE(error->find("field"), nullptr) << bad;
    EXPECT_EQ(error->find("field")->str(), field) << bad;

    const std::string good =
        daemon.handleRequest(requestLine(kGoodConfig), &ok);
    EXPECT_TRUE(ok) << good;
    EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
}

TEST(DaemonInvalidConfig, WirelessBurstProbabilityIsATypedError)
{
    expectTypedRejection(
        R"({"kind":"WiSync","cores":16,)"
        R"("wireless":{"burst":{"enabled":true,"pGoodToBad":2.0}}})",
        "points[0].config.wireless.burst.pGoodToBad");
}

TEST(DaemonInvalidConfig, BridgeBurstLossPercentIsATypedError)
{
    expectTypedRejection(
        R"({"kind":"WiSync","cores":16,"chips":2,)"
        R"("bridge":{"burst":{"enabled":true,"badLossPct":150}}})",
        "points[0].config.bridge.burst.badLossPct");
}

TEST(DaemonInvalidConfig, ZeroBridgeWidthIsATypedError)
{
    expectTypedRejection(
        R"({"kind":"WiSync","cores":16,"chips":2,"bridge":{"widthBits":0}})",
        "points[0].config.bridge.widthBits");
}

// ---- boundary fuzz driven by the declarations ----------------------

/** One kJson leaf field: its dotted path and candidate JSON values. */
struct Boundary
{
    std::string path;
    /** At the minimum and at the maximum: must parse or be rejected
     *  naming the field, and if accepted must run. */
    std::vector<std::string> inside;
    /** Just outside the range (or of the wrong type): must be
     *  rejected naming the field. */
    std::vector<std::string> outside;
};

template <class V>
std::string
jsonOf(V v)
{
    if constexpr (std::is_same_v<V, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_same_v<V, double>)
        return wisync::service::jsonNumber(v);
    else if constexpr (std::is_enum_v<V>)
        return wisync::service::jsonQuote(toString(v));
    else
        return wisync::service::jsonNumber(std::uint64_t(v));
}

/** "max + 1" of an unsigned type, spelled as JSON digits. */
template <class V>
std::string
pastMax(V hi)
{
    if (hi < std::numeric_limits<V>::max())
        return jsonOf<V>(hi + 1);
    return sizeof(V) == 4 ? "4294967296" : "18446744073709551616";
}

/** Collects the kJson leaves of a record, groups as path prefixes. */
struct BoundaryCollector
{
    std::vector<Boundary> &out;
    std::string prefix;

    template <class T>
    void
    operator()(const sim::Field<T> &f)
    {
        using V = typename sim::Field<T>::Value;
        if ((f.flags & sim::kJson) == 0)
            return;
        Boundary b{prefix + f.name, {jsonOf(f.lo), jsonOf(f.hi)}, {}};
        if constexpr (std::is_same_v<V, bool>) {
            b.outside = {"2", R"("yes")"};
        } else if constexpr (std::is_enum_v<V>) {
            b.outside = {R"("NoSuchValue")", "0"};
        } else if constexpr (std::is_same_v<V, double>) {
            b.outside = {jsonOf(std::nextafter(f.lo, -INFINITY)),
                         jsonOf(std::nextafter(f.hi, INFINITY))};
        } else {
            b.outside = {f.lo == 0 ? "-1" : jsonOf<V>(f.lo - 1),
                         pastMax<V>(f.hi)};
        }
        out.push_back(b);
    }

    template <class R>
    void
    operator()(const sim::Group<R> &g)
    {
        if ((g.flags & sim::kJson) == 0)
            return;
        BoundaryCollector sub{out, prefix + g.name + "."};
        sim::walkFields(g.record, sub);
    }
};

template <class R>
std::vector<Boundary>
boundariesOf(const R &record)
{
    std::vector<Boundary> out;
    BoundaryCollector collector{out, ""};
    sim::walkFields(record, collector);
    return out;
}

/** A JSON object built from dotted paths; later paths override. */
struct JsonTree
{
    std::map<std::string, std::string> leaves;
    std::map<std::string, JsonTree> groups;

    void
    set(const std::string &path, const std::string &value)
    {
        const auto dot = path.find('.');
        if (dot == std::string::npos)
            leaves[path] = value;
        else
            groups[path.substr(0, dot)].set(path.substr(dot + 1), value);
    }

    std::string
    render() const
    {
        std::string out = "{";
        for (const auto &[key, value] : leaves)
            out += (out.size() > 1 ? ",\"" : "\"") + key + "\":" + value;
        for (const auto &[key, tree] : groups)
            out += (out.size() > 1 ? ",\"" : "\"") + key +
                   "\":" + tree.render();
        return out + "}";
    }
};

struct Base
{
    const char *label;
    std::vector<std::pair<std::string, std::string>> knobs;
};

/** Three channel setups, so the MAC-, loss- and burst-specific knobs
 *  each act on a run that exercises them. */
std::vector<Base>
configBases()
{
    return {
        {"brs-iid",
         {{"kind", R"("WiSync")"},
          {"cores", "16"},
          {"chips", "2"},
          {"wireless.lossPct", "5"},
          {"bridge.lossPct", "10"}}},
        {"token-bursty",
         {{"kind", R"("WiSync")"},
          {"cores", "16"},
          {"chips", "2"},
          {"wireless.mac", R"("Token")"},
          {"wireless.burst.enabled", "true"},
          {"wireless.burst.pGoodToBad", "0.1"},
          {"bridge.burst.enabled", "true"},
          {"bridge.burst.pGoodToBad", "0.1"}}},
        {"adaptive-snr",
         {{"kind", R"("WiSyncNoT")"},
          {"cores", "16"},
          {"chips", "4"},
          {"wireless.mac", R"("Adaptive")"},
          {"wireless.adaptWindowEvents", "4"},
          {"wireless.berFromSnr", "true"},
          {"wireless.channelLossStepDb", "3"}}},
    };
}

constexpr std::uint64_t kBudget = 20000;

/**
 * Parse @p request; a rejection must name @p path. When accepted and
 * @p run, simulate its single point on a fresh machine, where only a
 * typed DeadlineExceeded may end it early.
 * @return true if the request was accepted.
 */
bool
parseAndRun(const std::string &request, const std::string &path,
            bool run)
{
    wisync::service::SweepRequest parsed;
    try {
        parsed = ConfigCodec::parseRequest(request);
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field(), path) << e.what() << "\n  " << request;
        return false;
    }
    if (!run)
        return true;
    const auto &point = parsed.points.at(0);
    EXPECT_LE(point.workload.maxCycles, kBudget) << request;
    EXPECT_NE(point.workload.maxCycles, 0u) << request;
    Machine machine(point.config);
    try {
        (void)wisync::service::runWorkload(point.workload, machine);
    } catch (const DeadlineExceeded &) {
        // Allowed: the knob made the point slower than its budget.
    }
    return true;
}

TEST(ConfigBoundaryFuzz, EveryJsonConfigFieldAtAndBeyondItsRange)
{
    const auto fields = boundariesOf(MachineConfig{});
    ASSERT_GE(fields.size(), 40u); // every codec-visible knob
    const std::string workload = R"({"kind":"tightloop","iterations":3,)"
                                 R"("maxCycles":)" +
                                 std::to_string(kBudget) + "}";
    std::size_t accepted = 0;
    for (const Base &base : configBases()) {
        for (const Boundary &field : fields) {
            // Spreading chips over a single core would name "chips",
            // not the core count under test.
            const bool single = field.path == "cores";
            const auto request = [&](const std::string &value) {
                JsonTree cfg;
                for (const auto &[path, knob] : base.knobs)
                    if (!(single && path == "chips"))
                        cfg.set(path, knob);
                cfg.set(field.path, value);
                return R"({"points":[{"config":)" + cfg.render() +
                       R"(,"workload":)" + workload + "}]}";
            };
            for (const std::string &value : field.inside) {
                SCOPED_TRACE(std::string(base.label) + " " + field.path +
                             "=" + value);
                accepted += parseAndRun(request(value),
                                        "points[0].config." + field.path,
                                        true);
            }
            for (const std::string &value : field.outside) {
                SCOPED_TRACE(std::string(base.label) + " " + field.path +
                             "=" + value + " (outside)");
                EXPECT_FALSE(parseAndRun(request(value),
                                         "points[0].config." + field.path,
                                         false));
            }
        }
    }
    // The edges of a declared range are valid by definition, except
    // where a cross-field rule (chips dividing cores) rejects them.
    EXPECT_GE(accepted, 2 * fields.size() * configBases().size() - 3);
}

TEST(ConfigBoundaryFuzz, EveryJsonWorkloadFieldAtAndBeyondItsRange)
{
    for (const auto kind :
         {WorkloadSpec::Kind::TightLoop, WorkloadSpec::Kind::Cas}) {
        WorkloadSpec spec;
        spec.kind = kind;
        for (const Boundary &field : boundariesOf(spec)) {
            if (field.path == "kind")
                continue; // selects the field list itself
            const auto request = [&](const std::string &value) {
                JsonTree w;
                w.set("kind", jsonOf(kind));
                w.set("maxCycles", std::to_string(kBudget));
                if (kind == WorkloadSpec::Kind::Cas)
                    w.set("duration", "5000");
                w.set(field.path, value);
                return R"({"points":[{"config":)" + kGoodConfig +
                       R"(,"workload":)" + w.render() + "}]}";
            };
            // The budget itself is only run where it stays bounded.
            const bool budget = field.path == "maxCycles";
            for (const std::string &value : field.inside) {
                SCOPED_TRACE(field.path + "=" + value);
                EXPECT_TRUE(parseAndRun(request(value),
                                        "points[0].workload." + field.path,
                                        !budget));
            }
            for (const std::string &value : field.outside) {
                SCOPED_TRACE(field.path + "=" + value + " (outside)");
                EXPECT_FALSE(parseAndRun(request(value),
                                         "points[0].workload." + field.path,
                                         false));
            }
        }
    }
}

} // namespace
