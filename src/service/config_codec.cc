#include "service/config_codec.hh"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <limits>
#include <type_traits>

#include "core/machine.hh"
#include "sim/engine.hh"
#include "sim/fields.hh"
#include "sim/fnv.hh"

namespace wisync::service {

namespace {

/** "points[3].config.wireless.lossPct" or just the path. */
std::string
describeField(const std::string &field, std::size_t point)
{
    if (point == ParseError::kNoPoint)
        return field;
    return field + " (point " + std::to_string(point) + ")";
}

[[noreturn]] void
fail(const std::string &field, std::size_t point, const std::string &msg)
{
    throw ParseError(field, point, msg);
}

const Json &
asObject(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isObject())
        fail(path, point, std::string("expected an object, got ") +
                              v.typeName());
    return v;
}

// ---- Field-list drivers -----------------------------------------

/** One JSON value of the field's declared type; ranges are checked
 *  later, on the whole record (core::validate() for a config). */
template <class V>
V
parseValue(const Json &j, const sim::Field<V> &f, const std::string &path,
           std::size_t point)
{
    const auto expect = [&](bool ok, const char *what) {
        if (!ok)
            fail(path, point, std::string("expected ") + what + ", got " +
                                  j.typeName());
    };
    if constexpr (std::is_same_v<V, bool>) {
        expect(j.isBool(), "true/false");
        return j.boolean();
    } else if constexpr (std::is_same_v<V, double>) {
        expect(j.isNumber(), "a number");
        return j.number();
    } else if constexpr (std::is_enum_v<V>) {
        // Spelled exactly as toString() prints; [lo, hi] is the domain.
        expect(j.isString(), "a string");
        std::string known;
        for (auto i = sim::toWord(f.lo); i <= sim::toWord(f.hi); ++i) {
            if (j.str() == toString(sim::fromWord<V>(i)))
                return sim::fromWord<V>(i);
            known += std::string(known.empty() ? "" : ", ") +
                     toString(sim::fromWord<V>(i));
        }
        fail(path, point, "unknown " + std::string(f.name) + " '" +
                              j.str() + "' (expected " + known + ")");
    } else {
        expect(j.isNumber(), "an unsigned integer");
        // Parse the raw token: signs, fractions and exponents are
        // errors ("2.5 cores", "-1 retries"), and a double would lose
        // 64-bit precision.
        const std::string &raw = j.rawNumber();
        std::uint64_t wide = 0;
        const auto [end, ec] =
            std::from_chars(raw.data(), raw.data() + raw.size(), wide);
        if (raw.find_first_of(".eE-") != std::string::npos ||
            ec == std::errc::invalid_argument ||
            end != raw.data() + raw.size())
            fail(path, point, "expected an unsigned integer, got '" + raw +
                                  "'");
        if (ec != std::errc() || wide > std::numeric_limits<V>::max())
            fail(path, point, "value does not fit in " +
                                  std::to_string(8 * sizeof(V)) +
                                  " bits: " + raw);
        return static_cast<V>(wide);
    }
}

/** Assigns one JSON member to the kJson field (or group) it names. */
struct JsonReader
{
    const std::string &key;
    const Json &value;
    /** Path of the member itself, e.g. "config.wireless.lossPct". */
    const std::string &path;
    std::size_t point;
    bool matched = false;

    bool
    claims(const char *name, unsigned flags)
    {
        if (matched || (flags & sim::kJson) == 0 || key != name)
            return false;
        matched = true;
        return true;
    }

    template <class T>
    void
    operator()(const sim::Field<T> &f)
    {
        if (claims(f.name, f.flags))
            f.member = parseValue(value, f, path, point);
    }

    template <class R>
    void
    operator()(const sim::Group<R> &g);
};

/**
 * Apply every member of JSON object @p v to @p record, except the
 * @p skip keys (the caller applied them first; their duplicates
 * resolve to the first occurrence, like find()). Unknown keys are
 * errors; @p context qualifies their message.
 */
template <class R>
void
readObject(R &record, const Json &v, const std::string &path,
           std::size_t point, std::initializer_list<const char *> skip = {},
           const std::string &context = "")
{
    for (const auto &[key, member] : asObject(v, path, point).object()) {
        if (std::find(skip.begin(), skip.end(), key) != skip.end())
            continue;
        const std::string sub = path + "." + key;
        JsonReader reader{key, member, sub, point};
        sim::walkFields(record, reader);
        if (!reader.matched)
            fail(sub, point, "unknown key '" + key + "'" + context);
    }
}

template <class R>
void
JsonReader::operator()(const sim::Group<R> &g)
{
    if (claims(g.name, g.flags))
        readObject(g.record, value, path, point);
}

/** Parse member @p key of @p obj, if present, into its field. */
template <class R>
void
readKey(R &record, const Json &obj, const std::string &key,
        const std::string &path, std::size_t point)
{
    if (const Json *member = obj.find(key)) {
        const std::string sub = path + "." + key;
        JsonReader reader{key, *member, sub, point};
        sim::walkFields(record, reader);
    }
}

template <class R>
std::string toJson(const R &record);

/** Appends the kJson fields of one record as JSON members. */
struct JsonWriter
{
    std::string &out;

    bool
    key(const char *name, unsigned flags)
    {
        if ((flags & sim::kJson) == 0)
            return false;
        out += std::string(out.size() > 1 ? ",\"" : "\"") + name + "\":";
        return true;
    }

    template <class T>
    void
    operator()(const sim::Field<T> &f)
    {
        using V = typename sim::Field<T>::Value;
        if (!key(f.name, f.flags))
            return;
        if constexpr (std::is_same_v<V, bool>)
            out += f.member ? "true" : "false";
        else if constexpr (std::is_enum_v<V>)
            out += jsonQuote(toString(f.member));
        else if constexpr (std::is_same_v<V, double>)
            out += jsonNumber(f.member);
        else
            out += jsonNumber(std::uint64_t(f.member));
    }

    template <class R>
    void
    operator()(const sim::Group<R> &g)
    {
        if (key(g.name, g.flags))
            out += toJson(g.record);
    }
};

/** @p record's kJson fields as one JSON object, declaration order. */
template <class R>
std::string
toJson(const R &record)
{
    std::string out = "{";
    JsonWriter writer{out};
    sim::walkFields(record, writer);
    return out + "}";
}

} // namespace

ParseError::ParseError(std::string field, std::size_t point_index,
                       const std::string &message)
    : std::runtime_error(describeField(field, point_index) + ": " +
                         message),
      field_(std::move(field)), pointIndex_(point_index)
{}

std::uint64_t
WorkloadSpec::fingerprint() const
{
    // "WSWF" tag + stream version (v2 added maxCycles).
    return sim::fieldFingerprint(*this, 0x5753465700ull + kFingerprintVersion);
}

const char *
toString(WorkloadSpec::Kind kind)
{
    switch (kind) {
      case WorkloadSpec::Kind::TightLoop:
        return "tightloop";
      case WorkloadSpec::Kind::Cas:
        return "cas";
    }
    return "?";
}

std::uint64_t
WorkloadSpec::lengthEstimate() const
{
    std::uint64_t length = 1;
    switch (kind) {
      case Kind::TightLoop:
        length = tightLoop.lengthEstimate();
        break;
      case Kind::Cas:
        length = cas.lengthEstimate();
        break;
    }
    // A budget caps the point regardless of its nominal length.
    if (maxCycles != 0 && maxCycles < length)
        length = maxCycles;
    return length == 0 ? 1 : length;
}

DeadlineExceeded::DeadlineExceeded(std::uint64_t max_cycles,
                                   std::uint64_t at_cycle)
    : std::runtime_error("DeadlineExceeded: maxCycles=" +
                         std::to_string(max_cycles) +
                         " exhausted at cycle " +
                         std::to_string(at_cycle) +
                         " with work still pending"),
      maxCycles_(max_cycles), atCycle_(at_cycle)
{}

std::uint64_t
RequestPoint::fingerprint() const
{
    // Order the two halves through one stream so (config, workload)
    // can never alias (workload, config).
    sim::Fnv1a f;
    f.u64(config.fingerprint());
    f.u64(workload.fingerprint());
    return f.value;
}

core::MachineConfig
ConfigCodec::parseConfig(const Json &v, std::size_t point_index,
                         const std::string &path)
{
    const Json &obj = asObject(v, path, point_index);

    // kind/cores/variant first: make() derives the variant's timing
    // knobs (hop cycles, L2/BM round trips), so overrides below land
    // on the same baseline the benches use.
    for (const char *required : {"kind", "cores"})
        if (obj.find(required) == nullptr)
            fail(path + "." + required, point_index, "missing required key");
    core::MachineConfig head;
    for (const char *key : {"kind", "cores", "variant"})
        readKey(head, obj, key, path, point_index);
    core::MachineConfig cfg =
        core::MachineConfig::make(head.kind, head.numCores, head.variant);
    readObject(cfg, obj, path, point_index, {"kind", "cores", "variant"});

    // Anything the Machine would refuse is a typed request error here.
    if (const auto issue = core::validate(cfg))
        fail(path + "." + issue->field, point_index, issue->message);
    return cfg;
}

WorkloadSpec
ConfigCodec::parseWorkload(const Json &v, std::size_t point_index,
                           const std::string &path)
{
    const Json &obj = asObject(v, path, point_index);
    if (obj.find("kind") == nullptr)
        fail(path + ".kind", point_index, "missing required key");
    // The kind selects which parameters are fields at all.
    WorkloadSpec spec;
    readKey(spec, obj, "kind", path, point_index);
    readObject(spec, obj, path, point_index, {"kind"},
               std::string(" for workload '") + toString(spec.kind) + "'");
    if (const auto issue = sim::findRangeIssue(spec))
        fail(path + "." + issue->field, point_index, issue->message);
    return spec;
}

SweepRequest
ConfigCodec::parseRequest(const std::string &json_text)
{
    Json doc;
    try {
        doc = Json::parse(json_text);
    } catch (const JsonError &e) {
        fail("<request>", ParseError::kNoPoint, e.what());
    }
    const Json &obj = asObject(doc, "<request>", ParseError::kNoPoint);

    const Json *points = nullptr;
    for (const auto &[key, member] : obj.object()) {
        if (key == "points")
            points = &member;
        else
            fail(key, ParseError::kNoPoint, "unknown key '" + key + "'");
    }
    if (points == nullptr)
        fail("points", ParseError::kNoPoint, "missing required key");
    if (!points->isArray())
        fail("points", ParseError::kNoPoint,
             std::string("expected an array, got ") +
                 points->typeName());

    SweepRequest request;
    request.points.reserve(points->array().size());
    for (std::size_t i = 0; i < points->array().size(); ++i) {
        const Json &pv = points->array()[i];
        const std::string base = "points[" + std::to_string(i) + "]";
        const Json &pobj = asObject(pv, base, i);
        RequestPoint point;
        const Json *config = nullptr;
        const Json *workload = nullptr;
        for (const auto &[key, member] : pobj.object()) {
            if (key == "config")
                config = &member;
            else if (key == "workload")
                workload = &member;
            else
                fail(base + "." + key, i, "unknown key '" + key + "'");
        }
        if (config == nullptr)
            fail(base + ".config", i, "missing required key");
        point.config = parseConfig(*config, i, base + ".config");
        if (workload != nullptr)
            point.workload =
                parseWorkload(*workload, i, base + ".workload");
        request.points.push_back(std::move(point));
    }
    return request;
}

std::string
ConfigCodec::serialize(const core::MachineConfig &cfg)
{
    return toJson(cfg);
}

std::string
ConfigCodec::serialize(const WorkloadSpec &w)
{
    return toJson(w);
}

std::string
ConfigCodec::serialize(const RequestPoint &point)
{
    return "{\"config\":" + serialize(point.config) +
           ",\"workload\":" + serialize(point.workload) + "}";
}

std::string
ConfigCodec::serializeRequest(const SweepRequest &request)
{
    std::string out = "{\"points\":[";
    for (std::size_t i = 0; i < request.points.size(); ++i) {
        if (i != 0)
            out += ",";
        out += serialize(request.points[i]);
    }
    out += "]}";
    return out;
}

std::string
ConfigCodec::serializeResult(const workloads::KernelResult &r)
{
    return toJson(r);
}

workloads::KernelResult
runWorkload(const WorkloadSpec &spec, core::Machine &machine)
{
    sim::Engine &engine = machine.engine();
    if (spec.maxCycles != 0)
        engine.setDeadline(spec.maxCycles);
    // The machine goes back to a pooled-reuse path after this point; a
    // deadline leaking past the run would silently truncate whatever
    // point the machine serves next.
    struct DisarmOnExit
    {
        sim::Engine &engine;
        ~DisarmOnExit() { engine.clearDeadline(); }
    } disarm{engine};

    workloads::KernelResult result;
    switch (spec.kind) {
      case WorkloadSpec::Kind::TightLoop:
        result = workloads::runTightLoopOn(machine, spec.tightLoop);
        break;
      case WorkloadSpec::Kind::Cas:
        result = workloads::runCasKernelOn(spec.casKernel, machine,
                                           spec.cas);
        break;
      default:
        fail("workload.kind", ParseError::kNoPoint,
             "unhandled workload kind");
    }
    if (spec.maxCycles != 0 && engine.deadlineHit())
        throw DeadlineExceeded(spec.maxCycles, engine.now());
    return result;
}

} // namespace wisync::service
