/**
 * @file
 * Field lists: each config knob and result counter is declared once,
 * in a static visitFields(Self &self, V &v) of its record (Self may be
 * const), one entry per field:
 *
 *   v(field("lossPct", self.lossPct, 0.0, 100.0, kJson)); // [lo, hi]
 *   v(field("seed", self.seed, kJson));         // whole type domain
 *   v(group("burst", self.burst, kJson));       // nested record
 *
 * The fingerprint, the codec, validation, the cache store's result
 * words, bitIdentical() and compatibleShape() are drivers over these
 * lists. Entry order IS the fingerprint stream and the cache word
 * layout: append new fields; moving or removing one needs a
 * kFingerprintVersion bump (which also retires old cache files).
 */

#ifndef WISYNC_SIM_FIELDS_HH
#define WISYNC_SIM_FIELDS_HH

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "sim/fnv.hh"
#include "sim/inline_vec.hh"

namespace wisync::sim {

/** Who sees a field (kNoFlags: fingerprint and validation only). */
enum FieldFlags : unsigned
{
    kNoFlags = 0,
    /** Read and written by the service's JSON codec. */
    kJson = 1u << 0,
    /** Host telemetry, not a simulated observable: left out of
     *  bitIdentical() and the result JSON, kept in the cache words. */
    kHost = 1u << 1,
    /** Structural geometry that Machine::reset() cannot change
     *  (compatibleShape()). */
    kShape = 1u << 2,
};

/** One leaf field, valid within [lo, hi]. T may be const. */
template <class T>
struct Field
{
    using Value = std::remove_const_t<T>;

    const char *name;
    T &member;
    Value lo;
    Value hi;
    unsigned flags;
};

/** A nested record, walked through its own visitFields(). */
template <class R>
struct Group
{
    const char *name;
    R &record;
    unsigned flags;
};

/** The member's type, not deduced, so literal bounds convert to it. */
template <class T>
using FieldValue = std::type_identity_t<std::remove_const_t<T>>;

template <class T>
Field<T>
field(const char *name, T &member, FieldValue<T> lo, FieldValue<T> hi,
      unsigned flags)
{
    return {name, member, lo, hi, flags};
}

template <class T>
Field<T>
field(const char *name, T &member, unsigned flags)
{
    using V = std::remove_const_t<T>;
    static_assert(!std::is_enum_v<V>, "enum fields name their range");
    return {name, member, std::numeric_limits<V>::lowest(),
            std::numeric_limits<V>::max(), flags};
}

template <class R>
Group<R>
group(const char *name, R &record, unsigned flags)
{
    return {name, record, flags};
}

template <class R, class V>
void
walkFields(R &record, V &v)
{
    std::remove_const_t<R>::visitFields(record, v);
}

/** A value as one word: integers and enums by value, bools 0/1,
 *  doubles by bit pattern. */
template <class V>
std::uint64_t
toWord(V v)
{
    if constexpr (std::is_same_v<V, double>)
        return std::bit_cast<std::uint64_t>(v);
    else
        return static_cast<std::uint64_t>(v);
}

template <class V>
V
fromWord(std::uint64_t w)
{
    if constexpr (std::is_same_v<V, double>)
        return std::bit_cast<double>(w);
    else if constexpr (std::is_same_v<V, bool>)
        return w != 0;
    else
        return static_cast<V>(w);
}

/** A broken constraint: the dotted field path and why. */
struct FieldIssue
{
    std::string field;
    std::string message;
};

namespace detail {

/** Calls fn(field) for every leaf, groups flattened, in order. */
template <class Fn>
struct LeafWalker
{
    Fn &fn;

    template <class T>
    void
    operator()(const Field<T> &f)
    {
        fn(f);
    }

    template <class R>
    void
    operator()(const Group<R> &g)
    {
        walkFields(g.record, *this);
    }
};

template <class V>
std::string
format(V v)
{
    if constexpr (std::is_same_v<V, double>) {
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + 32, v).ptr);
    } else {
        return std::to_string(toWord(v));
    }
}

/** Finds the first leaf outside its range, tracking the group path. */
struct RangeChecker
{
    std::optional<FieldIssue> &issue;
    std::string prefix = {};

    template <class T>
    void
    operator()(const Field<T> &f)
    {
        if (!issue && !(f.lo <= f.member && f.member <= f.hi))
            issue = FieldIssue{prefix + f.name,
                               "must be within [" + format(f.lo) + ", " +
                                   format(f.hi) + "], got " +
                                   format(f.member)};
    }

    template <class R>
    void
    operator()(const Group<R> &g)
    {
        const std::size_t outer = prefix.size();
        prefix = prefix + g.name + ".";
        walkFields(g.record, *this);
        prefix.resize(outer);
    }
};

} // namespace detail

/** Call @p fn on every leaf field of @p record, in order. */
template <class R, class Fn>
void
forEachField(R &record, Fn &&fn)
{
    detail::LeafWalker<std::remove_reference_t<Fn>> walker{fn};
    walkFields(record, walker);
}

/** FNV-1a over @p tag, then every leaf field's word. */
template <class R>
std::uint64_t
fieldFingerprint(const R &record, std::uint64_t tag)
{
    Fnv1a h;
    h.u64(tag);
    forEachField(record, [&](const auto &f) { h.u64(toWord(f.member)); });
    return h.value;
}

/**
 * True when @p a and @p b hold the same words (doubles compare by bit
 * pattern) in every field carrying all of @p require and none of
 * @p exclude. R's field list must not depend on field values.
 */
template <class R>
bool
sameFields(const R &a, const R &b, unsigned require, unsigned exclude)
{
    const auto keep = [=](unsigned flags) {
        return (flags & require) == require && (flags & exclude) == 0;
    };
    InlineVec<std::uint64_t, 64> words;
    forEachField(a, [&](const auto &f) {
        if (keep(f.flags))
            words.push_back(toWord(f.member));
    });
    std::size_t i = 0;
    bool same = true;
    forEachField(b, [&](const auto &f) {
        if (keep(f.flags))
            same = same && words[i++] == toWord(f.member);
    });
    return same;
}

/** The first field of @p record, in order, outside its range. */
template <class R>
std::optional<FieldIssue>
findRangeIssue(const R &record)
{
    std::optional<FieldIssue> issue;
    detail::RangeChecker checker{issue};
    walkFields(record, checker);
    return issue;
}

} // namespace wisync::sim

#endif // WISYNC_SIM_FIELDS_HH
