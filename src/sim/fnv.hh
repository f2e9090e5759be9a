/**
 * @file
 * 64-bit FNV-1a: every process-stable fingerprint (configs, workloads,
 * request points) and the cache store's record checksums.
 */

#ifndef WISYNC_SIM_FNV_HH
#define WISYNC_SIM_FNV_HH

#include <cstddef>
#include <cstdint>

namespace wisync::sim {

/** Streaming FNV-1a; u64() feeds 8 little-endian bytes. */
struct Fnv1a
{
    std::uint64_t value = 0xCBF29CE484222325ull;

    void
    byte(std::uint64_t b)
    {
        value = (value ^ b) * 0x100000001B3ull;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte((v >> (8 * i)) & 0xFF);
    }
};

/** FNV-1a of one buffer. */
inline std::uint64_t
fnv1a(const char *data, std::size_t n)
{
    Fnv1a h;
    for (std::size_t i = 0; i < n; ++i)
        h.byte(static_cast<unsigned char>(data[i]));
    return h.value;
}

} // namespace wisync::sim

#endif // WISYNC_SIM_FNV_HH
