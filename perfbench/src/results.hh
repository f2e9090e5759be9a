/**
 * @file
 * Output checking: result digests, the daemon's result blocks, pinned
 * digests, and the JSON the benchmark binary prints.
 */

#ifndef PERFBENCH_RESULTS_HH
#define PERFBENCH_RESULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/json.hh"
#include "workloads/kernel_result.hh"

namespace perfbench {

using namespace wisync;

std::string hex64(std::uint64_t v);

/**
 * Digest of a run's simulated observables: FNV-1a over
 * ConfigCodec::serializeResult, which emits exactly the fields
 * bitIdentical() compares (cycles, counters, the utilisation double
 * bit-exactly) and none of the host-route fast-path telemetry.
 */
std::uint64_t resultDigest(const workloads::KernelResult &r);

/**
 * Rebuild a KernelResult from a daemon response's "result" block.
 * Throws std::runtime_error on a missing, unknown or mistyped field.
 */
workloads::KernelResult resultFromJson(const service::Json &block);

/**
 * Pinned digests for one (workload, seed), indexed by point (sweep
 * point, or service pool entry). Empty when the pin file holds none
 * for this pair; throws std::runtime_error on an unreadable file.
 */
std::vector<std::uint64_t> loadPins(const std::string &path,
                                    const std::string &workload,
                                    std::uint64_t seed);

/** A flat JSON object writer (keys in insertion order). */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v);
    JsonObject &num(const std::string &key, std::uint64_t v);
    JsonObject &str(const std::string &key, const std::string &v);
    JsonObject &boolean(const std::string &key, bool v);
    /** @p json must already be valid JSON. */
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_RESULTS_HH
