/**
 * @file
 * wisync_perfbench: the repository benchmark's binary.
 *
 *   wisync_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--pins FILE] [--tmp-dir DIR] [--trace-out FILE]
 *   wisync_perfbench --setup-only --workload W --seed N --seconds S
 *   wisync_perfbench --pin --workload W --seed N
 *   wisync_perfbench --info
 *
 * One process, one worker thread, closed loop. It drives the simulator
 * only through its public surface (SweepHarness::acquire, the run*On
 * kernels, service::Daemon::start/handleRequest) and reads each
 * layer's public stats; nothing under src/ knows it is being measured.
 *
 * --trace 0 sets up once, in the cold process, then times one fixed
 * loop of operations and prints the end-to-end metrics. --setup-only
 * stops after that set-up: perfbench/run.py starts several such
 * processes, so setup_s is a median of cold set-ups.
 * --trace 1 runs the same loop traced (spans + per-layer stats) and
 * prints the per-layer metrics and the tracing overhead, measured from
 * its parts: spans times the calibrated cost of one span, plus the
 * codec calls and stats reads only the traced loop makes.
 * --pin prints the digest of every point of the workload, for the pin
 * file.
 *
 * Every simulated result is checked: it must complete, repeat the
 * digest of every earlier run of the same point in this process, and
 * match the pinned digest when the pin file has this seed. Output is
 * one JSON object on stdout; perfbench/run.py builds and runs this
 * binary and formats the benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "harness/sweep.hh"
#include "inputs.hh"
#include "layers.hh"
#include "results.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/json.hh"
#include "trace.hh"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workloads::KernelResult;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Ops of one loop, and the checks on every simulated result. */
class OpLog
{
  public:
    explicit OpLog(std::vector<std::uint64_t> pins) : pins_(std::move(pins))
    {}

    /** Check one result of @p point; returns why it is wrong, or "". */
    std::string
    check(std::uint32_t point, const KernelResult &r)
    {
        if (!r.completed)
            return "did not complete";
        const std::uint64_t digest = resultDigest(r);
        if (point < pins_.size() && pins_[point] != digest)
            return "digest " + hex64(digest) + " != pinned " +
                   hex64(pins_[point]);
        const auto [it, fresh] = seen_.emplace(point, digest);
        if (!fresh && it->second != digest)
            return "digest " + hex64(digest) + " != " +
                   hex64(it->second) + " of an earlier run of this point";
        return {};
    }

    /** Record a timed op (latency in ms), failed when @p why is set. */
    void
    op(double ms, const std::string &why)
    {
        ++attempted;
        latencyMs.push_back(ms);
        if (!why.empty()) {
            ++failed;
            note(why);
        }
    }

    /** Record a failure outside the timed ops (set-up, replay). */
    void
    untimed(const std::string &why)
    {
        if (!why.empty()) {
            ++untimedFailed;
            note(why);
        }
    }

    void
    clearTimed()
    {
        attempted = failed = simCycles = 0;
        latencyMs.clear();
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t untimedFailed = 0;
    std::uint64_t simCycles = 0;
    std::vector<double> latencyMs;
    std::vector<std::string> failures;

  private:
    void
    note(const std::string &why)
    {
        if (failures.size() < 8 &&
            std::find(failures.begin(), failures.end(), why) == failures.end())
            failures.push_back(why);
    }

    std::vector<std::uint64_t> pins_;
    std::map<std::uint32_t, std::uint64_t> seen_;
};

/** One workload's set-up and timed loop. */
class Bench
{
  public:
    Bench(Tracer &tracer, OpLog &log) : tracer_(tracer), log_(log) {}
    virtual ~Bench() = default;
    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Build machines (or start the daemon) and run the warm-up op. */
    virtual void setup() = 0;
    /** The timed loop. */
    virtual void loop() = 0;
    /** Work the traced run does after its loop (untimed). */
    virtual void afterTrace() {}

    /** Count per-layer stats from now on. */
    void countLayers(LayerCounts *layers) { layers_ = layers; }

    /** Host seconds spent reading per-layer stats. */
    double statsReadSeconds() const
    {
        return std::chrono::duration<double>(statsRead_).count();
    }

  protected:
    /** Acquire a machine under a "harness.acquire" span tagged with
     *  whether the harness built it or reset a cached one. */
    core::Machine &
    acquire(harness::SweepHarness &h, const core::MachineConfig &cfg,
            std::int64_t op)
    {
        Tracer::Scope span(tracer_, "harness.acquire", op);
        const std::uint64_t builds = h.builds();
        core::Machine &m = h.acquire(cfg);
        span.tag(h.builds() != builds ? "build" : "reset");
        return m;
    }

    /** Run @p body on @p m under a "workload.run" span, and count the
     *  machine's per-layer stats afterwards. */
    template <typename Body>
    KernelResult
    run(core::Machine &m, std::int64_t op, Body &&body)
    {
        Clock::time_point start = Clock::now();
        const std::uint64_t rehashes = layers_ ? dirRehashes(m) : 0;
        statsRead_ += Clock::now() - start;
        KernelResult r;
        {
            Tracer::Scope span(tracer_, "workload.run", op);
            r = body(m);
        }
        start = Clock::now();
        if (layers_)
            layers_->addRun(m, r, rehashes);
        statsRead_ += Clock::now() - start;
        return r;
    }

    Tracer &tracer_;
    OpLog &log_;
    LayerCounts *layers_ = nullptr;
    Clock::duration statsRead_{};
};

class SweepBench : public Bench
{
  public:
    SweepBench(Workload w, std::uint64_t seed, double seconds,
               Tracer &tracer, OpLog &log)
        : Bench(tracer, log), in_(makeSweep(w, seed, seconds))
    {}

    void
    setup() override
    {
        harness_ = std::make_unique<harness::SweepHarness>();
        // One build per distinct machine shape, then the warm-up op.
        std::vector<core::MachineConfig> shapes;
        for (const SweepPoint &p : in_.points) {
            if (std::none_of(shapes.begin(), shapes.end(),
                             [&](const core::MachineConfig &s) {
                                 return s.compatibleShape(p.config);
                             })) {
                shapes.push_back(p.config);
                acquire(*harness_, p.config, -1);
            }
        }
        log_.untimed(runPoint(0, -1));
    }

    void
    loop() override
    {
        std::int64_t op = 0;
        for (std::size_t pass = 0; pass < in_.passes; ++pass) {
            for (std::uint32_t i = 0; i < in_.points.size(); ++i) {
                const Clock::time_point start = Clock::now();
                const std::string why = runPoint(i, op++);
                log_.op(secondsSince(start) * 1e3, why);
            }
        }
    }

  private:
    std::string
    runPoint(std::uint32_t i, std::int64_t op)
    {
        const SweepPoint &p = in_.points[i];
        Tracer::Scope span(tracer_, "op", op);
        try {
            core::Machine &m = acquire(*harness_, p.config, op);
            const KernelResult r = run(
                m, op, [&](core::Machine &mm) { return p.run(mm); });
            log_.simCycles += r.cycles;
            const std::string why = log_.check(i, r);
            return why.empty() ? why : p.label + ": " + why;
        } catch (const std::exception &e) {
            return p.label + ": " + e.what();
        }
    }

    SweepInputs in_;
    std::unique_ptr<harness::SweepHarness> harness_;
};

class ServiceBench : public Bench
{
  public:
    ServiceBench(std::uint64_t seed, double seconds,
                 const std::string &cache_file, Tracer &tracer, OpLog &log)
        : Bench(tracer, log), in_(makeService(seed, seconds)),
          cacheFile_(cache_file)
    {}

    ~ServiceBench() override
    {
        daemon_.reset();
        std::error_code ec;
        std::filesystem::remove(cacheFile_, ec);
    }

    void
    setup() override
    {
        // Every set-up starts the daemon on an empty cache file.
        daemon_.reset();
        std::filesystem::remove(cacheFile_);
        service::DaemonOptions opt;
        opt.threads = 1;
        opt.cacheFile = cacheFile_;
        daemon_ = std::make_unique<service::Daemon>(opt);
        daemon_->setWarningSink(
            [this](const std::string &m) { log_.untimed("daemon: " + m); });
        std::string error;
        {
            Tracer::Scope span(tracer_, "store.load", -1);
            daemon_->start(&error);
        }
        if (!error.empty())
            throw std::runtime_error("daemon start: " + error);
        log_.untimed(request(in_.warmupLine, {kWarmupPoint}, -1));
        baseEvictions_ = daemon_->service().cache().stats().evictions;
        baseBytes_ = std::filesystem::file_size(cacheFile_);
    }

    void
    loop() override
    {
        for (std::size_t l = 0; l < in_.lines.size(); ++l) {
            const Clock::time_point start = Clock::now();
            const std::string why =
                request(in_.lines[l], in_.linePoints[l], std::int64_t(l));
            log_.op(secondsSince(start) * 1e3, why);
        }
        if (layers_) {
            layers_->cacheEvictions +=
                daemon_->service().cache().stats().evictions - baseEvictions_;
            layers_->storeBytesAppended +=
                std::filesystem::file_size(cacheFile_) - baseBytes_;
        }
    }

    /**
     * The daemon's machines are private to each batch, so the traced
     * run re-simulates every point the daemon simulated, on a fresh
     * harness per request line exactly like the daemon's serial
     * batch, to read the per-layer stats; each replay must reproduce
     * the daemon's result bit for bit.
     */
    void
    afterTrace() override
    {
        std::int64_t line = -2;
        std::unique_ptr<harness::SweepHarness> h;
        for (const Replay &item : replays_) {
            if (item.op != line || !h) {
                h = std::make_unique<harness::SweepHarness>();
                line = item.op;
            }
            try {
                core::Machine &m = acquire(*h, item.point.config, item.op);
                const KernelResult r =
                    run(m, item.op, [&](core::Machine &mm) {
                        return service::runWorkload(item.point.workload, mm);
                    });
                if (resultDigest(r) != item.digest)
                    log_.untimed("replay of op " + std::to_string(item.op) +
                                 " differs from the daemon's result");
            } catch (const std::exception &e) {
                log_.untimed(std::string("replay: ") + e.what());
            }
        }
        replays_.clear();
    }

  private:
    static constexpr std::uint32_t kWarmupPoint = ~std::uint32_t{0};

    struct Replay
    {
        std::int64_t op;
        service::RequestPoint point;
        std::uint64_t digest;
    };

    /** Send one request line; returns why it failed, or "". */
    std::string
    request(const std::string &line, const std::vector<std::uint32_t> &slots,
            std::int64_t op)
    {
        Tracer::Scope span(tracer_, "op", op);
        const std::string where = "request " + std::to_string(op) + ": ";
        try {
            service::SweepRequest parsed;
            if (tracer_.enabled()) {
                Tracer::Scope parse(tracer_, "codec.parse", op);
                parsed = service::ConfigCodec::parseRequest(line);
            }
            std::string response;
            bool ok = false;
            {
                Tracer::Scope call(tracer_, "daemon.request", op);
                response = daemon_->handleRequest(line, &ok);
            }
            const service::Json doc = service::Json::parse(response);
            const service::Json *results = doc.find("results");
            const service::Json *stats = doc.find("stats");
            if (!ok || results == nullptr || stats == nullptr ||
                !results->isArray() ||
                results->array().size() != slots.size())
                return where + "error response " + response.substr(0, 300);

            std::string why;
            std::vector<KernelResult> outputs;
            for (std::size_t j = 0; j < slots.size(); ++j) {
                const service::Json &entry = results->array()[j];
                const service::Json *served = entry.find("ok");
                const service::Json *block = entry.find("result");
                const service::Json *hit = entry.find("cacheHit");
                if (served == nullptr || !served->boolean() ||
                    block == nullptr || hit == nullptr) {
                    why = "point " + std::to_string(j) + " failed";
                    continue;
                }
                const KernelResult r = resultFromJson(*block);
                if (const std::string bad = log_.check(slots[j], r);
                    !bad.empty() && why.empty())
                    why = "point " + std::to_string(j) + ": " + bad;
                if (!hit->boolean()) {
                    log_.simCycles += r.cycles;
                    if (tracer_.enabled())
                        replays_.push_back(
                            {op, parsed.points.at(j), resultDigest(r)});
                }
                outputs.push_back(r);
            }
            if (tracer_.enabled()) {
                Tracer::Scope ser(tracer_, "codec.serialize", op);
                for (const KernelResult &r : outputs)
                    (void)service::ConfigCodec::serializeResult(r);
            }
            if (layers_) {
                layers_->servicePoints += slots.size();
                layers_->serializedResults += outputs.size();
                layers_->cacheHits += u64(stats->find("cacheHits"));
                layers_->simulatedPoints += u64(stats->find("simulated"));
            }
            return why.empty() ? why : where + why;
        } catch (const std::exception &e) {
            return where + e.what();
        }
    }

    static std::uint64_t
    u64(const service::Json *v)
    {
        if (v == nullptr || !v->isNumber())
            throw std::runtime_error("response stats lack a count");
        return static_cast<std::uint64_t>(v->number());
    }

    ServiceInputs in_;
    std::string cacheFile_;
    std::unique_ptr<service::Daemon> daemon_;
    std::vector<Replay> replays_;
    std::uint64_t baseEvictions_ = 0;
    std::uintmax_t baseBytes_ = 0;
};

struct Options
{
    Workload workload = Workload::AppsSweep;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    bool info = false;
    bool setupOnly = false;
    std::string pins;
    std::string tmpDir = ".";
    std::string traceOut;
};

std::unique_ptr<Bench>
makeBench(const Options &opt, Tracer &tracer, OpLog &log)
{
    if (opt.workload == Workload::ServiceMix) {
        const std::string file =
            (std::filesystem::path(opt.tmpDir) /
             ("service-cache-" + std::to_string(::getpid()) + ".bin"))
                .string();
        return std::make_unique<ServiceBench>(opt.seed, opt.seconds, file,
                                              tracer, log);
    }
    return std::make_unique<SweepBench>(opt.workload, opt.seed, opt.seconds,
                                        tracer, log);
}

std::string
buildInfo()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    return JsonObject()
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("core_flags", PERFBENCH_CORE_FLAGS)
        .str("compiler", PERFBENCH_COMPILER)
        .boolean("optimized", optimized)
        .text();
}

/** Points a pin list of the workload covers. */
std::size_t
pointCount(const Options &opt)
{
    return opt.workload == Workload::ServiceMix
               ? makeService(opt.seed, 1.0).pool.size()
               : makeSweep(opt.workload, opt.seed, 1.0).points.size();
}

/** Digest of every point of the workload, each simulated once. */
std::string
pinDigests(const Options &opt)
{
    harness::SweepHarness h;
    std::string list;
    auto add = [&](const KernelResult &r) {
        list += (list.empty() ? "\"" : ",\"") + hex64(resultDigest(r)) + "\"";
    };
    if (opt.workload == Workload::ServiceMix) {
        for (const std::string &point : makeService(opt.seed, 1.0).pool) {
            const service::RequestPoint p =
                service::ConfigCodec::parseRequest("{\"points\":[" + point +
                                                   "]}")
                    .points.at(0);
            add(service::runWorkload(p.workload, h.acquire(p.config)));
        }
    } else {
        for (const SweepPoint &p :
             makeSweep(opt.workload, opt.seed, 1.0).points)
            add(p.run(h.acquire(p.config)));
    }
    return JsonObject()
        .str("workload", name(opt.workload))
        .num("seed", opt.seed)
        .raw("digests", "[" + list + "]")
        .text();
}

std::string
failuresJson(const OpLog &log)
{
    std::string out = "[";
    for (std::size_t i = 0; i < log.failures.size(); ++i)
        out += (i ? "," : "") + service::jsonQuote(log.failures[i]);
    return out + "]";
}

/** Set up once (cold); returns the bench and the set-up seconds. */
std::pair<std::unique_ptr<Bench>, double>
coldSetup(const Options &opt, Tracer &off, OpLog &log)
{
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Bench> bench = makeBench(opt, off, log);
    bench->setup();
    return {std::move(bench), secondsSince(start)};
}

/** --setup-only: one cold set-up. */
std::string
runSetupOnly(const Options &opt, OpLog &log)
{
    Tracer off(false);
    const double setup = coldSetup(opt, off, log).second;
    return JsonObject().num("setup_s", setup).text();
}

/** --trace 0: one cold set-up, then time one loop. */
std::string
runUntraced(const Options &opt, OpLog &log)
{
    Tracer off(false);
    auto [bench, setup] = coldSetup(opt, off, log);

    log.clearTimed();
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    bench->loop();
    const double wall = secondsSince(start);
    const double cpu = cpuSeconds() - cpu0;
    bench.reset();

    std::vector<double> sorted = log.latencyMs;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    // The highest percentile with at least 10 samples beyond it.
    const double tail = n > 10 ? sorted[n - 11] : n ? sorted.back() : 0.0;
    const double tail_pct = n > 10 ? 100.0 * double(n - 10) / double(n)
                                   : 100.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    return JsonObject()
        .raw("metrics",
             JsonObject()
                 .num("setup_s", setup)
                 .num("ops_per_s", double(log.attempted) / wall)
                 .num("host_cpu_s", cpu)
                 .num("sim_cycles_per_host_s", double(log.simCycles) / cpu)
                 .num("op_ms_p50", median(log.latencyMs))
                 .num("op_ms_tail", tail)
                 .num("peak_rss_mb", double(ru.ru_maxrss) / 1024.0)
                 .num("failed_share",
                      double(log.failed) / double(std::max<std::uint64_t>(
                                               1, log.attempted)))
                 .text())
        .raw("tail", JsonObject()
                         .num("percentile", tail_pct)
                         .num("samples", std::uint64_t(n))
                         .text())
        .num("loop_wall_s", wall)
        .text();
}

/**
 * CPU seconds one span adds to the traced loop: the median, over five
 * batches, of opening and closing a span in a fresh tracer.
 */
double
spanCostSeconds()
{
    constexpr int kBatches = 5;
    constexpr int kSpans = 20000;
    std::vector<double> costs;
    for (int b = 0; b < kBatches; ++b) {
        Tracer t(true);
        const double cpu0 = cpuSeconds();
        for (int i = 0; i < kSpans; ++i)
            Tracer::Scope span(t, "calibrate", i);
        costs.push_back((cpuSeconds() - cpu0) / kSpans);
    }
    return median(costs);
}

/** --trace 1: the loop, traced, from a fresh set-up. */
std::string
runTraced(const Options &opt, OpLog &log)
{
    Tracer tracer(true);
    LayerCounts layers;
    double traced_cpu = 0.0;
    double stats_read_s = 0.0;
    {
        std::unique_ptr<Bench> bench = makeBench(opt, tracer, log);
        const coro::FramePool::Stats pool0 = coro::framePool().stats();
        bench->countLayers(&layers);
        bench->setup();
        log.clearTimed();
        const double cpu0 = cpuSeconds();
        bench->loop();
        traced_cpu = cpuSeconds() - cpu0;
        layers.addPool(pool0, coro::framePool().stats());
        stats_read_s = bench->statsReadSeconds();
        bench->afterTrace();
    }

    // Host times per layer, from the spans.
    for (const Tracer::Span &s : tracer.spans()) {
        const auto ns = static_cast<std::uint64_t>(s.endNs - s.startNs);
        const std::string name = s.name;
        if (name == "harness.acquire") {
            const bool build = std::strcmp(s.tag, "build") == 0;
            (build ? layers.builds : layers.reuses) += 1;
            (build ? layers.buildNs : layers.resetNs) += ns;
        } else if (name == "workload.run") {
            ++layers.runs;
            layers.runNs += ns;
        } else if (name == "daemon.request") {
            ++layers.requests;
            layers.requestNs += ns;
        } else if (name == "codec.parse") {
            layers.parseNs += ns;
        } else if (name == "codec.serialize") {
            layers.serializeNs += ns;
        }
    }
    if (!opt.traceOut.empty() && !tracer.write(opt.traceOut))
        log.untimed("cannot write trace " + opt.traceOut);

    // What tracing adds to the loop: the spans, the codec calls only
    // the traced loop makes (timed by their own spans) and the stats
    // reads. Set-up and replay spans count too; they are few.
    const double span_s = spanCostSeconds();
    const auto spans = std::uint64_t(tracer.spans().size());
    const double codec_s = double(layers.parseNs + layers.serializeNs) / 1e9;
    const double overhead = double(spans) * span_s + codec_s + stats_read_s;

    JsonObject metrics;
    layers.emit(metrics);
    metrics.num("trace.overhead_cpu_s", overhead)
        .num("trace.spans", spans)
        .num("trace.ops", log.attempted);
    return JsonObject()
        .raw("metrics", metrics.text())
        .num("traced_cpu_s", traced_cpu)
        .raw("overhead", JsonObject()
                             .num("span_ns", span_s * 1e9)
                             .num("spans_s", double(spans) * span_s)
                             .num("codec_s", codec_s)
                             .num("stats_read_s", stats_read_s)
                             .num("share_of_traced_cpu", overhead / traced_cpu)
                             .text())
        .raw("self_ms", tracer.summaryJson())
        .text();
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--pin" || arg == "--info" || arg == "--setup-only") {
            (arg == "--pin"    ? opt.pin
             : arg == "--info" ? opt.info
                               : opt.setupOnly) = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                const auto w = parseWorkload(value);
                if (!w) {
                    error = "unknown workload " + value;
                    return false;
                }
                opt.workload = *w;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = value == "1";
            } else if (arg == "--pins") {
                opt.pins = value;
            } else if (arg == "--tmp-dir") {
                opt.tmpDir = value;
            } else if (arg == "--trace-out") {
                opt.traceOut = value;
            } else {
                error = "unknown argument " + arg;
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value for " + arg + ": " + value;
            return false;
        }
    }
    if (!(opt.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string error;
    if (!parseArgs(argc, argv, opt, error)) {
        std::fprintf(stderr, "wisync_perfbench: %s\n", error.c_str());
        return 2;
    }
    if (opt.info) {
        std::cout << buildInfo() << "\n";
        return 0;
    }
    try {
        if (opt.pin) {
            std::cout << pinDigests(opt) << "\n";
            return 0;
        }
        std::vector<std::uint64_t> pins;
        if (!opt.pins.empty())
            pins = loadPins(opt.pins, name(opt.workload), opt.seed);
        if (!pins.empty() && pins.size() != pointCount(opt))
            throw std::runtime_error(
                "pin file has " + std::to_string(pins.size()) +
                " digests for " + name(opt.workload) + " seed " +
                std::to_string(opt.seed) + ", the workload has " +
                std::to_string(pointCount(opt)) + " points");
        OpLog log(pins);
        const std::string body = opt.setupOnly ? runSetupOnly(opt, log)
                                 : opt.trace   ? runTraced(opt, log)
                                               : runUntraced(opt, log);
        std::cout << JsonObject()
                         .str("workload", name(opt.workload))
                         .num("seed", opt.seed)
                         .boolean("pinned", !pins.empty())
                         .num("attempted", log.attempted)
                         .num("failed", log.failed)
                         .num("untimed_failed", log.untimedFailed)
                         .raw("failures", failuresJson(log))
                         .raw("run", body)
                         .text()
                  << "\n";
        return log.failed + log.untimedFailed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wisync_perfbench: %s\n", e.what());
        return 2;
    }
}
