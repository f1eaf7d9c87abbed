/**
 * @file
 * Shared pieces of the repository benchmark: options, the host clock,
 * the in-memory span tracer of the traced run, metric reporting, and
 * the machine/build stamp.
 *
 * The benchmark drives the library only through its public headers and
 * times each layer from outside, around the calls it makes into it.
 */

#pragma once

#include <time.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/access.h"
#include "common/types.h"
#include "compress/compressor.h"

namespace perfbench {

using buddy::Addr;
using buddy::BatchSummary;
using buddy::u32;
using buddy::u64;
using buddy::u8;

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned shards = 0;     ///< 0 = the workload's own shard count
    std::string traceOut;    ///< span file of the traced run ("" = none)
};

/** Host time in nanoseconds (steady clock). */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * CPU time of the whole process (every thread) in nanoseconds. The
 * gated host metrics use it: on a shared machine wall time also counts
 * the time a virtual CPU is descheduled, which swings by tens of
 * percent from minute to minute, while CPU time does not.
 */
inline u64
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1000000000ull +
           static_cast<u64>(ts.tv_nsec);
}

/** Seconds between two nowNs() (or cpuNs()) readings. */
inline double
secondsBetween(u64 start, u64 end)
{
    return static_cast<double>(end - start) * 1e-9;
}

/** One recorded span: a call the benchmark made into a layer. */
struct Span
{
    const char *name = nullptr; ///< string literal naming the call
    u64 start = 0;              ///< nowNs() at entry
    u64 end = 0;                ///< nowNs() at exit
    int parent = -1;            ///< index of the enclosing span, -1 = root
    u64 batch = 0;              ///< per-batch id (0 = not batch-scoped)
};

/**
 * In-memory span recorder. Disabled, every call is a no-op and reads no
 * clock, so the untraced run pays nothing for it. Spans nest through an
 * open-span stack and are written out once, at exit.
 */
class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int
    open(const char *name, u64 batch = 0)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.batch = batch;
        s.start = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close span @p id (the innermost open one). */
    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-span self time: duration minus the children's durations. */
    std::vector<u64> selfTimes() const;

    /**
     * Write the spans as a Chrome trace_event document (loadable in
     * Perfetto), with @p stampJson as its metadata. Fatal on I/O error.
     */
    void writeChrome(const std::string &path,
                     const std::string &stampJson) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, u64 batch = 0)
        : t_(t), id_(t.open(name, batch))
    {}
    ~ScopedSpan() { t_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Aggregates over every span of one name. */
struct SpanStats
{
    u64 count = 0;
    double totalS = 0.0;         ///< summed durations
    std::vector<double> durUs;   ///< each span's duration in microseconds
};

/** SpanStats of the spans named @p name. */
SpanStats spanStats(const Tracer &t, const char *name);

/** Which clock a metric reads. */
enum class Clock { Host, Sim, None };

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    Clock clock = Clock::None;
    double value = 0.0;
    u64 samples = 0; ///< samples behind the value (0 = not a sample stat)
};

/** Everything one workload run reports. */
struct Report
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<Metric> extra; ///< end-to-end, printed but not gated
    std::vector<std::string> notes; ///< printed after the metric tables
    u64 attempted = 0;              ///< entry ops attempted
    u64 failed = 0;                 ///< entry ops that failed a check
    bool checksOk = true;           ///< every non-op check passed

    void
    e2e(const std::string &name, const std::string &unit, Clock clock,
        double value, u64 samples = 0)
    {
        endToEnd.push_back({name, unit, clock, value, samples});
    }

    void
    info(const std::string &name, const std::string &unit, Clock clock,
         double value, u64 samples = 0)
    {
        extra.push_back({name, unit, clock, value, samples});
    }

    void
    layer(const std::string &name, const std::string &unit, Clock clock,
          double value, u64 samples = 0)
    {
        perLayer.push_back({name, unit, clock, value, samples});
    }

    /** Record a failed check (exits nonzero). */
    void
    fail(const std::string &what)
    {
        checksOk = false;
        notes.push_back("CHECK FAILED: " + what);
    }
};

constexpr unsigned kMinSetups = 5;
constexpr unsigned kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;

/**
 * True while another set-up should run: at least kMinSetups, then more
 * while they sum to under kSetupBudgetS. setup_s is their median.
 */
inline bool
moreSetups(std::size_t done, double spentS)
{
    return done < kMinSetups || (done < kMaxSetups && spentS < kSetupBudgetS);
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** One line giving the count and the min, p10, p25, median, p75, p90
 *  and max of epoch rates measured on @p clock ("wall" or "cpu"). */
std::string rateSpread(const char *clock, const std::vector<double> &rates);

/** Nearest-rank quantile @p q in [0,1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB (getrusage ru_maxrss). */
double peakRssMb();

/** Machine and build stamp as one JSON object. */
std::string machineStamp();

/** Print the stamp, warnings for debug/sanitizer builds. */
void printStamp(const std::string &stampJson);

/** SplitMix64 mix of a seed and a stream tag. */
u64 mixSeed(u64 seed, u64 tag);

/**
 * The per-layer metrics every workload reports, as (name, unit) in report
 * order; the same list as per_layer in BENCHMARK.json.
 */
const std::vector<std::pair<std::string, std::string>> &perLayerSpec();

/**
 * Report a per-layer metric the workload does not exercise as 0 in its
 * declared unit with no samples, so every workload emits the full
 * per-layer set; fail on a metric whose unit differs from the declared one.
 */
void fillMissingLayers(Report &r);

/** The three workloads; each returns its report. */
Report runHpcStencil(const Options &opt, Tracer &tracer);
Report runDlTrain(const Options &opt, Tracer &tracer);
Report runServiceFleet(const Options &opt, Tracer &tracer);

/**
 * The codec shadow: times Compressor::compressInto over a write batch's
 * non-zero entries, and decompressFrom over a read batch's (encoded
 * untimed first), and checks every round trip outside the timed span.
 */
class CodecShadow
{
  public:
    CodecShadow();

    /** One batch of @p ops ops whose non-zero entries are @p src. */
    void batch(const std::vector<const u8 *> &src, bool write, u64 ops,
               Tracer &t, Report &r);

    /** Add the compress.* per-layer rows. */
    void report(Report &r, const Tracer &t) const;

  private:
    std::unique_ptr<buddy::Compressor> codec_;
    buddy::CompressionScratch scratch_;
    std::vector<u8> payload_;
    std::vector<u8> decoded_;
    std::vector<std::size_t> bits_;
    u64 compressed_ = 0;
    u64 decompressed_ = 0;
    u64 writeOps_ = 0;
    u64 storedBits_ = 0;
};

/** Sim metrics derived from accumulated batch totals. */
void addSimLayerMetrics(Report &r, const BatchSummary &s);

/** Host-time metrics of the traced run's spans shared by workloads. */
void addTraceOverhead(Report &r, const Tracer &t, double untracedRate,
                      double tracedRate, const char *timedRoot);

} // namespace perfbench
