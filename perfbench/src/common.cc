#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "api/codec_registry.h"
#include "bench.h"
#include "engine/engine.h"

namespace perfbench {

std::vector<u64>
Tracer::selfTimes() const
{
    std::vector<u64> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
}

void
Tracer::writeChrome(const std::string &path,
                    const std::string &stampJson) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
        std::exit(1);
    }
    const u64 t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"metadata\":" << stampJson << ",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%zu,\"parent\":%d,\"batch\":%llu}}",
                      i ? "," : "", s.name,
                      static_cast<double>(s.start - t0) * 1e-3,
                      static_cast<double>(s.end - s.start) * 1e-3, i,
                      s.parent, static_cast<unsigned long long>(s.batch));
        out << buf;
    }
    out << "\n]}\n";
    if (!out) {
        std::fprintf(stderr, "write failed: %s\n", path.c_str());
        std::exit(1);
    }
}

SpanStats
spanStats(const Tracer &t, const char *name)
{
    SpanStats st;
    const std::string want(name);
    const auto &spans = t.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (want != spans[i].name)
            continue;
        const u64 dur = spans[i].end - spans[i].start;
        ++st.count;
        st.totalS += static_cast<double>(dur) * 1e-9;
        st.durUs.push_back(static_cast<double>(dur) * 1e-3);
    }
    return st;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
rateSpread(const char *clock, const std::vector<double> &rates)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "entries per %s second over %zu epochs: min %.0f, p10 "
                  "%.0f, p25 %.0f, median %.0f, p75 %.0f, p90 %.0f, max %.0f",
                  clock, rates.size(), quantile(rates, 0.0),
                  quantile(rates, 0.1), quantile(rates, 0.25), median(rates),
                  quantile(rates, 0.75), quantile(rates, 0.9),
                  quantile(rates, 1.0));
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
debugBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return false;
#else
    return true;
#endif
}

} // namespace

std::string
machineStamp()
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 0)
        load[0] = load[1] = load[2] = -1;
    std::ostringstream o;
    o << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu\":\"" << jsonEscape(cpuModel()) << "\""
      << ",\"compiler\":\"" << jsonEscape(__VERSION__) << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"debug_build\":" << (debugBuild() ? "true" : "false")
      << ",\"sanitizer_build\":" << (sanitizerBuild() ? "true" : "false")
      << ",\"loadavg\":[" << load[0] << "," << load[1] << "," << load[2]
      << "]}";
    return o.str();
}

void
printStamp(const std::string &stampJson)
{
    std::printf("stamp %s\n", stampJson.c_str());
    if (debugBuild())
        std::printf("WARNING: unoptimized or assert-enabled build; host "
                    "times are not comparable with optimized runs\n");
    if (sanitizerBuild())
        std::printf("WARNING: sanitizer build; host times are not "
                    "comparable with uninstrumented runs\n");
}

u64
mixSeed(u64 seed, u64 tag)
{
    return buddy::engine::splitmix64(seed ^ buddy::engine::splitmix64(tag));
}

const std::vector<std::pair<std::string, std::string>> &
perLayerSpec()
{
    static const std::vector<std::pair<std::string, std::string>> spec = {
        {"core.profiler.profile_s", "s"},
        {"engine.construct_s", "s"},
        {"engine.allocate_us", "us"},
        {"engine.populate_s", "s"},
        {"engine.read_ns_per_entry", "ns"},
        {"engine.write_ns_per_entry", "ns"},
        {"engine.execute_us_p50", "us"},
        {"engine.execute_us_p99", "us"},
        {"engine.execute_count", "count"},
        {"engine.shards_per_batch", "shards"},
        {"engine.overhead_us_per_batch", "us"},
        {"compress.compress_ns_per_entry", "ns"},
        {"compress.decompress_ns_per_entry", "ns"},
        {"compress.codec_samples", "count"},
        {"compress.stored_bits_per_entry", "bits"},
        {"core.execute_ns_per_op", "ns"},
        {"core.metadata.hit_rate", "ratio"},
        {"api.device_sectors_per_op", "sectors"},
        {"api.buddy_sectors_per_op", "sectors"},
        {"timing.device_window_cycles_per_op", "cycles"},
        {"timing.buddy_window_cycles_per_op", "cycles"},
        {"timing.codec_stall_cycles_per_op", "cycles"},
        {"engine.trace.record_ns_per_op", "ns"},
        {"engine.trace.serialize_ns_per_op", "ns"},
        {"engine.trace.load_ns_per_op", "ns"},
        {"engine.trace.bytes_per_op", "B"},
        {"service.run_us_per_batch", "us"},
        {"service.session_next_ns_per_batch", "ns"},
        {"service.queue_delay_p50_cycles", "cycles"},
        {"service.queue_delay_p99_cycles", "cycles"},
        {"service.queue_delay_count", "count"},
        {"service.service_p99_cycles", "cycles"},
        {"service.jain_index", "ratio"},
        {"service.max_inflight", "count"},
        {"service.offered_load", "ratio"},
        {"bench.untraced_entries_per_s", "1/s"},
        {"bench.traced_entries_per_s", "1/s"},
        {"bench.trace_overhead_frac", "ratio"},
        {"bench.span_coverage", "ratio"},
    };
    return spec;
}

void
fillMissingLayers(Report &r)
{
    std::map<std::string, Metric> have;
    for (const Metric &m : r.perLayer)
        have[m.name] = m;
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : perLayerSpec()) {
        const auto it = have.find(name);
        if (it == have.end()) {
            ordered.push_back({name, unit, Clock::None, 0.0, 0});
            continue;
        }
        if (it->second.unit != unit)
            r.fail("per-layer metric " + name + " has unit " +
                   it->second.unit + ", declared " + unit);
        ordered.push_back(it->second);
        have.erase(it);
    }
    for (const auto &kv : have)
        r.fail("per-layer metric not in the declared list: " + kv.first);
    r.perLayer = std::move(ordered);
}

CodecShadow::CodecShadow()
    : codec_(buddy::CodecRegistry::instance().create("bpc"))
{}

void
CodecShadow::batch(const std::vector<const u8 *> &src, bool write, u64 ops,
                   Tracer &t, Report &r)
{
    using buddy::kEntryBytes;
    using buddy::kMaxEncodedBytes;
    payload_.resize(src.size() * kMaxEncodedBytes);
    bits_.resize(src.size());
    auto encode = [&] {
        for (std::size_t i = 0; i < src.size(); ++i)
            bits_[i] = codec_->compressInto(
                src[i], payload_.data() + i * kMaxEncodedBytes, scratch_);
    };
    if (write) {
        {
            ScopedSpan s(t, "shadow.compress");
            encode();
        }
        compressed_ += src.size();
        writeOps_ += ops;
        for (std::size_t b : bits_)
            storedBits_ += b;
        return;
    }
    encode();
    decoded_.resize(src.size() * kEntryBytes);
    {
        ScopedSpan s(t, "shadow.decompress");
        for (std::size_t i = 0; i < src.size(); ++i)
            codec_->decompressFrom(payload_.data() + i * kMaxEncodedBytes,
                                   bits_[i], decoded_.data() + i * kEntryBytes);
    }
    decompressed_ += src.size();
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (std::memcmp(decoded_.data() + i * kEntryBytes, src[i],
                        kEntryBytes) != 0) {
            r.fail("codec shadow round trip mismatch");
            return;
        }
    }
}

void
CodecShadow::report(Report &r, const Tracer &t) const
{
    const SpanStats cs = spanStats(t, "shadow.compress");
    const SpanStats ds = spanStats(t, "shadow.decompress");
    r.layer("compress.compress_ns_per_entry", "ns", Clock::Host,
            cs.totalS * 1e9 /
                static_cast<double>(std::max<u64>(compressed_, 1)),
            compressed_);
    r.layer("compress.decompress_ns_per_entry", "ns", Clock::Host,
            ds.totalS * 1e9 /
                static_cast<double>(std::max<u64>(decompressed_, 1)),
            decompressed_);
    r.layer("compress.codec_samples", "count", Clock::None,
            static_cast<double>(compressed_ + decompressed_));
    // Zero entries skip the codec and are stored as 0 bits.
    r.layer("compress.stored_bits_per_entry", "bits", Clock::Sim,
            static_cast<double>(storedBits_) /
                static_cast<double>(std::max<u64>(writeOps_, 1)),
            writeOps_);
}

void
addSimLayerMetrics(Report &r, const BatchSummary &s)
{
    const double ops = static_cast<double>(std::max<u64>(s.operations(), 1));
    const u64 meta = s.metadataHits + s.metadataMisses;
    r.layer("core.metadata.hit_rate", "ratio", Clock::Sim,
            meta ? static_cast<double>(s.metadataHits) /
                       static_cast<double>(meta)
                 : 0.0,
            meta);
    r.layer("api.device_sectors_per_op", "sectors", Clock::Sim,
            static_cast<double>(s.deviceSectors) / ops, s.operations());
    r.layer("api.buddy_sectors_per_op", "sectors", Clock::Sim,
            static_cast<double>(s.buddySectors) / ops, s.operations());
    r.layer("timing.device_window_cycles_per_op", "cycles", Clock::Sim,
            static_cast<double>(s.deviceWindowCycles) / ops,
            s.operations());
    r.layer("timing.buddy_window_cycles_per_op", "cycles", Clock::Sim,
            static_cast<double>(s.buddyWindowCycles) / ops, s.operations());
    r.layer("timing.codec_stall_cycles_per_op", "cycles", Clock::Sim,
            static_cast<double>(s.codecChargedWindowCycles -
                                s.combinedWindowCycles) /
                ops,
            s.operations());
}

void
addTraceOverhead(Report &r, const Tracer &t, double untracedRate,
                 double tracedRate, const char *timedRoot)
{
    const std::vector<u64> self = t.selfTimes();
    r.layer("bench.untraced_entries_per_s", "1/s", Clock::Host,
            untracedRate);
    r.layer("bench.traced_entries_per_s", "1/s", Clock::Host, tracedRate);
    r.layer("bench.trace_overhead_frac", "ratio", Clock::Host,
            untracedRate > 0 ? 1.0 - tracedRate / untracedRate : 0.0);

    // Share of the traced timed phase covered by the self time of the
    // spans under its root (the rest is the root's own loop glue).
    const std::string root(timedRoot);
    const auto &spans = t.spans();
    double rootS = 0.0, childSelfS = 0.0;
    std::vector<bool> under(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (root == spans[i].name) {
            rootS += static_cast<double>(spans[i].end - spans[i].start) *
                     1e-9;
            under[i] = true;
        } else if (p >= 0 && under[static_cast<std::size_t>(p)]) {
            under[i] = true;
            childSelfS += static_cast<double>(self[i]) * 1e-9;
        }
    }
    r.layer("bench.span_coverage", "ratio", Clock::Host,
            rootS > 0 ? childSelfS / rootS : 0.0);

    // Where the traced timed phase went, by span name.
    std::map<std::string, std::pair<u64, double>> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!under[i])
            continue;
        auto &e = byName[spans[i].name];
        ++e.first;
        e.second += static_cast<double>(self[i]) * 1e-9;
    }
    r.notes.push_back("traced timed phase by span (self time):");
    char line[256];
    for (const auto &[name, e] : byName) {
        std::snprintf(line, sizeof(line), "  %-28s %8llu spans %10.4f s %6.2f%%",
                      name.c_str(), static_cast<unsigned long long>(e.first),
                      e.second, rootS > 0 ? 100.0 * e.second / rootS : 0.0);
        r.notes.push_back(line);
    }
}

} // namespace perfbench
