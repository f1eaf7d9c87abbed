/**
 * @file
 * Repository benchmark entry point: runs one workload and prints every
 * metric by name and unit, then one JSON result line.
 *
 *   perfbench --workload hpc-stencil|dl-train|service-fleet --seed N
 *             --seconds S --trace 0|1 [--shards K] [--trace-out spans.json]
 *
 * With --trace 0 the result line carries the end-to-end metrics; with
 * --trace 1 it carries the per-layer metrics of the traced run. Exits
 * nonzero when any output check fails.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

const char *
clockName(Clock c)
{
    switch (c) {
    case Clock::Host: return "host";
    case Clock::Sim: return "sim";
    case Clock::None: return "-";
    }
    return "-";
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n", title);
    std::printf("  %-36s %22s  %-8s %-5s %s\n", "metric", "value", "unit",
                "clock", "samples");
    for (const Metric &m : ms)
        std::printf("  %-36s %22.10g  %-8s %-5s %llu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), clockName(m.clock),
                    static_cast<unsigned long long>(m.samples));
}

std::string
metricsJson(const std::vector<Metric> &ms, bool withClock)
{
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (withClock)
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                          "\"clock\": \"%s\", \"samples\": %llu}",
                          i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                          ms[i].unit.c_str(), clockName(ms[i].clock),
                          static_cast<unsigned long long>(ms[i].samples));
        else
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                          ms[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload hpc-stencil|dl-train|"
                 "service-fleet --seed N --seconds S --trace 0|1 "
                 "[--shards K] [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (flag == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--shards") {
            o.shards = static_cast<unsigned>(std::strtoul(v, &end, 10));
        } else if (flag == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0) || o.shards > 2)
        usage("--seconds must be positive and --shards at most 2");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const std::string stamp = machineStamp();
    printStamp(stamp);
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    Tracer tracer;
    Report r;
    if (opt.workload == "hpc-stencil")
        r = runHpcStencil(opt, tracer);
    else if (opt.workload == "dl-train")
        r = runDlTrain(opt, tracer);
    else if (opt.workload == "service-fleet")
        r = runServiceFleet(opt, tracer);
    else
        usage(("unknown workload " + opt.workload).c_str());

    if (opt.trace)
        fillMissingLayers(r);
    for (const auto *ms : {&r.endToEnd, &r.perLayer, &r.extra})
        for (const Metric &m : *ms)
            if (!std::isfinite(m.value))
                r.fail("metric " + m.name + " is not finite");

    const double failedFrac =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 1.0;
    printTable(opt.trace ? "end-to-end (from the untraced half of a traced "
                           "run; report --trace 0 numbers)"
                         : "end-to-end",
               r.endToEnd);
    r.info("failed_op_frac", "ratio", Clock::None, failedFrac, r.attempted);
    printTable("end-to-end, also measured (printed, not gated)", r.extra);
    if (opt.trace)
        printTable("per-layer (traced run; host rows are self time from "
                   "spans or shadow replays, sim rows are exact)",
                   r.perLayer);
    std::printf("\n");
    for (const std::string &n : r.notes)
        std::printf("%s\n", n.c_str());

    if (opt.trace && !opt.traceOut.empty()) {
        tracer.writeChrome(opt.traceOut, stamp);
        std::printf("spans: %zu -> %s\n", tracer.spans().size(),
                    opt.traceOut.c_str());
    }

    const bool correct = r.checksOk && r.failed == 0 && r.attempted > 0;
    std::printf("detail {\"end_to_end\": %s, \"per_layer\": %s}\n",
                metricsJson(r.endToEnd, true).c_str(),
                metricsJson(r.perLayer, true).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metricsJson(opt.trace ? r.perLayer : r.endToEnd, false)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
