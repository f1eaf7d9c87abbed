/**
 * @file
 * The open-loop workload, service-fleet.
 *
 * Hundreds of tenants share one 2-shard engine behind the
 * ServiceScheduler under continuous admission, with seeded Poisson
 * arrivals at a fixed offered load below saturation and weighted-fair
 * scheduling over a weight spread. Every eighth tenant replays a trace
 * captured during set-up from a slice of one of the 16 HPC and DL
 * benchmarks (recorded with TraceRecorderSink, serialised, and reloaded
 * with TraceReplayer::loadImage); the rest are synthetic write/read
 * sessions over small private working sets, so a batch is tens to
 * hundreds of entries and per-batch work dominates per-entry work.
 *
 * One fleet run is one epoch. The timed phase rebuilds the same fleet
 * (same seeds, fresh allocations) and runs it again until the time
 * budget is spent; under WindowMode::Merged every epoch's sim results
 * are the same, and the sim metrics come from the first.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "api/codec_registry.h"
#include "bench.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/sector.h"
#include "core/controller.h"
#include "core/profiler.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "workloads/analysis.h"
#include "workloads/benchmark.h"
#include "workloads/image.h"

namespace perfbench {
namespace {

using namespace buddy;

constexpr std::size_t kTenants = 256;
constexpr std::size_t kTraceEvery = 8; ///< every 8th tenant replays a trace
constexpr u64 kSyntheticBatches = 8;
constexpr u64 kMinEntries = 16;        ///< synthetic working set range
constexpr u64 kMaxEntries = 192;
constexpr u64 kSliceEntries = 64;      ///< entries per captured array
constexpr u64 kSliceBatch = 32;        ///< entries per captured batch
constexpr u64 kSliceModelBytes = 512 * KiB;
constexpr u64 kProfileSamples = 256;
constexpr u64 kLinkWindow = 32;
constexpr unsigned kSlotsPerTenant = 2;
constexpr unsigned kSlots = 16;
constexpr std::size_t kSoloSample = 8; ///< tenants replayed solo
/** Offered load as a share of the fleet's simulated capacity. */
constexpr double kOfferedLoad = 0.6;

/** A slice of one benchmark that set-up captures as a trace. */
struct Slice
{
    std::unique_ptr<BenchmarkSpec> spec;
    std::unique_ptr<WorkloadModel> model;
    std::vector<u64> entries;                 ///< per allocation
    std::vector<std::vector<u8>> snap0, snap1; ///< per allocation
    std::vector<CompressionTarget> targets;
};

Slice
makeSlice(const std::string &name, u64 seed)
{
    Slice s;
    s.spec = std::make_unique<BenchmarkSpec>(findBenchmark(name));
    s.spec->seed = mixSeed(seed, s.spec->seed);
    s.model = std::make_unique<WorkloadModel>(
        *s.spec, std::min(s.spec->footprintBytes, kSliceModelBytes));
    for (std::size_t a = 0; a < s.model->allocations().size(); ++a) {
        const u64 n = std::min(kSliceEntries,
                               s.model->allocations()[a].entries);
        s.entries.push_back(n);
        s.snap0.emplace_back(n * kEntryBytes);
        s.snap1.emplace_back(n * kEntryBytes);
        for (u64 e = 0; e < n; ++e) {
            s.model->entryData(a, e, 0, s.snap0[a].data() + e * kEntryBytes);
            s.model->entryData(a, e, 1, s.snap1[a].data() + e * kEntryBytes);
        }
    }
    return s;
}

EngineConfig
engineConfig(unsigned shards, u64 deviceBytes, u64 seed)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.threads = shards;
    cfg.seed = seed;
    cfg.shard.codec = "bpc";
    cfg.shard.linkWindow = kLinkWindow;
    cfg.shard.windowMode = WindowMode::Merged;
    cfg.shard.deviceBytes = (deviceBytes + MiB - 1) / MiB * MiB + 2 * MiB;
    return cfg;
}

u64
pageRounded(u64 bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/** What one run of a slice's capture stream did. */
struct StreamRun
{
    double seconds = 0;     ///< host seconds of the batch executions
    u64 ops = 0;
    u64 deviceNeed = 0;     ///< device bytes the slice allocates
    double cyclesPerOp = 0; ///< combined windowed cycles per op
    u64 mismatches = 0;     ///< reads that differ from the written data
};

/** A captured, serialised and reloaded trace. */
struct Capture
{
    std::vector<u8> image;
    TraceReplayer replayer;
    StreamRun run;
};

/**
 * Run the slice's capture stream (write snapshot 0, read back, write
 * snapshot 1, read back) on a fresh 1-shard engine, recording when
 * @p rec is given.
 */
StreamRun
runCaptureStream(const Slice &s, TraceRecorderSink *rec, u64 seed)
{
    StreamRun run;
    for (std::size_t a = 0; a < s.entries.size(); ++a)
        run.deviceNeed += pageRounded(s.entries[a] * kEntryBytes) /
                          kEntryBytes * deviceBytesPerEntry(s.targets[a]);
    ShardedEngine eng(engineConfig(1, run.deviceNeed, seed));
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < s.entries.size(); ++a) {
        const std::string name =
            s.spec->name + "/" + s.model->allocations()[a].spec->name;
        const auto id =
            eng.allocate(name, s.entries[a] * kEntryBytes, s.targets[a]);
        if (!id) {
            std::fprintf(stderr, "capture engine out of memory\n");
            std::exit(1);
        }
        const EngineAllocation &ea = eng.allocations().at(*id);
        vas.push_back(ea.va);
        if (rec)
            rec->noteAllocation(name, ea.va, ea.bytes, s.targets[a]);
    }
    if (rec)
        eng.attachSink(rec);
    AccessBatch batch;
    std::vector<u8> readBuf(kSliceBatch * kEntryBytes);
    BatchSummary total;
    for (const auto *snap : {&s.snap0, &s.snap1}) {
        for (const bool write : {true, false}) {
            for (std::size_t a = 0; a < s.entries.size(); ++a) {
                for (u64 i = 0; i < s.entries[a]; i += kSliceBatch) {
                    batch.clear();
                    const u64 end = std::min(i + kSliceBatch, s.entries[a]);
                    for (u64 e = i; e < end; ++e) {
                        if (write)
                            batch.write(vas[a] + e * kEntryBytes,
                                        (*snap)[a].data() + e * kEntryBytes);
                        else
                            batch.read(vas[a] + e * kEntryBytes,
                                       readBuf.data() + (e - i) * kEntryBytes);
                    }
                    const u64 t0 = nowNs();
                    total.accumulate(eng.execute(batch));
                    run.seconds += secondsBetween(t0, nowNs());
                    run.ops += batch.size();
                    if (!write &&
                        std::memcmp(readBuf.data(),
                                    (*snap)[a].data() + i * kEntryBytes,
                                    (end - i) * kEntryBytes) != 0)
                        run.mismatches += end - i;
                }
            }
        }
    }
    if (rec)
        eng.detachSink(rec);
    run.cyclesPerOp = static_cast<double>(total.combinedWindowCycles) /
                      static_cast<double>(run.ops);
    return run;
}

/** Timings of one set-up. */
struct SetupTimes
{
    double total = 0, cpu = 0, profile = 0, serialize = 0, load = 0,
           construct = 0;
};

/** The fleet: shared engine, captures, and one epoch's scheduler. */
struct Fleet
{
    std::vector<Slice> slices;
    std::vector<std::unique_ptr<Capture>> captures;
    std::unique_ptr<ShardedEngine> engine;
    std::unique_ptr<ServiceScheduler> sched;
    std::vector<u64> entries; ///< synthetic working set per tenant
    u64 meanGap = 0;          ///< Poisson mean inter-arrival gap
    u64 seed = 0;
    u64 captureMismatches = 0; ///< capture reads that came back wrong
};

bool
traceBacked(std::size_t i)
{
    return i % kTraceEvery == kTraceEvery - 1;
}

/** The capture trace-backed tenant @p i replays. */
const Capture &
captureOf(const Fleet &f, std::size_t i)
{
    return *f.captures[(i / kTraceEvery) % f.captures.size()];
}

std::string
tenantName(std::size_t i)
{
    return "t" + std::to_string(i);
}

/** Tenant @p i's session on @p eng (identical every epoch). */
std::unique_ptr<TenantSession>
makeSession(const Fleet &f, std::size_t i, ShardedEngine &eng)
{
    if (traceBacked(i))
        return std::make_unique<TenantSession>(
            tenantName(i), captureOf(f, i).replayer, eng,
            1);
    return std::make_unique<TenantSession>(tenantName(i), eng,
                                           mixSeed(f.seed, 1000 + i),
                                           f.entries[i], kSyntheticBatches);
}

/** Build one epoch's scheduler over every tenant. */
void
buildScheduler(Fleet &f, Tracer &tracer)
{
    ServiceConfig scfg;
    scfg.seed = mixSeed(f.seed, 0x5c);
    scfg.maxInflightPerTenant = kSlotsPerTenant;
    scfg.maxInflightTotal = kSlots;
    scfg.policy = SchedPolicy::WeightedFair;
    scfg.admission = AdmissionMode::Continuous;
    f.sched = std::make_unique<ServiceScheduler>(*f.engine, scfg);
    for (std::size_t i = 0; i < kTenants; ++i) {
        std::unique_ptr<TenantSession> s;
        {
            ScopedSpan sp(tracer, "service.session.construct");
            s = makeSession(f, i, *f.engine);
        }
        s->setArrivals(
            ArrivalSpec::poisson(mixSeed(f.seed, 5000 + i), f.meanGap));
        f.sched->addSession(std::move(s), 1 + i % 4);
    }
}

/** Device bytes every tenant together allocates (the worst case of
 *  one shard holding them all). */
u64
fleetDeviceNeed(const Fleet &f)
{
    u64 need = 0;
    for (std::size_t i = 0; i < kTenants; ++i)
        need += traceBacked(i)
                    ? captureOf(f, i).run.deviceNeed
                    : pageRounded(f.entries[i] * kEntryBytes) / kEntryBytes *
                          deviceBytesPerEntry(CompressionTarget::Ratio2);
    return need;
}

/** One set-up: profile and capture the slices, build the engine and
 *  the first epoch's sessions. */
void
setUp(Fleet &f, unsigned shards, SetupTimes &t, Tracer &tracer)
{
    ScopedSpan root(tracer, "bench.setup");
    f.sched.reset();
    f.engine.reset();
    f.captures.clear();
    const u64 c0 = cpuNs();
    const u64 t0 = nowNs();
    {
        ScopedSpan s(tracer, "core.profiler.profile");
        const auto codec = CodecRegistry::instance().create("bpc");
        AnalysisConfig acfg;
        acfg.maxSamplesPerAllocation = kProfileSamples;
        for (Slice &sl : f.slices)
            sl.targets =
                Profiler().decide(mergedProfiles(*sl.model, *codec, acfg))
                    .targets;
    }
    const u64 t1 = nowNs();
    double serializeS = 0, loadS = 0;
    double cyclesPerOp = 0;
    for (const Slice &sl : f.slices) {
        auto cap = std::make_unique<Capture>();
        TraceRecorderSink rec;
        {
            ScopedSpan s(tracer, "engine.trace.record");
            cap->run = runCaptureStream(sl, &rec, f.seed);
        }
        f.captureMismatches += cap->run.mismatches;
        {
            ScopedSpan s(tracer, "engine.trace.serialize");
            const u64 s0 = nowNs();
            cap->image = rec.serialize();
            serializeS += secondsBetween(s0, nowNs());
        }
        {
            ScopedSpan s(tracer, "engine.trace.load");
            const u64 l0 = nowNs();
            cap->replayer.loadImage(cap->image);
            loadS += secondsBetween(l0, nowNs());
        }
        cyclesPerOp +=
            cap->run.cyclesPerOp / static_cast<double>(f.slices.size());
        f.captures.push_back(std::move(cap));
    }

    // Fixed offered load: kTenants Poisson streams whose mean batch
    // keeps kSlots service slots kOfferedLoad busy, with the service
    // time per op estimated from the captures.
    const double meanEntries = 0.5 * static_cast<double>(kMinEntries +
                                                         kMaxEntries);
    f.meanGap = std::max<u64>(
        1, static_cast<u64>(static_cast<double>(kTenants) * cyclesPerOp *
                            meanEntries / (kOfferedLoad * kSlots)));
    const u64 t2 = nowNs();
    {
        ScopedSpan s(tracer, "engine.construct");
        f.engine = std::make_unique<ShardedEngine>(
            engineConfig(shards, fleetDeviceNeed(f), mixSeed(f.seed, 0xe9)));
    }
    const u64 t3 = nowNs();
    buildScheduler(f, tracer);
    const u64 t4 = nowNs();
    t.profile = secondsBetween(t0, t1);
    t.serialize = serializeS;
    t.load = loadS;
    t.construct = secondsBetween(t2, t3);
    t.total = secondsBetween(t0, t4);
    t.cpu = secondsBetween(c0, cpuNs());
}

/** Free every allocation on @p eng (no batch may be in flight). */
void
freeAll(ShardedEngine &eng)
{
    std::vector<AllocId> ids;
    for (const auto &kv : eng.allocations())
        ids.push_back(kv.first);
    for (AllocId id : ids)
        eng.free(id);
}

/** Free every allocation of the last epoch and build the next one. */
void
rebuild(Fleet &f, Tracer &tracer)
{
    ScopedSpan s(tracer, "bench.fleet_build");
    f.sched.reset();
    freeAll(*f.engine);
    f.engine->clearStats();
    buildScheduler(f, tracer);
}

/** Results the sim metrics and the solo check read from epoch 0. */
struct FirstEpoch
{
    ServiceReport rep;
    BatchSummary totals;
};

/** Scheduler accounting must equal the engine's per-tenant totals. */
bool
accountingMatches(const ServiceReport &rep, const ShardedEngine &eng)
{
    const auto engineTotals = eng.tenantTotals();
    for (const TenantReport &tr : rep.tenants) {
        const auto it = engineTotals.find(tr.tenant);
        if (it == engineTotals.end() || it->second.batches != tr.batches ||
            !isolationEqual(it->second.summary, tr.totals, true) ||
            it->second.summary.codecChargedWindowCycles !=
                tr.totals.codecChargedWindowCycles)
            return false;
    }
    return engineTotals.size() == rep.tenants.size();
}

struct LoopState
{
    u64 epoch = 0;
    u64 ops = 0;
    u64 failed = 0;
    u64 batches = 0;
    std::vector<double> rates;    ///< entries per wall second, by epoch
    std::vector<double> cpuRates; ///< entries per CPU second, by epoch
    FirstEpoch first;
};

void
timedPhase(Fleet &f, double seconds, u64 minEpochs, Tracer &tracer,
           LoopState &st, Report &r)
{
    const u64 start = nowNs();
    const u64 firstEpoch = st.epoch;
    while (st.epoch - firstEpoch < minEpochs ||
           secondsBetween(start, nowNs()) < seconds) {
        ScopedSpan ep(tracer, "bench.epoch");
        if (st.epoch > 0)
            rebuild(f, tracer);
        ServiceReport rep;
        const u64 r0 = nowNs();
        const u64 c0 = cpuNs();
        {
            ScopedSpan s(tracer, "service.run");
            rep = f.sched->run();
        }
        const double runS = secondsBetween(r0, nowNs());
        const double runCpuS = secondsBetween(c0, cpuNs());
        ScopedSpan chk(tracer, "bench.check");
        BatchSummary totals;
        u64 batches = 0;
        for (const TenantReport &tr : rep.tenants) {
            totals.accumulate(tr.totals);
            batches += tr.batches;
        }
        const u64 ops = totals.operations();
        if (!rep.allFinished || !accountingMatches(rep, *f.engine)) {
            st.failed += ops;
            r.fail("epoch " + std::to_string(st.epoch) +
                   ": unfinished tenants or scheduler totals differ from "
                   "the engine's");
        }
        st.rates.push_back(static_cast<double>(ops) / runS);
        st.cpuRates.push_back(static_cast<double>(ops) / runCpuS);
        st.ops += ops;
        st.batches += batches;
        if (st.epoch == 0) {
            st.first.rep = rep;
            st.first.totals = totals;
        }
        ++st.epoch;
    }
}

/**
 * Replay a seeded sample of tenants alone, each on an engine sized for
 * that tenant only; totals must equal the contended first epoch's.
 */
void
soloCheck(const Fleet &f, const FirstEpoch &first, Report &r)
{
    Rng rng(mixSeed(f.seed, 0x501));
    std::set<std::size_t> sample;
    while (sample.size() < kSoloSample)
        sample.insert(static_cast<std::size_t>(rng.below(kTenants)));
    for (std::size_t i : sample) {
        const u64 need =
            traceBacked(i) ? captureOf(f, i).run.deviceNeed
                           : pageRounded(f.entries[i] * kEntryBytes) /
                                 kEntryBytes *
                                 deviceBytesPerEntry(CompressionTarget::Ratio2);
        ShardedEngine eng(engineConfig(1, need, mixSeed(f.seed, 0xe9)));
        auto s = makeSession(f, i, eng);
        AccessBatch plan;
        std::vector<u8> readBuf;
        BatchSummary solo;
        while (s->next(plan, readBuf))
            solo.accumulate(eng.execute(plan));
        if (!isolationEqual(solo, first.rep.tenants[i].totals, true))
            r.fail("tenant " + tenantName(i) +
                   ": solo replay differs from the contended run");
    }
    r.notes.push_back("isolation: " + std::to_string(kSoloSample) +
                      " seeded tenants replayed solo on per-tenant-sized "
                      "engines" +
                      (r.checksOk ? ", bit-identical" : ", MISMATCH"));
}

/**
 * Shadow replays (traced run only): rebuild the fleet's sessions and
 * drain them one batch at a time, timing TenantSession::next, the
 * engine call, a standalone controller on the same plans, and the codec
 * on the same entries; then re-allocate the fleet's allocation list and
 * re-run a capture with and without its recorder.
 */
void
shadowReplays(Fleet &f, Tracer &tracer, Report &r)
{
    ScopedSpan root(tracer, "bench.shadow");
    f.sched.reset();
    ShardedEngine &eng = *f.engine;
    freeAll(eng);
    std::vector<std::unique_ptr<TenantSession>> sessions;
    for (std::size_t i = 0; i < kTenants; ++i)
        sessions.push_back(makeSession(f, i, eng));

    // Standalone controller mirroring every engine allocation.
    BuddyConfig cc = eng.config().shard;
    cc.deviceBytes = (fleetDeviceNeed(f) + MiB - 1) / MiB * MiB + 2 * MiB;
    BuddyController ctl(cc);
    std::map<AllocId, Addr> ctlBase;
    std::vector<std::pair<u64, CompressionTarget>> allocList;
    for (const auto &kv : eng.allocations()) {
        const auto id = ctl.allocate("shadow", kv.second.bytes,
                                     kv.second.target);
        if (!id) {
            r.fail("shadow controller out of memory");
            return;
        }
        ctlBase[kv.first] = ctl.allocations().at(*id).va;
        allocList.emplace_back(kv.second.bytes, kv.second.target);
    }

    CodecShadow codec;
    AccessBatch plan, ctlPlan;
    std::vector<u8> readBuf, ctlRead;
    std::vector<const u8 *> src;
    u64 batches = 0, shardSum = 0, readOps = 0, writeOps = 0, ops = 0;
    double readS = 0, writeS = 0;
    std::vector<double> execUs;
    bool more = true;
    while (more) {
        more = false;
        // Round-robin over tenants, one batch each, like a fair fleet.
        for (auto &s : sessions) {
            bool got = false;
            {
                ScopedSpan sp(tracer, "shadow.session.next");
                got = s->next(plan, readBuf);
            }
            if (!got)
                continue;
            more = true;
            ++batches;
            const bool write = plan.ops().front().kind == AccessKind::Write;
            std::set<unsigned> shards;
            ctlPlan.clear();
            ctlRead.resize(plan.size() * kEntryBytes);
            for (std::size_t k = 0; k < plan.size(); ++k) {
                const AccessRequest &op = plan.ops()[k];
                const EngineAllocation &a = eng.allocationFor(op.va);
                shards.insert(a.shard);
                const Addr va = ctlBase.at(a.id) + (op.va - a.va);
                if (op.kind == AccessKind::Write)
                    ctlPlan.write(va, op.src);
                else
                    ctlPlan.read(va, ctlRead.data() + k * kEntryBytes);
            }
            shardSum += shards.size();
            const u64 e0 = nowNs();
            {
                ScopedSpan sp(tracer, "shadow.engine.execute");
                eng.execute(plan);
            }
            const double es = secondsBetween(e0, nowNs());
            execUs.push_back(es * 1e6);
            (write ? writeS : readS) += es;
            (write ? writeOps : readOps) += plan.size();
            ops += plan.size();
            {
                ScopedSpan sp(tracer, "shadow.core.execute");
                ctl.execute(ctlPlan);
            }
            if (!write &&
                std::memcmp(readBuf.data(), ctlRead.data(),
                            plan.size() * kEntryBytes) != 0)
                r.fail("standalone controller read back other data than "
                       "the engine");

            // Codec alone: writes compress their payloads; reads
            // decompress the entries' current content (the read data).
            src.clear();
            for (std::size_t k = 0; k < plan.size(); ++k) {
                const u8 *d = write ? plan.ops()[k].src
                                    : readBuf.data() + k * kEntryBytes;
                if (!entryIsZero(d))
                    src.push_back(d);
            }
            codec.batch(src, write, plan.size(), tracer, r);
        }
    }

    const SpanStats next = spanStats(tracer, "shadow.session.next");
    const SpanStats core = spanStats(tracer, "shadow.core.execute");
    const double nb = static_cast<double>(std::max<u64>(batches, 1));
    r.layer("service.session_next_ns_per_batch", "ns", Clock::Host,
            next.totalS * 1e9 / nb, batches);
    r.layer("engine.read_ns_per_entry", "ns", Clock::Host,
            readS * 1e9 / static_cast<double>(std::max<u64>(readOps, 1)),
            readOps);
    r.layer("engine.write_ns_per_entry", "ns", Clock::Host,
            writeS * 1e9 / static_cast<double>(std::max<u64>(writeOps, 1)),
            writeOps);
    r.layer("engine.execute_us_p50", "us", Clock::Host,
            quantile(execUs, 0.50), execUs.size());
    r.layer("engine.execute_us_p99", "us", Clock::Host,
            quantile(execUs, 0.99), execUs.size());
    r.layer("engine.execute_count", "count", Clock::None,
            static_cast<double>(execUs.size()));
    r.layer("engine.shards_per_batch", "shards", Clock::Sim,
            static_cast<double>(shardSum) / nb, batches);
    r.layer("core.execute_ns_per_op", "ns", Clock::Host,
            core.totalS * 1e9 / static_cast<double>(std::max<u64>(ops, 1)),
            ops);
    r.layer("engine.overhead_us_per_batch", "us", Clock::Host,
            ((readS + writeS) - core.totalS) * 1e6 / nb, batches);
    codec.report(r, tracer);

    // engine.allocate at fleet scale: the same allocation list again.
    sessions.clear();
    freeAll(eng);
    std::vector<double> allocUs;
    for (const auto &[bytes, target] : allocList) {
        const u64 a0 = nowNs();
        std::optional<AllocId> id;
        {
            ScopedSpan sp(tracer, "shadow.engine.allocate");
            id = eng.allocate("shadow", bytes, target);
        }
        allocUs.push_back(secondsBetween(a0, nowNs()) * 1e6);
        if (!id)
            r.fail("fleet engine out of memory re-allocating");
    }
    double sum = 0;
    for (double u : allocUs)
        sum += u;
    r.layer("engine.allocate_us", "us", Clock::Host,
            sum / static_cast<double>(std::max<std::size_t>(allocUs.size(), 1)),
            allocUs.size());

    // Recording cost: the capture stream with its recorder attached
    // minus the same stream without.
    double withRec = 0, without = 0;
    u64 recOps = 0;
    for (const Slice &sl : f.slices) {
        TraceRecorderSink rec;
        {
            ScopedSpan sp(tracer, "shadow.trace.record");
            const StreamRun run = runCaptureStream(sl, &rec, f.seed);
            withRec += run.seconds;
            recOps += run.ops;
        }
        ScopedSpan sp(tracer, "shadow.trace.plain");
        without += runCaptureStream(sl, nullptr, f.seed).seconds;
    }
    r.layer("engine.trace.record_ns_per_op", "ns", Clock::Host,
            (withRec - without) * 1e9 / static_cast<double>(recOps), recOps);
}

} // namespace

Report
runServiceFleet(const Options &opt, Tracer &tracer)
{
    Report r;
    Fleet f;
    f.seed = opt.seed;
    for (const auto &names : {hpcBenchmarkNames(), dlBenchmarkNames()})
        for (const std::string &name : names)
            f.slices.push_back(makeSlice(name, opt.seed));
    Rng rng(mixSeed(opt.seed, 0xe17));
    for (std::size_t i = 0; i < kTenants; ++i)
        f.entries.push_back(kMinEntries +
                            rng.below(kMaxEntries - kMinEntries + 1));
    const unsigned shards = opt.shards ? opt.shards : 2;

    tracer.enable(opt.trace);
    std::vector<SetupTimes> setups;
    double spent = 0;
    while (moreSetups(setups.size(), spent)) {
        SetupTimes t;
        setUp(f, shards, t, tracer);
        setups.push_back(t);
        spent += t.total;
    }
    tracer.enable(false);
    const double ratio = f.engine->compressionRatio();

    LoopState st;
    const double untracedS = opt.trace ? opt.seconds / 2 : opt.seconds;
    timedPhase(f, untracedS, 1, tracer, st, r);
    const std::size_t untracedEpochs = st.rates.size();
    const double untracedRate = median(st.rates);
    const double untracedCpuRate = median(st.cpuRates);
    const double sustainedCpuRate = quantile(st.cpuRates, 0.1);
    double tracedRate = 0.0;
    if (opt.trace) {
        tracer.enable(true);
        {
            ScopedSpan s(tracer, "bench.timed");
            timedPhase(f, opt.seconds / 2, 2, tracer, st, r);
        }
        tracer.enable(false);
        tracedRate = median(std::vector<double>(
            st.rates.begin() + static_cast<long>(untracedEpochs),
            st.rates.end()));
    }
    soloCheck(f, st.first, r);

    r.attempted = st.ops;
    r.failed = st.failed;
    if (f.captureMismatches)
        r.fail("set-up capture read back data other than it wrote");
    const BatchSummary &p = st.first.totals;
    const ServiceReport &rep = st.first.rep;
    const double ops = static_cast<double>(std::max<u64>(p.operations(), 1));
    auto med = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(t.*field);
        return median(v);
    };
    r.e2e("setup_s", "s", Clock::Host, med(&SetupTimes::cpu), setups.size());
    r.e2e("sustained_entries_per_cpu_s", "1/s", Clock::Host,
          sustainedCpuRate, untracedEpochs);
    r.e2e("peak_rss_mb", "MiB", Clock::Host, peakRssMb());
    r.e2e("compression_ratio", "x", Clock::Sim, ratio);
    r.e2e("buddy_access_frac", "ratio", Clock::Sim,
          static_cast<double>(p.buddyAccesses) / ops, p.operations());
    r.e2e("sim_cycles_per_op", "cycles", Clock::Sim,
          static_cast<double>(p.codecChargedWindowCycles) / ops,
          p.operations());

    obs::LatencyHistogram queue, service;
    u64 serviceCycles = 0, batches = 0;
    for (const TenantReport &tr : rep.tenants) {
        queue.merge(tr.queueDelay);
        service.merge(tr.serviceLatency);
        serviceCycles += tr.serviceCycles;
        batches += tr.batches;
    }
    // Offered load: arrival rate times mean service time per slot.
    const double offered =
        static_cast<double>(kTenants) / static_cast<double>(f.meanGap) *
        static_cast<double>(serviceCycles) /
        static_cast<double>(std::max<u64>(batches, 1)) /
        static_cast<double>(kSlots);
    // p99 of arrival to admission over all tenants' batches of the
    // first epoch; service-fleet only, so not a gated metric.
    r.info("sim_queue_delay_p99_cycles", "cycles", Clock::Sim,
           static_cast<double>(queue.percentile(990)), queue.count());
    char line[512];
    std::snprintf(line, sizeof(line),
                  "run: %zu tenants (%zu trace-backed), %llu epochs, %llu "
                  "batches, %llu entry ops, %u shard(s); offered load "
                  "target %.2f, measured %.4f of %u service slots; sim "
                  "metrics from the first epoch (%llu ops)",
                  kTenants, kTenants / kTraceEvery,
                  static_cast<unsigned long long>(st.epoch),
                  static_cast<unsigned long long>(st.batches),
                  static_cast<unsigned long long>(st.ops), shards,
                  kOfferedLoad, offered, kSlots,
                  static_cast<unsigned long long>(p.operations()));
    r.notes.push_back(line);
    r.info("entries_per_cpu_s", "1/s", Clock::Host, untracedCpuRate,
           untracedEpochs);
    r.info("entries_per_s", "1/s", Clock::Host, untracedRate,
           untracedEpochs);
    r.notes.push_back(rateSpread("wall", st.rates));
    r.notes.push_back(rateSpread("cpu", st.cpuRates));
    r.info("setup_wall_s", "s", Clock::Host, med(&SetupTimes::total),
           setups.size());
    r.notes.push_back("reference: the paper reports no service-mode "
                      "figure; the timing model is unvalidated against "
                      "silicon, so no error figure is given; timed stats "
                      "start with the metadata cache as the previous "
                      "epoch (or the set-up capture) left it");

    if (!opt.trace)
        return r;

    r.layer("core.profiler.profile_s", "s", Clock::Host,
            med(&SetupTimes::profile), setups.size());
    r.layer("engine.construct_s", "s", Clock::Host,
            med(&SetupTimes::construct), setups.size());
    u64 capOps = 0, capBytes = 0;
    for (const auto &c : f.captures) {
        capOps += c->run.ops;
        capBytes += c->image.size();
    }
    const double co = static_cast<double>(capOps);
    r.layer("engine.trace.serialize_ns_per_op", "ns", Clock::Host,
            med(&SetupTimes::serialize) * 1e9 / co, capOps);
    r.layer("engine.trace.load_ns_per_op", "ns", Clock::Host,
            med(&SetupTimes::load) * 1e9 / co, capOps);
    r.layer("engine.trace.bytes_per_op", "B", Clock::Sim,
            static_cast<double>(capBytes) / co, capOps);

    const SpanStats run = spanStats(tracer, "service.run");
    u64 tracedBatches = 0;
    {
        // Batches of the traced epochs: every epoch runs the same fleet.
        const u64 perEpoch = st.batches / std::max<u64>(st.epoch, 1);
        tracedBatches = perEpoch * run.count;
    }
    r.layer("service.run_us_per_batch", "us", Clock::Host,
            run.totalS * 1e6 /
                static_cast<double>(std::max<u64>(tracedBatches, 1)),
            tracedBatches);
    r.layer("service.queue_delay_p50_cycles", "cycles", Clock::Sim,
            static_cast<double>(queue.percentile(500)), queue.count());
    r.layer("service.queue_delay_p99_cycles", "cycles", Clock::Sim,
            static_cast<double>(queue.percentile(990)), queue.count());
    r.layer("service.queue_delay_count", "count", Clock::Sim,
            static_cast<double>(queue.count()));
    r.layer("service.service_p99_cycles", "cycles", Clock::Sim,
            static_cast<double>(service.percentile(990)), service.count());
    r.layer("service.jain_index", "ratio", Clock::Sim, rep.jainIndex,
            rep.tenants.size());
    r.layer("service.max_inflight", "count", Clock::Sim,
            static_cast<double>(rep.maxGlobalInflight));
    r.layer("service.offered_load", "ratio", Clock::Sim, offered);
    addSimLayerMetrics(r, p);
    addTraceOverhead(r, tracer, untracedRate, tracedRate,
                     "bench.timed");

    tracer.enable(true);
    shadowReplays(f, tracer, r);
    tracer.enable(false);
    return r;
}

} // namespace perfbench
