/**
 * @file
 * The two closed-loop workloads, hpc-stencil and dl-train.
 *
 * Both synthesise a suite of Table 1 benchmarks with WorkloadModel,
 * profile them to per-allocation targets, allocate every array on a
 * ShardedEngine and write snapshot 0 (set-up), then run kernel steps
 * ("epochs") from one submitting thread until the time budget is spent.
 * Epoch e writes snapshot 1 + e % 2 to the arrays it writes, so
 * compressibility changes under the static targets the way it does
 * between the paper's memory dumps. Every read is checked against the
 * snapshot last written to that entry.
 *
 * hpc-stencil: 2 shards, read-dominated. Each step reads a chunk of
 * the same entry range across every array of a benchmark (a batch that
 * spans shards), then writes the benchmark's AccessProfile::writeFraction
 * share of that range.
 *
 * dl-train: 1 shard, write-dominated. Each step overwrites every pool
 * entry in batches confined to one allocation, then reads back a seeded
 * third of the entries.
 *
 * The sim metrics cover the first kSimEpochs epochs, a fixed amount of
 * work, so they repeat exactly however long the host takes; the host
 * metrics cover the whole timed phase.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <set>

#include "api/codec_registry.h"
#include "bench.h"
#include "compress/compressor.h"
#include "compress/sector.h"
#include "core/controller.h"
#include "core/profiler.h"
#include "engine/engine.h"
#include "service/scheduler.h"
#include "workloads/analysis.h"
#include "workloads/benchmark.h"
#include "workloads/image.h"

namespace perfbench {
namespace {

using namespace buddy;

/** Epochs the sim metrics cover: one of each snapshot parity. */
constexpr unsigned kSimEpochs = 2;

/** Snapshots materialised: 0 (set-up), then 1 and 2 alternately. */
constexpr unsigned kImages = 3;

/** Modelled footprint per benchmark (capped at its Table 1 size). */
constexpr u64 kModelBytes = 4 * MiB;

/** Profiling samples per allocation per snapshot. */
constexpr u64 kProfileSamples = 1024;

/** Outstanding link round trips of the windowed timing replay. */
constexpr u64 kLinkWindow = 32;

/** Entries per array in one hpc-stencil batch. */
constexpr u64 kStencilChunk = 512;

/** Entries per dl-train batch (and per set-up populate batch). */
constexpr u64 kPoolChunk = 4096;

/** One allocation of one benchmark, with its snapshot images. */
struct Array
{
    std::size_t bench = 0;
    std::size_t alloc = 0; ///< allocation index within the model
    u64 entries = 0;
    CompressionTarget target = CompressionTarget::None;
    std::array<std::vector<u8>, kImages> image;

    const u8 *
    data(unsigned snap, u64 e) const
    {
        return image[snap].data() + e * kEntryBytes;
    }
};

struct PlanOp
{
    u32 arr;
    u32 entry;
};

/** One batch of an epoch: all reads or all writes. */
struct PlanBatch
{
    bool write = false;
    std::vector<PlanOp> ops;
};

/** The benchmark suite of a workload, its images and its schedules. */
struct Corpus
{
    std::vector<std::unique_ptr<BenchmarkSpec>> specs;
    std::vector<std::unique_ptr<WorkloadModel>> models;
    std::vector<Array> arrays;
    std::array<std::vector<PlanBatch>, 2> schedule; ///< by epoch parity

    /** Device bytes the arrays need at their targets. */
    u64
    deviceNeed() const
    {
        u64 need = 0;
        for (const Array &a : arrays) {
            const u64 rounded =
                (a.entries * kEntryBytes + kPageBytes - 1) / kPageBytes *
                kPageBytes;
            need += rounded / kEntryBytes * deviceBytesPerEntry(a.target);
        }
        return need;
    }
};

/** Synthesise the suite's images (input synthesis, not set-up). */
Corpus
synthesise(const std::vector<std::string> &names, u64 seed)
{
    Corpus c;
    for (std::size_t b = 0; b < names.size(); ++b) {
        auto spec = std::make_unique<BenchmarkSpec>(findBenchmark(names[b]));
        spec->seed = mixSeed(seed, spec->seed);
        const u64 bytes = std::min(spec->footprintBytes, kModelBytes);
        auto model = std::make_unique<WorkloadModel>(*spec, bytes);
        for (std::size_t a = 0; a < model->allocations().size(); ++a) {
            Array arr;
            arr.bench = b;
            arr.alloc = a;
            arr.entries = model->allocations()[a].entries;
            for (unsigned s = 0; s < kImages; ++s) {
                arr.image[s].resize(arr.entries * kEntryBytes);
                for (u64 e = 0; e < arr.entries; ++e)
                    model->entryData(a, e, s,
                                     arr.image[s].data() + e * kEntryBytes);
            }
            c.arrays.push_back(std::move(arr));
        }
        c.specs.push_back(std::move(spec));
        c.models.push_back(std::move(model));
    }
    return c;
}

/** Arrays of benchmark @p b, in allocation order. */
std::vector<u32>
arraysOf(const Corpus &c, std::size_t b)
{
    std::vector<u32> out;
    for (u32 i = 0; i < c.arrays.size(); ++i)
        if (c.arrays[i].bench == b)
            out.push_back(i);
    return out;
}

void
buildStencilSchedule(Corpus &c, u64 seed)
{
    std::vector<PlanBatch> sched;
    for (std::size_t b = 0; b < c.models.size(); ++b) {
        const std::vector<u32> arrs = arraysOf(c, b);
        const double wf = c.specs[b]->access.writeFraction;
        u64 span = 0;
        for (u32 a : arrs)
            span = std::max(span, c.arrays[a].entries);
        for (u64 i = 0; i < span; i += kStencilChunk) {
            PlanBatch rd, wr;
            wr.write = true;
            for (u32 a : arrs) {
                const u64 end = std::min(i + kStencilChunk,
                                         c.arrays[a].entries);
                for (u64 e = i; e < end; ++e) {
                    rd.ops.push_back({a, static_cast<u32>(e)});
                    if (hash01(seed, a, e, 0x57e) < wf)
                        wr.ops.push_back({a, static_cast<u32>(e)});
                }
            }
            if (!rd.ops.empty())
                sched.push_back(std::move(rd));
            if (!wr.ops.empty())
                sched.push_back(std::move(wr));
        }
    }
    c.schedule = {sched, sched};
}

void
buildTrainSchedule(Corpus &c, u64 seed)
{
    for (unsigned parity = 0; parity < 2; ++parity) {
        std::vector<PlanBatch> &sched = c.schedule[parity];
        for (std::size_t b = 0; b < c.models.size(); ++b) {
            const std::vector<u32> arrs = arraysOf(c, b);
            for (u32 a : arrs) {
                for (u64 i = 0; i < c.arrays[a].entries; i += kPoolChunk) {
                    PlanBatch wr;
                    wr.write = true;
                    const u64 end =
                        std::min(i + kPoolChunk, c.arrays[a].entries);
                    for (u64 e = i; e < end; ++e)
                        wr.ops.push_back({a, static_cast<u32>(e)});
                    sched.push_back(std::move(wr));
                }
            }
            for (u32 a : arrs) {
                PlanBatch rd;
                for (u64 e = 0; e < c.arrays[a].entries; ++e) {
                    if (hash01(seed, parity, a, e) >= 1.0 / 3.0)
                        continue;
                    rd.ops.push_back({a, static_cast<u32>(e)});
                    if (rd.ops.size() == kPoolChunk) {
                        sched.push_back(std::move(rd));
                        rd = PlanBatch{};
                    }
                }
                if (!rd.ops.empty())
                    sched.push_back(std::move(rd));
            }
        }
    }
}

/** Timings of one set-up. */
struct SetupTimes
{
    double total = 0, cpu = 0, profile = 0, construct = 0, allocateUs = 0,
           populate = 0;
};

/** Set-up state the timed phase runs on. */
struct Bed
{
    std::unique_ptr<ShardedEngine> engine;
    EngineConfig cfg;
    std::vector<Addr> vas;        ///< engine VA of each array
    std::vector<unsigned> shard;  ///< owning shard of each array
    std::vector<std::vector<u8>> cur; ///< snapshot last written per entry
};

/** Write snapshot 0 of every array through @p exec. */
template <typename Exec>
void
populate(const Corpus &c, const std::vector<Addr> &vas, Exec &&exec,
         std::vector<std::vector<u8>> &cur, Tracer &tracer,
         const char *spanName)
{
    AccessBatch batch(kPoolChunk);
    cur.assign(c.arrays.size(), {});
    for (std::size_t a = 0; a < c.arrays.size(); ++a) {
        cur[a].assign(c.arrays[a].entries, 0);
        for (u64 i = 0; i < c.arrays[a].entries; i += kPoolChunk) {
            batch.clear();
            const u64 end = std::min(i + kPoolChunk, c.arrays[a].entries);
            for (u64 e = i; e < end; ++e)
                batch.write(vas[a] + e * kEntryBytes, c.arrays[a].data(0, e));
            ScopedSpan s(tracer, spanName);
            exec(batch);
        }
    }
}

/**
 * One set-up: profiling pass, engine construction, allocation, and the
 * snapshot-0 populate that also warms the metadata cache.
 */
Bed
setUp(Corpus &c, unsigned shards, u64 seed, SetupTimes &t, Tracer &tracer)
{
    ScopedSpan root(tracer, "bench.setup");
    const u64 c0 = cpuNs();
    const u64 t0 = nowNs();
    {
        ScopedSpan s(tracer, "core.profiler.profile");
        const auto codec = CodecRegistry::instance().create("bpc");
        AnalysisConfig acfg;
        acfg.maxSamplesPerAllocation = kProfileSamples;
        const Profiler prof;
        for (std::size_t b = 0; b < c.models.size(); ++b) {
            const ProfileDecision d =
                prof.decide(mergedProfiles(*c.models[b], *codec, acfg));
            const std::vector<u32> arrs = arraysOf(c, b);
            for (std::size_t i = 0; i < arrs.size(); ++i)
                c.arrays[arrs[i]].target = d.targets[i];
        }
    }
    const u64 t1 = nowNs();

    Bed bed;
    bed.cfg.shards = shards;
    bed.cfg.threads = shards;
    bed.cfg.seed = mixSeed(seed, 0xe9);
    bed.cfg.shard.codec = "bpc";
    bed.cfg.shard.linkWindow = kLinkWindow;
    bed.cfg.shard.windowMode = WindowMode::Merged;
    // With more than one shard the ordinal hash spreads the arrays and
    // allocation falls back to the next shard with room, so each shard
    // gets three quarters of the need; one shard must hold it all.
    const u64 need = c.deviceNeed();
    const u64 perShard = shards == 1 ? need : need * 3 / 4;
    bed.cfg.shard.deviceBytes = (perShard + MiB - 1) / MiB * MiB + 2 * MiB;
    {
        ScopedSpan s(tracer, "engine.construct");
        bed.engine = std::make_unique<ShardedEngine>(bed.cfg);
    }
    const u64 t2 = nowNs();

    u64 allocNs = 0;
    for (const Array &a : c.arrays) {
        const u64 a0 = nowNs();
        std::optional<AllocId> id;
        {
            ScopedSpan s(tracer, "engine.allocate");
            id = bed.engine->allocate(
                c.specs[a.bench]->name + "/" +
                    c.models[a.bench]->allocations()[a.alloc].spec->name,
                a.entries * kEntryBytes, a.target);
        }
        allocNs += nowNs() - a0;
        if (!id) {
            std::fprintf(stderr, "engine out of memory during set-up\n");
            std::exit(1);
        }
        const EngineAllocation &ea = bed.engine->allocations().at(*id);
        bed.vas.push_back(ea.va);
        bed.shard.push_back(ea.shard);
    }
    const u64 t3 = nowNs();

    populate(c, bed.vas,
             [&](AccessBatch &b) { bed.engine->execute(b); }, bed.cur,
             tracer, "engine.populate.execute");
    const u64 t4 = nowNs();

    t.profile = secondsBetween(t0, t1);
    t.construct = secondsBetween(t1, t2);
    t.allocateUs = static_cast<double>(allocNs) * 1e-3 /
                   static_cast<double>(c.arrays.size());
    t.populate = secondsBetween(t3, t4);
    t.total = secondsBetween(t0, t4);
    t.cpu = secondsBetween(c0, cpuNs());
    return bed;
}

/** Progress of the timed phase. */
struct LoopState
{
    u64 epoch = 0;       ///< next epoch to run
    u64 batchId = 0;     ///< per-batch span id
    u64 ops = 0;         ///< entry ops completed
    u64 failed = 0;      ///< reads that did not match the last write
    u64 readOps = 0;     ///< read ops while traced
    u64 writeOps = 0;    ///< write ops while traced
    BatchSummary prefix; ///< totals of the first kSimEpochs epochs
    std::vector<double> rates;    ///< entries per wall second, by epoch
    std::vector<double> cpuRates; ///< entries per CPU second, by epoch
};

/**
 * Run epoch @p epoch of the schedule through @p exec, checking every
 * read against the snapshot last written to its entry.
 * @return entry ops executed.
 */
template <typename Exec>
u64
runEpoch(const Corpus &c, u64 epoch, const std::vector<Addr> &vas,
         std::vector<std::vector<u8>> &cur, Exec &&exec, Tracer &tracer,
         const char *readSpan, const char *writeSpan, LoopState &st,
         bool keepPrefix)
{
    const unsigned snap = 1 + static_cast<unsigned>(epoch % 2);
    const std::vector<PlanBatch> &sched = c.schedule[epoch % 2];
    AccessBatch batch(4 * kStencilChunk);
    std::vector<u8> readBuf;
    u64 ops = 0;
    for (const PlanBatch &pb : sched) {
        const u64 id = ++st.batchId;
        {
            ScopedSpan s(tracer, "bench.plan", id);
            batch.clear();
            if (pb.write) {
                for (const PlanOp &op : pb.ops) {
                    batch.write(vas[op.arr] + u64{op.entry} * kEntryBytes,
                                c.arrays[op.arr].data(snap, op.entry));
                    cur[op.arr][op.entry] = static_cast<u8>(snap);
                }
            } else {
                readBuf.resize(pb.ops.size() * kEntryBytes);
                for (std::size_t i = 0; i < pb.ops.size(); ++i)
                    batch.read(vas[pb.ops[i].arr] +
                                   u64{pb.ops[i].entry} * kEntryBytes,
                               readBuf.data() + i * kEntryBytes);
            }
        }
        const BatchSummary *sum = nullptr;
        {
            ScopedSpan s(tracer, pb.write ? writeSpan : readSpan, id);
            sum = &exec(batch);
        }
        if (!pb.write) {
            ScopedSpan s(tracer, "bench.verify", id);
            for (std::size_t i = 0; i < pb.ops.size(); ++i) {
                const PlanOp &op = pb.ops[i];
                if (std::memcmp(readBuf.data() + i * kEntryBytes,
                                c.arrays[op.arr].data(cur[op.arr][op.entry],
                                                      op.entry),
                                kEntryBytes) != 0)
                    ++st.failed;
            }
        }
        if (keepPrefix)
            st.prefix.accumulate(*sum);
        if (tracer.on())
            (pb.write ? st.writeOps : st.readOps) += pb.ops.size();
        ops += pb.ops.size();
    }
    return ops;
}

/** Run epochs on the engine until @p seconds pass (and at least
 *  @p minEpochs ran). */
void
timedPhase(const Corpus &c, Bed &bed, double seconds, u64 minEpochs,
           Tracer &tracer, LoopState &st)
{
    const u64 start = nowNs();
    const u64 first = st.epoch;
    auto exec = [&](AccessBatch &b) -> const BatchSummary & {
        return bed.engine->execute(b);
    };
    while (st.epoch - first < minEpochs ||
           secondsBetween(start, nowNs()) < seconds) {
        const u64 e0 = nowNs();
        const u64 c0 = cpuNs();
        u64 ops = 0;
        {
            ScopedSpan s(tracer, "bench.epoch");
            ops = runEpoch(c, st.epoch, bed.vas, bed.cur, exec, tracer,
                           "engine.execute.read", "engine.execute.write", st,
                           st.epoch < kSimEpochs);
        }
        st.rates.push_back(static_cast<double>(ops) /
                           secondsBetween(e0, nowNs()));
        st.cpuRates.push_back(static_cast<double>(ops) /
                              secondsBetween(c0, cpuNs()));
        st.ops += ops;
        ++st.epoch;
    }
}

/** Mean distinct shards per batch over the sim epochs. */
double
shardsPerBatch(const Corpus &c, const Bed &bed, u64 &batches)
{
    u64 sum = 0;
    batches = 0;
    for (unsigned e = 0; e < kSimEpochs; ++e) {
        for (const PlanBatch &pb : c.schedule[e % 2]) {
            std::set<unsigned> shards;
            for (const PlanOp &op : pb.ops)
                shards.insert(bed.shard[op.arr]);
            sum += shards.size();
            ++batches;
        }
    }
    return batches ? static_cast<double>(sum) / static_cast<double>(batches)
                   : 0.0;
}

/**
 * Shadow replays (traced run only, after the timed phase): the sim
 * epochs again through a standalone BuddyController and through the
 * codec alone, to time the layers the engine call hides.
 */
void
shadowReplays(const Corpus &c, const Bed &bed, const LoopState &st,
              Tracer &tracer, Report &r)
{
    ScopedSpan root(tracer, "bench.shadow");

    // Standalone controller sized for the whole suite, same arrays in
    // the same order; its totals must equal the engine's (one GPU
    // stream under WindowMode::Merged).
    BuddyConfig cc = bed.cfg.shard;
    cc.deviceBytes = (c.deviceNeed() + MiB - 1) / MiB * MiB + 2 * MiB;
    BuddyController ctl(cc);
    std::vector<Addr> vas;
    for (const Array &a : c.arrays) {
        const auto id = ctl.allocate("shadow", a.entries * kEntryBytes,
                                     a.target);
        if (!id) {
            r.fail("shadow controller out of memory");
            return;
        }
        vas.push_back(ctl.allocations().at(*id).va);
    }
    std::vector<std::vector<u8>> cur;
    auto exec = [&](AccessBatch &b) -> const BatchSummary & {
        return ctl.execute(b);
    };
    populate(c, vas, exec, cur, tracer, "shadow.core.populate");
    LoopState sh;
    u64 ops = 0;
    for (u64 e = 0; e < kSimEpochs; ++e)
        ops += runEpoch(c, e, vas, cur, exec, tracer, "shadow.core.execute",
                        "shadow.core.execute", sh, true);
    const bool same = isolationEqual(sh.prefix, st.prefix, true) &&
                      sh.prefix.codecCycles == st.prefix.codecCycles &&
                      sh.prefix.codecChargedWindowCycles ==
                          st.prefix.codecChargedWindowCycles;
    if (!same)
        r.fail("standalone controller totals differ from the engine's");
    if (sh.failed)
        r.fail("standalone controller read back wrong data");

    const SpanStats core = spanStats(tracer, "shadow.core.execute");
    r.layer("core.execute_ns_per_op", "ns", Clock::Host,
            core.totalS * 1e9 / static_cast<double>(std::max<u64>(ops, 1)),
            ops);

    // Engine cost per batch beyond the controller's on the same
    // batches: split, per-shard queues, merge, merged window replay.
    const SpanStats er = spanStats(tracer, "engine.execute.read");
    const SpanStats ew = spanStats(tracer, "engine.execute.write");
    const double engineUs = (er.totalS + ew.totalS) * 1e6 /
                            static_cast<double>(
                                std::max<u64>(er.count + ew.count, 1));
    const double coreUs =
        core.totalS * 1e6 / static_cast<double>(std::max<u64>(core.count, 1));
    r.layer("engine.overhead_us_per_batch", "us", Clock::Host,
            engineUs - coreUs, core.count);

    // Codec alone over the same entries: compress every non-zero write,
    // decompress every non-zero read's current content.
    CodecShadow codec;
    std::vector<std::vector<u8>> snapOf(c.arrays.size());
    for (std::size_t a = 0; a < c.arrays.size(); ++a)
        snapOf[a].assign(c.arrays[a].entries, 0);
    std::vector<const u8 *> src;
    for (u64 e = 0; e < kSimEpochs; ++e) {
        const unsigned snap = 1 + static_cast<unsigned>(e % 2);
        for (const PlanBatch &pb : c.schedule[e % 2]) {
            src.clear();
            for (const PlanOp &op : pb.ops) {
                const unsigned s = pb.write ? snap : snapOf[op.arr][op.entry];
                const u8 *d = c.arrays[op.arr].data(s, op.entry);
                if (pb.write)
                    snapOf[op.arr][op.entry] = static_cast<u8>(snap);
                if (!entryIsZero(d))
                    src.push_back(d);
            }
            codec.batch(src, pb.write, pb.ops.size(), tracer, r);
        }
    }
    codec.report(r, tracer);
}

/** Set-up, timed phase and report shared by both closed-loop workloads. */
Report
runClosedLoop(const Options &opt, Tracer &tracer,
              const std::vector<std::string> &names, unsigned shards,
              void (*buildSchedule)(Corpus &, u64), const char *suite,
              const char *paperRatio)
{
    Report r;
    Corpus c = synthesise(names, opt.seed);
    buildSchedule(c, opt.seed);
    if (opt.shards)
        shards = opt.shards;

    // Set-up, several times; setup_s is the median. The last bed runs.
    tracer.enable(opt.trace);
    std::vector<double> total, cpu, profile, construct, allocateUs,
        populateS;
    Bed bed;
    double spent = 0;
    while (moreSetups(total.size(), spent)) {
        bed = Bed{}; // release the previous engine before building anew
        SetupTimes t;
        bed = setUp(c, shards, opt.seed, t, tracer);
        spent += t.total;
        total.push_back(t.total);
        cpu.push_back(t.cpu);
        profile.push_back(t.profile);
        construct.push_back(t.construct);
        allocateUs.push_back(t.allocateUs);
        populateS.push_back(t.populate);
    }
    tracer.enable(false);

    // Timed phase. A traced run spends the first half untraced (that
    // half also yields the sim epochs) and the second half traced.
    LoopState st;
    const double untracedS = opt.trace ? opt.seconds / 2 : opt.seconds;
    timedPhase(c, bed, untracedS, kSimEpochs, tracer, st);
    const double untracedRate = median(st.rates);
    const double untracedCpuRate = median(st.cpuRates);
    const double sustainedCpuRate = quantile(st.cpuRates, 0.1);
    const std::size_t untracedEpochs = st.rates.size();
    double tracedRate = 0.0;
    if (opt.trace) {
        tracer.enable(true);
        const std::size_t before = st.rates.size();
        {
            ScopedSpan s(tracer, "bench.timed");
            timedPhase(c, bed, opt.seconds / 2, 2, tracer, st);
        }
        tracedRate = median(std::vector<double>(
            st.rates.begin() + static_cast<long>(before), st.rates.end()));
    }

    r.attempted = st.ops;
    r.failed = st.failed;
    const BatchSummary &p = st.prefix;
    const double ops = static_cast<double>(p.operations());
    r.e2e("setup_s", "s", Clock::Host, median(cpu), cpu.size());
    r.e2e("sustained_entries_per_cpu_s", "1/s", Clock::Host,
          sustainedCpuRate, untracedEpochs);
    r.e2e("peak_rss_mb", "MiB", Clock::Host, peakRssMb());
    r.e2e("compression_ratio", "x", Clock::Sim,
          bed.engine->compressionRatio());
    r.e2e("buddy_access_frac", "ratio", Clock::Sim,
          static_cast<double>(p.buddyAccesses) / ops, p.operations());
    r.e2e("sim_cycles_per_op", "cycles", Clock::Sim,
          static_cast<double>(p.codecChargedWindowCycles) / ops,
          p.operations());

    char line[512];
    std::snprintf(line, sizeof(line),
                  "reference: paper average capacity %s on %s, 1-2%% "
                  "slowdown; measured compression_ratio %.4f and "
                  "sim_cycles_per_op %.4f at profiled targets, %llu MiB "
                  "per benchmark",
                  paperRatio, suite, bed.engine->compressionRatio(),
                  static_cast<double>(p.codecChargedWindowCycles) / ops,
                  static_cast<unsigned long long>(kModelBytes / MiB));
    r.notes.push_back(line);
    r.info("entries_per_cpu_s", "1/s", Clock::Host, untracedCpuRate,
           untracedEpochs);
    r.info("entries_per_s", "1/s", Clock::Host, untracedRate,
           untracedEpochs);
    r.info("setup_wall_s", "s", Clock::Host, median(total), total.size());
    r.notes.push_back("reference: the timing model is unvalidated against "
                      "silicon, so no error figure is given; timed stats "
                      "start with a warm metadata cache (snapshot 0 is "
                      "written during set-up)");
    std::snprintf(line, sizeof(line),
                  "run: %llu epochs, %llu entry ops, %u shard(s), sim "
                  "metrics over the first %u epochs (%llu ops)",
                  static_cast<unsigned long long>(st.epoch),
                  static_cast<unsigned long long>(st.ops), shards,
                  kSimEpochs,
                  static_cast<unsigned long long>(p.operations()));
    r.notes.push_back(line);
    r.notes.push_back(rateSpread("wall", st.rates));
    r.notes.push_back(rateSpread("cpu", st.cpuRates));

    if (!opt.trace)
        return r;

    r.layer("core.profiler.profile_s", "s", Clock::Host, median(profile),
            profile.size());
    r.layer("engine.construct_s", "s", Clock::Host, median(construct),
            construct.size());
    r.layer("engine.allocate_us", "us", Clock::Host, median(allocateUs),
            c.arrays.size());
    r.layer("engine.populate_s", "s", Clock::Host, median(populateS),
            populateS.size());

    const SpanStats er = spanStats(tracer, "engine.execute.read");
    const SpanStats ew = spanStats(tracer, "engine.execute.write");
    r.layer("engine.read_ns_per_entry", "ns", Clock::Host,
            er.totalS * 1e9 / static_cast<double>(std::max<u64>(st.readOps, 1)),
            st.readOps);
    r.layer("engine.write_ns_per_entry", "ns", Clock::Host,
            ew.totalS * 1e9 /
                static_cast<double>(std::max<u64>(st.writeOps, 1)),
            st.writeOps);
    std::vector<double> execUs = er.durUs;
    execUs.insert(execUs.end(), ew.durUs.begin(), ew.durUs.end());
    r.layer("engine.execute_us_p50", "us", Clock::Host,
            quantile(execUs, 0.50), execUs.size());
    r.layer("engine.execute_us_p99", "us", Clock::Host,
            quantile(execUs, 0.99), execUs.size());
    r.layer("engine.execute_count", "count", Clock::None,
            static_cast<double>(execUs.size()));
    u64 batches = 0;
    const double spb = shardsPerBatch(c, bed, batches);
    r.layer("engine.shards_per_batch", "shards", Clock::Sim, spb, batches);
    addSimLayerMetrics(r, p);
    addTraceOverhead(r, tracer, untracedRate, tracedRate,
                     "bench.timed");

    bed.engine.reset(); // the shadow controller takes its memory
    tracer.enable(true);
    shadowReplays(c, bed, st, tracer, r);
    tracer.enable(false);
    return r;
}

} // namespace

Report
runHpcStencil(const Options &opt, Tracer &tracer)
{
    return runClosedLoop(opt, tracer, hpcBenchmarkNames(), 2,
                         buildStencilSchedule, "HPC", "2.2x");
}

Report
runDlTrain(const Options &opt, Tracer &tracer)
{
    return runClosedLoop(opt, tracer, dlBenchmarkNames(), 1,
                         buildTrainSchedule, "DL", "1.5x");
}

} // namespace perfbench
