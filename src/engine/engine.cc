#include "engine/engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>

#include "common/check.h"
#include "common/table.h"

namespace buddy {
namespace engine {

namespace {

/** Capture sink: collects the events of one sub-plan execution. */
struct CaptureSink : api::TrafficSink
{
    std::vector<AccessEvent> events;

    void
    onAccess(const AccessEvent &e) override
    {
        events.push_back(e);
    }
};

} // namespace

/**
 * One worker thread plus the shards it serves. Each shard has a slot
 * holding its FIFO queue and a `busy` flag, both guarded by `m`. A
 * shard is executed by one thread at a time — its worker, or a
 * submitting thread that found it idle (empty queue, not busy) — and
 * whoever runs it sets `busy` first, so per-shard execution is serial
 * and FIFO: the worker pops only non-busy slots, and a submitter only
 * claims a shard with nothing queued ahead of its sub-plan.
 */
struct ShardedEngine::Worker
{
    /** A queued sub-plan: (job, sub index). */
    using Task = std::pair<std::shared_ptr<BatchJob>, unsigned>;

    struct Slot
    {
        std::deque<Task> queue;
        bool busy = false; ///< a thread is executing this shard
    };

    std::mutex m;
    std::condition_variable cv;
    bool stop = false;
    std::vector<Slot> slots; ///< slot k serves shard k * workers + id

    std::size_t cursor = 0; ///< round-robin scan position
    std::thread th;

    /** Next slot with queued work that no thread is executing, scanning
     *  round-robin so one busy shard cannot starve its siblings; null
     *  if none. Call with `m` held. */
    Slot *
    nextRunnable()
    {
        for (std::size_t k = 0; k < slots.size(); ++k) {
            const std::size_t i = (cursor + k) % slots.size();
            if (!slots[i].busy && !slots[i].queue.empty()) {
                cursor = (i + 1) % slots.size();
                return &slots[i];
            }
        }
        return nullptr;
    }
};

ShardedEngine::ShardedEngine(const EngineConfig &cfg)
    : cfg_(cfg)
{
    BUDDY_CHECK(cfg.shards > 0, "engine needs at least one shard");
    shards_.reserve(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        BuddyConfig shard_cfg = cfg.shard;
        // Wire "peer" buddy carve-outs as a ring: shard s spills into
        // shard (s+1) mod N over NVLink peer access. An explicit
        // buddyPeerOrdinal in the template overrides the ring.
        if (shard_cfg.buddyBackend == "peer" &&
            shard_cfg.buddyPeerOrdinal < 0)
            shard_cfg.buddyPeerOrdinal =
                static_cast<int>((s + 1) % cfg.shards);
        shards_.push_back(std::make_unique<BuddyController>(shard_cfg));
    }

    const unsigned nthreads =
        std::min(cfg.threads == 0 ? cfg.shards : cfg.threads, cfg.shards);
    workers_.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned s = 0; s < cfg.shards; ++s)
        workers_[workerOf(s)]->slots.emplace_back();
    for (auto &w : workers_)
        w->th = std::thread([this, &w = *w] { workerMain(w); });
}

ShardedEngine::~ShardedEngine()
{
    for (auto &w : workers_) {
        {
            std::lock_guard<std::mutex> lk(w->m);
            w->stop = true;
        }
        w->cv.notify_one();
    }
    for (auto &w : workers_)
        w->th.join();
}

unsigned
ShardedEngine::workerOf(unsigned shard) const
{
    return shard % static_cast<unsigned>(workers_.size());
}

u64
ShardedEngine::shardSeed(unsigned s) const
{
    return splitmix64(cfg_.seed ^ (static_cast<u64>(s) + 1));
}

std::optional<AllocId>
ShardedEngine::allocate(const std::string &name, u64 bytes,
                        CompressionTarget target)
{
    // Fixed ordinal hash: the same allocation sequence always lands on
    // the same shards, independent of thread count and scheduling.
    const unsigned n = shardCount();
    const unsigned home = static_cast<unsigned>(
        splitmix64(nextOrdinal_ ^ cfg_.shardSalt) % n);
    ++nextOrdinal_;

    for (unsigned probe = 0; probe < n; ++probe) {
        const unsigned s = (home + probe) % n;
        const auto shardId = shards_[s]->allocate(name, bytes, target);
        if (!shardId)
            continue;

        const Allocation &sa = shards_[s]->allocations().at(*shardId);
        EngineAllocation a;
        a.id = nextId_++;
        a.shard = s;
        a.shardId = *shardId;
        a.name = name;
        a.bytes = sa.bytes; // page-rounded by the controller
        a.target = target;
        a.va = nextVa_;
        a.shardVa = sa.va;
        nextVa_ += a.bytes;
        logicalUsed_ += a.bytes;
        const EngineAllocation &stored = allocs_[a.id] = a;
        byVa_[a.va] = &stored;
        return a.id;
    }
    return std::nullopt;
}

void
ShardedEngine::free(AllocId id)
{
    const auto it = allocs_.find(id);
    BUDDY_CHECK(it != allocs_.end(), "free of unknown engine allocation");
    const EngineAllocation &a = it->second;
    shards_[a.shard]->free(a.shardId);
    logicalUsed_ -= a.bytes;
    byVa_.erase(a.va);
    allocs_.erase(it);
}

const EngineAllocation &
ShardedEngine::allocationFor(Addr va) const
{
    auto it = byVa_.upper_bound(va);
    BUDDY_CHECK(it != byVa_.begin(), "address below all engine allocations");
    --it;
    const EngineAllocation &a = *it->second;
    BUDDY_CHECK(a.contains(va), "address not inside any engine allocation");
    return a;
}

void
ShardedEngine::attachMetrics(obs::MetricRegistry &registry)
{
    const bool mergedMode = cfg_.shard.windowMode == WindowMode::Merged;
    probes_.active = true;

    // Merged per-batch totals that are pure functions of the plans:
    // identical under any sharding, so they live under sim/.
    probes_.batches = &registry.counter("sim/engine/batches");
    probes_.reads = &registry.counter("sim/engine/reads");
    probes_.writes = &registry.counter("sim/engine/writes");
    probes_.probes = &registry.counter("sim/engine/probes");
    probes_.deviceSectors = &registry.counter("sim/engine/device_sectors");
    probes_.buddySectors = &registry.counter("sim/engine/buddy_sectors");
    probes_.buddyAccesses = &registry.counter("sim/engine/buddy_accesses");
    probes_.batchOps = &registry.histogram("sim/engine/batch_ops");

    // Metadata hit/miss is per-shard cache state: reproducible
    // run-to-run, different across shard counts by design.
    probes_.metadataHits = &registry.counter("shard/engine/metadata_hits");
    probes_.metadataMisses =
        &registry.counter("shard/engine/metadata_misses");

    // Serial cycle fields are pure per-op functions: sim/ under every
    // mode. Window fields join sim/ only under Merged mode (the
    // merged-stream replay); under PerShard they are the N-GPU barrier
    // makespans, which depend on the sharding by design.
    const std::string wp = mergedMode ? "sim/engine/" : "shard/engine/";
    probes_.cycles.clear();
    CycleLedger::forEachField([&](Cycles CycleLedger::*field,
                                  const char *name, CycleKind kind) {
        const std::string prefix =
            kind == CycleKind::Serial ? "sim/engine/" : wp;
        probes_.cycles.emplace_back(field,
                                    &registry.counter(prefix + name));
    });
    probes_.batchMakespan =
        &registry.histogram(wp + "batch_combined_makespan");
    if (mergedMode) {
        probes_.windowOccupancy =
            &registry.histogram("sim/engine/window_occupancy");
        probes_.windowStall =
            &registry.histogram("sim/engine/window_stall");
    } else {
        // The shards' own controller metrics carry occupancy/stall in
        // per-shard mode (each shard is its own MSHR pool).
        probes_.windowOccupancy = nullptr;
        probes_.windowStall = nullptr;
    }

    // Whether a sub-plan runs on its submitter or is queued, and how
    // deep the queue is, depend on how fast workers drain — thread
    // timing, not simulated time — so they are wall/ by definition.
    probes_.wallQueueDepth =
        &registry.histogram("wall/engine/queue_depth");
    probes_.wallSubplansInline =
        &registry.counter("wall/engine/subplans_inline");
    probes_.wallSubplansQueued =
        &registry.counter("wall/engine/subplans_queued");

    // Each shard controller's own view (sub-stream windows, codec
    // outcomes, its cache's hits): reproducible, sharding-dependent.
    for (unsigned s = 0; s < shardCount(); ++s)
        shards_[s]->attachMetrics(registry, strfmt("shard/s%u/", s));
}

std::future<BatchSummary>
ShardedEngine::submit(AccessBatch &batch)
{
    auto job = std::make_shared<BatchJob>();
    job->batch = &batch;
    job->seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    batch.submitSeq_ = job->seq;

    const std::size_t n = batch.ops_.size();
    batch.results_.assign(n, AccessInfo{});
    batch.summary_ = BatchSummary{};
    job->opSub.resize(n);
    job->opAlloc.resize(n);

    // Split the plan: one sub-plan per participating shard, ops kept in
    // submission order with shard-local addresses.
    std::vector<int> subOf(shardCount(), -1);
    for (std::size_t i = 0; i < n; ++i) {
        const AccessRequest &op = batch.ops_[i];
        const EngineAllocation &a = allocationFor(op.va);
        int &sub = subOf[a.shard];
        if (sub < 0) {
            sub = static_cast<int>(job->subs.size());
            SubPlan &sp = job->subs.emplace_back();
            sp.shard = a.shard;
            // The rest of the batch bounds this shard's share.
            sp.plan.ops_.reserve(n - i);
            sp.origIdx.reserve(n - i);
        }
        SubPlan &sp = job->subs[static_cast<std::size_t>(sub)];
        AccessRequest local = op;
        local.va = a.shardVa + (op.va - a.va);
        sp.plan.ops_.push_back(local);
        sp.origIdx.push_back(static_cast<u32>(i));
        job->opSub[i] = static_cast<u32>(sub);
        job->opAlloc[i] = a.id;
    }

    auto fut = job->done.get_future();
    if (job->subs.empty()) {
        // Empty plan: nothing to run.
        if (!hub_.empty()) {
            std::lock_guard<std::mutex> lk(emitMutex_);
            hub_.emitBatch(batch.summary_);
        }
        job->done.set_value(batch.summary_);
        return fut;
    }

    // Dispatch: run the first sub-plan whose shard is idle (nothing
    // queued, not busy) on this thread; queue the rest to the workers.
    job->remaining.store(static_cast<unsigned>(job->subs.size()),
                         std::memory_order_relaxed);
    Worker *claimedWorker = nullptr;
    Worker::Slot *claimed = nullptr;
    unsigned claimedSub = 0;
    unsigned queued = 0;
    std::size_t peakDepth = 0;
    for (unsigned sub = 0; sub < job->subs.size(); ++sub) {
        const unsigned s = job->subs[sub].shard;
        Worker &w = *workers_[workerOf(s)];
        // Shards are dealt to workers round-robin (constructor).
        Worker::Slot &slot = w.slots[s / workers_.size()];
        {
            std::lock_guard<std::mutex> lk(w.m);
            if (!claimed && !slot.busy && slot.queue.empty()) {
                slot.busy = true;
                claimedWorker = &w;
                claimed = &slot;
                claimedSub = sub;
                continue;
            }
            slot.queue.emplace_back(job, sub);
            peakDepth = std::max(peakDepth, slot.queue.size());
        }
        ++queued;
        w.cv.notify_one();
    }
    if (probes_.active) {
        std::lock_guard<std::mutex> lk(accountMutex_);
        probes_.wallSubplansInline->add(claimed ? 1 : 0);
        probes_.wallSubplansQueued->add(queued);
        if (queued > 0)
            probes_.wallQueueDepth->add(peakDepth);
    }

    if (claimed) {
        runTask(job, claimedSub);
        std::lock_guard<std::mutex> lk(claimedWorker->m);
        claimed->busy = false;
        // The worker skipped work queued behind the claim: wake it.
        if (!claimed->queue.empty())
            claimedWorker->cv.notify_one();
    }
    return fut;
}

const BatchSummary &
ShardedEngine::execute(AccessBatch &batch)
{
    submit(batch).get();
    return batch.summary_;
}

void
ShardedEngine::workerMain(Worker &w)
{
    std::unique_lock<std::mutex> lk(w.m);
    for (;;) {
        Worker::Slot *slot = nullptr;
        w.cv.wait(lk, [&] { return (slot = w.nextRunnable()) || w.stop; });
        if (!slot)
            return; // stopped with nothing left to run
        const Worker::Task task = std::move(slot->queue.front());
        slot->queue.pop_front();
        slot->busy = true;
        lk.unlock();
        runTask(task.first, task.second);
        lk.lock();
        slot->busy = false;
    }
}

void
ShardedEngine::runTask(const std::shared_ptr<BatchJob> &job, unsigned sub)
{
    SubPlan &sp = job->subs[sub];
    BuddyController &c = *shards_[sp.shard];

    // Only one thread executes a shard at a time (its slot is busy), so
    // attaching a capture sink around the execution is race-free.
    const bool capture = !hub_.empty();
    CaptureSink cap;
    if (capture) {
        cap.events.reserve(sp.plan.ops_.size());
        c.attachSink(&cap);
    }
    c.execute(sp.plan);
    if (capture) {
        c.detachSink(&cap);
        sp.events = std::move(cap.events);
    }

    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        finish(*job);
}

void
ShardedEngine::finish(BatchJob &job)
{
    AccessBatch &batch = *job.batch;

    // Scatter per-op results back into submission order and fold the
    // per-shard summaries (u64 sums and maxima, so the merge is
    // order-independent). Cycle fields merge by kind: Serial fields sum
    // (bit-identical to a single-controller run of the same plan);
    // Window fields take the max over shards under PerShard — the
    // N-GPU makespan behind the batch's cross-shard barrier — and are
    // rescheduled over the merged stream below under Merged.
    const bool perShard = cfg_.shard.windowMode == WindowMode::PerShard;
    BatchSummary merged;
    for (const SubPlan &sp : job.subs) {
        const BatchSummary &s = sp.plan.summary_;
        merged.reads += s.reads;
        merged.writes += s.writes;
        merged.probes += s.probes;
        merged.deviceSectors += s.deviceSectors;
        merged.buddySectors += s.buddySectors;
        merged.metadataHits += s.metadataHits;
        merged.metadataMisses += s.metadataMisses;
        merged.buddyAccesses += s.buddyAccesses;
        CycleLedger::forEachField([&](Cycles CycleLedger::*f,
                                      const char *, CycleKind kind) {
            if (kind == CycleKind::Serial)
                merged.*f += s.*f;
            else if (perShard)
                merged.*f = std::max(merged.*f, s.*f);
        });
        for (std::size_t j = 0; j < sp.origIdx.size(); ++j)
            batch.results_[sp.origIdx[j]] = sp.plan.results_[j];
    }

    // Observability feeds of the merged replay: per-op occupancy/stall
    // samples collected into stack-local histograms (folded into the
    // registry under the accounting lock below — bucket sums are
    // commutative, so accumulation is completion-order-independent)
    // and the replay windows' peak concurrency for the BatchRecord.
    obs::LatencyHistogram localOcc;
    obs::LatencyHistogram localStall;
    u64 maxDevOut = 0;
    u64 maxBudOut = 0;
    const bool sampleWindows =
        (probes_.active && probes_.windowOccupancy != nullptr) ||
        observer_ != nullptr;

    if (!perShard) {
        // Windowed replay of the merged plan: reschedule the
        // submission-order traffic through one window group — the
        // single-GPU equivalent of the batch. Per-op traffic is a pure
        // function of the plan, so these totals are identical under any
        // sharding and bit-identical to a single controller executing
        // the same plan (every shard runs the same timing config;
        // shard 0's stores supply it).
        const BuddyController &c0 = *shards_[0];
        const u64 w = cfg_.shard.linkWindow;
        timing::WindowGroup group(
            c0.deviceStore().makeWindow(w),
            c0.buddyStore().makeWindow(w),
            c0.codecTiming());
        for (std::size_t i = 0; i < batch.ops_.size(); ++i) {
            AccessInfo &info = batch.results_[i];
            const timing::LinkDir dir =
                batch.ops_[i].kind == AccessKind::Write
                    ? timing::LinkDir::Write
                    : timing::LinkDir::Read;
            // Whether the op ran the inline unit is a pure per-op fact
            // the shards already computed (codecCycles > 0 exactly when
            // a pass ran — any nonzero initiation interval has nonzero
            // latency); the direction recovers which pass it was.
            timing::CodecWork work = timing::CodecWork::None;
            if (info.codecCycles > 0)
                work = batch.ops_[i].kind == AccessKind::Write
                           ? timing::CodecWork::Compress
                           : timing::CodecWork::Decompress;
            const timing::GroupCharge charge = group.issue(
                dir, static_cast<u64>(info.deviceSectors) * kSectorBytes,
                static_cast<u64>(info.buddySectors) * kSectorBytes, work);
            info.deviceWindowCycles = charge.device;
            info.buddyWindowCycles = charge.buddy;
            info.combinedWindowCycles = charge.combined;
            info.codecChargedWindowCycles = charge.codecCharged;
            merged.deviceWindowCycles += charge.device;
            merged.buddyWindowCycles += charge.buddy;
            merged.combinedWindowCycles += charge.combined;
            merged.codecChargedWindowCycles += charge.codecCharged;
            if (sampleWindows) {
                localOcc.add(group.device().outstanding() +
                             group.buddy().outstanding());
                localStall.add(std::max(group.device().lastStall(),
                                        group.buddy().lastStall()));
            }
        }
        maxDevOut = group.device().maxOutstanding();
        maxBudOut = group.buddy().maxOutstanding();
    } else {
        // Per-shard window mode: each shard kept its own MSHR pool over
        // its own links — the per-op window charges the shards computed
        // (already scattered above) stand, and the batch totals are the
        // max over shards folded above. Per-shard sub-streams are
        // executed in submission order, one thread at a time, and max()
        // is order-independent, so these totals are reproducible
        // run-to-run; at one shard they are bit-identical to the merged
        // replay (same stream, same timing), which tests pin.
        u64 min_makespan = ~0ull;
        u64 sum_makespan = 0;
        for (const SubPlan &sp : job.subs) {
            const BatchSummary &s = sp.plan.summary_;
            min_makespan = std::min(min_makespan, s.combinedWindowCycles);
            sum_makespan += s.combinedWindowCycles;
        }

        // The spread between the shards' makespans is the per-batch GPU
        // load-imbalance signal (the barrier waits for the max). All
        // sums are integers, so accumulation is completion-order-
        // independent and the stats reproduce run-to-run.
        const u64 max_makespan = merged.combinedWindowCycles;
        std::lock_guard<std::mutex> lk(accountMutex_);
        ++imbalance_.batches;
        imbalance_.sumMin += min_makespan;
        imbalance_.sumMax += max_makespan;
        imbalance_.sumAll += sum_makespan;
        imbalance_.sumShards += job.subs.size();
        imbalance_.minMin = std::min(imbalance_.minMin, min_makespan);
        imbalance_.maxMax = std::max(imbalance_.maxMax, max_makespan);
        if (sum_makespan > 0) {
            // Integer ratio bucket: max/mean in tenths, computed as
            // max * 10 * shards / Σ so no floats enter the accumulator.
            const u64 tenths =
                max_makespan * 10 * job.subs.size() / sum_makespan;
            const u64 bucket = std::min<u64>(
                tenths - 10, WindowImbalanceStats::kRatioBuckets - 1);
            ++imbalance_.ratioHist[bucket];
        }
    }
    batch.summary_ = merged;

    // Engine and per-tenant accounting: fold the batch's merged summary
    // into the engine's cycle ledger and into the submitting tenant's
    // totals (untagged batches land under tenant 0). A tenant's totals
    // thus sum exactly its own batches — the bookkeeping behind the
    // service layer's isolation contract.
    {
        std::lock_guard<std::mutex> lk(accountMutex_);
        cycles_.addCycles(merged);
        TenantTotals &t = tenantTotals_[batch.tenant()];
        t.summary.accumulate(merged);
        ++t.batches;

        // Metric folds: every accumulation is a counter add or a
        // histogram bucket sum — commutative, so the registry state is
        // independent of which batch finished first.
        if (probes_.active) {
            probes_.batches->add();
            probes_.reads->add(merged.reads);
            probes_.writes->add(merged.writes);
            probes_.probes->add(merged.probes);
            probes_.deviceSectors->add(merged.deviceSectors);
            probes_.buddySectors->add(merged.buddySectors);
            probes_.buddyAccesses->add(merged.buddyAccesses);
            probes_.metadataHits->add(merged.metadataHits);
            probes_.metadataMisses->add(merged.metadataMisses);
            for (const auto &[field, counter] : probes_.cycles)
                counter->add(merged.*field);
            probes_.batchMakespan->add(merged.combinedWindowCycles);
            probes_.batchOps->add(batch.ops_.size());
            if (probes_.windowOccupancy != nullptr) {
                probes_.windowOccupancy->merge(localOcc);
                probes_.windowStall->merge(localStall);
            }
        }

        // Timeline hook: one record per batch, serialized by this lock
        // (completion order; seq recovers submission order).
        if (observer_ != nullptr) {
            obs::BatchRecord rec;
            rec.seq = job.seq;
            rec.tenant = batch.tenant();
            rec.summary = merged;
            rec.maxDeviceOutstanding = maxDevOut;
            rec.maxBuddyOutstanding = maxBudOut;
            rec.shards.reserve(job.subs.size());
            for (const SubPlan &sp : job.subs) {
                obs::BatchRecord::ShardSpan span;
                span.shard = sp.shard;
                span.ops = sp.plan.ops_.size();
                span.combinedCycles = sp.plan.summary_.combinedWindowCycles;
                rec.shards.push_back(span);
            }
            std::sort(rec.shards.begin(), rec.shards.end(),
                      [](const obs::BatchRecord::ShardSpan &a,
                         const obs::BatchRecord::ShardSpan &b) {
                          return a.shard < b.shard;
                      });
            observer_->onBatchComplete(rec);
        }
    }

    // Replay captured events to engine-level sinks in submission order:
    // sinks observe exactly the stream a single controller would emit
    // (with engine-global addresses, allocation ids, and the merged
    // windowed charges).
    if (!hub_.empty()) {
        std::lock_guard<std::mutex> lk(emitMutex_);
        std::vector<std::size_t> cursor(job.subs.size(), 0);
        for (std::size_t i = 0; i < batch.ops_.size(); ++i) {
            SubPlan &sp = job.subs[job.opSub[i]];
            AccessEvent ev = sp.events[cursor[job.opSub[i]]++];
            ev.va = batch.ops_[i].va;
            ev.allocId = job.opAlloc[i]; // resolved during the split
            ev.tenant = batch.tenant();  // submitting tenant's tag
            ev.info = batch.results_[i]; // merged windowed charges
            hub_.emit(ev);
        }
        hub_.emitBatch(merged);
    }

    job.done.set_value(merged);
}

BuddyStats
ShardedEngine::stats() const
{
    BuddyStats total;
    for (const auto &s : shards_) {
        const BuddyStats &st = s->stats();
        total.reads += st.reads;
        total.writes += st.writes;
        total.deviceSectorTraffic += st.deviceSectorTraffic;
        total.buddySectorTraffic += st.buddySectorTraffic;
        total.buddyAccesses += st.buddyAccesses;
        total.overflowEntries += st.overflowEntries;
    }
    std::lock_guard<std::mutex> lk(accountMutex_);
    static_cast<CycleLedger &>(total) = cycles_;
    return total;
}

void
ShardedEngine::clearStats()
{
    // Symmetric with stats(): every field merged there must reset here
    // (tests/test_engine.cc pins reset -> resubmit equality).
    for (auto &s : shards_)
        s->clearStats();
    std::lock_guard<std::mutex> lk(accountMutex_);
    cycles_ = CycleLedger{};
    tenantTotals_.clear();
    imbalance_ = WindowImbalanceStats{};
}

std::map<u32, TenantTotals>
ShardedEngine::tenantTotals() const
{
    std::lock_guard<std::mutex> lk(accountMutex_);
    return tenantTotals_;
}

WindowImbalanceStats
ShardedEngine::windowImbalance() const
{
    std::lock_guard<std::mutex> lk(accountMutex_);
    return imbalance_;
}

u64
ShardedEngine::deviceBytesReserved() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->deviceBytesReserved();
    return total;
}

u64
ShardedEngine::buddyBytesReserved() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->buddyBytesReserved();
    return total;
}

// buddy-lint: allow-begin(float-cycle) derived read-out ratio over integer byte totals; not a cycle accumulator
double
ShardedEngine::compressionRatio() const
{
    const u64 device = deviceBytesReserved();
    return device ? static_cast<double>(logicalUsed_) /
                        static_cast<double>(device)
                  : 1.0;
}
// buddy-lint: allow-end(float-cycle)

u64
ShardedEngine::metadataAccesses() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->metadataCache().accesses();
    return total;
}

u64
ShardedEngine::metadataMisses() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->metadataCache().misses();
    return total;
}

} // namespace engine
} // namespace buddy
