#include "service/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/table.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"

namespace buddy {
namespace service {

/** One registered session plus its accumulated accounting. */
struct ServiceScheduler::Tenant
{
    std::unique_ptr<TenantSession> session;
    u32 id = 0;
    u64 weight = 1;

    u64 dispatched = 0;
    u64 batches = 0;
    u64 queueWaitRounds = 0;
    u64 maxInflight = 0;
    u64 serviceCycles = 0;

    /** Continuous-mode latency accounting (simulated cycles). */
    u64 queueDelayCycles = 0;
    obs::LatencyHistogram queueDelay;
    obs::LatencyHistogram serviceLatency;

    BatchSummary totals;

    /** Metric probes (null until ServiceScheduler::attachMetrics). */
    obs::LatencyHistogram *mServiceCycles = nullptr;
    obs::LatencyHistogram *mQueueDelay = nullptr;
    obs::Counter *mDispatched = nullptr;
    obs::Counter *mBatches = nullptr;
    obs::Counter *mQueueWait = nullptr;
};

/**
 * One in-flight batch. Heap-allocated and pinned until completion: the
 * engine holds a pointer to the plan (and the plan's reads point into
 * readBuf) until the future is ready, so neither may move.
 */
struct ServiceScheduler::Dispatch
{
    std::size_t tenant = 0; ///< index into tenants_
    AccessBatch plan;
    std::vector<u8> readBuf;
    std::future<BatchSummary> fut;

    /** Continuous-mode event state (simulated cycles). */
    u64 arrival = 0;  ///< batch became eligible
    u64 admit = 0;    ///< clock at admission
    u64 complete = 0; ///< admit + serviceCycles (once resolved)
    u64 serviceCycles = 0;
    u64 admitSeq = 0;  ///< scheduler admission order (event tie-break)
    u64 submitSeq = 0; ///< engine submit sequence (timeline join key)
    bool resolved = false;
    BatchSummary summary;
};

ServiceScheduler::ServiceScheduler(engine::ShardedEngine &engine,
                                   ServiceConfig cfg)
    : engine_(engine), cfg_(cfg)
{
    BUDDY_CHECK(cfg_.maxInflightPerTenant >= 1,
                "maxInflightPerTenant must be >= 1");
    BUDDY_CHECK(cfg_.maxInflightTotal >= 1, "maxInflightTotal must be >= 1");
}

ServiceScheduler::~ServiceScheduler() = default;

u32
ServiceScheduler::addSession(std::unique_ptr<TenantSession> session,
                             u64 weight)
{
    BUDDY_CHECK(!ran_, "sessions must be added before run()");
    BUDDY_CHECK(session != nullptr, "null session");
    BUDDY_CHECK(weight >= 1, "tenant weight must be >= 1");
    auto t = std::make_unique<Tenant>();
    t->session = std::move(session);
    t->id = static_cast<u32>(tenants_.size() + 1);
    t->weight = weight;
    tenants_.push_back(std::move(t));
    return tenants_.back()->id;
}

void
ServiceScheduler::attachMetrics(obs::MetricRegistry &registry)
{
    BUDDY_CHECK(!ran_, "attachMetrics must precede run()");
    metricsActive_ = true;
    mRounds_ = &registry.counter("sim/service/rounds");
    mDispatched_ = &registry.counter("sim/service/dispatched");
    mCapRounds_ = &registry.counter("sim/service/global_cap_rounds");
    mSimCycles_ = &registry.gauge("sim/service/sim_cycles");
    for (auto &t : tenants_) {
        const std::string p = strfmt("sim/service/t%u/", t->id);
        t->mServiceCycles = &registry.histogram(p + "service_cycles");
        t->mQueueDelay = &registry.histogram(p + "queue_delay_cycles");
        t->mDispatched = &registry.counter(p + "dispatched");
        t->mBatches = &registry.counter(p + "batches");
        t->mQueueWait = &registry.counter(p + "queue_wait_rounds");
    }
}

int
ServiceScheduler::pickNext(const std::vector<unsigned> &inflight,
                           std::size_t &rrCursor, bool gateArrivals,
                           u64 now) const
{
    const std::size_t n = tenants_.size();
    const auto eligible = [&](std::size_t i) {
        const Tenant &t = *tenants_[i];
        if (t.session->done() || inflight[i] >= cfg_.maxInflightPerTenant)
            return false;
        // In continuous mode the next batch must also have arrived.
        return !gateArrivals ||
               t.session->arrivalCycles(t.dispatched) <= now;
    };

    switch (cfg_.policy) {
    case SchedPolicy::Fifo:
        for (std::size_t i = 0; i < n; ++i)
            if (eligible(i))
                return static_cast<int>(i);
        return -1;

    case SchedPolicy::RoundRobin:
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rrCursor + k) % n;
            if (eligible(i)) {
                rrCursor = (i + 1) % n;
                return static_cast<int>(i);
            }
        }
        return -1;

    case SchedPolicy::WeightedFair: {
        // Stride scheduling: least dispatched/weight wins, compared by
        // exact integer cross-multiplication; ties go to the lower
        // tenant id (the earlier arrival).
        int best = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!eligible(i))
                continue;
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const Tenant &a = *tenants_[i];
            const Tenant &b = *tenants_[static_cast<std::size_t>(best)];
            if (a.dispatched * b.weight < b.dispatched * a.weight)
                best = static_cast<int>(i);
        }
        return best;
    }
    }
    return -1;
}

ServiceReport
ServiceScheduler::run()
{
    BUDDY_CHECK(!ran_, "ServiceScheduler::run is single-shot");
    ran_ = true;
    if (cfg_.admission == AdmissionMode::Continuous) {
        BUDDY_CHECK(cfg_.maxRounds == 0,
                    "maxRounds is a bulk-synchronous knob; continuous "
                    "mode truncates via maxCompletions");
        return runContinuous();
    }
    BUDDY_CHECK(cfg_.maxCompletions == 0,
                "maxCompletions is a continuous-mode knob; bulk mode "
                "truncates via maxRounds");
    return runBulk();
}

ServiceReport
ServiceScheduler::runBulk()
{
    // buddy-lint: allow(wall-clock) wall/ throughput instrumentation (ServiceReport::wallSeconds); never feeds sim/ totals
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = tenants_.size();
    ServiceReport rep;

    const auto allDone = [&] {
        for (const auto &t : tenants_)
            if (!t->session->done())
                return false;
        return true;
    };

    std::size_t rrCursor = n ? engine::splitmix64(cfg_.seed) % n : 0;

    while (n && !allDone() &&
           (cfg_.maxRounds == 0 || rep.rounds < cfg_.maxRounds)) {
        // Admission: the policy fills the round up to the per-tenant and
        // global caps. Each dispatch is submitted as soon as it is
        // planned: an idle shard runs it inside submit(), a busy one's
        // worker overlaps it with plan generation.
        std::vector<unsigned> inflight(n, 0);
        std::vector<std::unique_ptr<Dispatch>> dispatches;
        while (dispatches.size() < cfg_.maxInflightTotal) {
            const int pick = pickNext(inflight, rrCursor, false, 0);
            if (pick < 0)
                break;
            Tenant &t = *tenants_[static_cast<std::size_t>(pick)];
            auto d = std::make_unique<Dispatch>();
            d->tenant = static_cast<std::size_t>(pick);
            const bool ok = t.session->next(d->plan, d->readBuf);
            BUDDY_CHECK(ok, "eligible session yielded no batch");
            d->plan.setTenant(t.id);
            ++inflight[static_cast<std::size_t>(pick)];
            ++t.dispatched;
            if (t.mDispatched != nullptr)
                t.mDispatched->add();
            d->fut = engine_.submit(d->plan);
            dispatches.push_back(std::move(d));
        }

        for (std::size_t i = 0; i < n; ++i) {
            Tenant &t = *tenants_[i];
            // Queue-wait: the tenant still has ready work and is below
            // its own cap, so the fleet-wide limit denied it admission
            // this round (inflight[i] == 0 is the starved special
            // case; a tenant granted some-but-not-all slots waits too).
            if (!t.session->done() &&
                inflight[i] < cfg_.maxInflightPerTenant) {
                ++t.queueWaitRounds;
                if (t.mQueueWait != nullptr)
                    t.mQueueWait->add();
            }
            t.maxInflight = std::max<u64>(t.maxInflight, inflight[i]);
        }
        rep.maxGlobalInflight =
            std::max<u64>(rep.maxGlobalInflight, dispatches.size());
        rep.dispatched += dispatches.size();

        // Barrier: complete the round before the next admission pass.
        for (auto &d : dispatches) {
            const BatchSummary s = d->fut.get();
            Tenant &t = *tenants_[d->tenant];
            t.totals.accumulate(s);
            ++t.batches;
            const u64 cycles = std::max<u64>(s.combinedWindowCycles, 1);
            t.serviceCycles += cycles;
            if (t.mBatches != nullptr) {
                t.mBatches->add();
                t.mServiceCycles->add(cycles);
            }
        }
        ++rep.rounds;
        if (metricsActive_) {
            mRounds_->add();
            mDispatched_->add(dispatches.size());
            // The admission pass stopped at the global cap (rather
            // than running out of eligible work): fleet saturation.
            if (dispatches.size() >= cfg_.maxInflightTotal)
                mCapRounds_->add();
        }
    }

    finalizeReport(rep);
    rep.wallSeconds = std::chrono::duration<double>(
                          // buddy-lint: allow(wall-clock) wall/ throughput instrumentation; never feeds sim/ totals
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return rep;
}

ServiceReport
ServiceScheduler::runContinuous()
{
    // buddy-lint: allow(wall-clock) wall/ throughput instrumentation (ServiceReport::wallSeconds); never feeds sim/ totals
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = tenants_.size();
    ServiceReport rep;

    const auto allDone = [&] {
        for (const auto &t : tenants_)
            if (!t->session->done())
                return false;
        return true;
    };

    std::size_t rrCursor = n ? engine::splitmix64(cfg_.seed) % n : 0;
    std::vector<unsigned> inflight(n, 0);
    std::vector<std::unique_ptr<Dispatch>> pending;
    u64 now = 0;       ///< the simulated service clock
    u64 admitted = 0;  ///< batches admitted over the whole run
    u64 admitSeq = 0;  ///< admission order (completion tie-break)

    // Truncation: stop *admitting* once maxCompletions batches have
    // been admitted, then drain what is in flight — every admitted
    // batch completes and is accounted, so scheduler totals stay
    // consistent with the engine's per-tenant totals.
    const auto admissionOpen = [&] {
        return cfg_.maxCompletions == 0 || admitted < cfg_.maxCompletions;
    };

    while (n) {
        // Admission pass at the current clock: refill every free slot
        // the policy grants. The policy re-picks after each grant, so
        // slots freed by one completion can fan out across tenants.
        while (admissionOpen() && pending.size() < cfg_.maxInflightTotal) {
            const int pick = pickNext(inflight, rrCursor, true, now);
            if (pick < 0)
                break;
            const std::size_t i = static_cast<std::size_t>(pick);
            Tenant &t = *tenants_[i];
            auto d = std::make_unique<Dispatch>();
            d->tenant = i;
            d->arrival = t.session->arrivalCycles(t.dispatched);
            d->admit = now;
            d->admitSeq = admitSeq++;
            const bool ok = t.session->next(d->plan, d->readBuf);
            BUDDY_CHECK(ok, "eligible session yielded no batch");
            d->plan.setTenant(t.id);
            ++inflight[i];
            t.maxInflight = std::max<u64>(t.maxInflight, inflight[i]);
            ++t.dispatched;
            ++admitted;

            // Queueing delay is fixed at admission: eligibility to
            // admission on the simulated clock.
            const u64 delay = now - d->arrival;
            t.queueDelayCycles += delay;
            t.queueDelay.add(delay);
            if (t.mDispatched != nullptr) {
                t.mDispatched->add();
                t.mQueueDelay->add(delay);
            }
            if (metricsActive_)
                mDispatched_->add();

            d->fut = engine_.submit(d->plan);
            d->submitSeq = d->plan.submitSeq();
            pending.push_back(std::move(d));
        }
        rep.maxGlobalInflight =
            std::max<u64>(rep.maxGlobalInflight, pending.size());

        if (pending.empty()) {
            if (!admissionOpen() || allDone())
                break;
            // Fleet idle: nothing in flight and nothing eligible, so
            // jump the clock to the earliest future arrival.
            u64 nextArrival = ~0ull;
            for (const auto &t : tenants_)
                if (!t->session->done())
                    nextArrival =
                        std::min(nextArrival,
                                 t->session->arrivalCycles(t->dispatched));
            BUDDY_CHECK(nextArrival != ~0ull && nextArrival > now,
                        "idle fleet must have a future arrival");
            now = nextArrival;
            continue;
        }

        // Resolve every outstanding future. All pending batches have
        // run inside submit() or are executing on the engine's workers, so
        // the blocking order is irrelevant to both wall time and the
        // (deterministic) results; resolving them all makes every
        // completion time known in simulated cycles.
        for (auto &d : pending) {
            if (d->resolved)
                continue;
            d->summary = d->fut.get();
            d->serviceCycles =
                std::max<u64>(d->summary.combinedWindowCycles, 1);
            d->complete = d->admit + d->serviceCycles;
            d->resolved = true;
        }

        // Pop the earliest completion event; ties break on admission
        // order, so the event sequence is a pure function of the seed
        // and the workload no matter how the workers interleaved.
        std::size_t best = 0;
        for (std::size_t k = 1; k < pending.size(); ++k) {
            const Dispatch &a = *pending[k];
            const Dispatch &b = *pending[best];
            if (a.complete < b.complete ||
                (a.complete == b.complete && a.admitSeq < b.admitSeq))
                best = k;
        }
        std::unique_ptr<Dispatch> done = std::move(pending[best]);
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(best));

        now = done->complete;
        Tenant &t = *tenants_[done->tenant];
        --inflight[done->tenant];
        t.totals.accumulate(done->summary);
        ++t.batches;
        t.serviceCycles += done->serviceCycles;
        t.serviceLatency.add(done->serviceCycles);
        if (t.mBatches != nullptr) {
            t.mBatches->add();
            t.mServiceCycles->add(done->serviceCycles);
        }
        if (timeline_ != nullptr)
            timeline_->noteServiceSpan(done->submitSeq, done->arrival,
                                       done->admit, done->complete);
    }

    rep.dispatched = admitted;
    rep.simCycles = now;
    if (metricsActive_)
        mSimCycles_->set(static_cast<i64>(now));

    finalizeReport(rep);
    rep.wallSeconds = std::chrono::duration<double>(
                          // buddy-lint: allow(wall-clock) wall/ throughput instrumentation; never feeds sim/ totals
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return rep;
}

void
ServiceScheduler::finalizeReport(ServiceReport &rep) const
{
    const std::size_t n = tenants_.size();
    rep.allFinished = [&] {
        for (const auto &t : tenants_)
            if (!t->session->done())
                return false;
        return true;
    }();

    rep.tenants.reserve(n);
    double sum = 0.0, sumSq = 0.0, wsum = 0.0, wsumSq = 0.0;
    rep.minServiceCycles = n ? ~0ull : 0;
    for (const auto &t : tenants_) {
        TenantReport tr;
        tr.tenant = t->id;
        tr.name = t->session->name();
        tr.weight = t->weight;
        tr.finished = t->session->done();
        tr.batches = t->batches;
        tr.dispatched = t->dispatched;
        tr.queueWaitRounds = t->queueWaitRounds;
        tr.maxInflight = t->maxInflight;
        tr.serviceCycles = t->serviceCycles;
        tr.queueDelayCycles = t->queueDelayCycles;
        tr.queueDelay = t->queueDelay;
        tr.serviceLatency = t->serviceLatency;
        tr.totals = t->totals;
        rep.tenants.push_back(std::move(tr));

        rep.minServiceCycles =
            std::min(rep.minServiceCycles, t->serviceCycles);
        rep.maxServiceCycles =
            std::max(rep.maxServiceCycles, t->serviceCycles);
        const double x = static_cast<double>(t->serviceCycles);
        const double wx = x / static_cast<double>(t->weight);
        sum += x;
        sumSq += x * x;
        wsum += wx;
        wsumSq += wx * wx;
    }
    // Σx² == 0 means no tenant received any service: the index is
    // undefined there, reported as 0.0 — distinctly outside the
    // defined range [1/n, 1] — rather than a fake "perfectly fair".
    const double dn = static_cast<double>(n);
    rep.jainIndex = sumSq > 0.0 ? (sum * sum) / (dn * sumSq) : 0.0;
    rep.weightedJainIndex =
        wsumSq > 0.0 ? (wsum * wsum) / (dn * wsumSq) : 0.0;
}

} // namespace service
} // namespace buddy
