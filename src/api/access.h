/**
 * @file
 * The batched access plan: the public memory-access surface of the
 * buddy::api facade.
 *
 * Buddy Compression is a throughput system — every paper metric
 * (buddy-access fraction, metadata hit rate, achieved ratio) is an
 * aggregate over millions of 128 B entry accesses. The api layer
 * therefore makes the *batch* the first-class unit of work: callers
 * build an AccessBatch of read/write/probe spans and submit it once via
 * BuddyController::execute(). The controller fills one AccessInfo per
 * operation plus a batch-level BatchSummary, reusing a single
 * CompressionScratch across the whole batch so the hot path performs
 * zero per-entry heap allocations. The legacy per-entry calls
 * (writeEntry/readEntry/probeEntry) remain as thin single-op wrappers
 * over the same execution path.
 */

#pragma once

#include <vector>

#include "common/types.h"

namespace buddy {

class BuddyController;

namespace engine {
class ShardedEngine;
}

namespace api {

/** What one access-plan operation does. */
enum class AccessKind : u8 {
    Read,  ///< decompress one entry into `dst`
    Write, ///< compress and store one entry from `src`
    Probe, ///< account the traffic a read would generate, move no data
};

/** One 128 B entry operation in an access plan. */
struct AccessRequest
{
    AccessKind kind = AccessKind::Probe;

    /** Entry-aligned virtual address. */
    Addr va = 0;

    /** Write payload (kEntryBytes bytes); null for Read/Probe. */
    const u8 *src = nullptr;

    /** Read destination (kEntryBytes bytes); null for Write/Probe. */
    u8 *dst = nullptr;
};

/** How a CycleLedger field combines across the shards of one batch. */
enum class CycleKind : u8 {
    /** A pure per-op charge, identical under any sharding: summed
     *  across shards. */
    Serial,
    /** A windowed makespan (timing/window.h): rescheduled over the
     *  merged submission-order stream under WindowMode::Merged, the max
     *  over the participating shards (the N-GPU barrier) under
     *  WindowMode::PerShard. */
    Window,
};

/**
 * The simulated-cycle charges of one access, one batch, or a run. This
 * is the single definition of the cycle fields: AccessInfo, BatchSummary
 * and BuddyStats inherit it, and every fold, comparison, metric,
 * trace-footer field and Chrome-trace batch span walks forEachField(),
 * so a new cycle field is one member plus one forEachField() line (plus
 * the code that produces it).
 *
 * Every field is deterministic run-to-run. Serial fields are pure
 * functions of the traffic; Window fields are, per op, the advance of
 * the batch's windowed-replay completion frontier (so a batch's charges
 * telescope to its makespan) and, summed over batches, additive
 * bookkeeping of per-batch makespans. They are shard-invariant under
 * WindowMode::Merged and depend on the sharding by design under
 * WindowMode::PerShard.
 */
struct CycleLedger
{
    /** Cycles the device store's LinkModel charged
     *  (timing/link_model.h). */
    Cycles deviceCycles = 0;

    /** Cycles the buddy store's LinkModel charged. */
    Cycles buddyCycles = 0;

    /** Device-link windowed makespan with BuddyConfig::linkWindow round
     *  trips in flight; equals deviceCycles at linkWindow == 1. */
    Cycles deviceWindowCycles = 0;

    /** Buddy-link windowed makespan. */
    Cycles buddyWindowCycles = 0;

    /** Cross-link windowed makespan: the links drain in parallel, so a
     *  batch finishes at max(device, buddy) makespan (WindowGroup). */
    Cycles combinedWindowCycles = 0;

    /** Unloaded latency of the codec's inline unit: CodecTiming::latency
     *  per compression of a non-zero write or decompression of a
     *  compressed entry. Never folded into the link cycles. */
    Cycles codecCycles = 0;

    /** combinedWindowCycles plus the codec time the pipelined unit could
     *  not hide behind link transfers; equal to it when the codec timing
     *  is free. */
    Cycles codecChargedWindowCycles = 0;

    /**
     * Call @p f(field, metricName, kind) for every field in trace-footer
     * order: @p field is a `Cycles CycleLedger::*`, @p metricName the
     * counter the engine registers, @p kind the field's CycleKind.
     */
    template <typename F>
    static void
    forEachField(F &&f)
    {
        f(&CycleLedger::deviceCycles, "device_cycles", CycleKind::Serial);
        f(&CycleLedger::buddyCycles, "buddy_cycles", CycleKind::Serial);
        f(&CycleLedger::deviceWindowCycles, "device_window_cycles",
          CycleKind::Window);
        f(&CycleLedger::buddyWindowCycles, "buddy_window_cycles",
          CycleKind::Window);
        f(&CycleLedger::combinedWindowCycles, "combined_window_cycles",
          CycleKind::Window);
        f(&CycleLedger::codecCycles, "codec_cycles", CycleKind::Serial);
        f(&CycleLedger::codecChargedWindowCycles,
          "codec_charged_window_cycles", CycleKind::Window);
    }

    /** Add @p o field by field. */
    void
    addCycles(const CycleLedger &o)
    {
        forEachField([&](Cycles CycleLedger::*f, const char *, CycleKind) {
            this->*f += o.*f;
        });
    }

    /** Field-wise equality over the Serial fields, plus the Window
     *  fields when @p windowed. */
    bool
    sameCycles(const CycleLedger &o, bool windowed = true) const
    {
        bool same = true;
        forEachField([&](Cycles CycleLedger::*f, const char *,
                         CycleKind kind) {
            if (kind == CycleKind::Serial || windowed)
                same = same && this->*f == o.*f;
        });
        return same;
    }
};

/** Traffic breakdown and cycle charges of a single entry access. */
struct AccessInfo : CycleLedger
{
    /** 32 B sectors transferred from/to device memory. */
    unsigned deviceSectors = 0;

    /** 32 B sectors transferred over the interconnect to buddy memory. */
    unsigned buddySectors = 0;

    /** True if the metadata lookup hit in the metadata cache. */
    bool metadataHit = true;

    /**
     * Total link cycles charged for this access. The device and buddy
     * portions occupy different links, so this is link occupancy (the
     * quantity that sums across a batch), not a parallel makespan.
     */
    Cycles
    cycles() const
    {
        return deviceCycles + buddyCycles;
    }

    /** Total windowed-replay charge of this access (additive). */
    Cycles
    windowCycles() const
    {
        return deviceWindowCycles + buddyWindowCycles;
    }

    /** True if any part of the entry lives in buddy memory. */
    bool
    usedBuddy() const
    {
        return buddySectors > 0;
    }
};

/** Batch-level traffic summary and cycle totals filled by execute().
 *  Under WindowMode::PerShard the Window fields carry the batch's N-GPU
 *  makespans (max over shards). */
struct BatchSummary : CycleLedger
{
    u64 reads = 0;
    u64 writes = 0;
    u64 probes = 0;
    u64 deviceSectors = 0;
    u64 buddySectors = 0;
    u64 metadataHits = 0;
    u64 metadataMisses = 0;
    u64 buddyAccesses = 0; ///< operations that touched buddy memory

    u64 operations() const { return reads + writes + probes; }

    /**
     * Fold another summary into this one (plain field sums; the shared
     * accumulation the trace totals, the engine's per-tenant accounting,
     * and the service scheduler all use). Note the window fields sum
     * per-batch makespans — additive bookkeeping, not a joint makespan.
     */
    void
    accumulate(const BatchSummary &o)
    {
        reads += o.reads;
        writes += o.writes;
        probes += o.probes;
        deviceSectors += o.deviceSectors;
        buddySectors += o.buddySectors;
        metadataHits += o.metadataHits;
        metadataMisses += o.metadataMisses;
        buddyAccesses += o.buddyAccesses;
        addCycles(o);
    }

    /** Total link cycles the batch charged (occupancy, additive). */
    u64 totalCycles() const { return deviceCycles + buddyCycles; }

    /** Total windowed link cycles (per-link makespans, additive). */
    u64 windowTotalCycles() const
    {
        return deviceWindowCycles + buddyWindowCycles;
    }

    /** Fraction of the batch's operations that needed buddy memory. */
    double
    buddyAccessFraction() const
    {
        const u64 total = operations();
        return total ? static_cast<double>(buddyAccesses) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Metadata cache hit rate over the batch. */
    double
    metadataHitRate() const
    {
        const u64 total = metadataHits + metadataMisses;
        return total ? static_cast<double>(metadataHits) /
                           static_cast<double>(total)
                     : 1.0;
    }
};

/**
 * An ordered plan of entry accesses plus, after execution, the per-op
 * results and the batch summary. Reusable: clear() keeps the capacity so
 * steady-state batch submission allocates nothing.
 */
class AccessBatch
{
  public:
    AccessBatch() = default;

    explicit AccessBatch(std::size_t expected_ops)
    {
        reserve(expected_ops);
    }

    void
    reserve(std::size_t ops)
    {
        ops_.reserve(ops);
        results_.reserve(ops);
    }

    /** Drop all operations and results; capacity is retained. */
    void
    clear()
    {
        ops_.clear();
        results_.clear();
        summary_ = BatchSummary{};
    }

    /** Plan a read of the entry at @p va into @p out (kEntryBytes). */
    void
    read(Addr va, u8 *out)
    {
        AccessRequest r;
        r.kind = AccessKind::Read;
        r.va = va;
        r.dst = out;
        ops_.push_back(r);
    }

    /** Plan a write of @p data (kEntryBytes) to the entry at @p va. */
    void
    write(Addr va, const u8 *data)
    {
        AccessRequest r;
        r.kind = AccessKind::Write;
        r.va = va;
        r.src = data;
        ops_.push_back(r);
    }

    /** Plan a traffic probe of the entry at @p va (no data movement). */
    void
    probe(Addr va)
    {
        AccessRequest r;
        r.kind = AccessKind::Probe;
        r.va = va;
        ops_.push_back(r);
    }

    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    const std::vector<AccessRequest> &ops() const { return ops_; }

    /** Per-operation results, parallel to ops(); valid after execute(). */
    const std::vector<AccessInfo> &results() const { return results_; }

    const AccessInfo &result(std::size_t i) const { return results_[i]; }

    /** Batch-level traffic summary; valid after execute(). */
    const BatchSummary &summary() const { return summary_; }

    /**
     * Tag the batch with the submitting tenant (service front end;
     * see src/service/). The sharded engine threads the tag into its
     * per-tenant accounting and onto every AccessEvent it emits for
     * this batch. 0 — the default — is the anonymous tenant. The tag
     * survives clear(): it names the stream, not the plan.
     */
    void setTenant(u32 tenant) { tenant_ = tenant; }

    /** The submitting tenant's id (0 = untagged). */
    u32 tenant() const { return tenant_; }

    /**
     * The engine submit sequence stamped by ShardedEngine::submit()
     * (valid once submit() returns; 0 before any submission). The
     * batch's identity for completion-hook consumers: BatchRecords and
     * service-scheduler timeline spans carry the same sequence, so
     * per-batch data from both sides joins on it.
     */
    u64 submitSeq() const { return submitSeq_; }

  private:
    // Fill results_ / summary_ / submitSeq_ after execution.
    friend class ::buddy::BuddyController;
    friend class ::buddy::engine::ShardedEngine;

    std::vector<AccessRequest> ops_;
    std::vector<AccessInfo> results_;
    BatchSummary summary_;
    u32 tenant_ = 0;
    u64 submitSeq_ = 0;
};

} // namespace api

// The access-plan types are part of the controller's public surface;
// hoist them into the library namespace.
using api::AccessBatch;
using api::AccessInfo;
using api::AccessKind;
using api::AccessRequest;
using api::BatchSummary;
using api::CycleKind;
using api::CycleLedger;

} // namespace buddy
