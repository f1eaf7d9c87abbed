/**
 * @file
 * BackingStore: the storage behind the controller's device memory and
 * buddy carve-out.
 *
 * The functional model needs byte-addressable load/store with capacity
 * accounting; the timing model needs every access charged through a
 * latency/bandwidth server. A store therefore owns its bytes, the
 * traffic counters and a timing::LinkModel: write() and read() move the
 * bytes, account the operation, charge the link at sector (32 B)
 * granularity, and return the simulated cycles charged.
 *
 * Memory is proportional to what a run touches, not to the capacity it
 * configures. The bytes live in fixed 64 KiB pages that are allocated
 * zero-filled on the first write touching them; a read of a page that
 * was never written returns zeros without materialising it. A default
 * controller (1 GiB device, 3 GiB carve-out) therefore builds in well
 * under a millisecond and holds only a page-pointer table until the
 * first write.
 *
 * Four kinds ship in-tree. They share the implementation and differ in
 * what they model and in their default link timing:
 *
 *   "dram"    GPU device memory (HBM2/GDDR class).
 *   "host-um" host memory reachable through unified-memory mappings —
 *             the paper's buddy carve-out placement (Section 3.2).
 *   "remote"  disaggregated/far memory behind a fabric.
 *   "peer"    another GPU's device memory over NVLink peer access; the
 *             sharded engine wires each shard's peer store to a
 *             neighbouring shard (peerOrdinal()). The bytes model a
 *             region reserved in the peer GPU for this shard alone, so
 *             the store owns them (no cross-shard data races).
 *
 * The carve-out kind is selected by name through
 * BuddyConfig::buddyBackend; the constructor fails fast on unknown
 * kinds.
 */

#pragma once

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "timing/link_model.h"
#include "timing/window.h"

namespace buddy {
namespace api {

/**
 * Byte-addressable storage with capacity, traffic, and simulated-time
 * accounting (see file header).
 */
class BackingStore
{
  public:
    /** Granule of lazy allocation (a constant, not a knob). */
    static constexpr std::size_t kStorePageBytes = 64 * 1024;

    /**
     * A store of @p kind (one of backingStoreKinds(); anything else is
     * a fatal configuration error naming the known kinds) with
     * @p capacity_bytes bytes, charging through @p timing or, when none
     * is given, the kind's calibration (timing::defaultLinkTiming).
     * @p peer_ordinal names the peer shard a "peer" store maps; other
     * kinds ignore it.
     */
    BackingStore(const std::string &kind, u64 capacity_bytes,
                 const std::optional<timing::LinkTiming> &timing =
                     std::nullopt,
                 int peer_ordinal = -1);

    /** Store kind ("dram", "host-um", "remote", "peer"). */
    const char *kind() const { return kind_.c_str(); }

    u64 capacity() const { return capacity_; }

    /**
     * Shard ordinal of the GPU whose memory a "peer" store maps, -1 for
     * every other kind (and for unwired peer stores).
     */
    int peerOrdinal() const { return peer_; }

    /**
     * Store @p len bytes at @p addr (panics when out of range).
     * @return simulated cycles the link charged for the transfer.
     */
    Cycles
    write(Addr addr, const u8 *src, std::size_t len)
    {
        if (u8 *p = onWrittenPage(addr, len))
            std::memcpy(p, src, len);
        else
            copyIn(addr, src, len);
        written_ += len;
        ++writeOps_;
        return chargeWrite(len);
    }

    /**
     * Load @p len bytes from @p addr (panics when out of range); bytes
     * never written read as zero. @return cycles charged.
     */
    Cycles
    read(Addr addr, u8 *dst, std::size_t len) const
    {
        if (const u8 *p = onWrittenPage(addr, len))
            std::memcpy(dst, p, len);
        else
            copyOut(addr, dst, len);
        read_ += len;
        ++readOps_;
        return chargeRead(len);
    }

    /**
     * Charge the link for a @p len-byte read without moving any data:
     * the traffic a probe models. Advances the store's simulated clock
     * exactly as a real read of @p len bytes would, so probe and read
     * cycle accounting are bit-identical; the byte/op counters are not
     * touched.
     */
    Cycles
    chargeRead(std::size_t len) const
    {
        return link_.charge(timing::LinkDir::Read, sectorBytes(len));
    }

    /** Write-direction counterpart of chargeRead(). */
    Cycles
    chargeWrite(std::size_t len) const
    {
        return link_.charge(timing::LinkDir::Write, sectorBytes(len));
    }

    /** Total bytes written / read since construction. */
    u64 bytesWritten() const { return written_; }
    u64 bytesRead() const { return read_; }

    /** Number of write() and read() calls since construction. */
    u64 writeOps() const { return writeOps_; }
    u64 readOps() const { return readOps_; }

    /**
     * Access round trips the timing model charges. One per operation
     * for every in-process kind; only "remote" and "peer" cross a
     * fabric, so only there does the count dominate the cycle total.
     */
    u64 roundTrips() const { return writeOps_ + readOps_; }

    /**
     * The store's windowed charging mode: an MSHR-style scheduler over
     * this store's link timing that keeps up to @p window round trips
     * in flight (timing/window.h). Windows are created per request
     * stream (one per batch in the controller), own private servers,
     * and never touch this store's serial clock — serial charges stay
     * exact at any window. window == 1 reproduces the serial charges
     * bit-for-bit; 0 or a zero-bandwidth non-free link fail fast.
     */
    timing::RequestWindow
    makeWindow(u64 window) const
    {
        return timing::RequestWindow(link_.timing(), window);
    }

    /** The link this store charges its transfers through. */
    const timing::LinkModel &link() const { return link_; }

    /** Simulated cycles elapsed on this store's clock. */
    Cycles cyclesElapsed() const { return link_.now(); }

  private:
    /**
     * Where [addr, addr + len) lives when it is in range and inside one
     * page that was written before; null otherwise. That is the common
     * case, kept inline as one memcpy because every entry access makes
     * one or two store calls. copyIn()/copyOut() take the rest: first
     * writes, slots that cross a page boundary, never-written bytes and
     * the out-of-range panic.
     */
    u8 *
    onWrittenPage(Addr addr, std::size_t len) const
    {
        const std::size_t off = addr % kStorePageBytes;
        if (addr >= capacity_ || len > capacity_ - addr ||
            off + len > kStorePageBytes)
            return nullptr;
        u8 *page = pages_[addr / kStorePageBytes].get();
        return page ? page + off : nullptr;
    }

    void copyIn(Addr addr, const u8 *src, std::size_t len);
    void copyOut(Addr addr, u8 *dst, std::size_t len) const;

    /** Links transfer whole 32 B sectors (the DRAM access granule). */
    static u64
    sectorBytes(std::size_t len)
    {
        return (static_cast<u64>(len) + kSectorBytes - 1) / kSectorBytes *
               kSectorBytes;
    }

    std::string kind_;
    u64 capacity_;
    int peer_;
    mutable timing::LinkModel link_;
    /** One slot per kStorePageBytes of capacity; null until written. */
    std::vector<std::unique_ptr<u8[]>> pages_;
    u64 written_ = 0;
    mutable u64 read_ = 0;
    u64 writeOps_ = 0;
    mutable u64 readOps_ = 0;
};

/** All backing-store kinds the BackingStore constructor accepts. */
std::vector<std::string> backingStoreKinds();

} // namespace api

using api::BackingStore;

} // namespace buddy
