#include "api/backing_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.h"

namespace buddy {
namespace api {

namespace {

/** @p kind when it names a known store; fatal otherwise. */
const std::string &
checkedKind(const std::string &kind)
{
    const auto kinds = backingStoreKinds();
    if (std::find(kinds.begin(), kinds.end(), kind) != kinds.end())
        return kind;

    std::string known;
    for (const auto &k : kinds) {
        if (!known.empty())
            known += ", ";
        known += k;
    }
    std::fprintf(stderr,
                 "unknown backing store \"%s\"; known kinds: %s\n",
                 kind.c_str(), known.c_str());
    BUDDY_FATAL("unknown backing-store kind");
}

} // namespace

BackingStore::BackingStore(const std::string &kind, u64 capacity_bytes,
                           const std::optional<timing::LinkTiming> &timing,
                           int peer_ordinal)
    : kind_(checkedKind(kind)), capacity_(capacity_bytes),
      peer_(kind == "peer" ? peer_ordinal : -1),
      link_(timing ? *timing : timing::defaultLinkTiming(kind)),
      pages_((capacity_bytes + kStorePageBytes - 1) / kStorePageBytes)
{}

void
BackingStore::copyIn(Addr addr, const u8 *src, std::size_t len)
{
    BUDDY_CHECK(addr <= capacity_ && len <= capacity_ - addr,
                "backing-store write out of range");
    for (Addr a = addr; a < addr + len;) {
        const std::size_t off = a % kStorePageBytes;
        const std::size_t n =
            std::min<std::size_t>(addr + len - a, kStorePageBytes - off);
        auto &page = pages_[a / kStorePageBytes];
        if (!page)
            page = std::make_unique<u8[]>(kStorePageBytes); // zeroed
        std::memcpy(page.get() + off, src + (a - addr), n);
        a += n;
    }
}

void
BackingStore::copyOut(Addr addr, u8 *dst, std::size_t len) const
{
    BUDDY_CHECK(addr <= capacity_ && len <= capacity_ - addr,
                "backing-store read out of range");
    for (Addr a = addr; a < addr + len;) {
        const std::size_t off = a % kStorePageBytes;
        const std::size_t n =
            std::min<std::size_t>(addr + len - a, kStorePageBytes - off);
        const auto &page = pages_[a / kStorePageBytes];
        if (page)
            std::memcpy(dst + (a - addr), page.get() + off, n);
        else
            std::memset(dst + (a - addr), 0, n); // never written
        a += n;
    }
}

std::vector<std::string>
backingStoreKinds()
{
    return {"dram", "host-um", "remote", "peer"};
}

} // namespace api
} // namespace buddy
