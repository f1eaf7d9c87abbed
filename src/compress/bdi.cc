#include "compress/bdi.h"

#include <cstring>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

/**
 * Encoding identifiers stored as the 4-bit header tag.
 * Order matters only for the tag values; the encoder picks the smallest
 * valid encoding.
 */
enum class BdiMode : u8 {
    Zeros = 0,    // all bytes zero
    Repeat8 = 1,  // one repeated 8-byte value
    B8D1 = 2,
    B8D2 = 3,
    B8D4 = 4,
    B4D1 = 5,
    B4D2 = 6,
    B2D1 = 7,
    Raw = 8,
};

struct ModeSpec { BdiMode mode; unsigned baseBytes; unsigned deltaBytes; };

constexpr ModeSpec kModes[] = {
    {BdiMode::B8D1, 8, 1}, {BdiMode::B8D2, 8, 2}, {BdiMode::B8D4, 8, 4},
    {BdiMode::B4D1, 4, 1}, {BdiMode::B4D2, 4, 2}, {BdiMode::B2D1, 2, 1},
};

u64
loadElem(const u8 *data, unsigned idx, unsigned bytes)
{
    u64 v = 0;
    std::memcpy(&v, data + static_cast<std::size_t>(idx) * bytes, bytes);
    return v;
}

i64
signExtend(u64 v, unsigned bytes)
{
    const unsigned shift = 64 - bytes * 8;
    return static_cast<i64>(v << shift) >> shift;
}

bool
fitsSigned(i64 v, unsigned bytes)
{
    const i64 lo = -(1ll << (bytes * 8 - 1));
    const i64 hi = (1ll << (bytes * 8 - 1)) - 1;
    return v >= lo && v <= hi;
}

/** Size in bits of one candidate encoding (4-bit tag included). */
std::size_t
modeBits(const ModeSpec &m)
{
    const unsigned elems = kEntryBytes / m.baseBytes;
    return 4 + m.baseBytes * 8 +
           static_cast<std::size_t>(elems) * (1 + m.deltaBytes * 8);
}

constexpr unsigned kNumModes = sizeof(kModes) / sizeof(kModes[0]);

/**
 * Running fit of one base-delta mode: every element must be a
 * deltaBytes-wide signed delta from either zero or the base, the first
 * element that is not a narrow delta from zero.
 */
struct ModeFit
{
    i64 base = 0; ///< sign-extended; stored as its low baseBytes bytes
    bool haveBase = false;
};

/**
 * Extend the fit of mode kModes[K] by the elements of one 8-byte
 * @p chunk; clears bit K of @p alive at the first element the mode
 * cannot hold.
 */
template <unsigned K>
void
fitChunk(ModeFit *fits, unsigned &alive, u64 chunk)
{
    constexpr ModeSpec m = kModes[K];
    if (!(alive >> K & 1u))
        return;
    ModeFit &f = fits[K];
    for (unsigned e = 0; e < 8 / m.baseBytes; ++e) {
        const i64 val = signExtend(chunk >> (e * m.baseBytes * 8),
                                   m.baseBytes);
        if (fitsSigned(val, m.deltaBytes))
            continue;
        if (!f.haveBase) {
            f.base = val;
            f.haveBase = true;
        }
        // Subtract in u64: an 8-byte val/base pair with opposite signs
        // overflows i64 (UB), while the two's-complement wrap is exactly
        // the delta the decoder's wrapping add reconstructs from.
        const i64 d = static_cast<i64>(static_cast<u64>(val) -
                                       static_cast<u64>(f.base));
        if (!fitsSigned(d, m.deltaBytes)) {
            alive &= ~(1u << K);
            return;
        }
    }
}

} // namespace

std::size_t
BdiCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    FixedBitWriter bw(out, kMaxEncodedBytes);

    if (entryIsZero(data)) {
        bw.put(static_cast<u8>(BdiMode::Zeros), 4);
        return bw.finish();
    }

    // One pass over the entry's 8-byte chunks decides every other mode:
    // one repeated 8-byte value, and each base-delta mode (its elements
    // are the chunk's 8-, 4- or 2-byte pieces, in entry order). A mode
    // drops out at its first element that fits neither delta; the pass
    // stops once none is left (a repeated entry fits B8D1, so there is
    // no repeat to find either).
    u64 first8 = 0;
    std::memcpy(&first8, data, 8);
    bool repeated = true;
    ModeFit fit[kNumModes];
    unsigned alive = (1u << kNumModes) - 1;
    for (unsigned c = 0; c < kEntryBytes / 8 && alive != 0; ++c) {
        const u64 chunk = loadElem(data, c, 8);
        repeated = repeated && chunk == first8;
        fitChunk<0>(fit, alive, chunk);
        fitChunk<1>(fit, alive, chunk);
        fitChunk<2>(fit, alive, chunk);
        fitChunk<3>(fit, alive, chunk);
        fitChunk<4>(fit, alive, chunk);
        fitChunk<5>(fit, alive, chunk);
    }
    static_assert(kNumModes == 6, "one fitChunk call per mode");

    if (repeated) {
        bw.put(static_cast<u8>(BdiMode::Repeat8), 4);
        bw.put(first8, 64);
        return bw.finish();
    }

    // The smallest fitting base-delta encoding (ties go to the earlier
    // mode), else raw.
    int best = -1;
    std::size_t best_bits = kEntryBytes * 8 + 4; // raw cost
    for (unsigned k = 0; k < kNumModes; ++k) {
        if ((alive >> k & 1u) && modeBits(kModes[k]) < best_bits) {
            best = static_cast<int>(k);
            best_bits = modeBits(kModes[k]);
        }
    }

    if (best < 0) {
        bw.put(static_cast<u8>(BdiMode::Raw), 4);
        bw.putBytes(data, kEntryBytes);
        return bw.finish();
    }

    const ModeSpec &m = kModes[best];
    const ModeFit &f = fit[best];
    const unsigned delta_bits = m.deltaBytes * 8;
    bw.put(static_cast<u8>(m.mode), 4);
    bw.put(static_cast<u64>(f.base), m.baseBytes * 8);
    const unsigned elems = kEntryBytes / m.baseBytes;
    for (unsigned i = 0; i < elems; ++i) {
        // Per element: a use-base bit, then the delta from zero or base.
        const i64 val = signExtend(loadElem(data, i, m.baseBytes),
                                   m.baseBytes);
        const bool use_base = !fitsSigned(val, m.deltaBytes);
        const u64 delta = use_base ? static_cast<u64>(val) -
                                         static_cast<u64>(f.base)
                                   : static_cast<u64>(val);
        bw.put(u64{use_base} | (delta & lowBits(delta_bits)) << 1,
               1 + delta_bits);
    }
    return bw.finish();
}

void
BdiCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);
    const auto mode = static_cast<BdiMode>(br.get(4));

    if (mode == BdiMode::Zeros) {
        std::memset(out, 0, kEntryBytes);
        return;
    }
    if (mode == BdiMode::Repeat8) {
        const u64 v = br.get(64);
        for (unsigned i = 0; i < kEntryBytes / 8; ++i)
            std::memcpy(out + i * 8, &v, 8);
        return;
    }
    if (mode == BdiMode::Raw) {
        br.getBytes(out, kEntryBytes);
        return;
    }

    const ModeSpec *spec = nullptr;
    for (const auto &m : kModes)
        if (m.mode == mode)
            spec = &m;
    BUDDY_CHECK(spec != nullptr, "corrupt BDI mode tag");

    const u64 base_raw = br.get(spec->baseBytes * 8);
    const i64 base = signExtend(base_raw, spec->baseBytes);
    const unsigned elems = kEntryBytes / spec->baseBytes;
    for (unsigned i = 0; i < elems; ++i) {
        const u64 p = br.get(1 + spec->deltaBytes * 8);
        const bool use_base = p & 1u;
        const i64 d = signExtend(p >> 1, spec->deltaBytes);
        // Add in u64 (mirror of the encoder's wrapping subtract): only
        // the low baseBytes*8 bits are stored, so the wrap is harmless.
        const i64 val =
            use_base ? static_cast<i64>(static_cast<u64>(base) +
                                        static_cast<u64>(d))
                     : d;
        const u64 enc = static_cast<u64>(val);
        std::memcpy(out + static_cast<std::size_t>(i) * spec->baseBytes,
                    &enc, spec->baseBytes);
    }
}

} // namespace buddy
