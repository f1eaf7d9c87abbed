/**
 * @file
 * Slow reference implementation of the bitstream and the codecs.
 *
 * The library's FixedBitWriter/BitReader are word-level and its BPC uses
 * bit-matrix transposes; this header keeps the original bit-serial
 * versions they replaced, unoptimised on purpose: a growable BitWriter
 * that appends one bit at a time, a BitReader that reads one bit at a
 * time, and encoders/decoders for bpc, bdi, fpc and zero that emit every
 * code bit by bit. Tests check the library codecs against these
 * encodings bit for bit (tests/test_codec_golden.cc). Not part of the
 * library.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace buddy {
namespace oracle {

/** Append-only LSB-first bit packer. */
class BitWriter
{
  public:
    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitWriter::put supports at most 64 bits");
        for (unsigned i = 0; i < nbits; ++i)
            putBit((value >> i) & 1u);
    }

    /** Append a single bit. */
    void
    putBit(bool bit)
    {
        const std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        if (byte >= bytes_.size())
            bytes_.push_back(0);
        if (bit)
            bytes_[byte] |= static_cast<u8>(1u << off);
        ++bitCount_;
    }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** Backing byte storage (padded with zero bits in the last byte). */
    const std::vector<u8> &bytes() const { return bytes_; }

  private:
    std::vector<u8> bytes_;
    std::size_t bitCount_ = 0;
};

/** LSB-first bit unpacker that reads one bit at a time. */
class BitReader
{
  public:
    BitReader(const u8 *data, std::size_t size_bits)
        : data_(data), sizeBits_(size_bits)
    {}

    explicit BitReader(const BitWriter &w)
        : data_(w.bytes().data()), sizeBits_(w.sizeBits())
    {}

    /** Read @p nbits bits (LSB first) as an unsigned value. */
    u64
    get(unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitReader::get supports at most 64 bits");
        u64 v = 0;
        for (unsigned i = 0; i < nbits; ++i)
            v |= static_cast<u64>(getBit()) << i;
        return v;
    }

    /** Read one bit. */
    bool
    getBit()
    {
        BUDDY_CHECK(pos_ < sizeBits_, "BitReader overrun");
        const bool bit = (data_[pos_ / 8] >> (pos_ % 8)) & 1u;
        ++pos_;
        return bit;
    }

  private:
    const u8 *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
};

/** A raw copy: the @p tag_bits-bit format @p tag, then the entry bytes. */
inline BitWriter
rawCopy(const u8 *data, u64 tag, unsigned tag_bits)
{
    BitWriter bw;
    bw.put(tag, tag_bits);
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        bw.put(data[i], 8);
    return bw;
}

inline void
readRaw(BitReader &br, u8 *out)
{
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        out[i] = static_cast<u8>(br.get(8));
}

// ------------------------------------------------------------------ BPC --
namespace bpc {

constexpr unsigned kPlanes = 33;
constexpr unsigned kPlaneBits = 31;
constexpr u64 kPlaneMask = (1ull << kPlaneBits) - 1;
constexpr u64 kDeltaMask = (1ull << kPlanes) - 1;

inline void
emitZeroPlanes(BitWriter &bw, unsigned run)
{
    while (run > 0) {
        if (run == 1) {
            bw.putBit(0); bw.putBit(1); // "01"
            run = 0;
        } else {
            const unsigned chunk = run > 33 ? 33 : run;
            bw.putBit(0); bw.putBit(0); bw.putBit(1); // "001"
            bw.put(chunk - 2, 5);
            run -= chunk;
        }
    }
}

inline void
encodeBase(BitWriter &bw, u32 base)
{
    const i32 sbase = static_cast<i32>(base);
    if (base == 0) {
        bw.putBit(0); bw.putBit(0);
    } else if (sbase >= -8 && sbase < 8) {
        bw.putBit(0); bw.putBit(1);
        bw.put(static_cast<u32>(sbase) & 0xF, 4);
    } else if (sbase >= -32768 && sbase < 32768) {
        bw.putBit(1); bw.putBit(0);
        bw.put(static_cast<u32>(sbase) & 0xFFFF, 16);
    } else {
        bw.putBit(1); bw.putBit(1);
        bw.put(base, 32);
    }
}

inline u32
decodeBase(BitReader &br)
{
    const bool b0 = br.getBit();
    const bool b1 = br.getBit();
    if (!b0 && !b1)
        return 0;
    if (!b0 && b1) {
        const u32 v = static_cast<u32>(br.get(4));
        return static_cast<u32>(static_cast<i32>(v << 28) >> 28);
    }
    if (b0 && !b1) {
        const u32 v = static_cast<u32>(br.get(16));
        return static_cast<u32>(static_cast<i32>(v << 16) >> 16);
    }
    return static_cast<u32>(br.get(32));
}

/** BPC encode with every DBP plane gathered one bit per delta. */
inline BitWriter
encode(const u8 *data)
{
    u32 words[kWordsPerEntry];
    std::memcpy(words, data, kEntryBytes);

    u64 dbp[kPlanes] = {};
    for (unsigned i = 0; i < kPlaneBits; ++i) {
        const i64 d = static_cast<i64>(words[i + 1]) -
                      static_cast<i64>(words[i]);
        const u64 du = static_cast<u64>(d) & kDeltaMask;
        for (unsigned b = 0; b < kPlanes; ++b)
            dbp[b] |= ((du >> b) & 1ull) << i;
    }

    BitWriter bw;
    bw.putBit(0); // format tag: 0 = BPC, 1 = raw fallback
    encodeBase(bw, words[0]);

    unsigned zero_run = 0;
    for (int b = kPlanes - 1; b >= 0; --b) {
        const u64 x = b == static_cast<int>(kPlanes) - 1
                          ? dbp[b]
                          : dbp[b] ^ dbp[b + 1];
        if (x == 0) {
            ++zero_run;
            continue;
        }
        emitZeroPlanes(bw, zero_run);
        zero_run = 0;

        unsigned pos = 0;
        while (!((x >> pos) & 1ull))
            ++pos;
        if (x == kPlaneMask) {
            bw.put(0b00000, 5);
        } else if (dbp[b] == 0) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(0);
            bw.putBit(1);
        } else if (x == (0b11ull << pos) && pos + 1 < kPlaneBits) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(1);
            bw.putBit(0);
            bw.put(pos, 5);
        } else if (x == (1ull << pos)) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(1);
            bw.putBit(1);
            bw.put(pos, 5);
        } else {
            bw.putBit(1);
            bw.put(x, kPlaneBits);
        }
    }
    emitZeroPlanes(bw, zero_run);

    if (bw.sizeBits() >= kEntryBytes * 8 + 1)
        return rawCopy(data, 1, 1);
    return bw;
}

inline void
decode(const u8 *payload, std::size_t size_bits, u8 *out)
{
    BitReader br(payload, size_bits);
    if (br.getBit()) {
        readRaw(br, out);
        return;
    }
    const u32 base = decodeBase(br);

    std::array<u64, kPlanes> dbx{};
    std::array<bool, kPlanes> dbp_zero{};
    int b = kPlanes - 1;
    while (b >= 0) {
        if (br.getBit()) { // "1": raw plane
            dbx[b--] = br.get(kPlaneBits);
            continue;
        }
        if (br.getBit()) { // "01": single zero plane
            dbx[b--] = 0;
            continue;
        }
        if (br.getBit()) { // "001": zero run
            const unsigned run = static_cast<unsigned>(br.get(5)) + 2;
            for (unsigned i = 0; i < run; ++i) {
                BUDDY_CHECK(b >= 0, "BPC zero run overruns planes");
                dbx[b--] = 0;
            }
            continue;
        }
        const bool b3 = br.getBit();
        const bool b4 = br.getBit();
        if (!b3 && !b4) {
            dbx[b] = kPlaneMask;
        } else if (!b3 && b4) {
            dbp_zero[b] = true;
        } else if (b3 && !b4) {
            dbx[b] = 0b11ull << br.get(5);
        } else {
            dbx[b] = 1ull << br.get(5);
        }
        --b;
    }

    std::array<u64, kPlanes> dbp{};
    dbp[kPlanes - 1] = dbx[kPlanes - 1];
    for (int p = kPlanes - 2; p >= 0; --p)
        dbp[p] = dbp_zero[p] ? 0 : (dbx[p] ^ dbp[p + 1]);

    u32 words[kWordsPerEntry];
    words[0] = base;
    for (unsigned i = 0; i < kPlaneBits; ++i) {
        u64 d = 0;
        for (unsigned p = 0; p < kPlanes; ++p)
            d |= ((dbp[p] >> i) & 1ull) << p;
        const i64 sd = static_cast<i64>(d << (64 - kPlanes)) >>
                       (64 - kPlanes);
        words[i + 1] = static_cast<u32>(static_cast<i64>(words[i]) + sd);
    }
    std::memcpy(out, words, kEntryBytes);
}

} // namespace bpc

// ------------------------------------------------------------------ BDI --
namespace bdi {

enum Mode : unsigned {
    Zeros = 0, Repeat8 = 1, B8D1 = 2, B8D2 = 3, B8D4 = 4,
    B4D1 = 5, B4D2 = 6, B2D1 = 7, Raw = 8,
};

struct ModeSpec { Mode mode; unsigned baseBytes; unsigned deltaBytes; };

constexpr ModeSpec kModes[] = {
    {B8D1, 8, 1}, {B8D2, 8, 2}, {B8D4, 8, 4},
    {B4D1, 4, 1}, {B4D2, 4, 2}, {B2D1, 2, 1},
};

inline u64
loadElem(const u8 *data, unsigned idx, unsigned bytes)
{
    u64 v = 0;
    std::memcpy(&v, data + static_cast<std::size_t>(idx) * bytes, bytes);
    return v;
}

inline i64
signExtend(u64 v, unsigned bytes)
{
    const unsigned shift = 64 - bytes * 8;
    return static_cast<i64>(v << shift) >> shift;
}

inline bool
fitsSigned(i64 v, unsigned bytes)
{
    const i64 lo = -(1ll << (bytes * 8 - 1));
    const i64 hi = (1ll << (bytes * 8 - 1)) - 1;
    return v >= lo && v <= hi;
}

inline std::size_t
modeBits(const ModeSpec &m)
{
    return 4 + m.baseBytes * 8 +
           (kEntryBytes / m.baseBytes) * (1 + m.deltaBytes * 8);
}

/** One full pass per candidate mode, as the encoder did originally. */
inline bool
tryMode(const u8 *data, const ModeSpec &m, BitWriter &bw)
{
    const unsigned elems = kEntryBytes / m.baseBytes;
    bool have_base = false;
    u64 base = 0;
    std::vector<std::pair<bool, i64>> fields(elems);
    for (unsigned i = 0; i < elems; ++i) {
        const u64 raw = loadElem(data, i, m.baseBytes);
        const i64 val = signExtend(raw, m.baseBytes);
        if (fitsSigned(val, m.deltaBytes)) {
            fields[i] = {false, val};
            continue;
        }
        if (!have_base) {
            base = raw;
            have_base = true;
        }
        const i64 d = static_cast<i64>(
            static_cast<u64>(val) -
            static_cast<u64>(signExtend(base, m.baseBytes)));
        if (!fitsSigned(d, m.deltaBytes))
            return false;
        fields[i] = {true, d};
    }
    bw.put(m.mode, 4);
    bw.put(base, m.baseBytes * 8);
    const u64 mask = m.deltaBytes * 8 == 64
                         ? ~0ull
                         : (1ull << (m.deltaBytes * 8)) - 1;
    for (const auto &[use_base, delta] : fields) {
        bw.putBit(use_base);
        bw.put(static_cast<u64>(delta) & mask, m.deltaBytes * 8);
    }
    return true;
}

inline BitWriter
encode(const u8 *data)
{
    bool zero = true;
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        zero = zero && data[i] == 0;
    if (zero) {
        BitWriter bw;
        bw.put(Zeros, 4);
        return bw;
    }
    const u64 first8 = loadElem(data, 0, 8);
    bool repeated = true;
    for (unsigned i = 1; i < kEntryBytes / 8; ++i)
        repeated = repeated && loadElem(data, i, 8) == first8;
    if (repeated) {
        BitWriter bw;
        bw.put(Repeat8, 4);
        bw.put(first8, 64);
        return bw;
    }

    BitWriter best;
    std::size_t best_bits = kEntryBytes * 8 + 4; // raw cost
    for (const auto &m : kModes) {
        if (modeBits(m) >= best_bits)
            continue;
        BitWriter bw;
        if (tryMode(data, m, bw)) {
            best = bw;
            best_bits = modeBits(m);
        }
    }
    if (best.sizeBits() == 0)
        return rawCopy(data, Raw, 4);
    return best;
}

inline void
decode(const u8 *payload, std::size_t size_bits, u8 *out)
{
    BitReader br(payload, size_bits);
    const auto mode = static_cast<Mode>(br.get(4));
    if (mode == Zeros) {
        std::memset(out, 0, kEntryBytes);
        return;
    }
    if (mode == Repeat8) {
        const u64 v = br.get(64);
        for (unsigned i = 0; i < kEntryBytes / 8; ++i)
            std::memcpy(out + i * 8, &v, 8);
        return;
    }
    if (mode == Raw) {
        readRaw(br, out);
        return;
    }
    const ModeSpec *spec = nullptr;
    for (const auto &m : kModes)
        if (m.mode == mode)
            spec = &m;
    BUDDY_CHECK(spec != nullptr, "corrupt BDI mode tag");

    const i64 base = signExtend(br.get(spec->baseBytes * 8), spec->baseBytes);
    for (unsigned i = 0; i < kEntryBytes / spec->baseBytes; ++i) {
        const bool use_base = br.getBit();
        const i64 d =
            signExtend(br.get(spec->deltaBytes * 8), spec->deltaBytes);
        const u64 enc = use_base ? static_cast<u64>(base) +
                                       static_cast<u64>(d)
                                 : static_cast<u64>(d);
        std::memcpy(out + static_cast<std::size_t>(i) * spec->baseBytes,
                    &enc, spec->baseBytes);
    }
}

} // namespace bdi

// ------------------------------------------------------------------ FPC --
namespace fpc {

inline bool
fitsSigned32(i32 v, unsigned bits)
{
    const i32 lo = -(1 << (bits - 1));
    const i32 hi = (1 << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

inline BitWriter
encode(const u8 *data)
{
    u32 words[kWordsPerEntry];
    std::memcpy(words, data, kEntryBytes);

    BitWriter bw;
    bw.putBit(0); // format tag: 0 = FPC stream, 1 = raw fallback
    unsigned i = 0;
    while (i < kWordsPerEntry) {
        const u32 w = words[i];
        if (w == 0) {
            unsigned run = 1;
            while (i + run < kWordsPerEntry && words[i + run] == 0 &&
                   run < 8)
                ++run;
            bw.put(0b000, 3);
            bw.put(run - 1, 3);
            i += run;
            continue;
        }
        const i32 sw = static_cast<i32>(w);
        if (fitsSigned32(sw, 4)) {
            bw.put(0b001, 3);
            bw.put(w & 0xF, 4);
        } else if (fitsSigned32(sw, 8)) {
            bw.put(0b010, 3);
            bw.put(w & 0xFF, 8);
        } else if (fitsSigned32(sw, 16)) {
            bw.put(0b011, 3);
            bw.put(w & 0xFFFF, 16);
        } else if ((w & 0xFFFF) == 0) {
            bw.put(0b100, 3);
            bw.put(w >> 16, 16);
        } else if (fitsSigned32(static_cast<i16>(w & 0xFFFF), 8) &&
                   fitsSigned32(static_cast<i16>(w >> 16), 8)) {
            bw.put(0b101, 3);
            bw.put(w & 0xFF, 8);
            bw.put((w >> 16) & 0xFF, 8);
        } else if (((w >> 24) & 0xFF) == (w & 0xFF) &&
                   ((w >> 16) & 0xFF) == (w & 0xFF) &&
                   ((w >> 8) & 0xFF) == (w & 0xFF)) {
            bw.put(0b110, 3);
            bw.put(w & 0xFF, 8);
        } else {
            bw.put(0b111, 3);
            bw.put(w, 32);
        }
        ++i;
    }
    if (bw.sizeBits() >= kEntryBytes * 8 + 1)
        return rawCopy(data, 1, 1);
    return bw;
}

inline void
decode(const u8 *payload, std::size_t size_bits, u8 *out)
{
    BitReader br(payload, size_bits);
    if (br.getBit()) {
        readRaw(br, out);
        return;
    }
    u32 words[kWordsPerEntry];
    unsigned i = 0;
    const auto sext = [](u32 v, unsigned bits) {
        return static_cast<u32>(static_cast<i32>(v << (32 - bits)) >>
                                (32 - bits));
    };
    while (i < kWordsPerEntry) {
        switch (br.get(3)) {
          case 0b000: {
            const unsigned run = static_cast<unsigned>(br.get(3)) + 1;
            for (unsigned k = 0; k < run; ++k) {
                BUDDY_CHECK(i < kWordsPerEntry, "FPC zero run overrun");
                words[i++] = 0;
            }
            break;
          }
          case 0b001:
            words[i++] = sext(static_cast<u32>(br.get(4)), 4);
            break;
          case 0b010:
            words[i++] = sext(static_cast<u32>(br.get(8)), 8);
            break;
          case 0b011:
            words[i++] = sext(static_cast<u32>(br.get(16)), 16);
            break;
          case 0b100:
            words[i++] = static_cast<u32>(br.get(16)) << 16;
            break;
          case 0b101: {
            const u32 lo = sext(static_cast<u32>(br.get(8)), 8) & 0xFFFF;
            const u32 hi = sext(static_cast<u32>(br.get(8)), 8) & 0xFFFF;
            words[i++] = (hi << 16) | lo;
            break;
          }
          case 0b110: {
            const u32 b = static_cast<u32>(br.get(8));
            words[i++] = b | (b << 8) | (b << 16) | (b << 24);
            break;
          }
          default:
            words[i++] = static_cast<u32>(br.get(32));
            break;
        }
    }
    std::memcpy(out, words, kEntryBytes);
}

} // namespace fpc

// ----------------------------------------------------------------- zero --
namespace zero {

inline BitWriter
encode(const u8 *data)
{
    for (std::size_t i = 0; i < kEntryBytes; ++i) {
        if (data[i] != 0)
            return rawCopy(data, 1, 1);
    }
    BitWriter bw;
    bw.putBit(0);
    return bw;
}

inline void
decode(const u8 *payload, std::size_t size_bits, u8 *out)
{
    BitReader br(payload, size_bits);
    if (br.getBit())
        readRaw(br, out);
    else
        std::memset(out, 0, kEntryBytes);
}

} // namespace zero

/** One reference codec. */
struct Codec
{
    const char *name;
    BitWriter (*encode)(const u8 *data);
    void (*decode)(const u8 *payload, std::size_t size_bits, u8 *out);
};

/** The reference for library codec @p name, or nullptr if none. */
inline const Codec *
find(const std::string &name)
{
    static const Codec kCodecs[] = {
        {"bpc", bpc::encode, bpc::decode},
        {"bdi", bdi::encode, bdi::decode},
        {"fpc", fpc::encode, fpc::decode},
        {"zero", zero::encode, zero::decode},
    };
    for (const Codec &c : kCodecs)
        if (name == c.name)
            return &c;
    return nullptr;
}

} // namespace oracle
} // namespace buddy
