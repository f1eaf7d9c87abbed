#include "compress/bpc.h"

#include <array>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

constexpr u32 kPlaneMask = (1u << BpcCompressor::kPlaneBits) - 1;
constexpr std::size_t kRawBits = kEntryBytes * 8;

/**
 * Prefix-free DBX plane symbol codes. The set below mirrors the structure
 * of the published BPC code table (zero runs, all-ones, DBP-zero shortcut,
 * two consecutive ones, single one, raw plane):
 *
 *   "01"                     single all-zero DBX plane            (2 bits)
 *   "001" + 5-bit (run-2)    run of 2..33 all-zero DBX planes     (8 bits)
 *   "00000"                  all-ones DBX plane                   (5 bits)
 *   "00001"                  DBX != 0 but DBP == 0                (5 bits)
 *   "00010" + 5-bit pos      two consecutive ones at pos, pos+1  (10 bits)
 *   "00011" + 5-bit pos      single one at pos                   (10 bits)
 *   "1"     + 31 raw bits    uncompressed plane                  (32 bits)
 *
 * Codes are listed in stream order; the first bit of a code is bit 0 of
 * its LSB-first value below, so every symbol (operand included) goes out
 * in one put() and the decoder identifies it from its low five bits.
 */
enum class PlaneSym : u8 {
    ZeroSingle,
    ZeroRun,
    AllOnes,
    DbpZero,
    TwoOnes,
    OneOne,
    Raw,
};

constexpr u64 kCodeZeroSingle = 0b10;   // "01"
constexpr u64 kCodeZeroRun = 0b100;     // "001"
constexpr u64 kCodeAllOnes = 0b00000;   // "00000"
constexpr u64 kCodeDbpZero = 0b10000;   // "00001"
constexpr u64 kCodeTwoOnes = 0b01000;   // "00010"
constexpr u64 kCodeOneOne = 0b11000;    // "00011"
constexpr u64 kCodeRaw = 0b1;           // "1"

/** Symbol of every 5-bit stream prefix (low bit = first bit). */
constexpr std::array<PlaneSym, 32>
makeSymbolTable()
{
    std::array<PlaneSym, 32> t{};
    for (unsigned p = 0; p < 32; ++p) {
        if (p & 1)
            t[p] = PlaneSym::Raw;
        else if ((p & 3) == kCodeZeroSingle)
            t[p] = PlaneSym::ZeroSingle;
        else if ((p & 7) == kCodeZeroRun)
            t[p] = PlaneSym::ZeroRun;
        else if (p == kCodeAllOnes)
            t[p] = PlaneSym::AllOnes;
        else if (p == kCodeDbpZero)
            t[p] = PlaneSym::DbpZero;
        else if (p == kCodeTwoOnes)
            t[p] = PlaneSym::TwoOnes;
        else
            t[p] = PlaneSym::OneOne;
    }
    return t;
}

constexpr std::array<PlaneSym, 32> kSymbolOf = makeSymbolTable();

/** Emit a run of 1..33 all-zero DBX planes (33 is every plane). */
void
emitZeroPlanes(FixedBitWriter &bw, unsigned run)
{
    if (run == 1)
        bw.put(kCodeZeroSingle, 2);
    else if (run > 1)
        bw.put(kCodeZeroRun | (run - 2) << 3, 8);
}

/**
 * Base-word code, emitted after the 0 format tag as one put():
 *   "00"            zero base                         (2 bits)
 *   "01" + 4 bits   4-bit sign-extended base          (6 bits)
 *   "10" + 16 bits  16-bit sign-extended base        (18 bits)
 *   "11" + 32 bits  raw base                         (34 bits)
 */
void
encodeTagAndBase(FixedBitWriter &bw, u32 base)
{
    const i32 sbase = static_cast<i32>(base);
    if (base == 0)
        bw.put(0b00 << 1, 3);
    else if (sbase >= -8 && sbase < 8)
        bw.put((0b10 | u64{base & 0xF} << 2) << 1, 7);
    else if (sbase >= -32768 && sbase < 32768)
        bw.put((0b01 | u64{base & 0xFFFF} << 2) << 1, 19);
    else
        bw.put((0b11 | u64{base} << 2) << 1, 35);
}

u32
decodeBase(BitReader &br)
{
    const u64 p = br.peek(34);
    const u32 v = static_cast<u32>(p >> 2);
    switch (p & 3) {
      case 0b00:
        br.consume(2);
        return 0;
      case 0b10: // "01": 4-bit sign-extended
        br.consume(6);
        return static_cast<u32>(static_cast<i32>(v << 28) >> 28);
      case 0b01: // "10": 16-bit sign-extended
        br.consume(18);
        return static_cast<u32>(static_cast<i32>(v << 16) >> 16);
      default:
        br.consume(34);
        return v;
    }
}

/**
 * A 32x32 bit matrix with its rows paired into 64-bit words: row 2k is
 * the low and row 2k + 1 the high half of word k, so one 64-bit
 * operation moves two rows.
 */
using RowPairs = u64[16];

u32
row(const RowPairs x, unsigned i)
{
    return static_cast<u32>(x[i / 2] >> (i % 2 * 32));
}

/**
 * One block-swap round of transpose32(): in every 2J-bit block, swap
 * the high J bits of row k with the low J bits of row k + J (J >= 2, so
 * both rows of a pair move together).
 */
template <unsigned J, u32 M>
void
swapRound(RowPairs x)
{
    constexpr u64 kMask = u64{M} | u64{M} << 32;
    constexpr unsigned kStride = J / 2; // in row pairs
    for (unsigned b = 0; b < 16; b += 2 * kStride) {
        for (unsigned k = b; k < b + kStride; ++k) {
            const u64 t = ((x[k] >> J) ^ x[k + kStride]) & kMask;
            x[k] ^= t << J;
            x[k + kStride] ^= t;
        }
    }
}

/**
 * In-place 32x32 bit-matrix transpose: afterwards bit i of row j is what
 * bit j of row i was (Hacker's Delight, section 7-3: five rounds of block
 * swaps, halving the block size each round). Each operation swaps two
 * rows at once, and the last round, between the rows of a pair, stays
 * inside a word.
 */
void
transpose32(RowPairs x)
{
    swapRound<16, 0x0000FFFF>(x);
    swapRound<8, 0x00FF00FF>(x);
    swapRound<4, 0x0F0F0F0F>(x);
    swapRound<2, 0x33333333>(x);
    for (unsigned k = 0; k < 16; ++k) {
        const u64 t = ((x[k] >> 1) ^ (x[k] >> 32)) & 0x55555555u;
        x[k] ^= t << 1 | t << 32;
    }
}

} // namespace

std::size_t
BpcCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    // Delta and bit-plane transforms. DBP planes 0..31 are the transpose
    // of the deltas' low 32 bits (a zero row 31 pads the 31 deltas).
    // Plane 32 holds each 33-bit delta's sign, set exactly where the
    // word decreases, and is gathered apart.
    RowPairs rows;
    u64 any = 0;
    for (unsigned k = 0; k < 16; ++k) {
        const u32 hi = 2 * k + 2 < kWordsPerEntry
                           ? words[2 * k + 2] - words[2 * k + 1]
                           : 0;
        rows[k] = u64{words[2 * k + 1] - words[2 * k]} | u64{hi} << 32;
        any |= rows[k];
    }
    FixedBitWriter bw(out, kMaxEncodedBytes);
    encodeTagAndBase(bw, words[0]);
    if (any == 0) {
        // Equal words (a zero entry too): every plane is zero.
        emitZeroPlanes(bw, kPlanes);
        return bw.finish();
    }
    transpose32(rows);
    u32 sign = 0;
    for (unsigned i = 0; i < kPlaneBits; ++i)
        sign |= static_cast<u32>(words[i + 1] < words[i]) << i;
    // dbp[kPlanes] = 0 lets DBX plane b be dbp[b] ^ dbp[b + 1] for all b.
    u32 dbp[kPlanes + 1];
    for (unsigned b = 0; b < kPlanes - 1; ++b)
        dbp[b] = row(rows, b);
    dbp[kPlanes - 1] = sign;
    dbp[kPlanes] = 0;

    // Emit planes MSB-first so that the sign-extension planes of smooth
    // data coalesce into long zero runs. Once the stream outgrows a raw
    // copy the rest cannot matter: the entry falls back to raw below.
    unsigned zero_run = 0;
    for (int b = kPlanes - 1; b >= 0 && bw.sizeBits() <= kRawBits; --b) {
        const u32 x = dbp[b] ^ dbp[b + 1];
        if (x == 0) {
            ++zero_run;
            continue;
        }
        emitZeroPlanes(bw, zero_run);
        zero_run = 0;

        const u64 pos = static_cast<u64>(__builtin_ctz(x));
        if (x == kPlaneMask) {
            bw.put(kCodeAllOnes, 5);
        } else if (dbp[b] == 0) {
            // DBX nonzero but the underlying DBP plane is zero: tell the
            // decoder directly (5-bit shortcut instead of a raw plane).
            bw.put(kCodeDbpZero, 5);
        } else if (x == 3u << pos) {
            bw.put(kCodeTwoOnes | pos << 5, 10);
        } else if (x == 1u << pos) {
            bw.put(kCodeOneOne | pos << 5, 10);
        } else {
            bw.put(kCodeRaw | u64{x} << 1, 32);
        }
    }
    emitZeroPlanes(bw, zero_run);

    if (bw.sizeBits() > kRawBits) {
        // Transform expanded the data: fall back to a tagged raw copy,
        // overwriting the transformed stream from the start of `out`.
        bw.reset();
        bw.put(1, 1);
        bw.putBytes(data, kEntryBytes);
    }
    return bw.finish();
}

void
BpcCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);

    if (br.get(1)) { // raw fallback
        br.getBytes(out, kEntryBytes);
        return;
    }

    u32 words[kWordsPerEntry];
    words[0] = decodeBase(br);

    // Decode planes MSB-first, inverting the XOR transform on the fly:
    // DBP[b] = DBX[b] ^ DBP[b + 1] (DBP above the top plane is zero), or
    // zero under the DBP-zero shortcut.
    u32 dbp[kPlanes];
    u32 above = 0;
    int b = kPlanes - 1;
    const auto emit = [&] { dbp[b--] = above; };
    while (b >= 0) {
        const u64 p = br.peek(32);
        switch (kSymbolOf[p & 31]) {
          case PlaneSym::Raw:
            br.consume(32);
            above ^= static_cast<u32>(p >> 1);
            break;
          case PlaneSym::ZeroSingle:
            br.consume(2);
            break;
          case PlaneSym::ZeroRun: {
            br.consume(8);
            const int run = static_cast<int>((p >> 3) & 31) + 2;
            BUDDY_CHECK(run <= b + 1, "BPC zero run overruns planes");
            for (int i = 1; i < run; ++i)
                emit();
            break;
          }
          case PlaneSym::AllOnes:
            br.consume(5);
            above ^= kPlaneMask;
            break;
          case PlaneSym::DbpZero:
            br.consume(5);
            above = 0;
            break;
          case PlaneSym::TwoOnes:
            br.consume(10);
            above ^= 3u << ((p >> 5) & 31);
            break;
          case PlaneSym::OneOne:
            br.consume(10);
            above ^= 1u << ((p >> 5) & 31);
            break;
        }
        emit();
    }

    // Invert the bit-plane transform: planes 0..31 are the rows of the
    // matrix whose transpose holds the deltas' low 32 bits, all a
    // mod-2^32 word sum needs (plane 32, the sign, only fed the chain).
    RowPairs rows;
    for (unsigned k = 0; k < 16; ++k)
        rows[k] = u64{dbp[2 * k]} | u64{dbp[2 * k + 1]} << 32;
    transpose32(rows);
    for (unsigned i = 0; i < kPlaneBits; ++i)
        words[i + 1] = words[i] + row(rows, i);
    storeWords(words, out);
}

} // namespace buddy
