#include "compress/fpc.h"

#include <cstring>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

bool
fitsSigned32(i32 v, unsigned bits)
{
    const i32 lo = -(1 << (bits - 1));
    const i32 hi = (1 << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

} // namespace

/*
 * Word patterns, each a 3-bit prefix value and its operand, emitted
 * together in one put() (prefix in the low bits, so it goes first):
 *
 *   000 + 3-bit (run-1)   run of 1..8 zero words
 *   001 + 4 bits          4-bit sign-extended word
 *   010 + 8 bits          8-bit sign-extended word
 *   011 + 16 bits         16-bit sign-extended word
 *   100 + 16 bits         upper halfword (lower halfword zero)
 *   101 + 8 + 8 bits      two sign-extended bytes, one per halfword
 *   110 + 8 bits          one byte repeated four times
 *   111 + 32 bits         raw word
 */
std::size_t
FpcCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    FixedBitWriter bw(out, kMaxEncodedBytes);
    bw.put(0, 1); // format tag: 0 = FPC stream, 1 = raw fallback
    unsigned i = 0;
    // Once the stream outgrows a raw copy the rest cannot matter: the
    // entry falls back to raw below.
    while (i < kWordsPerEntry && bw.sizeBits() <= kEntryBytes * 8) {
        const u32 w = words[i];
        if (w == 0) {
            unsigned run = 1;
            while (i + run < kWordsPerEntry && words[i + run] == 0 &&
                   run < 8)
                ++run;
            bw.put(0b000 | (run - 1) << 3, 6);
            i += run;
            continue;
        }
        const i32 sw = static_cast<i32>(w);
        if (fitsSigned32(sw, 4)) {
            bw.put(0b001 | (w & 0xF) << 3, 7);
        } else if (fitsSigned32(sw, 8)) {
            bw.put(0b010 | (w & 0xFF) << 3, 11);
        } else if (fitsSigned32(sw, 16)) {
            bw.put(0b011 | (w & 0xFFFF) << 3, 19);
        } else if ((w & 0xFFFF) == 0) {
            bw.put(0b100 | (w >> 16) << 3, 19);
        } else if (fitsSigned32(static_cast<i16>(w & 0xFFFF), 8) &&
                   fitsSigned32(static_cast<i16>(w >> 16), 8)) {
            bw.put(0b101 | (w & 0xFF) << 3 | ((w >> 16) & 0xFF) << 11, 19);
        } else if (((w >> 24) & 0xFF) == (w & 0xFF) &&
                   ((w >> 16) & 0xFF) == (w & 0xFF) &&
                   ((w >> 8) & 0xFF) == (w & 0xFF)) {
            bw.put(0b110 | (w & 0xFF) << 3, 11);
        } else {
            bw.put(0b111 | u64{w} << 3, 35);
        }
        ++i;
    }

    if (bw.sizeBits() > kEntryBytes * 8) {
        // Incompressible: fall back to a tagged raw copy, overwriting
        // the FPC stream from the start of `out`.
        bw.reset();
        bw.put(1, 1);
        bw.putBytes(data, kEntryBytes);
    }
    return bw.finish();
}

void
FpcCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);
    if (br.get(1)) { // raw fallback
        br.getBytes(out, kEntryBytes);
        return;
    }
    u32 words[kWordsPerEntry];
    unsigned i = 0;
    while (i < kWordsPerEntry) {
        const u64 p = br.peek(35);
        const u32 v = static_cast<u32>(p >> 3);
        switch (p & 7) {
          case 0b000: {
            br.consume(6);
            const unsigned run = (v & 7) + 1;
            BUDDY_CHECK(run <= kWordsPerEntry - i, "FPC zero run overrun");
            for (unsigned k = 0; k < run; ++k)
                words[i++] = 0;
            break;
          }
          case 0b001:
            br.consume(7);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 28) >> 28);
            break;
          case 0b010:
            br.consume(11);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 24) >> 24);
            break;
          case 0b011:
            br.consume(19);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 16) >> 16);
            break;
          case 0b100:
            br.consume(19);
            words[i++] = v << 16;
            break;
          case 0b101: {
            br.consume(19);
            const u32 lo16 = static_cast<u32>(
                                 static_cast<i32>(v << 24) >> 24) &
                             0xFFFF;
            const u32 hi16 = static_cast<u32>(
                                 static_cast<i32>((v >> 8) << 24) >> 24) &
                             0xFFFF;
            words[i++] = (hi16 << 16) | lo16;
            break;
          }
          case 0b110: {
            br.consume(11);
            const u32 b = v & 0xFF;
            words[i++] = b | (b << 8) | (b << 16) | (b << 24);
            break;
          }
          default:
            br.consume(35);
            words[i++] = v;
            break;
        }
    }
    storeWords(words, out);
}

} // namespace buddy
