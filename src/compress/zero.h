/**
 * @file
 * Trivial zero-detection codec: an all-zero entry compresses to a single
 * tag bit; anything else is stored raw. Used as the floor baseline in the
 * compressor ablation and by tests.
 */

#pragma once

#include <cstring>

#include "common/bitstream.h"
#include "compress/compressor.h"

namespace buddy {

/** Zero-or-raw codec (see file header). */
class ZeroCompressor : public Compressor
{
  public:
    const char *name() const override { return "zero"; }

    std::size_t
    compressInto(const u8 *data, u8 *out,
                 CompressionScratch &) const override
    {
        FixedBitWriter bw(out, kMaxEncodedBytes);
        if (entryIsZero(data)) {
            bw.put(0, 1);
        } else {
            bw.put(1, 1);
            bw.putBytes(data, kEntryBytes);
        }
        return bw.finish();
    }

    void
    decompressFrom(const u8 *payload, std::size_t size_bits,
                   u8 *out) const override
    {
        BitReader br(payload, size_bits);
        if (!br.get(1)) {
            std::memset(out, 0, kEntryBytes);
            return;
        }
        br.getBytes(out, kEntryBytes);
    }
};

} // namespace buddy
