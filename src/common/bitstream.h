/**
 * @file
 * Bit-granularity serialization used by the compression codecs.
 *
 * Compressed memory entries are variable-length bit strings packed
 * LSB-first: the first bit written is bit 0 of byte 0. There is one
 * writer and one reader, both word-level:
 *
 *  - FixedBitWriter gathers bits in a 64-bit accumulator and stores whole
 *    words into a caller-provided buffer, so a codec symbol of up to 64
 *    bits costs one put(); finish() stores the partial tail word.
 *  - BitReader reads with peek(n)/consume(n): peek returns the next n
 *    (<= 57) bits from one bounded 8-byte load, zero-filled past the end
 *    of the stream, and consume advances with an overrun check. A codec
 *    can therefore peek a whole symbol and decode it with a table or a
 *    switch instead of bit-by-bit branching.
 *
 * The reader never loads a byte at or past ceil(size_bits / 8), so a
 * payload may sit in a buffer of exactly its byte size. The bit-serial
 * implementation these replace is kept in tests/codec_oracle.h as the
 * reference the codecs are checked against.
 */

#pragma once

#include <cstddef>
#include <cstring>

#include "common/check.h"
#include "common/types.h"

namespace buddy {

// Whole-word stores and loads rely on the host byte order matching the
// LSB-first bit order (as do the codecs' memcpy word loads).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "bitstream.h assumes a little-endian host");

/** The low @p nbits bits set (nbits in [0, 64]). */
constexpr u64
lowBits(unsigned nbits)
{
    return nbits >= 64 ? ~0ull : (1ull << nbits) - 1;
}

/**
 * LSB-first bit packer over a caller-provided fixed buffer.
 *
 * Codecs encode into a CompressionScratch buffer that is reused across a
 * whole AccessBatch, so no heap traffic occurs per entry. Every byte up
 * to sizeBytes() is written (padding bits are zero) once finish() has
 * run, which makes reuse of a dirty buffer safe. Overflowing the buffer
 * is a checked panic.
 */
class FixedBitWriter
{
  public:
    FixedBitWriter(u8 *buf, std::size_t cap_bytes)
        : buf_(buf), capBits_(cap_bytes * 8)
    {}

    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64,
                    "FixedBitWriter::put supports at most 64 bits");
        BUDDY_CHECK(bitCount_ + nbits <= capBits_,
                    "FixedBitWriter overflow");
        value &= lowBits(nbits);
        const unsigned off = bitCount_ % 64;
        acc_ |= value << off;
        if (off + nbits >= 64) {
            // The accumulator's word is complete: store it and carry the
            // bits that did not fit into the next word.
            std::memcpy(buf_ + bitCount_ / 64 * 8, &acc_, 8);
            acc_ = off == 0 ? 0 : value >> (64 - off);
        }
        bitCount_ += nbits;
    }

    /** Append @p nbytes bytes verbatim (nbytes a multiple of 8). */
    void
    putBytes(const u8 *bytes, std::size_t nbytes)
    {
        BUDDY_CHECK(nbytes % 8 == 0,
                    "FixedBitWriter::putBytes takes whole words");
        for (std::size_t i = 0; i < nbytes; i += 8) {
            u64 w;
            std::memcpy(&w, bytes + i, 8);
            put(w, 64);
        }
    }

    /**
     * Store the pending partial word (only the bytes it occupies) and
     * return sizeBits(). The buffer holds the stream once this has run.
     */
    std::size_t
    finish()
    {
        const std::size_t tail = (bitCount_ % 64 + 7) / 8;
        std::memcpy(buf_ + bitCount_ / 64 * 8, &acc_, tail);
        return bitCount_;
    }

    /** Restart the writer at bit zero (reuses the same buffer). */
    void
    reset()
    {
        bitCount_ = 0;
        acc_ = 0;
    }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

  private:
    u8 *buf_;
    std::size_t capBits_;
    std::size_t bitCount_ = 0;
    u64 acc_ = 0; ///< bits [bitCount_ & ~63, bitCount_) not yet stored
};

/** LSB-first bit unpacker over a byte buffer produced by FixedBitWriter. */
class BitReader
{
  public:
    /** Widest peek(): one 8-byte load minus a sub-byte offset. */
    static constexpr unsigned kMaxPeekBits = 57;

    /** Read a @p size_bits-bit stream; only ceil(size_bits / 8) bytes of
     *  @p data are ever loaded. */
    BitReader(const u8 *data, std::size_t size_bits)
        : data_(data), sizeBits_(size_bits), endByte_((size_bits + 7) / 8)
    {}

    /**
     * The next @p nbits bits (nbits <= kMaxPeekBits) without consuming
     * them. Bits past the end of the stream read as zero; consume()
     * is where an overrun is caught.
     */
    u64
    peek(unsigned nbits) const
    {
        BUDDY_CHECK(nbits <= kMaxPeekBits,
                    "BitReader::peek supports at most 57 bits");
        const std::size_t byte = pos_ / 8;
        u64 w = 0;
        if (byte + 8 <= endByte_)
            std::memcpy(&w, data_ + byte, 8);
        else if (byte < endByte_)
            std::memcpy(&w, data_ + byte, endByte_ - byte);
        return (w >> (pos_ % 8)) & lowBits(nbits);
    }

    /** Skip @p nbits bits; running past the end of the stream panics. */
    void
    consume(std::size_t nbits)
    {
        BUDDY_CHECK(nbits <= sizeBits_ - pos_, "BitReader overrun");
        pos_ += nbits;
    }

    /** Read @p nbits bits (LSB first, nbits in [0, 64]). */
    u64
    get(unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitReader::get supports at most 64 bits");
        if (nbits > kMaxPeekBits) {
            const u64 lo = get(32);
            return lo | get(nbits - 32) << 32;
        }
        const u64 v = peek(nbits);
        consume(nbits);
        return v;
    }

    /** Read @p nbytes bytes verbatim (nbytes a multiple of 8). */
    void
    getBytes(u8 *out, std::size_t nbytes)
    {
        BUDDY_CHECK(nbytes % 8 == 0, "BitReader::getBytes takes whole words");
        for (std::size_t i = 0; i < nbytes; i += 8) {
            const u64 w = get(64);
            std::memcpy(out + i, &w, 8);
        }
    }

    /** Bits remaining. */
    std::size_t remaining() const { return sizeBits_ - pos_; }

  private:
    const u8 *data_;
    std::size_t sizeBits_;
    std::size_t endByte_;
    std::size_t pos_ = 0;
};

} // namespace buddy
