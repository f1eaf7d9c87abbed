/**
 * @file
 * Unit tests for the LSB-first bit packer/unpacker that underlies every
 * compression codec.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"
#include "codec_oracle.h"

namespace buddy {
namespace {

constexpr std::size_t kCap = 256;

TEST(BitStream, EmptyWriterHasNoBits)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    EXPECT_EQ(bw.sizeBits(), 0u);
    EXPECT_EQ(bw.sizeBytes(), 0u);
    EXPECT_EQ(bw.finish(), 0u);
}

TEST(BitStream, SingleBitRoundTrip)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(1, 1);
    bw.put(0, 1);
    bw.put(1, 1);
    ASSERT_EQ(bw.finish(), 3u);
    EXPECT_EQ(buf[0], 0b101);

    BitReader br(buf, 3);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.get(1), 0u);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, MultiBitValuesRoundTrip)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(0xDEADBEEFull, 32);
    bw.put(0x5, 3);
    bw.put(0xFFFFFFFFFFFFFFFFull, 64);
    bw.put(0, 0); // zero-width write is a no-op

    BitReader br(buf, bw.finish());
    EXPECT_EQ(br.get(32), 0xDEADBEEFull);
    EXPECT_EQ(br.get(3), 0x5ull);
    EXPECT_EQ(br.get(64), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, SizeBytesRoundsUp)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(0x7F, 7);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.put(1, 1);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.put(0, 1);
    EXPECT_EQ(bw.sizeBytes(), 2u);
}

TEST(BitStream, UnalignedInterleavedFields)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    for (unsigned n = 1; n <= 17; ++n)
        bw.put(n, n); // value n in an n-bit field

    BitReader br(buf, bw.finish());
    for (unsigned n = 1; n <= 17; ++n)
        EXPECT_EQ(br.get(n), n) << "field width " << n;
}

TEST(BitStream, PeekDoesNotConsumeAndZeroFillsPastTheEnd)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(0b1011, 4);
    BitReader br(buf, bw.finish());
    EXPECT_EQ(br.peek(4), 0b1011u);
    EXPECT_EQ(br.peek(BitReader::kMaxPeekBits), 0b1011u);
    br.consume(2);
    EXPECT_EQ(br.peek(5), 0b10u);
    EXPECT_EQ(br.remaining(), 2u);
}

TEST(BitStream, ValueBitsAboveTheWidthAreIgnored)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(~0ull, 3);
    bw.put(0, 5);
    ASSERT_EQ(bw.finish(), 8u);
    EXPECT_EQ(buf[0], 0b111);
}

TEST(BitStream, RandomizedRoundTrip)
{
    // Word-level writer and reader against the bit-serial reference:
    // same bytes (padding included), same values read back.
    Rng rng(42);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::pair<u64, unsigned>> fields;
        u8 buf[kCap];
        std::memset(buf, 0xA5, sizeof(buf));
        FixedBitWriter bw(buf, kCap);
        oracle::BitWriter ref;
        const int nfields = 1 + static_cast<int>(rng.below(30));
        for (int i = 0; i < nfields; ++i) {
            const unsigned width = static_cast<unsigned>(rng.below(65));
            const u64 v = rng.next() & lowBits(width);
            fields.emplace_back(v, width);
            bw.put(v, width);
            ref.put(v, width);
        }
        const std::size_t bits = bw.finish();
        ASSERT_EQ(bits, ref.sizeBits());
        ASSERT_EQ(std::memcmp(buf, ref.bytes().data(), ref.sizeBytes()), 0);

        // Read back from a buffer of exactly the payload's size.
        const auto exact = std::make_unique<u8[]>(ref.sizeBytes() + 1);
        std::memcpy(exact.get(), buf, ref.sizeBytes());
        BitReader br(exact.get(), bits);
        for (const auto &[v, width] : fields)
            ASSERT_EQ(br.get(width), v);
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(BitStream, ResetRestartsAtBitZero)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(~0ull, 64);
    bw.put(~0ull, 13);
    bw.reset();
    bw.put(0b10, 2);
    ASSERT_EQ(bw.finish(), 2u);
    EXPECT_EQ(buf[0], 0b10);
}

TEST(BitStreamDeath, OverrunPanics)
{
    u8 buf[kCap];
    FixedBitWriter bw(buf, kCap);
    bw.put(1, 1);
    BitReader br(buf, bw.finish());
    br.get(1);
    EXPECT_DEATH(br.get(1), "overrun");
}

TEST(BitStreamDeath, WriterOverflowPanics)
{
    u8 buf[8];
    FixedBitWriter bw(buf, sizeof(buf));
    bw.put(0, 60);
    EXPECT_DEATH(bw.put(0, 5), "overflow");
}

} // namespace
} // namespace buddy
