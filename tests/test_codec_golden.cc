/**
 * @file
 * Golden tests pinning every registered codec's bitstream format.
 *
 * Over a fixed seeded corpus that reaches every symbol of every codec,
 * each library encoding must equal the bit-serial reference encoding of
 * tests/codec_oracle.h bit for bit (length, bytes and zero padding), and
 * both the library and the reference decoder must return the input. A
 * hash over all encodings pins the format itself. Decoders must read
 * only the payload's own bytes and die on a truncated payload.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/codec_registry.h"
#include "codec_oracle.h"

namespace buddy {
namespace {

using Entry = std::array<u8, kEntryBytes>;

/** splitmix64: a corpus generator independent of library code. */
class Mix
{
  public:
    explicit Mix(u64 seed) : s_(seed) {}

    u64
    next()
    {
        u64 z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    u64 below(u64 n) { return next() % n; }

    /** A signed value that fits in @p bits bits (bits in [1, 32]). */
    u32
    signedBits(unsigned bits)
    {
        const u64 v = next() & ((1ull << bits) - 1);
        const unsigned shift = 64 - bits;
        return static_cast<u32>(static_cast<i64>(v << shift) >> shift);
    }

  private:
    u64 s_;
};

Entry
fromWords(const u32 *words)
{
    Entry e;
    std::memcpy(e.data(), words, kEntryBytes);
    return e;
}

/** Words whose 31 deltas have low 32 bits @p deltas, from base @p w0. */
Entry
fromDeltas(u32 w0, const u32 *deltas)
{
    u32 w[kWordsPerEntry];
    w[0] = w0;
    for (unsigned i = 0; i + 1 < kWordsPerEntry; ++i)
        w[i + 1] = w[i] + deltas[i];
    return fromWords(w);
}

/** A BPC base word exercising each base code. */
u32
baseWord(Mix &m)
{
    switch (m.below(4)) {
      case 0: return 0;
      case 1: return m.signedBits(4);
      case 2: return m.signedBits(16);
      default: return static_cast<u32>(m.next());
    }
}

/** One 31-bit DBX plane of a chosen shape. */
u32
planeOfShape(Mix &m, unsigned shape)
{
    const u32 pos = static_cast<u32>(m.below(31));
    switch (shape) {
      case 0: return 0;                                  // zero
      case 1: return 0x7FFFFFFF;                         // all ones
      case 2: return 1u << pos;                          // single one
      case 3: return (3u << (pos % 30));                 // two ones
      default: return static_cast<u32>(m.next()) & 0x7FFFFFFF; // raw
    }
}

/**
 * Deltas built plane by plane from chosen DBX shapes: DBP[b] =
 * DBX[b] ^ DBP[b + 1] from the top down, then delta i takes bit b of
 * DBP[b]. Mostly-zero shapes give zero runs and, where a plane sits
 * just below a nonzero one, the DBP-zero shortcut.
 */
Entry
fromPlaneShapes(Mix &m)
{
    u32 dbp[33] = {};
    const unsigned zero_bias = static_cast<unsigned>(m.below(4));
    for (int b = 31; b >= 0; --b) {
        const unsigned shape = m.below(4 + zero_bias) < zero_bias
                                   ? 0
                                   : static_cast<unsigned>(m.below(5));
        dbp[b] = planeOfShape(m, shape) ^ dbp[b + 1];
    }
    u32 deltas[kWordsPerEntry - 1] = {};
    for (unsigned b = 0; b < 32; ++b)
        for (unsigned i = 0; i + 1 < kWordsPerEntry; ++i)
            deltas[i] |= ((dbp[b] >> i) & 1u) << b;
    return fromDeltas(baseWord(m), deltas);
}

/** An FPC word of pattern class @p cls (0..7, the eight prefixes). */
u32
fpcWord(Mix &m, unsigned cls)
{
    switch (cls) {
      case 0: return 0;
      case 1: return m.signedBits(4);
      case 2: return m.signedBits(8);
      case 3: return m.signedBits(16);
      case 4: return static_cast<u32>(m.next()) << 16;
      case 5: {
        const u32 lo = m.signedBits(8) & 0xFFFF;
        return lo | m.signedBits(8) << 16;
      }
      case 6: return 0x01010101u * static_cast<u32>(m.below(256));
      default: return static_cast<u32>(m.next());
    }
}

/** BDI-shaped entry: a base plus narrow deltas at one element width,
 *  with some elements near zero (the implicit zero base). */
Entry
bdiShaped(Mix &m, unsigned base_bytes, unsigned delta_bytes)
{
    Entry e;
    const u64 base = m.next();
    for (unsigned i = 0; i < kEntryBytes / base_bytes; ++i) {
        const u64 d = m.signedBits(delta_bytes * 8);
        const u64 v = m.below(4) == 0 ? d : base + d;
        std::memcpy(e.data() + i * base_bytes, &v, base_bytes);
    }
    return e;
}

std::vector<Entry>
goldenCorpus()
{
    Mix m(0x60D1E4);
    std::vector<Entry> c;
    u32 w[kWordsPerEntry];

    c.push_back(Entry{}); // all zero

    // All-ones entry and constant words (a 33-plane zero run, the
    // longest there is) under each base code.
    Entry ones;
    ones.fill(0xFF);
    c.push_back(ones);
    for (const u32 k : {1u, 7u, 0xFFF9u, 0x12345678u, 0x80000000u}) {
        for (auto &x : w)
            x = k;
        c.push_back(fromWords(w));
    }

    // Smooth random walks of every delta width.
    for (unsigned bits = 1; bits <= 32; ++bits) {
        for (int rep = 0; rep < 24; ++rep) {
            u32 d[kWordsPerEntry - 1];
            for (auto &x : d)
                x = m.signedBits(bits);
            c.push_back(fromDeltas(baseWord(m), d));
        }
    }

    // Sign-extended small integers, word by word.
    for (unsigned bits = 1; bits <= 20; ++bits) {
        for (int rep = 0; rep < 12; ++rep) {
            for (auto &x : w)
                x = m.signedBits(bits);
            c.push_back(fromWords(w));
        }
    }

    // BPC plane shapes: all-ones, single-one, two-ones and raw planes,
    // zero runs of every length and the DBP-zero shortcut.
    for (int rep = 0; rep < 800; ++rep)
        c.push_back(fromPlaneShapes(m));
    for (unsigned b = 0; b < 32; ++b) {
        u32 d[kWordsPerEntry - 1] = {};
        for (auto &x : d)
            x = 1u << b; // all-ones plane b
        c.push_back(fromDeltas(0, d));
        for (unsigned i = 0; i + 1 < kWordsPerEntry; i += 5) {
            u32 s[kWordsPerEntry - 1] = {};
            s[i] = 1u << b; // single one
            c.push_back(fromDeltas(baseWord(m), s));
            if (i + 2 < kWordsPerEntry) {
                s[i + 1] = 1u << b; // two consecutive ones
                c.push_back(fromDeltas(baseWord(m), s));
            }
        }
    }

    // BDI shapes at every base/delta width, and repeated 8-byte values.
    for (int rep = 0; rep < 40; ++rep) {
        static constexpr unsigned kShapes[][2] = {
            {8, 1}, {8, 2}, {8, 4}, {4, 1}, {4, 2}, {2, 1}};
        for (const auto &shape : kShapes)
            c.push_back(bdiShaped(m, shape[0], shape[1]));
        Entry r;
        const u64 v = m.next();
        for (unsigned i = 0; i < kEntryBytes / 8; ++i)
            std::memcpy(r.data() + i * 8, &v, 8);
        c.push_back(r);
    }

    // FPC word classes, mixed and in long runs (zero runs past 8 words).
    for (int rep = 0; rep < 400; ++rep) {
        const unsigned run = 1 + static_cast<unsigned>(m.below(12));
        unsigned cls = 0;
        for (unsigned i = 0; i < kWordsPerEntry; ++i) {
            if (i % run == 0)
                cls = static_cast<unsigned>(m.below(8));
            w[i] = fpcWord(m, cls);
        }
        c.push_back(fromWords(w));
    }

    // Across the raw-fallback threshold: k random words, then zeros;
    // and full-entropy entries.
    for (unsigned k = 0; k <= kWordsPerEntry; ++k) {
        for (int rep = 0; rep < 4; ++rep) {
            for (unsigned i = 0; i < kWordsPerEntry; ++i)
                w[i] = i < k ? static_cast<u32>(m.next()) : 0;
            c.push_back(fromWords(w));
        }
    }
    for (int rep = 0; rep < 100; ++rep) {
        Entry r;
        for (auto &b : r)
            b = static_cast<u8>(m.next());
        c.push_back(r);
    }
    return c;
}

const std::vector<Entry> &
corpus()
{
    static const std::vector<Entry> c = goldenCorpus();
    return c;
}

std::vector<std::string>
codecNames()
{
    return api::CodecRegistry::instance().names();
}

/** Encode @p e with the library codec into a dirty buffer. */
std::size_t
encodeDirty(const Compressor &codec, const Entry &e, u8 *out)
{
    CompressionScratch scratch;
    std::memset(out, 0xA5, kMaxEncodedBytes);
    return codec.compressInto(e.data(), out, scratch);
}

TEST(CodecGolden, EveryCodecMatchesTheBitSerialReference)
{
    for (const std::string &name : codecNames()) {
        const oracle::Codec *ref = oracle::find(name);
        ASSERT_NE(ref, nullptr) << "no reference for codec " << name;
        const auto codec = api::CodecRegistry::instance().create(name);
        const auto &entries = corpus();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            u8 enc[kMaxEncodedBytes];
            const std::size_t bits = encodeDirty(*codec, e, enc);
            const oracle::BitWriter want = ref->encode(e.data());
            ASSERT_EQ(bits, want.sizeBits()) << name << " entry " << i;
            ASSERT_EQ(std::memcmp(enc, want.bytes().data(),
                                  want.sizeBytes()),
                      0)
                << name << " entry " << i;

            Entry got{}, ref_got{};
            codec->decompressFrom(enc, bits, got.data());
            ASSERT_EQ(got, e) << name << " entry " << i;
            ref->decode(enc, bits, ref_got.data());
            ASSERT_EQ(ref_got, e) << name << " entry " << i;
        }
    }
}

TEST(CodecGolden, CorpusReachesEverySymbol)
{
    // Guard the corpus itself: each codec's raw fallback and compressed
    // forms both occur, and BPC and FPC see each of their symbols.
    const auto bpc = api::CodecRegistry::instance().create("bpc");
    std::array<std::size_t, 8> bpc_syms{};
    std::array<std::size_t, 8> fpc_prefixes{};
    std::size_t bpc_raw = 0;
    for (const Entry &e : corpus()) {
        const oracle::BitWriter bw = oracle::bpc::encode(e.data());
        oracle::BitReader br(bw);
        if (br.getBit()) {
            ++bpc_raw;
        } else {
            // Walk the plane symbols through the reference decoder's
            // prefix tree.
            const unsigned base_code = static_cast<unsigned>(br.get(2));
            br.get(base_code == 0 ? 0 : base_code == 2 ? 4
                                    : base_code == 1 ? 16 : 32);
            int planes = 33;
            while (planes > 0) {
                if (br.getBit()) {
                    ++bpc_syms[6];
                    br.get(31);
                    --planes;
                } else if (br.getBit()) {
                    ++bpc_syms[0];
                    --planes;
                } else if (br.getBit()) {
                    const unsigned run = static_cast<unsigned>(br.get(5));
                    ++bpc_syms[run + 2 > 32 ? 7 : 1];
                    planes -= static_cast<int>(run) + 2;
                } else {
                    // "000" + b3 b4: all ones, two ones + pos,
                    // DBP zero, single one + pos.
                    const unsigned k = static_cast<unsigned>(br.get(2));
                    ++bpc_syms[2 + k];
                    if (k & 1u)
                        br.get(5);
                    --planes;
                }
            }
        }
        const oracle::BitWriter fw = oracle::fpc::encode(e.data());
        oracle::BitReader fr(fw);
        if (!fr.getBit()) {
            for (unsigned words = 0; words < kWordsPerEntry;) {
                const unsigned p = static_cast<unsigned>(fr.get(3));
                static constexpr unsigned kLen[8] = {3, 4, 8, 16,
                                                     16, 16, 8, 32};
                const unsigned arg = static_cast<unsigned>(fr.get(kLen[p]));
                ++fpc_prefixes[p];
                words += p == 0 ? arg + 1 : 1;
            }
        }
    }
    EXPECT_GT(bpc_raw, 0u);
    for (std::size_t s = 0; s < bpc_syms.size(); ++s)
        EXPECT_GT(bpc_syms[s], 0u) << "bpc symbol " << s;
    for (std::size_t p = 0; p < fpc_prefixes.size(); ++p)
        EXPECT_GT(fpc_prefixes[p], 0u) << "fpc prefix " << p;
}

/** FNV-1a over every codec's encoding of the corpus. */
u64
encodingHash()
{
    u64 h = 0xCBF29CE484222325ull;
    const auto mix = [&h](const u8 *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001B3ull;
        }
    };
    for (const std::string &name : codecNames()) {
        mix(reinterpret_cast<const u8 *>(name.data()), name.size());
        const auto codec = api::CodecRegistry::instance().create(name);
        for (const Entry &e : corpus()) {
            u8 enc[kMaxEncodedBytes];
            const u64 bits = encodeDirty(*codec, e, enc);
            mix(reinterpret_cast<const u8 *>(&bits), sizeof(bits));
            mix(enc, (bits + 7) / 8);
        }
    }
    return h;
}

TEST(CodecGolden, EncodingHashIsPinned)
{
    // Taken from the bit-serial codecs before the word-level rewrite;
    // any format change moves it.
    EXPECT_EQ(encodingHash(), 0xF36B3CD7001D1C26ull);
}

TEST(CodecGolden, DecodersReadOnlyThePayloadBytes)
{
    // Each payload sits in a heap buffer of exactly its byte size, so an
    // over-read is a heap overflow the address sanitizer reports.
    for (const std::string &name : codecNames()) {
        const auto codec = api::CodecRegistry::instance().create(name);
        for (const Entry &e : corpus()) {
            u8 enc[kMaxEncodedBytes];
            const std::size_t bits = encodeDirty(*codec, e, enc);
            const std::size_t bytes = (bits + 7) / 8;
            const auto exact = std::make_unique<u8[]>(bytes);
            std::memcpy(exact.get(), enc, bytes);
            Entry got{};
            codec->decompressFrom(exact.get(), bits, got.data());
            ASSERT_EQ(got, e) << name;
        }
    }
}

TEST(CodecGoldenDeath, TruncatedPayloadDies)
{
    Entry smooth, random;
    Mix m(7);
    u32 d[kWordsPerEntry - 1];
    for (auto &x : d)
        x = m.signedBits(6);
    smooth = fromDeltas(0x4000, d);
    for (auto &b : random)
        b = static_cast<u8>(m.next());

    for (const std::string &name : codecNames()) {
        const auto codec = api::CodecRegistry::instance().create(name);
        for (const Entry &e : {Entry{}, smooth, random}) {
            u8 enc[kMaxEncodedBytes];
            const std::size_t bits = encodeDirty(*codec, e, enc);
            for (const std::size_t cut : {std::size_t{1}, bits / 2}) {
                if (cut == 0 || cut > bits)
                    continue;
                u8 out[kEntryBytes];
                EXPECT_DEATH(codec->decompressFrom(enc, bits - cut, out),
                             "overrun")
                    << name << " cut " << cut << " of " << bits;
            }
        }
    }
}

} // namespace
} // namespace buddy
