/**
 * @file
 * Golden fingerprints of every registered kernel's trace.
 *
 * Each kernel's emitTrace at one small canonical (n, m) is hashed
 * call by call — the onAccess/onRun kind, base, word count and access
 * type of every sink call, in order — with FNV-1a. The table pins the
 * exact schedule, not just the curves derived from it: a refactor of
 * an emitter that reorders calls, splits a run into single accesses
 * or merges accesses into a run changes the hash even when every
 * Mattson curve would survive it. A deliberate schedule change
 * updates the table in the same commit and says why.
 */

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "util/binio.hpp"

namespace kb {
namespace {

/** Serializes every sink call: kind, base, words, type. */
class FingerprintSink : public TraceSink
{
  public:
    void
    onAccess(const Access &access) override
    {
        record(0, access.addr, 1, access.type);
    }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        record(1, base, words, type);
    }

    std::uint64_t calls() const { return calls_; }
    std::uint64_t words() const { return words_; }
    std::uint64_t hash() const { return fnv1a64(out_.bytes()); }

  private:
    void
    record(std::uint8_t kind, std::uint64_t base, std::uint64_t words,
           AccessType type)
    {
        out_.u8(kind);
        out_.u64(base);
        out_.u64(words);
        out_.u8(static_cast<std::uint8_t>(type));
        ++calls_;
        words_ += words;
    }

    ByteWriter out_;
    std::uint64_t calls_ = 0;
    std::uint64_t words_ = 0;
};

struct Golden
{
    const char *kernel;
    std::uint64_t n;
    std::uint64_t m;
    std::uint64_t calls;
    std::uint64_t words;
    std::uint64_t hash;
};

/**
 * Each (n, m) is small enough to hash in milliseconds and large
 * enough that the schedule runs dozens of tiles (blocks, passes,
 * strips), so tile order and tile boundaries are both pinned.
 */
constexpr Golden kGolden[] = {
    {"matmul", 64, 48, 97856, 352256, 0x4e9b7b7e68006243ull},
    {"triangularization", 64, 48, 17408, 69632, 0x9d8494f846f84883ull},
    {"qr", 64, 27, 80117, 194273, 0x5102d1bfab6bac28ull},
    {"grid1d", 2048, 64, 1140, 27712, 0x55a99e6d137671e0ull},
    {"grid2d", 40, 512, 4288, 53944, 0x4f0668b85dca4b02ull},
    {"grid3d", 16, 512, 94720, 471808, 0x233cb70e1eca9583ull},
    {"grid4d", 8, 2048, 215040, 794624, 0xfe74f270e7795d03ull},
    {"fft", 1024, 16, 4096, 22528, 0x306166347c3e4e83ull},
    {"sorting", 4096, 64, 16384, 24448, 0xe874050b684d1323ull},
    {"matvec", 128, 8, 35584, 35584, 0x1c0b7c16f7488983ull},
    {"trisolve", 128, 8, 6304, 12544, 0x547697963a124083ull},
    {"spmv", 1024, 8, 25600, 25600, 0xbb4212d171e9445dull},
    {"stencil9", 48, 32, 13632, 44560, 0x57867dbe7cfb0f13ull},
    {"stencil9t", 48, 64, 24192, 100656, 0x0d8ecb9e00583503ull},
};

TEST(TraceFingerprint, EveryKernelMatchesGolden)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string("kernel ") + g.kernel);
        const auto kernel = KernelRegistry::instance().shared(g.kernel);
        FingerprintSink sink;
        kernel->emitTrace(g.n, g.m, sink);
        EXPECT_EQ(sink.calls(), g.calls);
        EXPECT_EQ(sink.words(), g.words);
        EXPECT_EQ(toHex16(sink.hash()), toHex16(g.hash));
    }
}

/** A kernel registered without a golden row would go unpinned. */
TEST(TraceFingerprint, TableCoversEveryRegisteredKernel)
{
    std::set<std::string> golden;
    for (const Golden &g : kGolden)
        golden.insert(g.kernel);
    for (const auto &name : KernelRegistry::instance().names())
        EXPECT_EQ(golden.count(name), 1u) << "no golden row for " << name;
    EXPECT_EQ(golden.size(), KernelRegistry::instance().names().size());
}

} // namespace
} // namespace kb
