/**
 * @file
 * Tests of the zero-copy mmap trace format (`.ibpm` v3): round
 * trips of the columnar writer, deterministic encoding, rejection of
 * the retired v2 layout, and — most importantly — that every class
 * of damaged input (truncation, bad magic, version skew, misaligned
 * columns, address-size mismatch, torn headers) is rejected as a
 * clean error rather than read out of bounds. The sanitizer CI
 * jobs run these same cases under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace/trace_cache.hh"
#include "trace/trace_io.hh"
#include "trace/trace_mmap.hh"
#include "util/bits.hh"

namespace ibp {
namespace {

class TraceMmapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = testing::TempDir() + "/ibp_trace_mmap_test";
        std::filesystem::remove_all(_dir);
        std::filesystem::create_directories(_dir);
        _path = _dir + "/trace.ibpm";
    }
    void
    TearDown() override
    {
        std::filesystem::remove_all(_dir);
    }

    std::string _dir;
    std::string _path;
};

Trace
sampleTrace()
{
    Trace trace("porky");
    trace.setSeed(0x5eed);
    trace.setSiteCountHint(3);
    trace.append({0x1000, 0x2000, BranchKind::IndirectCall, true});
    trace.append({0x1004, 0x3000, BranchKind::IndirectJump, true});
    trace.append({0x1008, 0x0000, BranchKind::Conditional, false});
    trace.append({0x100c, 0x4000, BranchKind::Return, true});
    return trace;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Recompute a v3 header checksum (fnv1a64 over the first 80 bytes)
 *  after a deliberate header patch, so validation failures exercise
 *  the intended field check rather than the checksum. */
void
fixupChecksumV3(std::string &bytes)
{
    ASSERT_GE(bytes.size(), 128u);
    std::uint64_t words[10];
    std::memcpy(words, bytes.data(), 80);
    const std::uint64_t sum =
        fnv1a64(words, 10, 0xcbf29ce484222325ULL);
    std::memcpy(bytes.data() + 80, &sum, 8);
}

TEST_F(TraceMmapTest, RoundTripPreservesEverything)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const Trace original = sampleTrace();
    ASSERT_TRUE(saveTraceMmap(original, _path).ok());
    const auto loaded = loadTraceMmap(_path);
    ASSERT_TRUE(loaded.ok());
    const Trace &trace = loaded.value();
    EXPECT_EQ(trace, original);
    EXPECT_EQ(trace.name(), "porky");
    EXPECT_EQ(trace.seed(), 0x5eedu);
    EXPECT_EQ(trace.siteCountHint(), 3u);
    EXPECT_EQ(trace.readPath(), TraceReadPath::Mmap);
    // The default writer produces the columnar v3 layout, which the
    // reader serves as zero-copy columns (trace_block.hh slices
    // them without a transpose).
    EXPECT_TRUE(trace.isColumnar());
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[1].target, 0x3000u);
    EXPECT_EQ(trace[2].kind, BranchKind::Conditional);
    EXPECT_FALSE(trace[2].taken);
    EXPECT_EQ(trace[3].kind, BranchKind::Return);
}

TEST_F(TraceMmapTest, RetiredV2MagicFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    // An entry left behind by the retired record-array writer: the
    // reader no longer knows the layout, so it must reject it as bad
    // magic (which the trace cache treats as a miss).
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    bytes[6] = '2';
    const std::uint32_t v2_version = 2;
    std::memcpy(bytes.data() + 8, &v2_version, 4);
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    const auto loaded = loadTraceMmap(_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().message.find("bad magic"),
              std::string::npos);
}

TEST_F(TraceMmapTest, EmptyTraceRoundTrips)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    Trace empty("nothing");
    empty.setSeed(7);
    ASSERT_TRUE(saveTraceMmap(empty, _path).ok());
    const auto loaded = loadTraceMmap(_path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 0u);
    EXPECT_EQ(loaded.value().name(), "nothing");
    EXPECT_EQ(loaded.value().seed(), 7u);
}

TEST_F(TraceMmapTest, EncodeIsDeterministic)
{
    const auto first = encodeTraceMmap(sampleTrace());
    const auto second = encodeTraceMmap(sampleTrace());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value());
    // v3 columns start 64-byte aligned (cache-line / widest-vector
    // alignment) and the stored file size matches the blob exactly.
    const std::string &bytes = first.value();
    std::uint64_t pc_offset = 0;
    std::memcpy(&pc_offset, bytes.data() + 48, 8);
    EXPECT_EQ(pc_offset % 64, 0u);
    std::uint64_t stored_size = 0;
    std::memcpy(&stored_size, bytes.data() + 72, 8);
    EXPECT_EQ(stored_size, bytes.size());
}

TEST_F(TraceMmapTest, MissingFileFails)
{
    EXPECT_FALSE(loadTraceMmap(_dir + "/absent.ibpm").ok());
}

TEST_F(TraceMmapTest, TruncatedFileFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());

    // Shorter than the header.
    std::string bytes = readFile(_path);
    writeFile(_path, bytes.substr(0, 10));
    EXPECT_FALSE(loadTraceMmap(_path).ok());

    // Header intact but the record array cut short.
    writeFile(_path, bytes.substr(0, bytes.size() - 13));
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, CorruptMagicFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    bytes[0] = 'X';
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, VersionSkewFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    const std::uint32_t future_version = 9;
    std::memcpy(bytes.data() + 8, &future_version, 4);
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    // A version we do not understand must be rejected even though
    // its checksum is self-consistent.
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, AddressSizeMismatchFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    // Byte 16 is the per-address byte size of the pc/target columns.
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    const std::uint32_t wrong_addr_bytes = 8;
    std::memcpy(bytes.data() + 16, &wrong_addr_bytes, 4);
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, MisalignedColumnOffsetFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    std::uint64_t pc_offset = 0;
    std::memcpy(&pc_offset, bytes.data() + 48, 8);
    pc_offset += 4; // no longer 64-byte aligned
    std::memcpy(bytes.data() + 48, &pc_offset, 8);
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, ColumnFileSizeMismatchFails)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());

    // A stored size that disagrees with the actual file must be
    // rejected (tail truncation or padding), even with the header
    // checksum made self-consistent.
    std::string bytes = readFile(_path);
    std::uint64_t stored_size = 0;
    std::memcpy(&stored_size, bytes.data() + 72, 8);
    stored_size += 64;
    std::memcpy(bytes.data() + 72, &stored_size, 8);
    fixupChecksumV3(bytes);
    writeFile(_path, bytes);
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, TornHeaderFailsChecksum)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    ASSERT_TRUE(saveTraceMmap(sampleTrace(), _path).ok());
    std::string bytes = readFile(_path);
    bytes[33] = static_cast<char>(bytes[33] ^ 0x40); // record count
    writeFile(_path, bytes);
    EXPECT_FALSE(loadTraceMmap(_path).ok());
}

TEST_F(TraceMmapTest, CacheServesMmapEntries)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const TraceCache cache(_dir);
    const Trace original = sampleTrace();
    ASSERT_TRUE(cache.store("k", original).ok());
    EXPECT_TRUE(std::filesystem::exists(cache.pathFor("k")));
    EXPECT_EQ(cache.pathFor("k").substr(
                  cache.pathFor("k").size() - 5),
              ".ibpm");
    const auto loaded = cache.load("k");
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), original);
    EXPECT_EQ(loaded.value().readPath(), TraceReadPath::Mmap);
}

TEST_F(TraceMmapTest, CacheFallsBackToLegacyStreamEntries)
{
    const TraceCache cache(_dir);
    const Trace original = sampleTrace();
    // Only a legacy stream entry exists (a cache written before the
    // mmap format, or by a platform that cannot produce it).
    ASSERT_TRUE(
        saveTrace(original, cache.streamPathFor("k")).ok());
    const auto loaded = cache.load("k");
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), original);
    EXPECT_EQ(loaded.value().readPath(), TraceReadPath::Stream);
}

TEST_F(TraceMmapTest, CacheCorruptMmapEntryFallsBackThenMisses)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const TraceCache cache(_dir);
    const Trace original = sampleTrace();
    ASSERT_TRUE(cache.store("k", original).ok());

    // Corrupt mmap entry + intact stream entry: load degrades to the
    // stream transport.
    ASSERT_TRUE(
        saveTrace(original, cache.streamPathFor("k")).ok());
    std::filesystem::resize_file(cache.pathFor("k"), 20);
    const auto degraded = cache.load("k");
    ASSERT_TRUE(degraded.ok());
    EXPECT_EQ(degraded.value(), original);
    EXPECT_EQ(degraded.value().readPath(), TraceReadPath::Stream);

    // Corrupt mmap entry and no stream entry: a clean miss.
    std::filesystem::remove(cache.streamPathFor("k"));
    EXPECT_FALSE(cache.load("k").ok());
}

} // namespace
} // namespace ibp
