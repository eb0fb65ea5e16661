/**
 * @file
 * Tests of writeFileAtomic(): concurrent writers of one path (two
 * daemon lanes storing the same trace-cache key, threads of one
 * process) each publish a whole file, never a mix, and leave no temp
 * file behind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "robust/atomic_file.hh"

namespace ibp {
namespace {

namespace fs = std::filesystem;

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(AtomicFileTest, ConcurrentWritersOfOnePathNeverMix)
{
    const std::string dir =
        testing::TempDir() + "/ibp_atomic_file_test";
    fs::remove_all(dir);
    const std::string path = dir + "/entry.bin";

    // Each writer's content is one repeated byte, distinct per
    // writer and large enough to span many write() calls.
    constexpr unsigned kWriters = 6;
    constexpr unsigned kRounds = 20;
    constexpr std::size_t kBytes = 256 * 1024;
    std::atomic<unsigned> failures{0};
    std::atomic<bool> writing{true};
    std::atomic<unsigned> torn{0};
    std::atomic<unsigned> reads{0};

    std::thread reader([&] {
        while (writing.load()) {
            const std::string seen = readAll(path);
            if (seen.empty())
                continue; // not written yet
            reads.fetch_add(1);
            if (seen.size() != kBytes ||
                seen.find_first_not_of(seen[0]) != std::string::npos)
                torn.fetch_add(1);
        }
    });
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            const std::string contents(kBytes,
                                       static_cast<char>('a' + w));
            for (unsigned round = 0; round < kRounds; ++round) {
                if (!writeFileAtomic(path, contents).ok())
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &writer : writers)
        writer.join();
    writing.store(false);
    reader.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(torn.load(), 0u) << "of " << reads.load() << " reads";
    const std::string last = readAll(path);
    ASSERT_EQ(last.size(), kBytes);
    EXPECT_EQ(last.find_first_not_of(last[0]), std::string::npos);
    // Only the destination remains: every temp was renamed away.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().string(), path);
        ++files;
    }
    EXPECT_EQ(files, 1u);
    fs::remove_all(dir);
}

} // namespace
} // namespace ibp
