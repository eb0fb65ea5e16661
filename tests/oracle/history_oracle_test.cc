/**
 * @file
 * Differential test of HistoryRegister (FlatMap of pool indices plus
 * a one-entry memo) against the seed's per-set node map
 * (tests/oracle/reference_history.hh). Branch-shaped op streams -
 * consult a branch's buffer, then push its target - run over every
 * sharing width and several depths, with resets dropped in. Each
 * reset is followed by a consultation of the branch just seen, the
 * case a stale memo would answer from a cleared pool.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/history_register.hh"
#include "oracle/reference_history.hh"

namespace ibp {
namespace {

TEST(HistoryOracleTest, RegisterMatchesNodeMapBank)
{
    std::mt19937 rng(0x415);
    for (const unsigned s : {2u, 3u, 4u, 8u, 12u, 20u, 31u, 32u}) {
        for (const unsigned depth : {0u, 1u, 3u, 8u}) {
            HistoryRegister history(depth, s);
            ReferenceHistory oracle(depth, s);
            // A small pool of word-aligned branch sites, so sets are
            // revisited and consecutive branches often share one.
            std::vector<Addr> sites;
            for (int i = 0; i < 48; ++i)
                sites.push_back(0x10000 + (rng() % 4096) * 4);

            Addr last = sites.front();
            for (int op = 0; op < 4000; ++op) {
                const bool reset = op % 509 == 508;
                if (reset) {
                    history.reset();
                    oracle.reset();
                }
                // After a reset, revisit the branch just seen.
                const Addr pc = reset ? last : sites[rng() % sites.size()];
                const HistoryBuffer &buffer = history.buffer(pc);
                const HistoryBuffer &expected = oracle.buffer(pc);
                ASSERT_EQ(history.touchedSets(), oracle.touchedSets())
                    << "s=" << s << " depth=" << depth << " op " << op;
                ASSERT_EQ(buffer.depth(), expected.depth());
                for (unsigned i = 0; i < depth; ++i) {
                    ASSERT_EQ(buffer.at(i), expected.at(i))
                        << "s=" << s << " depth=" << depth << " op "
                        << op << " slot " << i;
                }
                const Addr target = 0x40000 + (rng() % 512) * 4;
                history.push(pc, target);
                oracle.push(pc, target);
                last = pc;
            }
        }
    }
}

} // namespace
} // namespace ibp
