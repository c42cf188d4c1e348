/**
 * @file
 * The L2 MSHR (GpmNode::mshrRegister/mshrComplete) and the flat
 * LineTable behind it, each driven by random operation streams against
 * a std::map reference.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/line_table.hh"
#include "common/rng.hh"
#include "gpu/gpm.hh"

namespace hmg
{
namespace
{

TEST(LineTable, MatchesStdMap)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        LineTable<std::uint64_t> table;
        std::map<Addr, std::uint64_t> ref;
        std::size_t peak = 0;
        // A dense pool of line addresses (line 0 included) so probe
        // runs collide and wrap; phases alternate between growing and
        // draining the table.
        auto key = [&]() { return rng.below(700) * 128; };
        for (int step = 0; step < 40000; ++step) {
            const bool growing = (step / 5000) % 2 == 0;
            const std::uint64_t op = rng.below(10);
            const Addr k = key();
            if (op < (growing ? 6u : 3u)) {
                auto [v, inserted] = table.tryEmplace(k);
                ASSERT_EQ(inserted, ref.count(k) == 0);
                if (inserted) {
                    EXPECT_EQ(*v, 0u);
                    *v = rng.next();
                    ref[k] = *v;
                } else {
                    EXPECT_EQ(*v, ref[k]);
                }
            } else if (op < 8) {
                if (ref.erase(k))
                    table.erase(k);
            } else {
                const std::uint64_t *v = table.find(k);
                auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end());
                if (v) {
                    EXPECT_EQ(*v, it->second);
                }
            }
            ASSERT_EQ(table.size(), ref.size());
            peak = std::max(peak, ref.size());
            if (step % 1000 == 0) {
                for (const auto &[k2, v2] : ref)
                    ASSERT_TRUE(table.find(k2) && *table.find(k2) == v2);
            }
        }
        EXPECT_GE(table.capacity(), 2 * peak);
        EXPECT_GT(peak, 256u);
    }
}

/** A GpmNode's MSHR beside a reference of per-line waiter lists. */
class MshrHarness
{
  public:
    MshrHarness() : node_(engine_, cfg_, 0, /*with_directory=*/false) {}

    /** Register waiter `id` (the next one) for `line` on behalf of
     *  `via`; checks the primary/merge answer and the merge count. */
    void
    reg(Addr line, GpmId via)
    {
        const int id = static_cast<int>(via_of_.size());
        via_of_.push_back(via);
        const bool want_primary = ref_.count(line) == 0;
        ref_[line].push_back(id);
        if (!want_primary)
            ++merges_;
        const bool primary = node_.mshrRegister(
            line, via, [this, id, line](Version v) { fired(id, line, v); });
        EXPECT_EQ(primary, want_primary) << "waiter " << id;
        EXPECT_EQ(node_.mshrMerges(), merges_);
    }

    /** Complete `line`: exactly its waiters registered before the
     *  completion wake, in registration order, with their `via`. */
    void
    complete(Addr line)
    {
        std::vector<int> want;
        if (auto it = ref_.find(line); it != ref_.end()) {
            want = std::move(it->second);
            ref_.erase(it);
        }
        woken_.clear();
        std::vector<GpmId> vias;
        node_.mshrComplete(line, [&](GpmId via, GpmNode::MissCb cb) {
            vias.push_back(via);
            cb(versionOf(line));
        });
        ASSERT_EQ(woken_, want) << "line " << line;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(vias[i], via_of_[want[i]]);
        EXPECT_EQ(node_.mshrMerges(), merges_);
    }

    bool pending(Addr line) const { return ref_.count(line) != 0; }
    std::size_t pendingLines() const { return ref_.size(); }
    std::size_t reentered() const { return reentered_; }

  private:
    static Version versionOf(Addr line) { return line / 128 + 7; }

    void
    fired(int id, Addr line, Version v)
    {
        woken_.push_back(id);
        EXPECT_EQ(v, versionOf(line));
        // Every fifth wake-up asks for the same line again: it must
        // become the primary of a fresh entry, not join the entry being
        // completed (reg() checks the primary answer).
        if (id % 5 == 4) {
            ++reentered_;
            reg(line, static_cast<GpmId>(id % 16));
        }
    }

    Engine engine_;
    SystemConfig cfg_;
    GpmNode node_;
    std::map<Addr, std::vector<int>> ref_;
    std::vector<GpmId> via_of_;
    std::vector<int> woken_;
    std::uint64_t merges_ = 0;
    std::size_t reentered_ = 0;
};

TEST(Mshr, MatchesReferenceOnRandomStreams)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        MshrHarness h;
        std::size_t peak = 0;
        std::size_t unknown = 0;
        for (int step = 0; step < 30000; ++step) {
            // Phases of mostly registrations (the table and the waiter
            // pool grow past their initial sizes) and mostly
            // completions.
            const bool growing = (step / 3000) % 2 == 0;
            const Addr line = rng.below(600) * 128;
            if (rng.below(10) < (growing ? 7u : 3u)) {
                h.reg(line, static_cast<GpmId>(rng.below(16)));
            } else {
                unknown += !h.pending(line);
                h.complete(line);
            }
            peak = std::max(peak, h.pendingLines());
        }
        EXPECT_GT(peak, 64u);
        EXPECT_GT(unknown, 100u);
        EXPECT_GT(h.reentered(), 100u);
    }
}

TEST(Mshr, CompletingAnUnknownLineDoesNothing)
{
    MshrHarness h;
    h.complete(0);
    h.reg(128, 3);
    h.reg(128, 4);
    h.complete(256);
    EXPECT_TRUE(h.pending(128));
    h.complete(128);
    EXPECT_FALSE(h.pending(128));
    h.complete(128);
}

} // namespace
} // namespace hmg
