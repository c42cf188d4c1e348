/**
 * @file
 * Randomized property tests for the per-hop transport layer
 * (noc/port.hh, noc/network.hh), in the spirit of tests/sweep_test.cc:
 * under seeded random traffic — arbitrary (src, dst) pairs, message
 * types, and injection times — delivery order per (src, dst) must stay
 * FIFO, every message must be delivered exactly once, and two identical
 * runs must agree bit-for-bit on the full delivery schedule and every
 * reported statistic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "noc/message.hh"
#include "noc/network.hh"
#include "sim/engine.hh"

namespace hmg
{
namespace
{

struct Delivery
{
    Tick at;
    GpmId src;
    GpmId dst;
    std::uint32_t type;
    std::uint64_t seq; // per-(src,dst) injection sequence number

    bool
    operator==(const Delivery &o) const
    {
        return at == o.at && src == o.src && dst == o.dst &&
               type == o.type && seq == o.seq;
    }
};

struct RunResult
{
    std::vector<Delivery> deliveries;
    /** StatRecorder::toString(): exact, so string equality is bit
     *  equality of every stat. */
    std::string stats;
};

/**
 * Drive `count` random messages through a fresh Network: random source,
 * destination, and type, injected from engine events at random ticks so
 * injections interleave with in-flight traffic. Sequence numbers are
 * assigned per (src, dst) at injection time.
 */
RunResult
randomTraffic(std::uint64_t seed, std::size_t count)
{
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    Rng rng(seed);

    RunResult out;
    out.deliveries.reserve(count);
    const std::uint32_t gpms = cfg.totalGpms();
    std::vector<std::uint64_t> next_seq(gpms * gpms, 0);

    for (std::size_t i = 0; i < count; ++i) {
        const auto src = static_cast<GpmId>(rng.below(gpms));
        auto dst = static_cast<GpmId>(rng.below(gpms - 1));
        if (dst >= src)
            ++dst;
        const auto type =
            static_cast<MsgType>(rng.below(kNumMsgTypes));
        const Tick when = rng.below(5000);
        e.scheduleAt(when, [&e, &net, &next_seq, &out, src, dst, type,
                            gpms]() {
            const std::uint64_t seq = next_seq[src * gpms + dst]++;
            net.inject(
                {.src = src,
                 .dst = dst,
                 .type = type,
                 .onArrival = [&e, &out, src, dst, type, seq]() {
                     out.deliveries.push_back(
                         Delivery{e.now(), src, dst,
                                  static_cast<std::uint32_t>(type), seq});
                 }});
        });
    }
    e.run();

    StatRecorder r;
    net.reportStats(r, "noc");
    out.stats = r.toString();
    return out;
}

TEST(TransportProperty, RandomTrafficIsFifoPerPairAndLossless)
{
    for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        const std::size_t count = 4000;
        RunResult run = randomTraffic(seed, count);
        ASSERT_EQ(run.deliveries.size(), count) << "seed " << seed;

        SystemConfig cfg;
        const std::uint32_t gpms = cfg.totalGpms();
        std::vector<std::uint64_t> expect(gpms * gpms, 0);
        Tick prev = 0;
        for (const Delivery &d : run.deliveries) {
            // The engine delivers in time order, and within each
            // (src, dst) pair the injection sequence may never reorder,
            // whatever mix of sizes and contention the path saw.
            EXPECT_GE(d.at, prev);
            prev = d.at;
            std::uint64_t &next = expect[d.src * gpms + d.dst];
            EXPECT_EQ(d.seq, next)
                << "seed " << seed << ": pair " << int(d.src) << "->"
                << int(d.dst) << " reordered at tick " << d.at;
            ++next;
        }
    }
}

TEST(TransportProperty, IdenticalSeedsAreBitIdentical)
{
    const RunResult a = randomTraffic(42, 4000);
    const RunResult b = randomTraffic(42, 4000);
    ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
    for (std::size_t i = 0; i < a.deliveries.size(); ++i)
        ASSERT_TRUE(a.deliveries[i] == b.deliveries[i]) << "index " << i;
    // Every stat — per-port byte counts, utilizations, queue depths,
    // delay histograms — must also agree exactly: the dump prints each
    // value to round-trip precision, so equal strings mean equal bits.
    EXPECT_EQ(a.stats, b.stats);
}

TEST(TransportProperty, DifferentSeedsDiffer)
{
    // Sanity check that the property tests exercise distinct schedules
    // rather than one degenerate case.
    const RunResult a = randomTraffic(1, 2000);
    const RunResult b = randomTraffic(2, 2000);
    EXPECT_NE(a.stats, b.stats);
}

} // namespace
} // namespace hmg
