/**
 * @file
 * Randomized property tests for the per-hop transport layer
 * (noc/port.hh, noc/network.hh), in the spirit of tests/sweep_test.cc:
 * under seeded random traffic — arbitrary (src, dst) pairs, message
 * types, and injection times — delivery order per (src, dst) must stay
 * FIFO, every message must be delivered exactly once, and two identical
 * runs must agree bit-for-bit on the full delivery schedule and every
 * reported statistic. The arrival-slab tests check that every parked
 * arrival closure runs exactly once and that none leaks, whether the
 * run drains or the Network is destroyed with messages in flight.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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

/** Counts its live instances (moved-from ones included) so a test can
 *  prove every closure capturing one was destroyed. */
struct Tracked
{
    static inline std::atomic<long> live{0};
    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked() { --live; }
};

/** Inject `count` random messages from engine events in [0, 5000); the
 *  i-th arrival closure captures a Tracked and bumps runs[i]. */
void
injectTracked(Engine &e, Network &net, const SystemConfig &cfg,
              std::uint64_t seed, std::size_t count,
              std::vector<std::uint32_t> &runs)
{
    Rng rng(seed);
    runs.assign(count, 0);
    const std::uint32_t gpms = cfg.totalGpms();
    for (std::size_t i = 0; i < count; ++i) {
        const auto src = static_cast<GpmId>(rng.below(gpms));
        auto dst = static_cast<GpmId>(rng.below(gpms - 1));
        if (dst >= src)
            ++dst;
        const auto type = static_cast<MsgType>(rng.below(kNumMsgTypes));
        e.scheduleAt(rng.below(5000), [&net, &runs, src, dst, type, i]() {
            net.inject({.src = src,
                        .dst = dst,
                        .type = type,
                        .onArrival = [&runs, i, t = Tracked{}]() {
                            (void)t;
                            ++runs[i];
                        }});
        });
    }
}

TEST(ArrivalSlab, EveryParkedClosureRunsExactlyOnce)
{
    SystemConfig cfg;
    std::vector<std::uint32_t> runs;
    {
        Engine e;
        Network net(e, cfg);
        injectTracked(e, net, cfg, 5, 4000, runs);
        e.run();
        EXPECT_EQ(net.messagesDelivered(), runs.size());
        EXPECT_EQ(Tracked::live.load(), 0);
    }
    for (std::size_t i = 0; i < runs.size(); ++i)
        ASSERT_EQ(runs[i], 1u) << "closure " << i;
}

TEST(ArrivalSlab, ArrivalClosuresMayInject)
{
    // An arrival closure that injects parks a new closure while its own
    // slot is being released: a ping-pong chain of 200 round trips must
    // complete, one arrival per delivered message.
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    std::uint32_t arrivals = 0;
    std::function<void(GpmId, GpmId, int)> send =
        [&](GpmId src, GpmId dst, int left) {
            net.inject({.src = src,
                        .dst = dst,
                        .type = MsgType::ReadReq,
                        .onArrival = [&, src, dst, left]() {
                            ++arrivals;
                            if (left > 0)
                                send(dst, src, left - 1);
                        }});
        };
    e.scheduleAt(0, [&]() {
        send(0, 5, 399);
        send(1, 2, 399);
    });
    e.run();
    EXPECT_EQ(arrivals, 800u);
    EXPECT_EQ(net.messagesDelivered(), 800u);
}

TEST(ArrivalSlab, DestroyingNetworkInFlightFreesParkedClosures)
{
    SystemConfig cfg;
    std::vector<std::uint32_t> runs;
    Engine e;
    auto net = std::make_unique<Network>(e, cfg);
    injectTracked(e, *net, cfg, 9, 4000, runs);
    e.run(2500);
    std::uint32_t ran = 0;
    for (std::uint32_t r : runs)
        ran += r;
    ASSERT_GT(ran, 0u);
    ASSERT_GT(Tracked::live.load(), 0) << "nothing left in flight";
    net.reset(); // the engine still holds pending events; never run them
    EXPECT_EQ(Tracked::live.load(), 0);
}

} // namespace
} // namespace hmg
