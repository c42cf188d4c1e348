/**
 * @file
 * SM front-end tests: warp execution order, L1 behaviour (hit/miss,
 * scoped-load bypass, acquire invalidation), store-buffer forwarding,
 * MSHR throttling, warp parking and CTA slot reuse — driven through the
 * real scheduler with hand-built traces, or straight into one SM.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/simulator.hh"
#include "gpu/system.hh"
#include "test_system.hh"
#include "trace/trace.hh"

namespace hmg
{
namespace
{

using trace::Cta;
using trace::Kernel;
using trace::Trace;
using trace::Warp;

Trace
oneCtaTrace(Warp warp)
{
    Trace t;
    t.name = "test";
    Kernel k;
    k.name = "k";
    Cta cta;
    cta.warps.push_back(std::move(warp));
    k.ctas.push_back(std::move(cta));
    t.kernels.push_back(std::move(k));
    return t;
}

SimResult
runTrace(Protocol p, const Trace &t)
{
    Simulator sim(testing::smallConfig(p));
    return sim.run(t);
}

TEST(Sm, ExecutesAllOps)
{
    Warp w;
    for (int i = 0; i < 20; ++i)
        w.ld(i * 128, 2);
    for (int i = 0; i < 10; ++i)
        w.st(i * 128, 2);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"), 30);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.loads"), 20);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.stores"), 10);
    EXPECT_GT(res.cycles, 0u);
}

TEST(Sm, L1CapturesReuse)
{
    // Loads are posted (non-blocking), so a draining .cta fence between
    // repetitions guarantees the fills have landed before the re-reads.
    Warp w;
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < 4; ++i)
            w.ld(i * 128, 1);
        w.acqFence(Scope::Cta, 1);
    }
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    // 4 cold misses, 28 L1 hits.
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.loads"), 32);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 28);
}

TEST(Sm, ScopedLoadsMissTheL1)
{
    Warp w;
    w.ld(0, 1);                // cold miss, fills L1
    w.acqFence(Scope::Cta, 1); // drain so the fill lands
    w.ld(0, 1);                // L1 hit
    w.ld(0, 1, Scope::Gpu);    // must bypass the L1
    w.ld(0, 1, Scope::Sys);    // must bypass the L1
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    // Only the None-scoped loads consult the L1.
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.loads"), 2);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 1);
}

TEST(Sm, StoreBufferForwardsOwnWrite)
{
    // A load immediately after the warp's own store must see it even
    // though the write-through is still in flight.
    Warp w;
    w.ld(0, 1);  // seed the line
    w.st(0, 1);
    w.ld(0, 0);  // zero delay: the write-through cannot have finished
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_GE(res.stats.get("sm_total.sb_forwards") +
                  res.stats.get("sm_total.l1.load_hits"),
              1.0);
}

TEST(Sm, AcquireInvalidatesL1)
{
    Warp w;
    w.ld(0, 1);              // fill L1
    w.acqFence(Scope::Gpu, 1);
    w.ld(0, 1);              // must miss the (now empty) L1
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 0);
    EXPECT_GE(res.stats.get("sm_total.l1.bulk_invalidations"), 1.0);
}

TEST(Sm, AtomicsBlockAndComplete)
{
    Warp w;
    for (int i = 0; i < 8; ++i)
        w.atom(i * 128, Scope::Gpu, 2);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.atomics"), 8);
}

TEST(Sm, ManyOutstandingLoadsComplete)
{
    // More loads than the MSHR budget: the throttle must queue and
    // drain, not deadlock or drop.
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    cfg.smMaxOutstanding = 4;
    Trace t;
    Kernel k;
    Cta cta;
    for (int wi = 0; wi < 4; ++wi) {
        Warp w;
        for (int i = 0; i < 64; ++i)
            w.ld((wi * 64 + i) * 128, 0);
        cta.warps.push_back(std::move(w));
    }
    k.ctas.push_back(std::move(cta));
    t.kernels.push_back(std::move(k));
    Simulator sim(cfg);
    auto res = sim.run(t);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.loads"), 256);
}

TEST(Sm, ReleaseStoreOrdersAfterPriorWrites)
{
    // st data; st.release flag — by trace completion everything must
    // have drained; this exercises the release path through the SM.
    Warp w;
    w.st(0, 1);
    w.st(0x200000, 1, Scope::Sys, /*release=*/true);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.stores"), 2);
    EXPECT_GE(res.stats.get("protocol.releases"), 1.0);
}

TEST(Sm, LatencyHidingAcrossWarps)
{
    // 8 warps of independent loads should take far less than 8x one
    // warp's serial time.
    auto serial = [&](int warps) {
        Trace t;
        Kernel k;
        Cta cta;
        for (int wi = 0; wi < warps; ++wi) {
            Warp w;
            for (int i = 0; i < 32; ++i)
                w.ld((wi * 32 + i) * 128, 0);
            cta.warps.push_back(std::move(w));
        }
        k.ctas.push_back(std::move(cta));
        t.kernels.push_back(std::move(k));
        Simulator sim(testing::smallConfig(Protocol::Hmg));
        return sim.run(t).cycles;
    };
    Tick one = serial(1);
    Tick eight = serial(8);
    EXPECT_LT(eight, 3 * one);
}

// ------------------------------------------------ parking and slot reuse

/**
 * Multi-CTA kernels whose warps mix posted and acquire loads, stores
 * followed by loads of the same line, atomics, release stores and
 * fences. CTAs of one to three warps on SMs with four warp slots keep
 * retiring and re-filling each SM's warp and CTA slots.
 */
Trace
parkAndSlotTrace()
{
    Trace t;
    t.name = "park";
    for (int k = 0; k < 2; ++k) {
        Kernel kern;
        kern.name = "k";
        for (int c = 0; c < 24; ++c) {
            Cta cta;
            for (int wi = 0; wi < 1 + c % 3; ++wi) {
                Warp w;
                for (int i = 0; i < 12; ++i) {
                    const Addr shared = static_cast<Addr>((c + i) % 8) * 128;
                    const Addr own =
                        0x100000 + static_cast<Addr>(c * 4 + wi) * 128;
                    switch ((i + wi + k) % 6) {
                      case 0:
                        w.ld(shared, 0);
                        break;
                      case 1:
                        w.st(own, 1);
                        w.ld(own, 0);
                        break;
                      case 2:
                        w.ld(shared + 0x4000, 0, Scope::Gpu, true);
                        break;
                      case 3:
                        w.atom(own + 0x8000, Scope::Gpu, 2, true);
                        break;
                      case 4:
                        w.st(shared + 0x10000, 1, Scope::Gpu, true);
                        break;
                      case 5:
                        w.ld(shared, 0);
                        w.relFence(Scope::Cta, 1);
                        w.acqFence(Scope::Gpu, 1);
                        break;
                    }
                }
                cta.warps.push_back(std::move(w));
            }
            kern.ctas.push_back(std::move(cta));
        }
        t.kernels.push_back(std::move(kern));
    }
    return t;
}

struct ParkCell
{
    Protocol protocol;
    std::uint32_t maxOutstanding;
    std::uint32_t maxInflightLoads;
    // Recorded from the std::function/shared_ptr front end that the
    // slab-indexed one replaced: the same schedule must reproduce them.
    double cycles;
    double events;
    double sbForwards;
    double mshrMerges;
};

TEST(Sm, ParkAndSlotPathsKeepTheSchedule)
{
    const ParkCell cells[] = {
        {Protocol::Hmg, 2, 1, 66489, 12067, 159, 60},
        {Protocol::Nhcc, 2, 1, 71470, 13904, 156, 15},
        {Protocol::SwHier, 3, 2, 77328, 13051, 192, 208},
        {Protocol::Hmg, 64, 24, 31688, 11224, 192, 93},
    };
    const Trace t = parkAndSlotTrace();
    for (const ParkCell &cell : cells) {
        SCOPED_TRACE(toString(cell.protocol));
        SystemConfig cfg = testing::smallConfig(cell.protocol);
        cfg.maxWarpsPerSm = 4;
        cfg.smMaxOutstanding = cell.maxOutstanding;
        cfg.warpMaxInflightLoads = cell.maxInflightLoads;
        Simulator sim(cfg);
        const auto res = sim.run(t);
        EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"),
                         static_cast<double>(t.memOps()));
        EXPECT_DOUBLE_EQ(static_cast<double>(res.cycles), cell.cycles);
        EXPECT_DOUBLE_EQ(res.stats.get("engine.events"), cell.events);
        EXPECT_DOUBLE_EQ(res.stats.get("sm_total.sb_forwards"),
                         cell.sbForwards);
        EXPECT_DOUBLE_EQ(res.stats.get("total.mshr_merges"),
                         cell.mshrMerges);
    }
}

TEST(Sm, EachCtaCompletesExactlyOnce)
{
    // CTAs go straight into one SM; each completion places the next CTA
    // from inside the callback, so freed warp and CTA slots are reused
    // re-entrantly. Warps without ops retire inside runCta.
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    cfg.maxWarpsPerSm = 4;
    cfg.smMaxOutstanding = 2;
    cfg.warpMaxInflightLoads = 1;
    System sys(cfg);
    Sm &sm = sys.sm(0);

    std::vector<Cta> ctas;
    std::uint64_t ops = 0;
    for (int c = 0; c < 16; ++c) {
        Cta cta;
        for (int wi = 0; wi < 1 + c % 4; ++wi) {
            Warp w;
            for (int i = 0; i < (c + wi) % 5; ++i) {
                const Addr line = static_cast<Addr>((c * 3 + wi + i) % 6) * 128;
                if (i % 2)
                    w.st(line, 1);
                w.ld(line, 0);
            }
            ops += w.ops.size();
            cta.warps.push_back(std::move(w));
        }
        ctas.push_back(std::move(cta));
    }

    std::vector<int> done(ctas.size(), 0);
    std::size_t next = 0;
    struct Feeder
    {
        Sm &sm;
        std::vector<Cta> &ctas;
        std::vector<int> &done;
        std::size_t &next;

        void
        feed()
        {
            while (next < ctas.size() && sm.canAccept(ctas[next])) {
                const std::size_t i = next++;
                sm.runCta(ctas[i], [this, i]() {
                    ++done[i];
                    feed();
                });
            }
        }
    } feeder{sm, ctas, done, next};
    feeder.feed();
    sys.engine().run();

    EXPECT_EQ(next, ctas.size());
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], 1) << "CTA " << i;
    EXPECT_EQ(sm.opsExecuted(), ops);
    EXPECT_EQ(sm.freeWarpSlots(), cfg.maxWarpsPerSm);
}

} // namespace
} // namespace hmg
