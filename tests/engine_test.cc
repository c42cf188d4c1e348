/**
 * @file
 * Unit tests for the event-driven simulation kernel.
 *
 * The (tick, insertion-order) determinism contract is exercised three
 * ways: directly (SameTickFifo and the overflow-boundary tests), across
 * the timing wheel's window-advance machinery (far-future events take
 * the overflow path), and differentially — a randomized dynamically
 * scheduling program is run on the Engine and on a reference
 * priority-queue implementation and must produce identical execution
 * sequences. Closure sizes range from one pointer to beyond a 4 KiB
 * record chunk, so records straddle chunk boundaries and the boxed
 * fallback is taken.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/engine.hh"

namespace hmg
{
namespace
{

/** Reference implementation: explicit (tick, seq) priority queue. */
class ReferenceEngine
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }
    void schedule(Tick delay, Callback cb)
    {
        queue_.push(Event{now_ + delay, seq_++, std::move(cb)});
    }
    void run()
    {
        while (!queue_.empty()) {
            auto &top = const_cast<Event &>(queue_.top());
            now_ = top.when;
            Callback cb = std::move(top.cb);
            queue_.pop();
            cb();
        }
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * Schedule `fire(id)` on `e` through a closure carrying `Pad` bytes of
 * payload, filled with a pattern of `id` that is checked when it runs —
 * a record overwritten or torn by the engine fails the check.
 */
template <std::size_t Pad, typename EngineT>
void
schedulePadded(EngineT &e, Tick delay,
               const std::function<void(int)> &fire, int id)
{
    std::array<unsigned char, Pad> pad;
    for (std::size_t i = 0; i < Pad; ++i)
        pad[i] = static_cast<unsigned char>(id + i);
    e.schedule(delay, [&fire, id, pad]() {
        for (std::size_t i = 0; i < Pad; ++i)
            EXPECT_EQ(pad[i], static_cast<unsigned char>(id + i))
                << "closure payload of event " << id;
        fire(id);
    });
}

/** A closure of exactly one pointer: the smallest record. */
struct Spawn
{
    const std::function<void(int)> *fire;
    int id;
};

/**
 * Schedule `fire(id)` through a closure whose size is picked by `rng`:
 * from one pointer (8 B) past a 4 KiB record chunk, including the sizes
 * either side of the largest record a chunk holds.
 */
template <typename EngineT>
void
scheduleRandomSize(EngineT &e, Rng &rng, Tick delay,
                   const std::function<void(int)> &fire, int id,
                   std::deque<Spawn> &spawns)
{
    switch (rng.below(11)) {
    case 0: {
        spawns.push_back(Spawn{&fire, id});
        const Spawn *s = &spawns.back();
        e.schedule(delay, [s]() { (*s->fire)(s->id); });
        break;
    }
    case 1: schedulePadded<4>(e, delay, fire, id); break;
    case 2: schedulePadded<36>(e, delay, fire, id); break;
    case 3: schedulePadded<100>(e, delay, fire, id); break;
    case 4: schedulePadded<230>(e, delay, fire, id); break;
    case 5: schedulePadded<700>(e, delay, fire, id); break;
    case 6: schedulePadded<1500>(e, delay, fire, id); break;
    case 7: schedulePadded<4040>(e, delay, fire, id); break;
    case 8: schedulePadded<4052>(e, delay, fire, id); break;
    case 9: schedulePadded<4060>(e, delay, fire, id); break;
    default: schedulePadded<6000>(e, delay, fire, id); break;
    }
}

/**
 * A randomized program where events spawn 0-2 children at mixed
 * near-future, same-tick and far-future (overflow-path) delays, each
 * through a closure of random size. Returns the (tick, id) execution
 * sequence.
 */
template <typename EngineT>
std::vector<std::pair<Tick, int>>
runRandomProgram(std::uint64_t seed)
{
    EngineT e;
    Rng rng(seed);
    std::vector<std::pair<Tick, int>> log;
    std::deque<Spawn> spawns;
    int next_id = 0;

    std::function<void(int)> fire = [&](int id) {
        log.emplace_back(e.now(), id);
        if (log.size() >= 4000)
            return;
        const auto kids = rng.below(3);
        for (std::uint64_t k = 0; k < kids; ++k) {
            const Tick d = rng.chance(0.15)   ? rng.range(15'000, 200'000)
                           : rng.chance(0.1) ? 0
                                             : rng.below(1'200);
            scheduleRandomSize(e, rng, d, fire, next_id++, spawns);
        }
    };
    for (int i = 0; i < 64; ++i)
        scheduleRandomSize(e, rng, rng.below(50'000), fire, next_id++,
                           spawns);
    e.run();
    return log;
}

/** Counts live copies of itself through a shared counter. */
struct LiveCounted
{
    explicit LiveCounted(int *live) : live(live) { ++*live; }
    LiveCounted(const LiveCounted &o) : live(o.live) { ++*live; }
    LiveCounted(LiveCounted &&o) noexcept : live(o.live) { ++*live; }
    LiveCounted &operator=(const LiveCounted &) = delete;
    ~LiveCounted() { --*live; }

    int *live;
};

TEST(Engine, StartsAtZero)
{
    Engine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&]() { order.push_back(3); });
    e.schedule(10, [&]() { order.push_back(1); });
    e.schedule(20, [&]() { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTickFifo)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule(5, [&order, i]() { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedScheduling)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() {
        ++fired;
        e.schedule(10, [&]() {
            ++fired;
            e.schedule(10, [&]() { ++fired; });
        });
    });
    e.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, RunUntilStopsEarly)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() { ++fired; });
    e.schedule(100, [&]() { ++fired; });
    e.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    e.run();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleAtAbsolute)
{
    Engine e;
    Tick seen = 0;
    e.scheduleAt(42, [&]() { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, ZeroDelayRunsAtCurrentTick)
{
    Engine e;
    Tick seen = 1234;
    e.schedule(7, [&]() {
        e.schedule(0, [&]() { seen = e.now(); });
    });
    e.run();
    EXPECT_EQ(seen, 7u);
}

TEST(Engine, CountsEvents)
{
    Engine e;
    for (int i = 0; i < 25; ++i)
        e.schedule(i, []() {});
    e.run();
    EXPECT_EQ(e.eventsExecuted(), 25u);
}

TEST(EngineDeath, PastSchedulingPanics)
{
    Engine e;
    e.schedule(10, [&]() {
        EXPECT_DEATH(e.scheduleAt(5, []() {}), "assertion");
    });
    e.run();
}

// Regression for the determinism contract across the wheel/overflow
// boundary: an event scheduled while its tick was beyond the wheel
// window (overflow path) must still run before a same-tick event
// scheduled later, after the window advanced over that tick.
TEST(Engine, SameTickFifoAcrossOverflowBoundary)
{
    Engine e;
    std::vector<int> order;
    const Tick far = 40'000;   // beyond the wheel window at schedule time
    e.scheduleAt(far, [&]() { order.push_back(1); });
    e.scheduleAt(far - 2'000, [&]() {
        // By now the window has advanced; `far` is inside the wheel and
        // this same-tick event must append *behind* the overflow one.
        e.scheduleAt(far, [&]() { order.push_back(2); });
    });
    e.scheduleAt(far, [&]() { order.push_back(3); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Engine, ManySameTickEventsAcrossOverflowStayFifo)
{
    Engine e;
    std::vector<int> order;
    const Tick far = 1'000'000;
    for (int i = 0; i < 1000; ++i)
        e.scheduleAt(far, [&order, i]() { order.push_back(i); });
    e.run();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(e.now(), far);
}

TEST(Engine, SparseFarJumps)
{
    Engine e;
    std::vector<Tick> seen;
    for (Tick t : {Tick{3}, Tick{70'000}, Tick{1} << 20, Tick{1} << 34})
        e.scheduleAt(t, [&seen, &e]() { seen.push_back(e.now()); });
    EXPECT_EQ(e.pending(), 4u);
    e.run();
    EXPECT_EQ(seen, (std::vector<Tick>{3, 70'000, Tick{1} << 20,
                                       Tick{1} << 34}));
    EXPECT_TRUE(e.empty());
}

TEST(Engine, RunUntilAcrossOverflowWindow)
{
    Engine e;
    int fired = 0;
    e.scheduleAt(100'000, [&]() { ++fired; });
    e.scheduleAt(200'000, [&]() { ++fired; });
    e.run(150'000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    e.run();
    EXPECT_EQ(fired, 2);
}

// Closures up to Engine::Callback's inline capacity must not touch the
// heap; bigger ones still work via the fallback.
TEST(Engine, CallbackInlineStorage)
{
    struct Small { unsigned char pad[96]; };
    struct Big { unsigned char pad[512]; };
    Engine::Callback small_cb([s = Small{}]() { (void)s; });
    Engine::Callback big_cb([b = Big{}]() { (void)b; });
    EXPECT_TRUE(small_cb.isInline());
    EXPECT_FALSE(big_cb.isInline());

    Engine e;
    int fired = 0;
    e.schedule(1, [&fired, s = Small{}]() { (void)s; ++fired; });
    e.schedule(2, [&fired, b = Big{}]() { (void)b; ++fired; });
    e.run();
    EXPECT_EQ(fired, 2);
}

// The differential check: Engine must replay the exact execution
// sequence of the reference (tick, seq) priority queue on randomized
// dynamically scheduling programs with closures of every record size.
TEST(Engine, MatchesReferenceEngineOnRandomPrograms)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xfeedu * 1ull, 7ull, 99ull}) {
        const auto expected = runRandomProgram<ReferenceEngine>(seed);
        const auto actual = runRandomProgram<Engine>(seed);
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(actual, expected) << "seed " << seed;
    }
}

// A drain that keeps appending same-tick events runs them in insertion
// order even when the appends fill several record chunks.
TEST(Engine, SameTickAppendsDuringDrainCrossChunks)
{
    Engine e;
    std::vector<int> order;
    std::array<unsigned char, 200> pad{};
    std::function<void(int)> step = [&](int i) {
        order.push_back(i);
        if (i < 300)
            e.schedule(0, [&step, i, pad]() { (void)pad; step(i + 1); });
    };
    e.schedule(5, [&]() {
        // 40 records of 232 bytes fill two chunks before this event
        // returns; the step chain then appends 300 more behind them.
        for (int k = 0; k < 40; ++k)
            e.schedule(0, [&order, k, pad]() {
                (void)pad;
                order.push_back(-1 - k);
            });
        step(0);
    });
    e.run();
    std::vector<int> expected;
    for (int k = 0; k < 40; ++k)
        expected.push_back(-1 - k);
    expected.insert(expected.begin() + 0, 0);
    for (int i = 1; i <= 300; ++i)
        expected.push_back(i);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(e.now(), 5u);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.eventsExecuted(), 1u + 40u + 300u);
}

// peekNext()/runOne() — the deterministic merge's interface — report
// and execute (tick, seq) in order while the records span many chunks
// and executed events append more same-tick ones behind them.
TEST(Engine, PeekAndRunOneAcrossChunks)
{
    Engine e;
    std::vector<std::pair<Tick, std::uint64_t>> seen;
    std::array<unsigned char, 500> pad{};
    int appended = 0;
    for (int i = 0; i < 60; ++i)
        e.scheduleAt(10 + i % 3, [&, pad]() {
            (void)pad;
            if (appended < 30) {
                ++appended;
                e.schedule(0, [pad]() { (void)pad; });
            }
        });
    Tick when;
    std::uint64_t seq;
    while (e.peekNext(when, seq)) {
        seen.emplace_back(when, seq);
        EXPECT_TRUE(e.runOne());
        EXPECT_EQ(e.now(), when);
    }
    EXPECT_FALSE(e.runOne());
    ASSERT_EQ(seen.size(), 90u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]) << "at " << i;
    // Tick 10 runs its 20 scheduled events, then the 20 they appended
    // (seq 60..79); tick 11 appends the other 10, tick 12 none.
    EXPECT_EQ(seen[20], (std::pair<Tick, std::uint64_t>{10, 60}));
    EXPECT_EQ(seen[39], (std::pair<Tick, std::uint64_t>{10, 79}));
    EXPECT_EQ(seen.back(), (std::pair<Tick, std::uint64_t>{12, 59}));
}

// A schedule below the resident window (possible only on an engine that
// has not run up to the window, as an idle PDES LP) spills the wheel back
// to the overflow list; the re-sweep keeps every event's (tick, seq).
TEST(Engine, SpillToOverflowPreservesTickAndSeq)
{
    Engine e;
    std::array<unsigned char, 300> pad{};
    std::vector<std::pair<Tick, std::uint64_t>> expected;
    std::uint64_t seq = 0;
    auto add = [&](Tick t, bool big) {
        if (big)
            e.scheduleAt(t, [pad]() { (void)pad; });
        else
            e.scheduleAt(t, []() {});
        expected.emplace_back(t, seq++);
    };
    for (int i = 0; i < 50; ++i)
        add(100'000 + i % 4, i % 2 == 0);
    add(300'000, false);
    Tick when;
    std::uint64_t s;
    // The peek sweeps the window to [100'000, 100'000 + 2^14).
    ASSERT_TRUE(e.peekNext(when, s));
    EXPECT_EQ(when, 100'000u);
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(e.now(), 0u);
    for (int i = 0; i < 30; ++i)
        add(50 + i % 5, i % 3 == 0);
    add(100'001, true);   // same tick as wheel events, behind them
    std::sort(expected.begin(), expected.end());
    std::vector<std::pair<Tick, std::uint64_t>> seen;
    while (e.peekNext(when, s)) {
        seen.emplace_back(when, s);
        e.runOne();
    }
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(e.eventsExecuted(), expected.size());
}

// Destroying an engine with pending events destroys every pending
// closure: in the wheel (several chunks, a partly drained bucket), in
// the overflow list, and boxed ones too large for a chunk.
TEST(Engine, DestructorDestroysPendingClosures)
{
    int live = 0;
    int ran = 0;
    {
        Engine e;
        std::array<unsigned char, 900> pad{};
        std::array<unsigned char, 5000> huge{};
        for (int i = 0; i < 20; ++i) {
            e.scheduleAt(7, [c = LiveCounted(&live), &ran, pad]() {
                (void)pad;
                ++ran;
            });
            e.scheduleAt(9 + i, [c = LiveCounted(&live)]() {});
            e.scheduleAt(1'000'000 + i, [c = LiveCounted(&live)]() {});
            e.scheduleAt(20 + i, [c = LiveCounted(&live), huge]() {
                (void)huge;
            });
        }
        EXPECT_EQ(live, 80);
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(e.runOne());
        EXPECT_EQ(ran, 6);
        EXPECT_EQ(live, 74);
        EXPECT_EQ(e.pending(), 74u);
    }
    EXPECT_EQ(live, 0);
    {
        Engine e;
        for (int i = 0; i < 10; ++i)
            e.scheduleAt(3 + i, [c = LiveCounted(&live)]() {});
        e.run(6);
        EXPECT_EQ(live, 6);
    }
    EXPECT_EQ(live, 0);
}

} // namespace
} // namespace hmg
