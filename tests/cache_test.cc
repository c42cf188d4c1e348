/**
 * @file
 * Unit tests for the set-associative tag array and the write-through
 * cache model (L1/L2 storage behaviour), plus a differential test of
 * the packed, epoch-stamped TagArray against a plain array-of-structs
 * reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"
#include "common/rng.hh"

namespace hmg
{
namespace
{

TEST(TagArray, InsertAndLookup)
{
    TagArray t(/*sets=*/4, /*ways=*/2, /*line=*/128);
    EXPECT_FALSE(t.lookup(0x100));
    TagArray::Line l = t.insert(0x100);
    l.version() = 7;
    TagArray::Line found = t.lookup(0x100);
    ASSERT_TRUE(found);
    EXPECT_EQ(found.version(), 7u);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(TagArray, LruVictimSelection)
{
    TagArray t(1, 2, 128);
    t.insert(0x000);
    t.insert(0x080);
    // Touch line 0 so line 0x080 becomes LRU.
    t.lookup(0x000);
    CacheLine evicted;
    t.insert(0x100, &evicted);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.addr, 0x080u);
    EXPECT_TRUE(t.lookup(0x000));
    EXPECT_FALSE(t.lookup(0x080));
}

TEST(TagArray, ReinsertSameLineKeepsVersion)
{
    TagArray t(4, 2, 128);
    t.insert(0x100).version() = 3;
    CacheLine evicted;
    TagArray::Line l = t.insert(0x100, &evicted);
    EXPECT_FALSE(evicted.valid);
    EXPECT_EQ(l.version(), 3u);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(TagArray, InvalidateRangeAndAll)
{
    TagArray t(64, 4, 128);
    for (Addr a = 0; a < 64 * 128; a += 128)
        t.insert(a);
    EXPECT_EQ(t.validCount(), 64u);
    EXPECT_EQ(t.invalidateRange(0, 512), 4u);
    EXPECT_EQ(t.validCount(), 60u);
    EXPECT_EQ(t.invalidateAll(), 60u);
    EXPECT_EQ(t.validCount(), 0u);
}

TEST(TagArray, FromCapacityGeometry)
{
    TagArray t = TagArray::fromCapacity(3 * 1024 * 1024, 16, 128);
    EXPECT_EQ(t.numSets() * t.ways() * 128, 3u * 1024 * 1024);
    EXPECT_EQ(t.ways(), 16u);
}

TEST(TagArray, NonPowerOfTwoSets)
{
    // 3 MB / 128 B / 16 ways = 1536 sets — not a power of two; the
    // modulo indexing must still spread lines over all sets.
    TagArray t = TagArray::fromCapacity(3 * 1024 * 1024, 16, 128);
    for (std::uint64_t i = 0; i < t.numSets() * t.ways(); ++i)
        t.insert(i * 128);
    EXPECT_EQ(t.validCount(), t.numSets() * t.ways());
}

TEST(Cache, LoadHitMiss)
{
    Cache c(1024 * 128, 4, 128, /*write_allocate=*/true);
    EXPECT_FALSE(c.load(0x100).hit);
    c.fill(0x100, 42);
    auto r = c.load(0x100);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.version, 42u);
    EXPECT_EQ(c.loads(), 2u);
    EXPECT_EQ(c.loadHits(), 1u);
}

TEST(Cache, WriteAllocatePolicy)
{
    Cache wa(1024 * 128, 4, 128, true);
    EXPECT_TRUE(wa.store(0x100, 1));
    EXPECT_TRUE(wa.load(0x100).hit);

    Cache nwa(1024 * 128, 4, 128, false);
    EXPECT_FALSE(nwa.store(0x100, 1));
    EXPECT_FALSE(nwa.load(0x100).hit);
    // But stores update a present copy.
    nwa.fill(0x100, 1);
    EXPECT_TRUE(nwa.store(0x100, 2));
    EXPECT_EQ(nwa.load(0x100).version, 2u);
}

TEST(Cache, StoreVersionNeverRegresses)
{
    Cache c(1024 * 128, 4, 128, true);
    c.store(0x100, 10);
    c.store(0x100, 5);
    EXPECT_EQ(c.load(0x100).version, 10u);
    c.fill(0x100, 3);
    EXPECT_EQ(c.load(0x100).version, 10u);
}

TEST(Cache, InvalidateCounts)
{
    Cache c(1024 * 128, 4, 128, true);
    for (Addr a = 0; a < 16 * 128; a += 128)
        c.fill(a, 1);
    EXPECT_EQ(c.invalidateRange(0, 512), 4u);
    EXPECT_EQ(c.invalidateAll(), 12u);
    EXPECT_EQ(c.invalidatedLines(), 16u);
    EXPECT_EQ(c.bulkInvalidations(), 1u);
    EXPECT_FALSE(c.invalidateLine(0));
}

TEST(Cache, EvictionHookFires)
{
    // One set, two ways: the third distinct line evicts.
    Cache c(2 * 128, 2, 128, true);
    std::vector<Addr> evicted;
    c.setEvictionHook(
        [&](const CacheLine &l) { evicted.push_back(l.addr); });
    c.fill(0x0000, 1);
    c.fill(0x1000, 2); // same set (capacity 1 set)
    c.fill(0x2000, 3);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x0000u);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, StatsReport)
{
    Cache c(1024 * 128, 4, 128, true);
    c.fill(0, 1);
    c.load(0);
    c.load(128);
    StatRecorder r;
    c.reportStats(r, "l2");
    EXPECT_DOUBLE_EQ(r.get("l2.loads"), 2);
    EXPECT_DOUBLE_EQ(r.get("l2.load_hits"), 1);
    EXPECT_DOUBLE_EQ(r.get("l2.fills"), 1);
}

// ---------------------------------------------------------------------
// Differential: TagArray (structure of arrays, per-set epochs) against
// the array-of-structs reference below, which walks every line the way
// a naive tag array does. Every observable — hits, versions, dirty
// flags, evicted victims, dropped lines, validCount, and forEachValid's
// set-major, way-minor order — must agree step by step.
// ---------------------------------------------------------------------

/** Array-of-structs reference: one struct per line, O(lines) bulk ops. */
class RefTags
{
  public:
    struct Slot
    {
        Addr addr = 0;
        bool valid = false;
        bool dirty = false;
        Version version = 0;
        std::uint64_t lru = 0;
    };

    RefTags(std::uint64_t sets, std::uint32_t ways, std::uint32_t line)
        : sets_(sets), ways_(ways), line_(line), lines_(sets * ways)
    {
    }

    Slot *
    find(Addr a)
    {
        Slot *base = &lines_[(a / line_) % sets_ * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].addr == a)
                return &base[w];
        return nullptr;
    }

    Slot *
    lookup(Addr a)
    {
        Slot *s = find(a);
        if (s)
            s->lru = next_lru_++;
        return s;
    }

    Slot *
    insert(Addr a, CacheLine *evicted)
    {
        evicted->valid = false;
        if (Slot *s = lookup(a))
            return s;
        Slot *base = &lines_[(a / line_) % sets_ * ways_];
        Slot *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Slot &s = base[w];
            if (!s.valid) {
                if (!victim || victim->valid)
                    victim = &s;
            } else if (!victim || (victim->valid && s.lru < victim->lru)) {
                victim = &s;
            }
        }
        if (victim->valid)
            *evicted = toLine(*victim);
        *victim = Slot{a, true, false, 0, next_lru_++};
        return victim;
    }

    bool
    invalidate(Addr a, CacheLine *dropped)
    {
        Slot *s = find(a);
        if (!s)
            return false;
        *dropped = toLine(*s);
        s->valid = false;
        return true;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t n = 0;
        for (Slot &s : lines_) {
            n += s.valid;
            s.valid = false;
        }
        return n;
    }

    std::vector<CacheLine>
    valid() const
    {
        std::vector<CacheLine> out;
        for (const Slot &s : lines_)
            if (s.valid)
                out.push_back(toLine(s));
        return out;
    }

    static CacheLine
    toLine(const Slot &s)
    {
        return {s.addr, true, s.dirty, s.version};
    }

  private:
    std::uint64_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_;
    std::vector<Slot> lines_;
    std::uint64_t next_lru_ = 1;
};

bool
sameLine(const CacheLine &a, const CacheLine &b)
{
    if (a.valid != b.valid)
        return false;
    return !a.valid || (a.addr == b.addr && a.dirty == b.dirty &&
                        a.version == b.version);
}

std::vector<CacheLine>
validLines(const TagArray &t)
{
    std::vector<CacheLine> out;
    t.forEachValid([&](const CacheLine &l) { out.push_back(l); });
    return out;
}

void
expectSameContents(const TagArray &t, const RefTags &ref)
{
    const std::vector<CacheLine> got = validLines(t);
    const std::vector<CacheLine> want = ref.valid();
    ASSERT_EQ(t.validCount(), want.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(sameLine(got[i], want[i]))
            << "forEachValid differs at position " << i << ": addr "
            << got[i].addr << " vs " << want[i].addr;
}

/** One random operation applied to both arrays, compared. */
void
stepBoth(TagArray &t, RefTags &ref, Rng &rng, std::uint64_t lines_in_pool,
         std::uint32_t line, Version &next_version)
{
    const Addr a = rng.below(lines_in_pool) * line;
    switch (rng.below(8)) {
      case 0:
      case 1: { // lookup, sometimes writing through the handle
        TagArray::Line got = t.lookup(a);
        RefTags::Slot *want = ref.lookup(a);
        ASSERT_EQ(static_cast<bool>(got), want != nullptr);
        if (!want)
            break;
        ASSERT_EQ(got.version(), want->version);
        ASSERT_EQ(got.dirty(), want->dirty);
        if (rng.chance(0.5)) {
            got.version() = want->version = ++next_version;
            const bool dirty = rng.chance(0.5);
            got.setDirty(dirty);
            want->dirty = dirty;
        }
        break;
      }
      case 2:
      case 3: { // insert (evicting when the set is full)
        CacheLine got_ev, want_ev;
        got_ev.valid = true; // insert must clear it
        TagArray::Line got = t.insert(a, &got_ev);
        RefTags::Slot *want = ref.insert(a, &want_ev);
        ASSERT_TRUE(sameLine(got_ev, want_ev))
            << "victim " << got_ev.addr << " vs " << want_ev.addr;
        ASSERT_EQ(got.version(), want->version);
        ASSERT_EQ(got.dirty(), want->dirty);
        got.version() = want->version = ++next_version;
        const bool dirty = rng.chance(0.3);
        got.setDirty(dirty);
        want->dirty = dirty;
        break;
      }
      case 4: { // invalidate one line
        CacheLine got_dr, want_dr;
        const bool got = t.invalidate(a, &got_dr);
        ASSERT_EQ(got, ref.invalidate(a, &want_dr));
        if (got) {
            ASSERT_TRUE(sameLine(got_dr, want_dr));
        }
        break;
      }
      case 5: { // invalidate a short range
        const std::uint64_t n = 1 + rng.below(4);
        std::uint64_t want = 0;
        CacheLine dr;
        for (std::uint64_t i = 0; i < n; ++i)
            want += ref.invalidate(a + i * line, &dr);
        ASSERT_EQ(t.invalidateRange(a, n * line), want);
        break;
      }
      case 6: { // peek
        const std::optional<CacheLine> got = t.peek(a);
        const RefTags::Slot *want = ref.find(a);
        ASSERT_EQ(got.has_value(), want != nullptr);
        if (want) {
            ASSERT_TRUE(sameLine(*got, RefTags::toLine(*want)));
        }
        break;
      }
      default: // bulk invalidation, rarer
        if (rng.chance(0.25)) {
            ASSERT_EQ(t.invalidateAll(), ref.invalidateAll());
        }
        break;
    }
}

TEST(TagArrayDifferential, RandomStreamsMatchReference)
{
    struct Shape
    {
        std::uint64_t sets;
        std::uint32_t ways;
        std::uint64_t pool; // distinct lines addressed
    };
    // Power-of-two and odd set counts, direct-mapped to 16-way, pools
    // from under capacity to several times over it.
    const Shape shapes[] = {{4, 4, 24},  {3, 2, 20}, {1, 8, 12},
                            {16, 1, 40}, {5, 16, 200}, {8, 4, 20}};
    for (const Shape &sh : shapes) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << sh.sets << "x" << sh.ways << " pool "
                         << sh.pool << " seed " << seed);
            TagArray t(sh.sets, sh.ways, 128);
            RefTags ref(sh.sets, sh.ways, 128);
            Rng rng(seed);
            Version v = 0;
            for (int step = 0; step < 4000; ++step) {
                ASSERT_NO_FATAL_FAILURE(
                    stepBoth(t, ref, rng, sh.pool, 128, v));
                ASSERT_EQ(t.validCount(), ref.valid().size());
                if (step % 64 == 0) {
                    ASSERT_NO_FATAL_FAILURE(expectSameContents(t, ref));
                }
            }
            ASSERT_NO_FATAL_FAILURE(expectSameContents(t, ref));
        }
    }
}

TEST(TagArrayDifferential, EpochWrapKeepsStaleSetsEmpty)
{
    // Line A sits alone in set 0 while set 1 is refilled and the array
    // is bulk-invalidated over 2^17 times: the 16-bit epoch wraps twice,
    // and A's set, stamped once and never touched again, must stay
    // empty across every wrap.
    TagArray t(2, 2, 128);
    RefTags ref(2, 2, 128);
    const Addr a = 0;       // set 0
    const Addr b = 128;     // set 1
    CacheLine ev;
    t.insert(a).version() = 9;
    ref.insert(a, &ev)->version = 9;
    for (std::uint32_t i = 0; i < 2 * 65536 + 10; ++i) {
        ASSERT_EQ(t.invalidateAll(), ref.invalidateAll()) << "call " << i;
        ASSERT_FALSE(t.peek(a)) << "stale line resurrected at call " << i;
        ASSERT_FALSE(t.lookup(b));
        t.insert(b).version() = i;
        ref.insert(b, &ev)->version = i;
        ASSERT_EQ(t.validCount(), 1u);
    }
    ASSERT_NO_FATAL_FAILURE(expectSameContents(t, ref));
}

TEST(TagArrayDifferential, RandomStreamsAcrossEpochWraps)
{
    // A tiny array whose every fourth operation is a bulk invalidation,
    // run long enough for the epoch to wrap.
    TagArray t(3, 2, 128);
    RefTags ref(3, 2, 128);
    Rng rng(77);
    Version v = 0;
    std::uint64_t bulk = 0;
    CacheLine ev, dr;
    while (bulk < 70000) {
        const Addr a = rng.below(10) * 128;
        switch (rng.below(4)) {
          case 0: {
            CacheLine got_ev;
            TagArray::Line got = t.insert(a, &got_ev);
            RefTags::Slot *want = ref.insert(a, &ev);
            ASSERT_TRUE(sameLine(got_ev, ev));
            got.version() = want->version = ++v;
            break;
          }
          case 1:
            ASSERT_EQ(static_cast<bool>(t.lookup(a)),
                      ref.lookup(a) != nullptr);
            break;
          case 2:
            ASSERT_EQ(t.invalidate(a), ref.invalidate(a, &dr));
            break;
          default:
            ASSERT_EQ(t.invalidateAll(), ref.invalidateAll());
            ++bulk;
            break;
        }
        if (bulk % 4096 == 0) {
            ASSERT_NO_FATAL_FAILURE(expectSameContents(t, ref));
        }
    }
    ASSERT_NO_FATAL_FAILURE(expectSameContents(t, ref));
}

/**
 * Reference write-back Cache over RefTags: the storage rules of
 * cache/cache.cc (store/fill version ordering, dirty marking, eviction
 * hook, dirty flush, range collect) on the naive array.
 */
class RefCache
{
  public:
    RefCache(std::uint64_t sets, std::uint32_t ways, bool write_allocate)
        : tags(sets, ways, 128), write_allocate_(write_allocate)
    {
    }

    std::optional<Version>
    load(Addr a)
    {
        RefTags::Slot *s = tags.lookup(a);
        return s ? std::optional<Version>(s->version) : std::nullopt;
    }

    bool
    store(Addr a, Version v, bool mark_dirty, bool serialized)
    {
        if (RefTags::Slot *s = tags.lookup(a)) {
            if (serialized || s->version < v)
                s->version = v;
            s->dirty = s->dirty || mark_dirty;
            return true;
        }
        if (!write_allocate_)
            return false;
        RefTags::Slot *s = insert(a);
        s->version = v;
        s->dirty = mark_dirty;
        return true;
    }

    void
    fill(Addr a, Version v)
    {
        RefTags::Slot *s = insert(a);
        if (s->version < v)
            s->version = v;
    }

    std::vector<CacheLine> evicted;
    RefTags tags;

  private:
    RefTags::Slot *
    insert(Addr a)
    {
        CacheLine ev;
        RefTags::Slot *s = tags.insert(a, &ev);
        if (ev.valid)
            evicted.push_back(ev);
        return s;
    }

    bool write_allocate_;
};

TEST(TagArrayDifferential, CacheStoreFillFlushMatchReference)
{
    for (const bool wa : {true, false}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "write_allocate " << wa << " seed " << seed);
            Cache c(6 * 4 * 128, 4, 128, wa); // 6 sets x 4 ways
            RefCache ref(6, 4, wa);
            std::vector<CacheLine> evicted;
            c.setEvictionHook(
                [&](const CacheLine &l) { evicted.push_back(l); });
            Rng rng(seed);
            Version v = 0;
            for (int step = 0; step < 3000; ++step) {
                const Addr a = rng.below(60) * 128;
                switch (rng.below(7)) {
                  case 0:
                  case 1: {
                    const Cache::LoadResult got = c.load(a);
                    const std::optional<Version> want = ref.load(a);
                    ASSERT_EQ(got.hit, want.has_value());
                    if (got.hit) {
                        ASSERT_EQ(got.version, *want);
                    }
                    break;
                  }
                  case 2:
                  case 3: {
                    // Versions sometimes regress, to exercise both
                    // store orders.
                    const Version sv =
                        rng.chance(0.2) ? rng.below(v + 1) : ++v;
                    const bool dirty = rng.chance(0.5);
                    const bool ser = rng.chance(0.3);
                    ASSERT_EQ(c.store(a, sv, dirty, ser),
                              ref.store(a, sv, dirty, ser));
                    break;
                  }
                  case 4: {
                    const Version fv =
                        rng.chance(0.2) ? rng.below(v + 1) : ++v;
                    c.fill(a, fv);
                    ref.fill(a, fv);
                    break;
                  }
                  case 5: { // range collect of dirty victims
                    std::vector<CacheLine> got;
                    const std::uint64_t n =
                        c.invalidateRangeCollect(a, 4 * 128, got);
                    ASSERT_EQ(n, got.size());
                    CacheLine dr;
                    std::size_t k = 0;
                    for (Addr x = a; x < a + 4 * 128; x += 128) {
                        if (!ref.tags.invalidate(x, &dr))
                            continue;
                        ASSERT_LT(k, got.size());
                        ASSERT_TRUE(sameLine(got[k++], dr));
                    }
                    ASSERT_EQ(k, got.size());
                    break;
                  }
                  default: { // dirty flush, then sometimes a bulk drop
                    std::vector<CacheLine> got;
                    c.flushDirty([&](CacheLine l) { got.push_back(l); });
                    std::vector<CacheLine> want;
                    for (const CacheLine &l : ref.tags.valid()) {
                        if (l.dirty) {
                            want.push_back(l);
                            ref.tags.find(l.addr)->dirty = false;
                        }
                    }
                    ASSERT_EQ(got.size(), want.size());
                    for (std::size_t i = 0; i < got.size(); ++i)
                        ASSERT_TRUE(sameLine(got[i], want[i]));
                    if (rng.chance(0.3)) {
                        ASSERT_EQ(c.invalidateAll(),
                                  ref.tags.invalidateAll());
                    }
                    break;
                  }
                }
                ASSERT_EQ(evicted.size(), ref.evicted.size());
                for (std::size_t i = 0; i < evicted.size(); ++i)
                    ASSERT_TRUE(sameLine(evicted[i], ref.evicted[i]));
            }
            ASSERT_NO_FATAL_FAILURE(expectSameContents(c.tags(), ref.tags));
            EXPECT_EQ(c.dirtyLines(),
                      [&] {
                          std::uint64_t n = 0;
                          for (const CacheLine &l : ref.tags.valid())
                              n += l.dirty;
                          return n;
                      }());
        }
    }
}

} // namespace
} // namespace hmg
