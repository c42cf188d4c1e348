/**
 * @file
 * Allocation gate: global operator new is replaced by a counting
 * version, and the count taken inside Simulator::run of a serial HMG
 * cell must stay under a per-memop bound. The SM front end, the MSHRs,
 * the event wheel and the drain ledgers recycle their storage, and the
 * invalidation and release-marker bookkeeping is counters and one join
 * per marker round, so what remains is mostly memory-state inserts,
 * closures that outgrow their inline buffers, and the run's constant
 * set-up and stats report.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <new>
#include <utility>

#include "gpu/simulator.hh"
#include "trace/workloads.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align ? std::aligned_alloc(align,
                                         (n + align - 1) / align * align)
                    : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hmg
{
namespace
{

struct AllocCell
{
    const char *workload;
    double scale;
    /** Bound on allocations per memop. The SM front end with a
     *  std::function per issue step and a shared_ptr per warp, and the
     *  unordered_map MSHR, made 3.98 (lstm) and 6.93 (mst); a
     *  shared_ptr invalidation job per home store and two target
     *  vectors per release made 0.84 and 3.18. */
    double maxPerMemop;
};

/** Heap allocations made inside Simulator::run, and the run's memops. */
std::pair<std::uint64_t, std::uint64_t>
allocsInRun(const AllocCell &cell)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::Hmg;
    const trace::Trace t =
        trace::workloads::make(cell.workload, cell.scale, 1);
    Simulator sim(cfg);
    g_allocs.store(0);
    g_counting.store(true);
    const SimResult res = sim.run(t);
    g_counting.store(false);
    return {g_allocs.load(), res.memOps};
}

TEST(AllocGate, SerialHmgRunsStayUnderTheBound)
{
    for (const AllocCell cell : {AllocCell{"lstm", 0.3, 0.65},
                                 AllocCell{"mst", 0.3, 1.85}}) {
        const auto [allocs, memops] = allocsInRun(cell);
        const double per_memop =
            static_cast<double>(allocs) / static_cast<double>(memops);
        std::printf("%s: %llu allocations, %llu memops, %.3f per memop\n",
                    cell.workload, static_cast<unsigned long long>(allocs),
                    static_cast<unsigned long long>(memops), per_memop);
        // Zero would mean the counting operator new is not in effect.
        EXPECT_GT(allocs, 0u);
        EXPECT_LE(per_memop, cell.maxPerMemop) << cell.workload;
    }
}

} // namespace
} // namespace hmg
