/**
 * @file
 * The SM front-end: warp execution, the software-managed L1, the store
 * buffer, and the issue/MSHR throttles.
 *
 * Execution model (a standard trace-driven abstraction):
 *  - each resident warp executes its MemOps in order;
 *  - loads and atomics block their warp until the value returns; stores
 *    are posted (fire-and-forget) and only block for a small issue cost;
 *  - latency is hidden across warps, bounded by an issue port of
 *    `smIssueWidth` ops/cycle and an MSHR budget of `smMaxOutstanding`
 *    in-flight requests per SM.
 *
 * L1 semantics follow the paper: write-through, no write-allocate,
 * software managed. Loads of scope wider than `.cta` must miss the L1;
 * acquires of scope wider than `.cta` bulk-invalidate it (Sections
 * II-C/IV-B). A small store buffer forwards a warp's own in-flight
 * writes so per-thread per-location coherence holds even while a
 * write-through is still crossing the machine.
 */

#ifndef HMG_GPU_SM_HH
#define HMG_GPU_SM_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/line_table.hh"
#include "common/stats.hh"
#include "core/protocol.hh"
#include "sim/channel.hh"
#include "sim/engine.hh"
#include "trace/trace.hh"

namespace hmg
{

/** One streaming multiprocessor executing trace warps. */
class Sm
{
  public:
    Sm(SystemContext &ctx, CoherenceModel &model, SmId id);

    SmId id() const { return id_; }
    GpmId gpm() const { return gpm_; }

    /** Warp slots currently unoccupied. */
    std::uint32_t freeWarpSlots() const
    {
        return ctx_.cfg.maxWarpsPerSm - active_warps_;
    }

    /** Can this SM host `cta` right now? */
    bool
    canAccept(const trace::Cta &cta) const
    {
        return cta.warps.size() <= freeWarpSlots();
    }

    /**
     * Start executing `cta` (must fit). `on_done` runs once, when every
     * warp of the CTA has retired its last op. The Cta must outlive the
     * run.
     */
    void runCta(const trace::Cta &cta, DoneCb on_done);

    /** Bulk-invalidate the L1 (acquires and kernel boundaries). */
    std::uint64_t invalidateL1() { return l1_.invalidateAll(); }

    Cache &l1() { return l1_; }

    // Statistics.
    std::uint64_t opsExecuted() const { return ops_executed_; }
    std::uint64_t loadsIssued() const { return loads_; }
    std::uint64_t storesIssued() const { return stores_; }
    std::uint64_t atomicsIssued() const { return atomics_; }
    std::uint64_t storeBufferForwards() const { return sb_forwards_; }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

  private:
    /** Where a parked warp picks up when its last posted load returns. */
    enum class Resume : std::uint8_t
    {
        None,    //!< not parked
        Step,    //!< retire (all ops done, loads still in flight)
        Execute, //!< retry ops[pc] (load limit, or drain before a
                 //!< synchronizing op)
    };

    /**
     * A resident warp, held in the warps_ slab and named by its index.
     * The op in hand is always ops[pc]: a warp advances pc only when
     * that op lets it go on.
     */
    struct WarpCtx
    {
        const trace::Warp *warp = nullptr;
        std::uint32_t pc = 0;
        /** Non-blocking loads currently in flight for this warp. */
        std::uint32_t inflight = 0;
        /** Slot of the warp's CTA in ctas_. */
        std::uint32_t cta = 0;
        Resume resume = Resume::None;
    };

    /** A resident CTA: warps still running and its completion. */
    struct CtaCtx
    {
        std::uint32_t remaining = 0;
        DoneCb onDone;
    };

    /** The op warp `w` is on. */
    const trace::MemOp &opOf(std::uint32_t w) const
    {
        return warps_[w].warp->ops[warps_[w].pc];
    }

    // Warp state machine. A warp is its index in warps_.
    void warpStep(std::uint32_t w);
    void execute(std::uint32_t w);
    void advance(std::uint32_t w);
    void finishWarp(std::uint32_t w);

    void doLoad(std::uint32_t w, const trace::MemOp &op);
    void doStore(std::uint32_t w, const trace::MemOp &op);
    void doAtomic(std::uint32_t w, const trace::MemOp &op);
    void doRelease(const trace::MemOp &op, DoneCb then);

    /** The store/atomic after any release it carries. */
    void storeBody(std::uint32_t w);
    void atomicBody(std::uint32_t w);

    /** Post-load acquire actions, then advance the warp. */
    void acquireThenAdvance(std::uint32_t w);

    /** A non-blocking load returned: update inflight, unpark the warp. */
    void loadCompleted(std::uint32_t w);

    // MSHR budget. A waiter holds 24 bytes: `this`, a warp index, a
    // line or a version, and a flag or two. Whatever else it needs it
    // reads from ops[pc] when it runs.
    using SlotCb = SmallCallback<24, void()>;
    template <typename F> void withSlot(F &&fn);
    void releaseSlot();

    // Store buffer (own in-flight write forwarding).
    void sbInsert(Addr line);
    void sbRemove(Addr line);

    MemAccess accessFor(const trace::MemOp &op) const;
    Addr lineOf(Addr a) const;

    SystemContext &ctx_;
    CoherenceModel &model_;
    SmId id_;
    GpmId gpm_;

    Cache l1_;
    Channel issue_port_;

    std::uint32_t active_warps_ = 0;
    std::vector<WarpCtx> warps_;
    std::vector<std::uint32_t> free_warps_;
    std::vector<CtaCtx> ctas_;
    std::vector<std::uint32_t> free_ctas_;

    std::uint32_t outstanding_ = 0;
    /** Requests waiting for an MSHR slot: a FIFO from slot_head_ on. */
    std::vector<SlotCb> slot_waiters_;
    std::size_t slot_head_ = 0;

    /** In-flight write-throughs per line. A load only asks whether a
     *  write to its line is pending, never for the written version. */
    LineTable<std::uint32_t> store_buffer_;

    std::uint64_t ops_executed_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t atomics_ = 0;
    std::uint64_t sb_forwards_ = 0;
};

} // namespace hmg

#endif // HMG_GPU_SM_HH
