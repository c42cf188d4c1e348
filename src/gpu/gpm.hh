/**
 * @file
 * The memory-side node of one GPU module (GPM): its L2 cache slice, its
 * local DRAM partition, and — for the hardware protocols — its coherence
 * directory (Fig. 4 / Fig. 5 of the paper).
 */

#ifndef HMG_GPU_GPM_HH
#define HMG_GPU_GPM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/line_table.hh"
#include "common/stats.hh"
#include "core/directory.hh"
#include "mem/dram.hh"
#include "noc/message.hh"
#include "sim/callback.hh"
#include "sim/drain_ledger.hh"
#include "sim/engine.hh"

namespace hmg
{

/** L2 + DRAM (+ directory) of one GPM. */
class GpmNode
{
  public:
    GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
            bool with_directory);

    GpmId id() const { return id_; }
    Cache &l2() { return l2_; }
    const Cache &l2() const { return l2_; }
    Dram &dram() { return dram_; }
    Directory *dir() { return dir_.get(); }
    const Directory *dir() const { return dir_.get(); }

    // --- network ingress dispatch ---

    /**
     * A transport-layer message addressed to this node was dispatched by
     * its ingress port and will be delivered at `arrival`. The node
     * accounts per-class receive traffic here; the protocol-level
     * reaction is the message's own arrival continuation.
     */
    void ingress(const Packet &p, Tick arrival);

    std::uint64_t messagesReceived(MsgType t) const
    {
        return rx_count_[static_cast<std::size_t>(t)];
    }
    std::uint64_t bytesReceived() const { return rx_bytes_; }

    // --- in-flight ledgers ---
    //
    // A release marker received by this node must not be acknowledged
    // before every invalidation this node has sent has landed
    // (Section IV-B, "Release"). With per-hop queueing the arrival tick
    // of an invalidation is not knowable at injection time, so the node
    // counts its in-flight invalidations and parks release-marker
    // continuations until they drain; write-back mode (cfg.l2WriteBack)
    // counts dirty-line write-backs on their way to the system home the
    // same way.

    DrainLedger &invs() { return invs_; }
    DrainLedger &writeBacks() { return write_backs_; }

    // --- miss-status handling registers (request coalescing) ---
    //
    // Concurrent misses on the same line at one L2 merge into a single
    // outbound fetch; secondary requesters park a callback that fires
    // when the fill lands. This is the request coalescing Section V-A
    // attributes to the hierarchy ("multiple cache requests from
    // individual GPMs to be coalesced and/or cached within a single
    // GPU").

    using MissCb = SmallCallback<kCompletionCbBytes, void(Version)>;

    /**
     * Join the miss on `line` with continuation `cb`, which answers the
     * GPM `via`. @return true if the caller is the primary and must
     * perform the fetch (its own continuation is already parked); false
     * if it merged behind an in-flight fetch.
     */
    bool mshrRegister(Addr line, GpmId via, MissCb cb);

    /**
     * The fill for `line` landed: unlink its entry, then hand every
     * parked continuation to `wake(via, cb)` in registration order.
     * A registration made by a wake-up starts a fresh entry. Completing
     * a line with no entry does nothing.
     */
    template <typename Wake>
    void
    mshrComplete(Addr line, Wake &&wake)
    {
        const MshrEntry *e = mshr_.find(line);
        if (!e)
            return;
        std::uint32_t w = e->head;
        mshr_.erase(line);
        while (w != kNoWaiter) {
            MshrWaiter &slot = waiters_[w];
            const std::uint32_t next = slot.next;
            const GpmId via = slot.via;
            MissCb cb = std::move(slot.cb);
            slot.next = free_waiter_;
            free_waiter_ = w;
            wake(via, std::move(cb));
            w = next;
        }
    }

    /**
     * A write (a passing write-through or an atomic performed here)
     * updated `line` at this node. While a fetch of the line is
     * pending, the entry keeps the last such version: the fetch was
     * answered from data older than the write, so the fill must not
     * install it over the write (real MSHRs merge the write into the
     * fill buffer).
     */
    void
    mshrNoteWrite(Addr line, Version v)
    {
        if (MshrEntry *e = mshr_.find(line))
            e->written = v;
    }

    /** The last write noted while `line`'s fetch is pending (0: none). */
    Version
    mshrWritten(Addr line)
    {
        const MshrEntry *e = mshr_.find(line);
        return e ? e->written : 0;
    }

    std::uint64_t mshrMerges() const { return mshr_merges_; }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

  private:
    GpmId id_;
    Cache l2_;
    Dram dram_;
    std::unique_ptr<Directory> dir_;
    // MSHRs: a flat table of per-line waiter chains, each chain a FIFO
    // of slots in a pooled slab whose free slots are linked through
    // `next`.
    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
    struct MshrEntry
    {
        std::uint32_t head = kNoWaiter;
        std::uint32_t tail = kNoWaiter;
        Version written = 0; //!< see mshrNoteWrite
    };
    struct MshrWaiter
    {
        MissCb cb;
        GpmId via = kInvalidGpm;
        std::uint32_t next = kNoWaiter;
    };
    LineTable<MshrEntry> mshr_;
    std::vector<MshrWaiter> waiters_;
    std::uint32_t free_waiter_ = kNoWaiter;
    std::uint64_t mshr_merges_ = 0;
    DrainLedger invs_;
    DrainLedger write_backs_;
    std::uint64_t rx_count_[kNumMsgTypes] = {};
    std::uint64_t rx_bytes_ = 0;
};

} // namespace hmg

#endif // HMG_GPU_GPM_HH
