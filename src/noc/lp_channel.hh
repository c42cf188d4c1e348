/**
 * @file
 * Cross-LP boundary queue for partitioned (PDES) runs.
 *
 * In relaxed TimeWindow mode the inter-GPU link between two LPs cannot
 * push directly into the destination port (its worker thread owns that
 * engine). Instead the source port dispatches into an LpChannel: an
 * outbox written only by the source LP's thread during a window and
 * drained only by the main thread inside the window barrier, which
 * delivers each message into the destination port at its true arrival
 * tick (>= the next window start, by the lookahead argument — the
 * channel's latency IS the lookahead).
 *
 * Arrival closures stay LP-affine: send() moves a packet's closure out
 * of the source LP's ArrivalSlab into the parcel, and drain() re-parks
 * it in the destination LP's slab before pushing the packet on. The
 * barrier is exclusive, so neither slab needs a lock.
 *
 * Flow control mirrors the serial credit scheme with a shadow counter:
 * the source side charges every sent message against the destination
 * input's real pool capacity and the destination's pops return credits
 * through the barrier. Compared to the serial same-tick credit return
 * this adds up to one window of delay, so the Network enlarges the
 * destination pool by the extra round trip (two windows of link
 * bandwidth) to keep a saturated link at full rate.
 *
 * No locks and no atomics: every field is owned by exactly one thread
 * in each phase (source thread / destination thread during a window,
 * main thread during the barrier), and the window barrier's
 * acquire/release pairs publish the hand-offs.
 */

#ifndef HMG_NOC_LP_CHANNEL_HH
#define HMG_NOC_LP_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "noc/message.hh"
#include "noc/port.hh"
#include "sim/lp.hh"

namespace hmg
{

/** One directed cross-LP link (src GPU's egress -> dst GPU's ingress). */
class LpChannel
{
  public:
    /**
     * @param dst the destination LP's ingress port
     * @param dst_input the input slot this channel feeds
     * @param capacity byte credit pool (== the real pool of that input)
     * @param src_slab the source LP's arrival slab
     * @param dst_slab the destination LP's arrival slab
     */
    LpChannel(Port &dst, std::uint32_t dst_input, std::uint64_t capacity,
              ArrivalSlab &src_slab, ArrivalSlab &dst_slab)
        : dst_(dst),
          dst_input_(dst_input),
          capacity_(capacity),
          src_slab_(src_slab),
          dst_slab_(dst_slab)
    {
    }

    // ---- source-LP thread, during a window ----

    /** Same overshoot-by-one-message rule as Port::canAccept. */
    bool canSend() const { return in_flight_bytes_ < capacity_; }

    /** Queue a packet that arrives at absolute tick `arrival`, taking
     *  its arrival closure out of the source LP's slab. */
    void
    send(Tick arrival, const Packet &p)
    {
        hmg_assert(in_flight_bytes_ < capacity_);
        in_flight_bytes_ += p.bytes;
        outbox_.push_back(
            Parcel{arrival, p,
                   p.slot == ArrivalSlab::kNoSlot ? MsgCallback{}
                                                  : src_slab_.take(p.slot)});
    }

    // ---- destination-LP thread, during a window ----

    /** Credit note for one popped message (called from the dst port's
     *  upstream hook; per-channel delivery is FIFO, so sizes match). */
    void
    onDstPop()
    {
        hmg_assert(!pending_credit_bytes_.empty());
        returned_bytes_ += pending_credit_bytes_.front();
        pending_credit_bytes_.pop_front();
    }

    // ---- main thread, inside the window barrier ----

    /**
     * Deliver the outbox into the destination port and collect returned
     * credits. @return (messages delivered, credit bytes returned).
     */
    std::pair<std::uint64_t, std::uint64_t>
    drain()
    {
        for (Parcel &p : outbox_) {
            pending_credit_bytes_.push_back(p.pkt.bytes);
            p.pkt.slot = dst_slab_.park(std::move(p.onArrival));
            dst_.push(dst_input_, p.arrival, p.pkt);
        }
        const std::uint64_t delivered = outbox_.size();
        outbox_.clear();
        const std::uint64_t credits = returned_bytes_;
        returned_bytes_ = 0;
        hmg_assert(in_flight_bytes_ >= credits);
        in_flight_bytes_ -= credits;
        return {delivered, credits};
    }

    std::uint64_t capacityBytes() const { return capacity_; }

  private:
    struct Parcel
    {
        Tick arrival = 0;
        Packet pkt;
        MsgCallback onArrival;
    };

    Port &dst_;
    std::uint32_t dst_input_;
    std::uint64_t capacity_;
    ArrivalSlab &src_slab_;
    ArrivalSlab &dst_slab_;

    /** Source side: bytes sent and not yet credited back. */
    std::uint64_t in_flight_bytes_ = 0;
    /** Source side: messages awaiting the barrier hand-off. A vector
     *  the barrier empties but never frees, so the source thread
     *  refills kept capacity: no allocation by one thread freed by
     *  another. */
    std::vector<Parcel> outbox_;

    /** Destination side: sizes of delivered-but-unpopped messages
     *  (filled by the main thread at delivery, consumed FIFO by the
     *  destination's pops). */
    std::deque<std::uint32_t> pending_credit_bytes_;
    /** Destination side: credit bytes accumulated this window. */
    std::uint64_t returned_bytes_ = 0;
};

} // namespace hmg

#endif // HMG_NOC_LP_CHANNEL_HH
