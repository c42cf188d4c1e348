/**
 * @file
 * Message classification and sizing for the interconnect.
 *
 * Control messages (requests, invalidations, acks, release markers) are
 * small (16 B by default — the paper notes "The size of each invalidation
 * message is also relatively small compared to a GPU cache line",
 * Section VII-A). Data-bearing messages carry a full 128 B line plus a
 * header.
 *
 * Producers build a Message (routing fields plus the arrival closure);
 * the fabric carries a Packet (routing fields plus a slot number). The
 * split keeps every per-hop move at 32 bytes: the closure is parked
 * once in an ArrivalSlab at injection and taken out once at delivery.
 */

#ifndef HMG_NOC_MESSAGE_HH
#define HMG_NOC_MESSAGE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "sim/engine.hh"

namespace hmg
{

/** All message classes exchanged between L2/directory nodes. */
enum class MsgType : std::uint8_t
{
    ReadReq,       //!< load request (control)
    ReadResp,      //!< load response (data)
    WriteThrough,  //!< store propagating toward home / DRAM (data)
    WriteAck,      //!< home's completion notice for a tracked write (ctrl)
    Inv,           //!< invalidation (control; covers one directory sector)
    AtomicReq,     //!< RMW request (data-sized payload, small)
    AtomicResp,    //!< RMW response (control + value)
    RelMarker,     //!< release marker fanned out to L2s (control)
    RelAck,        //!< release acknowledgment (control)
    Downgrade,     //!< optional sharer-prune notice on clean evict (ctrl)
    NumTypes
};

constexpr std::size_t kNumMsgTypes =
    static_cast<std::size_t>(MsgType::NumTypes);

const char *toString(MsgType t);

/** True for message classes that carry a full cache line of data. */
constexpr bool
carriesData(MsgType t)
{
    return t == MsgType::ReadResp || t == MsgType::WriteThrough;
}

/** Wire size of a message of type `t` under configuration `cfg`. */
std::uint32_t msgBytes(const SystemConfig &cfg, MsgType t);

/** Arrival continuation carried by a Message (move-only, inline). */
using MsgCallback = Engine::Callback;

/**
 * One typed transport-layer message as its producer builds it.
 * Producers construct it with designated initializers and hand it to
 * Network::inject(); the wire size is derived from `type` by
 * msgBytes(), so Fig. 9–11 byte accounting and per-link occupancy
 * always agree with one definition.
 *
 * A Message never travels itself: inject() parks `onArrival` once in
 * an ArrivalSlab and sends a 32-byte Packet through the fabric.
 */
struct Message
{
    GpmId src = 0;
    GpmId dst = 0;
    MsgType type = MsgType::ReadReq;
    /** Line/sector address the message concerns (0 when n/a). */
    Addr addr = 0;
    /** Runs at the delivery tick, after the last hop's latency. */
    MsgCallback onArrival;
};

/**
 * What the fabric carries while a message is in flight: the routing
 * fields, the wire size, and the ArrivalSlab slot holding its arrival
 * continuation. NIC queues, port queues and cross-LP parcels move these
 * 32 bytes per hop instead of the 200-byte closure, which stays parked
 * until delivery.
 */
struct Packet
{
    GpmId src = 0;
    GpmId dst = 0;
    MsgType type = MsgType::ReadReq;
    /** Wire size, derived by Network::inject() from `type`. */
    std::uint32_t bytes = 0;
    /** ArrivalSlab slot of the continuation, or ArrivalSlab::kNoSlot. */
    std::uint32_t slot = 0;
    Addr addr = 0;
};

static_assert(sizeof(Packet) == 32);

/**
 * Parking lot for arrival continuations while their packets are in
 * flight: a vector of closures plus a LIFO free list of slots. Owned by
 * the Network, one per LP in threaded time-window runs (each touched
 * only by its LP's thread, or by the main thread at the barrier) and a
 * single shared one otherwise. Cache-line aligned, so neighbouring
 * per-LP slabs never share a line between threads.
 */
class alignas(64) ArrivalSlab
{
  public:
    /** The slot of an empty continuation: nothing to run on arrival. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** Park `cb`; @return its slot, or kNoSlot when `cb` is empty. */
    std::uint32_t
    park(MsgCallback &&cb)
    {
        if (!cb)
            return kNoSlot;
        if (free_.empty()) {
            slots_.push_back(std::move(cb));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
        return slot;
    }

    /** Move the continuation out of `slot` and free the slot. */
    MsgCallback
    take(std::uint32_t slot)
    {
        MsgCallback cb = std::move(slots_[slot]);
        free_.push_back(slot);
        return cb;
    }

  private:
    std::vector<MsgCallback> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace hmg

#endif // HMG_NOC_MESSAGE_HH
