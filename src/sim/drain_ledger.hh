/**
 * @file
 * A drain ledger: a count of operations in flight and the continuations
 * waiting for it to reach zero. Release semantics are built from these
 * waits (Sections IV-B and V-B, "Release"): an SM's writes below the GPU
 * and system levels (core/release_tracker.hh), and a GPM's in-flight
 * invalidations and write-backs (gpu/gpm.hh).
 */

#ifndef HMG_SIM_DRAIN_LEDGER_HH
#define HMG_SIM_DRAIN_LEDGER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "sim/callback.hh"

namespace hmg
{

/** Count in flight, park waiters, run them in FIFO order at zero. */
class DrainLedger
{
  public:
    /**
     * Room for a release fence's continuation without a heap spill:
     * a protocol completion (an 80-byte DoneCb) plus the releasing GPM,
     * its marker fan and round count, or that closure again wrapped by
     * a write-back flush.
     */
    using Callback = SmallCallback<112, void()>;

    /** One more operation is in flight. */
    void issued() { ++pending_; }

    /** One operation finished; at zero, run every parked waiter. */
    void
    landed()
    {
        hmg_assert(pending_ > 0);
        if (--pending_ != 0)
            return;
        std::vector<Callback> run;
        run.swap(waiters_);
        for (Callback &cb : run)
            cb();
        // Keep the buffer unless a waiter parked anew meanwhile.
        if (waiters_.empty()) {
            run.clear();
            waiters_.swap(run);
        }
    }

    /** Run `cb` now if nothing is in flight, else once it drains. */
    void
    whenDrained(Callback cb)
    {
        if (pending_ == 0)
            cb();
        else
            waiters_.push_back(std::move(cb));
    }

    std::uint64_t pending() const { return pending_; }

  private:
    std::uint64_t pending_ = 0;
    std::vector<Callback> waiters_;
};

} // namespace hmg

#endif // HMG_SIM_DRAIN_LEDGER_HH
