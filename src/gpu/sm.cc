#include "gpu/sm.hh"

#include <utility>

#include "common/log.hh"

namespace hmg
{

Sm::Sm(SystemContext &ctx, CoherenceModel &model, SmId id)
    : ctx_(ctx),
      model_(model),
      id_(id),
      gpm_(ctx.cfg.gpmOfSm(id)),
      l1_(ctx.cfg.l1Bytes, ctx.cfg.l1Ways, ctx.cfg.cacheLineBytes,
          /*write_allocate=*/false),
      issue_port_(ctx.engineOf(gpm_),
                  static_cast<double>(ctx.cfg.smIssueWidth),
                  /*latency=*/0)
{
}

Addr
Sm::lineOf(Addr a) const
{
    return a & ~static_cast<Addr>(ctx_.cfg.cacheLineBytes - 1);
}

MemAccess
Sm::accessFor(const trace::MemOp &op) const
{
    return MemAccess{id_, gpm_, lineOf(op.addr), op.scope};
}

// ------------------------------------------------------------ CTA entry

namespace
{

/** A free slot of `slab`: the last one freed, else a new one. */
template <typename T>
std::uint32_t
takeSlot(std::vector<T> &slab, std::vector<std::uint32_t> &free)
{
    if (free.empty()) {
        slab.emplace_back();
        return static_cast<std::uint32_t>(slab.size() - 1);
    }
    const std::uint32_t s = free.back();
    free.pop_back();
    return s;
}

} // namespace

void
Sm::runCta(const trace::Cta &cta, DoneCb on_done)
{
    hmg_assert(canAccept(cta));
    hmg_assert(!cta.warps.empty());

    const auto n = static_cast<std::uint32_t>(cta.warps.size());
    const std::uint32_t c = takeSlot(ctas_, free_ctas_);
    ctas_[c].remaining = n;
    ctas_[c].onDone = std::move(on_done);

    active_warps_ += n;
    for (const auto &warp : cta.warps) {
        const std::uint32_t w = takeSlot(warps_, free_warps_);
        warps_[w] = WarpCtx{&warp, 0, 0, c, Resume::None};
        warpStep(w);
    }
}

// ------------------------------------------------------- warp scheduling

void
Sm::warpStep(std::uint32_t w)
{
    WarpCtx &wc = warps_[w];
    if (wc.pc >= wc.warp->ops.size()) {
        // Retire only once every posted load has returned.
        if (wc.inflight > 0) {
            wc.resume = Resume::Step;
            return;
        }
        finishWarp(w);
        return;
    }
    const trace::MemOp &op = wc.warp->ops[wc.pc];
    // Abstract compute before the op, then the shared issue port.
    Tick after_compute = ctx_.engine().now() + op.delay;
    Tick issued = issue_port_.sendAt(after_compute, 1);
    ctx_.engine().scheduleAt(issued, [this, w]() { execute(w); });
}

void
Sm::advance(std::uint32_t w)
{
    ++warps_[w].pc;
    warpStep(w);
}

void
Sm::finishWarp(std::uint32_t w)
{
    hmg_assert(active_warps_ > 0);
    --active_warps_;
    const std::uint32_t c = warps_[w].cta;
    free_warps_.push_back(w);
    // The completion may place the next CTA on this SM, which reuses
    // the freed slots (and may grow the slabs), so take it out first.
    if (--ctas_[c].remaining == 0) {
        DoneCb done = std::move(ctas_[c].onDone);
        free_ctas_.push_back(c);
        done.consume();
    }
}

void
Sm::execute(std::uint32_t w)
{
    WarpCtx &wc = warps_[w];
    const trace::MemOp &op = wc.warp->ops[wc.pc];
    // Structural hazards. Synchronizing ops (atomics, fences,
    // acquire-loads, release-stores) drain the warp's posted loads
    // first; plain loads stall at the per-warp in-flight limit. A
    // parked warp has inflight > 0, so a load completion unparks it.
    const bool needs_drain =
        op.type == MemOpType::Atomic || op.type == MemOpType::AcqFence ||
        op.type == MemOpType::RelFence ||
        (op.type == MemOpType::Load && op.acq &&
         op.scope > Scope::Cta) ||
        (op.type == MemOpType::Store && op.rel && op.scope > Scope::Cta);
    if ((needs_drain && wc.inflight > 0) ||
        (op.type == MemOpType::Load && !needs_drain &&
         wc.inflight >= ctx_.cfg.warpMaxInflightLoads)) {
        wc.resume = Resume::Execute;
        return;
    }

    ++ops_executed_;
    switch (op.type) {
      case MemOpType::Load:
        doLoad(w, op);
        break;
      case MemOpType::Store:
        doStore(w, op);
        break;
      case MemOpType::Atomic:
        doAtomic(w, op);
        break;
      case MemOpType::AcqFence:
        acquireThenAdvance(w);
        break;
      case MemOpType::RelFence:
        doRelease(op, [this, w]() { advance(w); });
        break;
    }
}

// ------------------------------------------------------------------ loads

void
Sm::doLoad(std::uint32_t w, const trace::MemOp &op)
{
    ++loads_;
    const MemAccess acc = accessFor(op);
    const bool blocking = op.acq && op.scope > Scope::Cta;

    if (acc.scope <= Scope::Cta) {
        // Forward the warp's own in-flight writes.
        const bool sb = store_buffer_.find(acc.lineAddr) != nullptr;
        if (sb || l1_.load(acc.lineAddr).hit) {
            if (sb)
                ++sb_forwards_;
            // Near-hit: the warp continues after the L1 access time.
            ctx_.engine().schedule(ctx_.cfg.l1HitLatency,
                                 [this, w]() { advance(w); });
            return;
        }
    }

    // Acquire-loads behave like the classic blocking load: the warp
    // waits for the value, performs the acquire, then continues. A
    // posted load lets the warp continue after one cycle; it only
    // stalls at the in-flight limit or at the next synchronizing op.
    if (!blocking)
        ++warps_[w].inflight;
    withSlot([this, line = acc.lineAddr, w, scope = acc.scope, blocking]() {
        ctx_.engine().schedule(ctx_.cfg.l1HitLatency,
                               [this, line, w, scope, blocking]() {
            model_.load(MemAccess{id_, gpm_, line, scope},
                        [this, line, w, blocking](Version v) {
                if (model_.mayCacheInL1(gpm_, line))
                    l1_.fill(line, v);
                releaseSlot();
                if (blocking)
                    acquireThenAdvance(w);
                else
                    loadCompleted(w);
            });
        });
    });
    if (!blocking)
        ctx_.engine().schedule(1, [this, w]() { advance(w); });
}

void
Sm::loadCompleted(std::uint32_t w)
{
    WarpCtx &wc = warps_[w];
    hmg_assert(wc.inflight > 0);
    --wc.inflight;
    switch (std::exchange(wc.resume, Resume::None)) {
      case Resume::None:
        break;
      case Resume::Step:
        warpStep(w);
        break;
      case Resume::Execute:
        execute(w);
        break;
    }
}

// ----------------------------------------------------------------- stores

void
Sm::doStore(std::uint32_t w, const trace::MemOp &op)
{
    ++stores_;
    if (op.rel && op.scope > Scope::Cta)
        doRelease(op, [this, w]() { storeBody(w); });
    else
        storeBody(w);
}

void
Sm::storeBody(std::uint32_t w)
{
    const Version v = ctx_.mem.allocateVersion();

    // Transport backpressure: a congested egress NIC parks the
    // write-through here until credits drain, so an oversubscribed
    // inter-GPU link throttles store issue instead of growing an
    // unbounded in-network queue. The warp waits on ops[pc] until
    // the store has its slot.
    ctx_.net.whenInjectable(gpm_, [this, w, v]() {
        withSlot([this, w, v]() {
            const MemAccess acc = accessFor(opOf(w));
            ctx_.tracker.issued(id_);
            // Write-through, no-allocate L1 update.
            l1_.store(acc.lineAddr, v);
            sbInsert(acc.lineAddr);
            model_.store(acc, v, /*accepted=*/[]() {},
                         /*sys_done=*/[this, line = acc.lineAddr]() {
                sbRemove(line);
                releaseSlot();
            });
            // The warp retires the posted store after a small cost.
            ctx_.engine().schedule(ctx_.cfg.storeIssueCost,
                                 [this, w]() { advance(w); });
        });
    });
}

// ---------------------------------------------------------------- atomics

void
Sm::doAtomic(std::uint32_t w, const trace::MemOp &op)
{
    ++atomics_;
    if (op.rel && op.scope > Scope::Cta)
        doRelease(op, [this, w]() { atomicBody(w); });
    else
        atomicBody(w);
}

void
Sm::atomicBody(std::uint32_t w)
{
    const MemAccess acc = accessFor(opOf(w));
    const Version v = ctx_.mem.allocateVersion();

    // Atomics bypass and clean the L1 so the issuing warp never
    // reads its own stale pre-RMW copy.
    l1_.invalidateLine(acc.lineAddr);

    withSlot([this, w, v]() {
        ctx_.tracker.issued(id_);
        model_.atomic(accessFor(opOf(w)), v,
                      /*done=*/[this, w](Version) {
            const trace::MemOp &op = opOf(w);
            if (op.acq && op.scope > Scope::Cta)
                acquireThenAdvance(w);
            else
                advance(w);
        },
                      /*sys_done=*/[this]() { releaseSlot(); });
    });
}

// ----------------------------------------------------------------- fences

void
Sm::acquireThenAdvance(std::uint32_t w)
{
    const trace::MemOp &op = opOf(w);
    if (op.scope > Scope::Cta && model_.invalidatesL1OnAcquire())
        l1_.invalidateAll();
    model_.acquire(accessFor(op), [this, w]() { advance(w); });
}

void
Sm::doRelease(const trace::MemOp &op, DoneCb then)
{
    model_.release(accessFor(op), std::move(then));
}

// ------------------------------------------------------------ MSHR budget

template <typename F>
void
Sm::withSlot(F &&fn)
{
    static_assert(sizeof(std::decay_t<F>) <= SlotCb::inlineCapacity(),
                  "an MSHR-slot waiter must fit SlotCb inline");
    if (outstanding_ < ctx_.cfg.smMaxOutstanding) {
        ++outstanding_;
        fn();
    } else {
        slot_waiters_.emplace_back(std::forward<F>(fn));
    }
}

void
Sm::releaseSlot()
{
    hmg_assert(outstanding_ > 0);
    if (slot_head_ == slot_waiters_.size()) {
        --outstanding_;
        return;
    }
    SlotCb fn = std::move(slot_waiters_[slot_head_++]);
    // Reclaim the consumed front once it is half the queue, so a queue
    // that never empties stays bounded by its peak length.
    if (slot_head_ * 2 >= slot_waiters_.size()) {
        slot_waiters_.erase(slot_waiters_.begin(),
                            slot_waiters_.begin() +
                                static_cast<std::ptrdiff_t>(slot_head_));
        slot_head_ = 0;
    }
    fn.consume();
}

// ------------------------------------------------------------ store buffer

void
Sm::sbInsert(Addr line)
{
    ++*store_buffer_.tryEmplace(line).first;
}

void
Sm::sbRemove(Addr line)
{
    std::uint32_t *refs = store_buffer_.find(line);
    hmg_assert(refs);
    if (--*refs == 0)
        store_buffer_.erase(line);
}

void
Sm::reportStats(StatRecorder &r, const std::string &prefix) const
{
    r.record(prefix + ".ops", static_cast<double>(ops_executed_));
    r.record(prefix + ".loads", static_cast<double>(loads_));
    r.record(prefix + ".stores", static_cast<double>(stores_));
    r.record(prefix + ".atomics", static_cast<double>(atomics_));
    r.record(prefix + ".sb_forwards", static_cast<double>(sb_forwards_));
    l1_.reportStats(r, prefix + ".l1");
}

} // namespace hmg
