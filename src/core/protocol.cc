#include "core/protocol.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "core/hw_protocol.hh"
#include "core/simple_protocols.hh"
#include "core/sw_protocol.hh"

namespace hmg
{

void
CoherenceModel::reportStats(StatRecorder &r) const
{
    const auto store = static_cast<std::size_t>(InvCause::Store);
    const auto evict = static_cast<std::size_t>(InvCause::Evict);
    r.record("protocol.store_inv_events",
             static_cast<double>(inv_events_[store].total()));
    r.record("protocol.store_inv_lines",
             static_cast<double>(inv_lines_[store].total()));
    r.record("protocol.evict_inv_events",
             static_cast<double>(inv_events_[evict].total()));
    r.record("protocol.evict_inv_lines",
             static_cast<double>(inv_lines_[evict].total()));
    r.record("protocol.inv_msgs", static_cast<double>(inv_msgs_.total()));
}

// ------------------------------------------------------------ home chain

namespace
{

/**
 * The loadMayHit role a tier's L2 plays. A node home answers like a GPU
 * home, anything below `.sys` scope: the per-(src, dst) FIFO channels
 * gh -> nh and nh -> h order its copy after any write-through it
 * forwarded, so a `.gpu`-scope load observes every store its own GPU
 * released.
 */
constexpr CacheRole
roleOf(Tier t)
{
    switch (t) {
      case Tier::Local:
        return CacheRole::NonHome;
      case Tier::GpuHome:
      case Tier::NodeHome:
        return CacheRole::GpuHome;
      default:
        return CacheRole::SysHome;
    }
}

} // namespace

HomeChainModel::HomeChainModel(SystemContext &ctx, bool hierarchical,
                               bool node_tier)
    : CoherenceModel(ctx), hier_(hierarchical), node_tier_(node_tier)
{
}

HomeChain
HomeChainModel::chainFor(GpmId r, Addr line, GpmId h) const
{
    const GpmId gh =
        hier_ ? ctx_.amap.gpuHome(ctx_.cfg.gpuOf(r), line) : h;
    const GpmId nh =
        node_tier_ ? ctx_.amap.nodeHome(ctx_.cfg.nodeOfGpm(r), line) : h;
    return {{(r != gh && r != h) ? r : kInvalidGpm,
             gh != h ? gh : kInvalidGpm,
             (nh != gh && nh != h) ? nh : kInvalidGpm, h}};
}

// ---------------------------------------------------------------- loads

template <typename Then>
void
HomeChainModel::fetchLine(const MemAccess &acc, const HomeChain &c, Tier t,
                          Then &&then)
{
    const GpmId at = c.at(t);
    if (t == Tier::SysHome) {
        Tick ready = ctx_.gpm(at).dram().read(ctx_.cfg.cacheLineBytes);
        ctx_.engine().scheduleAt(ready, [this, line = acc.lineAddr,
                                         then = std::forward<Then>(
                                             then)]() mutable {
            then(ctx_.mem.read(line));
        });
        return;
    }
    // Only this hop's identity travels onward (Section V-B, "Loads").
    const Tier n = c.next(t);
    ctx_.net.inject({.src = at,
                     .dst = c.at(n),
                     .type = MsgType::ReadReq,
                     .addr = acc.lineAddr,
                     .onArrival = [this, acc, c, n, at,
                                   back = LoadDoneCb(std::forward<Then>(
                                       then))]() mutable {
                         loadStage(acc, c, n, at, std::move(back));
                     }});
}

void
HomeChainModel::load(const MemAccess &acc, LoadDoneCb done)
{
    const GpmId h = ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const HomeChain c = chainFor(acc.gpm, acc.lineAddr, h);
    ctx_.engine().schedule(tagLat(), [this, acc, c,
                                      done = std::move(done)]() mutable {
        const Tier e = c.entry();
        // A requester that is itself a home checks its tags a second
        // time, in that home's stage (DESIGN.md §3.5).
        if (e == Tier::Local)
            loadAt(acc, c, e, acc.gpm, std::move(done));
        else
            loadStage(acc, c, e, acc.gpm, std::move(done));
    });
}

void
HomeChainModel::loadStage(const MemAccess &acc, const HomeChain &c, Tier t,
                          GpmId via, LoadDoneCb back)
{
    ctx_.engine().schedule(tagLat(), [this, acc, c, t, via,
                                      back = std::move(back)]() mutable {
        loadAt(acc, c, t, via, std::move(back));
    });
}

void
HomeChainModel::loadAt(const MemAccess &acc, const HomeChain &c, Tier t,
                       GpmId via, LoadDoneCb back)
{
    const GpmId at = c.at(t);
    const Addr line = acc.lineAddr;
    GpmNode &node = ctx_.gpm(at);
    const bool mergeable =
        loadMayHit(acc.scope, roleOf(t)) && mayCacheAt(at, line);
    if (mergeable) {
        auto res = node.l2().load(line);
        if (res.hit) {
            ++served_[tierIndex(t)];
            // The response carries the data as it stands when it leaves:
            // a write landing inside the data latency would otherwise
            // send its invalidation ahead of an answer that predates it.
            ctx_.engine().schedule(dataLat(), [this, at, via, line,
                                               v = res.version,
                                               back = std::move(
                                                   back)]() mutable {
                if (auto now = ctx_.gpm(at).l2().peek(line))
                    v = now->version;
                answerLoad(at, via, line, v, std::move(back));
            });
            return;
        }
        // Coalesce with an in-flight miss on the same line: the answer
        // to this requester waits in the MSHR.
        if (!node.mshrRegister(line, via, std::move(back)))
            return;
        if (t == Tier::SysHome)
            ++served_[tierIndex(Tier::Dram)];
        fetchLine(acc, c, t, [this, at, line](Version v) {
            GpmNode &n = ctx_.gpm(at);
            // A write that passed the fetch is newer than its answer.
            const Version filled =
                n.l2().fill(line, std::max(v, n.mshrWritten(line)));
            n.mshrComplete(line, [&](GpmId w_via, LoadDoneCb w_back) {
                answerLoad(at, w_via, line, filled, std::move(w_back));
            });
        });
        return;
    }
    // A request that may not hit here may not merge either: it fetches
    // on its own and the answer travels with it.
    fetchLine(acc, c, t, [this, at, via, line,
                          back = std::move(back)](Version v) mutable {
        if (mayCacheAt(at, line))
            ctx_.gpm(at).l2().fill(line, v);
        answerLoad(at, via, line, v, std::move(back));
    });
}

void
HomeChainModel::answerLoad(GpmId at, GpmId via, Addr line, Version v,
                           LoadDoneCb back)
{
    if (via == at) {
        back(v);
        return;
    }
    onLoadAnswered(at, via, line);
    ctx_.net.inject({.src = at,
                     .dst = via,
                     .type = MsgType::ReadResp,
                     .addr = line,
                     .onArrival = [v, back = std::move(back)]() mutable {
                         back(v);
                     }});
}

// ---------------------------------------------------------------- stores

void
HomeChainModel::store(const MemAccess &acc, Version v, DoneCb accepted,
                      DoneCb sys_done)
{
    const GpmId h = ctx_.pages.touch(acc.lineAddr, acc.gpm);
    StoreFlow f{acc, chainFor(acc.gpm, acc.lineAddr, h), v,
                std::move(sys_done)};
    ctx_.engine().schedule(tagLat(), [this, f = std::move(f),
                                      accepted =
                                          std::move(accepted)]() mutable {
        // Write-through: update (and allocate in) the local L2.
        if (mayCacheAt(f.acc.gpm, f.acc.lineAddr))
            ctx_.gpm(f.acc.gpm).l2().store(f.acc.lineAddr, f.v);
        accepted();
        writeThrough(std::move(f));
    });
}

void
HomeChainModel::writeThrough(StoreFlow f)
{
    const Tier e = f.chain.entry();
    if (e == Tier::Local) {
        storeFrom(std::move(f), e);
        return;
    }
    // The source is itself a home: its stage runs in place.
    const GpmId src = f.acc.gpm;
    storeAt(std::move(f), e, src);
}

void
HomeChainModel::storeAt(StoreFlow f, Tier t, GpmId via)
{
    const GpmId at = f.chain.at(t);
    const Addr line = f.acc.lineAddr;
    if (mayCacheAt(at, line)) {
        GpmNode &node = ctx_.gpm(at);
        node.l2().store(line, f.v, /*mark_dirty=*/false, f.serialized);
        node.mshrNoteWrite(line, f.v);
    }
    if (t == Tier::SysHome)
        writeMemory(at, line, f.v, f.serialized);
    onStore(at, f.recordWriter ? via : kInvalidGpm, line);
    storeFrom(std::move(f), t);
}

void
HomeChainModel::storeFrom(StoreFlow f, Tier t)
{
    if (t == Tier::SysHome) {
        // Tracker state and the sys-done continuation belong to the
        // requester's SM; when the system home lives in another LP,
        // hand them back to the owning LP (immediate call otherwise).
        if (f.tracked || f.sysDone) {
            ctx_.lps.post(ctx_.lps.lpOfGpm(f.acc.gpm),
                          [this, tracked = f.tracked,
                           gpu_cleared = f.gpuCleared, sm = f.acc.sm,
                           sys_done = std::move(f.sysDone)]() mutable {
                              if (tracked) {
                                  if (!gpu_cleared)
                                      ctx_.tracker.reachedGpuLevel(sm);
                                  ctx_.tracker.reachedSysLevel(sm);
                              }
                              if (sys_done)
                                  sys_done();
                          });
        }
        return;
    }
    // No tracker level corresponds to the node tier: its extra hop only
    // delays reachedSysLevel.
    if (t == Tier::GpuHome) {
        if (f.tracked)
            ctx_.tracker.reachedGpuLevel(f.acc.sm);
        f.gpuCleared = true;
    }
    const GpmId at = f.chain.at(t);
    const Tier n = f.chain.next(t);
    const GpmId to = f.chain.at(n);
    const Addr line = f.acc.lineAddr;
    ctx_.net.inject({.src = at,
                     .dst = to,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), n,
                                   at]() mutable {
                         storeAt(std::move(f), n, at);
                     }});
}

void
HomeChainModel::writeMemory(GpmId h, Addr line, Version v, bool serialized)
{
    ctx_.mem.write(line, v, serialized);
    ctx_.gpm(h).dram().write(ctx_.cfg.cacheLineBytes);
}

// --------------------------------------------------------------- atomics

Tier
HomeChainModel::atomicTier(const MemAccess &acc, const HomeChain &c)
{
    // Performed at the home node for the scope in question (Section
    // V-B); NHCC always uses the (single) home node (Section IV-B).
    return (acc.scope <= Scope::Gpu &&
            c.at(Tier::GpuHome) != kInvalidGpm)
               ? Tier::GpuHome
               : Tier::SysHome;
}

void
HomeChainModel::atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                       DoneCb sys_done)
{
    const GpmId h = ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const HomeChain c = chainFor(acc.gpm, acc.lineAddr, h);
    const GpmId target = c.at(atomicTier(acc, c));
    if (target == acc.gpm) {
        atomicAt(acc, c, v, std::move(done), std::move(sys_done));
        return;
    }
    ctx_.net.inject({.src = acc.gpm,
                     .dst = target,
                     .type = MsgType::AtomicReq,
                     .addr = acc.lineAddr,
                     .onArrival = [this, acc, c, v, done = std::move(done),
                                   sys_done =
                                       std::move(sys_done)]() mutable {
                         atomicAt(acc, c, v, std::move(done),
                                  std::move(sys_done));
                     }});
}

void
HomeChainModel::atomicAt(const MemAccess &acc, const HomeChain &c,
                         Version v, LoadDoneCb done, DoneCb sys_done)
{
    ctx_.engine().schedule(tagLat(), [this, acc, c, v,
                                      done = std::move(done),
                                      sys_done =
                                          std::move(sys_done)]() mutable {
        const Tier t = atomicTier(acc, c);
        auto res = ctx_.gpm(c.at(t)).l2().load(acc.lineAddr);
        if (res.hit) {
            atomicPerform(acc, c, v, res.version, std::move(done),
                          std::move(sys_done));
            return;
        }
        // The system home reads its DRAM; a GPU home fetches the line
        // from the next home up (recording itself as a sharer at every
        // tier it crosses), keeps a copy, then performs the RMW.
        fetchLine(acc, c, t, [this, acc, c, t, v, done = std::move(done),
                              sys_done = std::move(sys_done)](
                                 Version old_v) mutable {
            const GpmId at = c.at(t);
            if (t != Tier::SysHome && mayCacheAt(at, acc.lineAddr))
                ctx_.gpm(at).l2().fill(acc.lineAddr, old_v);
            atomicPerform(acc, c, v, old_v, std::move(done),
                          std::move(sys_done));
        });
    });
}

void
HomeChainModel::atomicPerform(const MemAccess &acc, const HomeChain &c,
                              Version v, Version old_v, LoadDoneCb done,
                              DoneCb sys_done)
{
    const Tier t = atomicTier(acc, c);
    const GpmId at = c.at(t);
    const Addr line = acc.lineAddr;
    // The RMW serializes at `at`: its copy takes the arrival order.
    if (mayCacheAt(at, line)) {
        GpmNode &node = ctx_.gpm(at);
        node.l2().store(line, v, /*mark_dirty=*/false, /*serialized=*/true);
        node.mshrNoteWrite(line, v);
    }

    // Coherence-wise an atomic is a store with no tracked writer: every
    // sharer loses its copy (including the requester's stale one —
    // atomics do not refresh the requester's own L2).
    onStore(at, kInvalidGpm, line);

    // Return the pre-op value to the requester.
    if (at == acc.gpm) {
        done(old_v);
    } else {
        ctx_.net.inject({.src = at,
                         .dst = acc.gpm,
                         .type = MsgType::AtomicResp,
                         .addr = line,
                         .onArrival = [done = std::move(done),
                                       old_v]() mutable {
                             done(old_v);
                         }});
    }

    // Write the result onward, exactly as a store from `at` would
    // propagate (Section V-B, "Atomics and Reductions"). A performing
    // GPU home keeps a fresh copy, so every tier above records it.
    if (t == Tier::SysHome)
        writeMemory(at, line, v, /*serialized=*/true);
    storeFrom(StoreFlow{acc, c, v, std::move(sys_done)}, t);
}

void
HomeChainModel::reportStats(StatRecorder &r) const
{
    CoherenceModel::reportStats(r);
    r.record("protocol.loads_local_hit",
             static_cast<double>(loadsServed(Tier::Local)));
    r.record("protocol.loads_gpu_home_hit",
             static_cast<double>(loadsServed(Tier::GpuHome)));
    r.record("protocol.loads_sys_home_hit",
             static_cast<double>(loadsServed(Tier::SysHome)));
    r.record("protocol.loads_dram",
             static_cast<double>(loadsServed(Tier::Dram)));
}

// ---------------------------------------------------------------- models

std::unique_ptr<CoherenceModel>
makeCoherenceModel(SystemContext &ctx)
{
    switch (ctx.cfg.protocol) {
      case Protocol::NoRemoteCache:
        return std::make_unique<NoRemoteCacheModel>(ctx);
      case Protocol::SwNonHier:
        return std::make_unique<SwProtocol>(ctx, /*hierarchical=*/false);
      case Protocol::SwHier:
        return std::make_unique<SwProtocol>(ctx, /*hierarchical=*/true);
      case Protocol::Nhcc:
        return std::make_unique<HwProtocol>(ctx, /*hierarchical=*/false);
      case Protocol::Hmg:
        return std::make_unique<HwProtocol>(ctx, /*hierarchical=*/true);
      case Protocol::Ideal:
        return std::make_unique<IdealModel>(ctx);
    }
    hmg_panic("unknown protocol");
}

} // namespace hmg
