#include "core/hw_protocol.hh"

#include <memory>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "core/checker.hh"
#include "verify/apply.hh"

namespace hmg
{

/**
 * Runs a completion once `n` arrivals are in. Copies share one
 * counter, so every branch of a fan carries the same join. The
 * completion may be a release's next round (DrainLedger::Callback
 * holds one inline).
 */
class HwProtocol::Join
{
  public:
    Join(std::uint32_t n, DrainLedger::Callback done)
        : s_(std::make_shared<State>(State{n, std::move(done)}))
    {
    }

    void
    operator()() const
    {
        if (--s_->pending == 0)
            s_->done();
    }

  private:
    struct State
    {
        std::uint32_t pending;
        DrainLedger::Callback done;
    };
    std::shared_ptr<State> s_;
};

HwProtocol::HwProtocol(SystemContext &ctx, bool hierarchical)
    : HomeChainModel(ctx, hierarchical,
                     /*node_tier=*/hierarchical && ctx.cfg.numNodes > 1)
{
    for (auto &node : ctx_.gpms)
        hmg_assert(node->dir() != nullptr);
    if (ctx_.cfg.sharerDowngrade || ctx_.cfg.l2WriteBack)
        installEvictionHooks();
}

GpmId
HwProtocol::gpuHomeFor(GpuId gpu, Addr line) const
{
    return hier_ ? ctx_.amap.gpuHome(gpu, line) : ctx_.amap.systemHome(line);
}

GpmId
HwProtocol::nodeHomeFor(NodeId node, Addr line) const
{
    return ctx_.amap.nodeHome(node, line);
}

// ------------------------------------------------------- per-hop hooks

void
HwProtocol::onLoadAnswered(GpmId home, GpmId via, Addr line)
{
    // The sharer is recorded in the same event that emits the response,
    // not at request arrival: a store processed while this load waits
    // on DRAM would otherwise reset the sharer list and let its
    // invalidation overtake the response, leaving an untracked stale
    // copy at the requester.
    applyDirEventAt(dirTableFor(home, line), home, via, line,
                    verify::DirEvent::LoadMiss);
}

void
HwProtocol::onStore(GpmId home, GpmId writer, Addr line)
{
    if (applyDirEventAt(dirTableFor(home, line), home, writer, line,
                        verify::DirEvent::Store) > 0)
        countInvEvent(InvCause::Store);
}

void
HwProtocol::store(const MemAccess &acc, Version v, DoneCb accepted,
                  DoneCb sys_done)
{
    if (!writeBack() || acc.scope > Scope::Cta) {
        HomeChainModel::store(acc, v, std::move(accepted),
                              std::move(sys_done));
        return;
    }
    // Write-back mode: the store completes in the local L2 as dirty
    // data; it reaches the home when a release, kernel boundary,
    // eviction or invalidation flushes it.
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    ctx_.engine().schedule(tagLat(), [this, acc, v,
                                      accepted = std::move(accepted),
                                      sys_done =
                                          std::move(sys_done)]() mutable {
        ctx_.gpm(acc.gpm).l2().store(acc.lineAddr, v, /*mark_dirty=*/true);
        accepted();
        ctx_.tracker.reachedGpuLevel(acc.sm);
        ctx_.tracker.reachedSysLevel(acc.sm);
        if (sys_done)
            sys_done();
    });
}

// --------------------------------------------------- directory plumbing

const verify::TransitionTable &
HwProtocol::dirTableFor(GpmId h, Addr line) const
{
    using verify::Role;
    if (!hier_)
        return verify::tableFor(Role::FlatHome);
    if (h == sysHome(line))
        return verify::tableFor(Role::SysHome);
    if (node_tier_ && h == nodeHomeFor(ctx_.cfg.nodeOfGpm(h), line))
        return verify::tableFor(Role::NodeHome);
    return verify::tableFor(Role::GpuHome);
}

std::uint32_t
HwProtocol::applyDirEventAt(const verify::TransitionTable &t, GpmId h,
                            GpmId via, Addr line, verify::DirEvent ev,
                            InvCause cause)
{
    using verify::DirEvent;
    using verify::DirUpdate;
    Directory &dir = *ctx_.gpm(h).dir();
    const Addr sector = dir.sectorOf(line);

    // Sharer recording on a load never counted as a directory lookup;
    // every other event pays the find() that gated it imperatively.
    DirEntry *e = nullptr;
    const DirEntry *snap = nullptr;
    if (ev == DirEvent::LoadMiss)
        snap = dir.peek(line);
    else
        snap = e = dir.find(line);
    const verify::DirSnapshot pre{snap != nullptr,
                                  snap ? snap->gpmSharers : 0,
                                  snap ? snap->gpuSharers : 0,
                                  snap ? snap->nodeSharers : 0};

    std::uint32_t sent = 0;
    auto outcome = verify::applyDirEvent(
        t, topo(), hier_, h, via, ev, pre,
        [this, sector](GpuId g) { return gpuHomeFor(g, sector); },
        [this, sector](NodeId n) { return nodeHomeFor(n, sector); },
        [&](GpmId dst) {
            sendInv(h, dst, sector, cause);
            ++sent;
        });

    if (!outcome.keepEntry) {
        // An entry whose sharers were all downgraded away carries no
        // obligations; a store leaves it in place (same occupancy the
        // imperative code kept). A processed re-fan always drops its.
        if (e && (ev == DirEvent::InvRecv || pre.gpmBits || pre.gpuBits ||
                  pre.nodeBits))
            dir.remove(line);
        return sent;
    }
    switch (outcome.row->update) {
      case DirUpdate::None:
      case DirUpdate::Clear:
        break;
      case DirUpdate::DropSharer:
        if (e) {
            e->gpmSharers = outcome.gpmBits;
            e->gpuSharers = outcome.gpuBits;
            e->nodeSharers = outcome.nodeBits;
        }
        break;
      case DirUpdate::SetSoleSharer:
        if (e && e->hasSharers())
            dir.remove(line);
        [[fallthrough]];
      case DirUpdate::AddSharer: {
        DirEntry evicted;
        DirEntry *ne = dir.allocate(line, &evicted);
        if (evicted.valid && evicted.hasSharers())
            replaceVictim(h, evicted);
        ne->gpmSharers = outcome.gpmBits;
        ne->gpuSharers = outcome.gpuBits;
        ne->nodeSharers = outcome.nodeBits;
        break;
      }
    }
    return sent;
}

void
HwProtocol::replaceVictim(GpmId h, const DirEntry &victim)
{
    const Addr sector = victim.sector;
    const verify::DirSnapshot pre{true, victim.gpmSharers,
                                  victim.gpuSharers, victim.nodeSharers};
    // The victim is already detached from the directory, so the row's
    // Invalid next-state needs no commit — only its invalidation fan.
    bool sent = false;
    verify::applyDirEvent(
        dirTableFor(h, sector), topo(), hier_, h, kInvalidGpm,
        verify::DirEvent::Replace, pre,
        [this, sector](GpuId g) { return gpuHomeFor(g, sector); },
        [this, sector](NodeId n) { return nodeHomeFor(n, sector); },
        [&](GpmId dst) {
            sendInv(h, dst, sector, InvCause::Evict);
            sent = true;
        });
    if (sent)
        countInvEvent(InvCause::Evict);
}

void
HwProtocol::sendInv(GpmId from, GpmId to, Addr sector, InvCause cause)
{
    ++inv_msgs_;
    // The sender's in-flight-invalidation ledger gates release-marker
    // acknowledgment (GpmNode::invs); the landing is counted
    // before handleInv so a re-fanned invalidation issued there can
    // never observe its trigger as still in flight. The checker's
    // delivery note comes after handleInv for the same reason: a
    // re-fanned wave must overlap its trigger in the per-sector count.
    ctx_.gpm(from).invs().issued();
    if (ctx_.checker)
        ctx_.checker->noteInvSent(sector);
    ctx_.net.inject({.src = from,
                     .dst = to,
                     .type = MsgType::Inv,
                     .addr = sector,
                     .onArrival = [this, from, to, sector, cause]() {
                         // The sender's ledger belongs to `from`'s LP;
                         // a delayed decrement only lengthens marker
                         // waits (delay-only relaxation).
                         ctx_.lps.post(ctx_.lps.lpOfGpm(from),
                                       [this, from]() {
                                           ctx_.gpm(from).invs().landed();
                                       });
                         handleInv(to, sector, cause);
                         if (ctx_.checker)
                             ctx_.checker->noteInvDelivered(sector);
                     }});
}

void
HwProtocol::handleInv(GpmId at, Addr sector, InvCause cause)
{
    GpmNode &node = ctx_.gpm(at);
    const std::uint32_t sector_bytes = node.dir()->sectorBytes();
    std::uint64_t lines;
    if (writeBack()) {
        // An invalidated dirty line carries the newest write: send it
        // home (update-only) rather than losing it to the race.
        std::vector<CacheLine> dropped;
        lines = node.l2().invalidateRangeCollect(sector, sector_bytes,
                                                 dropped);
        for (const auto &line : dropped)
            if (line.dirty)
                writeBackLine(at, line.addr, line.version,
                              /*record=*/false);
    } else {
        lines = node.l2().invalidateRange(sector, sector_bytes);
    }

    if (hier_) {
        // The HMG-only transition of Table I: an intermediate home
        // receiving an invalidation re-fans it one tier down and drops
        // the entry. dirTableFor resolves whether `at` plays the GPU-
        // home or node-home role here; a node home's single entry
        // covers both of its roles, so it applies exactly one InvRecv.
        // The system home never receives an invalidation for a sector
        // it homes (every fan excludes it), so the guard below never
        // sees at == sysHome.
        const GpuId g = ctx_.cfg.gpuOf(at);
        if (ctx_.pages.isPlaced(sector) && gpuHomeFor(g, sector) == at &&
            at != sysHome(sector))
            applyDirEventAt(dirTableFor(at, sector), at, kInvalidGpm,
                            sector, verify::DirEvent::InvRecv, cause);
    }
    countInvLines(cause, lines);
}

// -------------------------------------------------------- acquire/release

void
HwProtocol::acquire(const MemAccess &acc, DoneCb done)
{
    // Hardware L2 coherence: acquires only invalidate the L1 (done by
    // the SM front-end). A cycle of fence bookkeeping.
    (void)acc;
    ctx_.engine().schedule(1, std::move(done));
}

void
HwProtocol::release(const MemAccess &acc, DoneCb done)
{
    ++releases_;
    if (acc.scope <= Scope::Cta) {
        // Intra-SM visibility is immediate through the shared L1.
        ctx_.engine().schedule(1, std::move(done));
        return;
    }

    // HMG `.gpu` releases reach r's own GPU. A relayed `.sys` release
    // reaches r's GPU directly and every other GPU through one relay;
    // any other release reaches every GPM.
    const GpmId r = acc.gpm;
    const bool gpu_only = hier_ && acc.scope == Scope::Gpu;
    const Fan fan = gpu_only ? Fan::OwnGpu
                    : hier_ && acc.scope == Scope::Sys &&
                            ctx_.cfg.hierarchicalReleaseFanout
                        ? Fan::Relayed
                        : Fan::All;

    // `.sys` releases need one marker round per invalidation wave, i.e.
    // per home level of the chain: round one drains the system homes'
    // top-level invalidations into the homes one tier down; each further
    // round drains one re-fanned wave.
    const auto rounds =
        static_cast<std::uint8_t>(acc.scope == Scope::Sys ? homeLevels() : 1);
    auto markers = [this, r, fan, rounds, done = std::move(done)]() mutable {
        markerRounds(r, fan, rounds, std::move(done));
    };
    auto after_drain = [this, &acc, gpu_only](ReleaseTracker::Callback cb) {
        if (gpu_only)
            ctx_.tracker.waitGpuLevel(acc.sm, std::move(cb));
        else
            ctx_.tracker.waitSysLevel(acc.sm, std::move(cb));
    };
    if (!writeBack()) {
        after_drain(std::move(markers));
        return;
    }
    // Write-back mode: "Release operations trigger a writeback of all
    // dirty data to the respective home nodes" (Section IV-B). Only
    // after the SM's posted stores have landed in the local L2 (tracker
    // drained) is its dirty set final: flush it, then wait for this
    // GPM's in-flight write-backs.
    after_drain([this, r, markers = std::move(markers)]() mutable {
        flushDirty(r);
        ctx_.gpm(r).writeBacks().whenDrained(std::move(markers));
    });
}

void
HwProtocol::drainForBoundary(DoneCb done)
{
    if (!writeBack()) {
        ctx_.tracker.waitAllDrained(std::move(done));
        return;
    }
    // Order matters: only once every SM's posted stores have landed in
    // their L2s (tracker drained) is the dirty set final; then flush it
    // and wait for the write-back ledgers to empty. Each GPM's flush
    // touches its own L2, so it runs in the GPM's owning LP; the join
    // lives on LP 0 and every arrival is posted back there.
    ctx_.tracker.waitAllDrained([this, done = std::move(done)]() mutable {
        const Join all(ctx_.cfg.totalGpms(), std::move(done));
        for (GpmId g = 0; g < ctx_.cfg.totalGpms(); ++g) {
            ctx_.lps.post(ctx_.lps.lpOfGpm(g), [this, g, all]() {
                flushDirty(g);
                ctx_.gpm(g).writeBacks().whenDrained(
                    [this, all]() { ctx_.lps.post(0, all); });
            });
        }
    });
}

std::uint64_t
HwProtocol::flushDirty(GpmId g)
{
    return ctx_.gpm(g).l2().flushDirty([this, g](CacheLine line) {
        writeBackLine(g, line.addr, line.version, /*record=*/true);
    });
}

void
HwProtocol::writeBackLine(GpmId src, Addr line, Version v, bool record)
{
    ctx_.gpm(src).writeBacks().issued();
    writeThrough({.acc = MemAccess{0, src, line, Scope::None},
                  .chain = chainFor(src, line, sysHome(line)),
                  .v = v,
                  .sysDone =
                      [this, src]() { ctx_.gpm(src).writeBacks().landed(); },
                  .recordWriter = record,
                  .tracked = false,
                  // A dirty victim was coherence-ordered by its original
                  // local store, not by this flush's arrival at the home:
                  // never clobber newer data.
                  .serialized = false});
}

void
HwProtocol::markerRounds(GpmId r, Fan fan, std::uint8_t rounds, DoneCb done)
{
    const GpuId g = ctx_.cfg.gpuOf(r);
    const GpmId first = fan == Fan::All ? 0 : ctx_.cfg.gpmId(g, 0);
    const GpmId end =
        fan == Fan::All ? ctx_.cfg.totalGpms() : first + ctx_.cfg.gpmsPerGpu;
    const std::uint32_t relays =
        fan == Fan::Relayed ? ctx_.cfg.numGpus - 1 : 0;
    const Join all(end - first + relays,
                   [this, r, fan, rounds, done = std::move(done)]() mutable {
                       if (rounds > 1)
                           markerRounds(r, fan, rounds - 1, std::move(done));
                       else
                           done();
                   });
    // The releasing GPM's own outbound invalidations must land too.
    ctx_.gpm(r).invs().whenDrained(all);
    for (GpmId d = first; d < end; ++d)
        if (d != r)
            sendMarker(r, d, /*relay=*/false, all);
    if (relays > 0)
        for (GpuId u = 0; u < ctx_.cfg.numGpus; ++u)
            if (u != g)
                sendMarker(r, ctx_.cfg.gpmId(u, ctx_.cfg.localGpmOf(r)),
                           /*relay=*/true, all);
}

void
HwProtocol::sendMarker(GpmId from, GpmId to, bool relay, const Join &ack)
{
    ++rel_markers_;
    ctx_.net.inject(
        {.src = from,
         .dst = to,
         .type = MsgType::RelMarker,
         .onArrival = [this, from, to, relay, ack]() {
             auto ack_back = [this, from, to, ack]() {
                 ctx_.net.inject({.src = to,
                                  .dst = from,
                                  .type = MsgType::RelAck,
                                  .onArrival = ack});
             };
             // FIFO transport guarantees every invalidation `to`
             // received before this marker has been handled; the ledger
             // wait covers the ones `to` itself still has in flight. A
             // relay also waits for its own GPU's other GPMs, which it
             // reaches with markers of its own.
             if (relay)
                 markerRounds(to, Fan::OwnGpu, 1, std::move(ack_back));
             else
                 ctx_.gpm(to).invs().whenDrained(std::move(ack_back));
         }});
}

void
HwProtocol::kernelBoundary()
{
    // Hardware coherence keeps all L2s clean across kernel boundaries;
    // only the (software-managed) L1s are invalidated by the front-end.
}

// ------------------------------------------------------------- downgrade

void
HwProtocol::installEvictionHooks()
{
    // Dirty victims must be written back (write-back mode); clean
    // victims may optionally send the downgrade message of Section IV-B
    // ("Cache Eviction") — exact only when a directory entry covers a
    // single line, since with coarse sectors a downgrade could prune a
    // sharer that still caches a sibling line.
    const bool downgrade =
        ctx_.cfg.sharerDowngrade && ctx_.cfg.dirLinesPerEntry == 1;
    for (auto &node : ctx_.gpms) {
        GpmId id = node->id();
        node->l2().setEvictionHook([this, id,
                                    downgrade](const CacheLine &victim) {
            const Addr line = victim.addr;
            if (!ctx_.pages.isPlaced(line))
                return;
            if (victim.dirty && writeBack()) {
                // The paper's update-without-tracking write-back.
                writeBackLine(id, line, victim.version,
                              /*record=*/false);
                return;
            }
            if (!downgrade)
                return;
            const GpmId h = sysHome(line);
            const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(id), line);
            const GpmId home = hier_ ? (id == gh ? h : gh) : h;
            if (home == id)
                return;
            ++downgrades_;
            ctx_.net.inject({.src = id,
                             .dst = home,
                             .type = MsgType::Downgrade,
                             .addr = line,
                             .onArrival = [this, home, id, line]() {
                                 handleDowngrade(home, id, line);
                             }});
        });
    }
}

void
HwProtocol::handleDowngrade(GpmId h, GpmId from, Addr line)
{
    applyDirEventAt(dirTableFor(h, line), h, from, line,
                    verify::DirEvent::Downgrade);
}

void
HwProtocol::reportStats(StatRecorder &r) const
{
    HomeChainModel::reportStats(r);
    if (ctx_.cfg.numNodes > 1)
        r.record("protocol.loads_node_home_hit",
                 static_cast<double>(loadsServed(Tier::NodeHome)));
    r.record("protocol.releases", static_cast<double>(releases_.total()));
    r.record("protocol.rel_markers",
             static_cast<double>(rel_markers_.total()));
    r.record("protocol.downgrades",
             static_cast<double>(downgrades_.total()));
}

} // namespace hmg
