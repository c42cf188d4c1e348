/**
 * @file
 * The hardware directory protocols: NHCC (Section IV) and HMG
 * (Section V), selected by the `hierarchical` flag.
 *
 * Both implement Table I: two stable states (Valid while a directory
 * entry exists, Invalid otherwise), no transient states, no invalidation
 * acknowledgments. Stores proceed instantly; invalidations propagate in
 * the background; only release operations gather acknowledgments, via
 * per-L2 release markers that drain the in-flight invalidation channels
 * (Section IV-B, "Release").
 *
 * NHCC mode treats the whole machine as one flat GPU of M*N GPMs: one
 * home (the system home) per address, flat sharer bits, `.gpu` releases
 * pay full-system cost.
 *
 * HMG mode adds the second level of Section V: every address has a GPU
 * home inside each GPU (same local GPM index as the system home); loads
 * and write-throughs route requester -> GPU home -> system home; the GPU
 * home's directory tracks GPM sharers of its GPU, the system home's
 * directory tracks GPU-level sharers; and invalidations received by a
 * GPU home are re-fanned to its GPM sharers (the HMG-only transition of
 * Table I).
 *
 * With numNodes > 1 the same recursion adds a third level: every
 * address has a *node home* inside each node (the GPU home of the
 * node's GPU whose local index matches the system home GPU's local
 * index). Cross-node loads and write-throughs route requester -> GPU
 * home -> node home -> system home; the node home's directory tracks
 * the GPU homes of its node, the system home's tracks node-level
 * sharers; invalidations received by a node home re-fan one tier down
 * (to its GPM sharers and its tracked GPU homes). On a single-node
 * machine the chain has no node tier and the engine is the two-level
 * protocol above.
 *
 * The request walk itself is HomeChainModel's (core/protocol.hh): the
 * recursion is literal, one generic stage per hop. This class supplies
 * the chain's shape and the directory work at each home — LoadMiss when
 * a home answers another GPM, Store when a write lands — plus the
 * invalidation fans and re-fans, release markers, write-back and
 * downgrade.
 */

#ifndef HMG_CORE_HW_PROTOCOL_HH
#define HMG_CORE_HW_PROTOCOL_HH

#include <cstdint>

#include "core/protocol.hh"
#include "core/sharer_ops.hh"
#include "verify/spec.hh"

namespace hmg
{

/** NHCC / HMG protocol engine. */
class HwProtocol : public HomeChainModel
{
  public:
    HwProtocol(SystemContext &ctx, bool hierarchical);

    void store(const MemAccess &acc, Version v, DoneCb accepted,
               DoneCb sys_done) override;
    void acquire(const MemAccess &acc, DoneCb done) override;
    void release(const MemAccess &acc, DoneCb done) override;
    void kernelBoundary() override;
    void drainForBoundary(DoneCb done) override;

    const char *name() const override { return hier_ ? "HMG" : "NHCC"; }

    void reportStats(StatRecorder &r) const override;

    bool hierarchical() const { return hier_; }

  protected:
    /** A home answering a remote load records `via` (Table I LoadMiss). */
    void onLoadAnswered(GpmId home, GpmId via, Addr line) override;

    /** A landing write applies Table I's Store row at the home. */
    void onStore(GpmId home, GpmId writer, Addr line) override;

  private:
    // --- routing helpers ---

    /** System home GPM of a line (the page must be placed). */
    GpmId sysHome(Addr line) const { return ctx_.amap.systemHome(line); }

    /** GPU home of `line` within `gpu` (== sysHome in flat mode). */
    GpmId gpuHomeFor(GpuId gpu, Addr line) const;

    /** Node home of `line` within `node` (multi-node HMG only). */
    GpmId nodeHomeFor(NodeId node, Addr line) const;

    // --- release machinery ---

    /** The GPMs a release's markers reach from the releasing GPM r. */
    enum class Fan : std::uint8_t
    {
        OwnGpu,  //!< r's GPU (an HMG `.gpu` release)
        Relayed, //!< r's GPU, then one relay per other GPU, the GPM
                 //!< with r's local index (cfg.hierarchicalReleaseFanout)
        All,     //!< every GPM
    };

    class Join;

    /**
     * `rounds` rounds of release markers from `r` over `fan`, each
     * started by the previous round's Join: in a round every target
     * acknowledges once its previously-sent invalidations have landed,
     * and a relay first runs a one-round OwnGpu fan of its own — same
     * drain guarantees, fewer inter-GPU messages. Targets go in
     * ascending GPM order, relays after them in ascending GPU order.
     * `done` runs at `r` when the last round's acks (and r's own drain)
     * are in.
     */
    void markerRounds(GpmId r, Fan fan, std::uint8_t rounds, DoneCb done);

    /** One marker exchange: RelMarker `from` -> `to`, the drain wait at
     *  `to` (a relay's own fan included), RelAck back; `ack` runs at
     *  `from`. */
    void sendMarker(GpmId from, GpmId to, bool relay, const Join &ack);

    // --- directory maintenance (table-driven; see src/verify/spec.hh) ---

    /** Topology view handed to the shared sharer-routing helpers. */
    SharerTopology topo() const
    {
        return {ctx_.cfg.numGpus, ctx_.cfg.gpmsPerGpu,
                ctx_.cfg.numNodes};
    }

    /** The transition table governing home `h` for `line`'s sector. */
    const verify::TransitionTable &dirTableFor(GpmId h, Addr line) const;

    /**
     * Apply the unique Table I row for (entry state at `h`, `ev`,
     * writer-tracked guard of `via`): emit the row's invalidations
     * (counted under `cause`; only Store and InvRecv rows emit any) and
     * commit the directory update. All directory maintenance — sharer
     * recording, store/atomic invalidation fans, HMG re-fans,
     * downgrades — funnels through here, so the rows hmgcheck verifies
     * are the rows executed. @return the invalidations sent.
     */
    std::uint32_t applyDirEventAt(const verify::TransitionTable &t,
                                  GpmId h, GpmId via, Addr line,
                                  verify::DirEvent ev,
                                  InvCause cause = InvCause::Store);

    /** Table I "Replace Dir Entry" on a displaced (detached) victim. */
    void replaceVictim(GpmId h, const DirEntry &victim);

    /** Send one invalidation and process it at the destination. */
    void sendInv(GpmId from, GpmId to, Addr sector, InvCause cause);

    /** Invalidation arriving at `at` (may re-fan at a GPU home). */
    void handleInv(GpmId at, Addr sector, InvCause cause);

    /** Optional clean-eviction downgrade (Section IV-B, off by
     *  default; exact only at 1-line directory granularity). */
    void handleDowngrade(GpmId h, GpmId from, Addr line);
    void installEvictionHooks();

    // --- write-back mode (Section IV-B design alternative) ---

    bool writeBack() const { return ctx_.cfg.l2WriteBack; }

    /**
     * Send one line from `src` toward its home. Flushes (release /
     * boundary) keep the line cached clean and record `src` as a
     * sharer; eviction- and invalidation-triggered write-backs use the
     * paper's update-without-tracking message (`record` = false).
     * Completion is reported to src's GpmNode write-back ledger.
     */
    void writeBackLine(GpmId src, Addr line, Version v, bool record);

    /** Flush every dirty line of `g`'s L2 toward its home. */
    std::uint64_t flushDirty(GpmId g);

    // LP-sharded: these count on whichever LP serves the access.
    LpCounter releases_;
    LpCounter rel_markers_;
    LpCounter downgrades_;
};

} // namespace hmg

#endif // HMG_CORE_HW_PROTOCOL_HH
