/**
 * @file
 * The coherence-model interface.
 *
 * A CoherenceModel implements everything below the L1: routing of loads,
 * stores and atomics through the L2 hierarchy, directory maintenance,
 * invalidation, and the L2-level part of acquire/release semantics. The
 * SM front-end (gpu/sm.hh) handles the L1 and calls down into this
 * interface; one concrete model exists per evaluated configuration:
 *
 *   NoRemoteCacheModel  — the normalization baseline of Figs. 2 and 8
 *   SwProtocol          — non-hierarchical / hierarchical SW coherence
 *   HwProtocol          — NHCC (flat) and HMG (hierarchical)
 *   IdealModel          — caching everywhere, no coherence enforcement
 *
 * All four walk loads, stores and atomics along the same home chain
 * (HomeChainModel below): requester L2 -> GPU home -> node home ->
 * system home -> DRAM, one generic stage per hop. The families differ
 * only in which tiers their chain has and in a few per-hop hooks.
 */

#ifndef HMG_CORE_PROTOCOL_HH
#define HMG_CORE_PROTOCOL_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/release_tracker.hh"
#include "gpu/gpm.hh"
#include "mem/address_map.hh"
#include "mem/memory_state.hh"
#include "mem/page_table.hh"
#include "noc/network.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"
#include "sim/lp.hh"

namespace hmg
{

/** One memory access as seen below the L1. Addresses are line-aligned. */
struct MemAccess
{
    SmId sm = 0;
    GpmId gpm = 0;       //!< requesting GPM
    Addr lineAddr = 0;
    Scope scope = Scope::None;
};

class CoherenceChecker;

/** Everything a protocol engine needs to reach the rest of the system. */
struct SystemContext
{
    LpDomain &lps;
    const SystemConfig &cfg;
    Network &net;
    PageTable &pages;
    AddressMap &amap;
    MemoryState &mem;
    ReleaseTracker &tracker;
    std::vector<std::unique_ptr<GpmNode>> &gpms;

    /** Set while a CoherenceChecker wraps the model (`--check`): the
     *  hardware protocols feed it their invalidation lifecycle. */
    CoherenceChecker *checker = nullptr;

    GpmNode &gpm(GpmId id) { return *gpms.at(id); }

    /**
     * The engine of the logical process running this code. Inside a run
     * loop that is the LP-local engine (serial runs have exactly one);
     * during setup and barriers it falls back to LP 0. Protocol code
     * schedules continuations here — by construction they concern state
     * owned by the current LP, or are routed via lps.post() first.
     */
    Engine &engine() const
    {
        Engine *e = Engine::current();
        return e ? *e : lps.engine(0);
    }

    /** The engine owning GPM `g`'s state (for construction-time
     *  bindings of per-GPM machinery). */
    Engine &engineOf(GpmId g) const { return lps.engineOfGpm(g); }
};

/**
 * Completion callback carrying the version a load observed. Move-only
 * SmallCallback (sim/callback.hh) rather than std::function: the SM
 * front-end's load completion (`this`, a line, a warp index and a
 * flag: 24 bytes) lives in the inline buffer instead of on the heap.
 */
using LoadDoneCb = SmallCallback<kCompletionCbBytes, void(Version)>;
/** Completion callback for stores/fences (move-only, heap-free). */
using DoneCb = SmallCallback<kCompletionCbBytes, void()>;

/**
 * Abstract coherence model. All entry points are asynchronous: they may
 * complete in zero or more engine events and then invoke the callback.
 */
class CoherenceModel
{
  public:
    explicit CoherenceModel(SystemContext &ctx) : ctx_(ctx) {}
    virtual ~CoherenceModel() = default;

    CoherenceModel(const CoherenceModel &) = delete;
    CoherenceModel &operator=(const CoherenceModel &) = delete;

    /** Handle a load that missed (or bypassed) the L1. */
    virtual void load(const MemAccess &acc, LoadDoneCb done) = 0;

    /**
     * Handle a store of version `v`. `accepted` fires when the SM may
     * retire the op locally; `sys_done` fires when the write-through has
     * reached the system home (the SM uses it to retire store-buffer /
     * MSHR resources). Scope-level completion for releases is reported
     * through the ReleaseTracker (issued() has already been called by
     * the SM).
     */
    virtual void store(const MemAccess &acc, Version v, DoneCb accepted,
                       DoneCb sys_done) = 0;

    /**
     * Handle an atomic RMW: `done` returns the pre-op version when the
     * response reaches the SM; `sys_done` fires when the atomic's result
     * has been written through to the system home.
     */
    virtual void atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                        DoneCb sys_done) = 0;

    /** L2-level work of an acquire fence (L1 inval is done by the SM). */
    virtual void acquire(const MemAccess &acc, DoneCb done) = 0;

    /** Release fence at `acc.scope`; `done` fires at completion. */
    virtual void release(const MemAccess &acc, DoneCb done) = 0;

    /**
     * Cache maintenance at a dependent-kernel boundary (all in-flight
     * writes have already drained). HW protocols do nothing at the L2;
     * SW protocols bulk-invalidate per their scope rules.
     */
    virtual void kernelBoundary() = 0;

    /**
     * Quiesce all globally visible writes before a kernel boundary (and
     * before the end of the trace). The default waits for every SM's
     * in-flight write-throughs; write-back mode additionally flushes
     * dirty L2 lines first.
     */
    virtual void
    drainForBoundary(DoneCb done)
    {
        ctx_.tracker.waitAllDrained(std::move(done));
    }

    /** May the SM's L1 keep a copy of this line? */
    virtual bool
    mayCacheInL1(GpmId gpm, Addr line_addr) const
    {
        (void)gpm;
        (void)line_addr;
        return true;
    }

    /**
     * Do acquires (and kernel boundaries) invalidate the issuing SM's
     * L1? True for every real protocol; the idealized-caching model
     * turns it off to serve as the no-coherence-overhead upper bound.
     */
    virtual bool invalidatesL1OnAcquire() const { return true; }

    virtual const char *name() const = 0;

    virtual void reportStats(StatRecorder &r) const;

  protected:
    /** What set an invalidation fan off (Figs. 9 and 10): a store at a
     *  home, or a directory eviction. A re-fan inherits its trigger's. */
    enum class InvCause : std::uint8_t
    {
        Store,
        Evict,
    };

    /** A Store/Replace directory event sent at least one invalidation. */
    void
    countInvEvent(InvCause c)
    {
        ++inv_events_[static_cast<std::size_t>(c)];
    }

    /** An invalidation of cause `c` dropped `lines` cache lines. */
    void
    countInvLines(InvCause c, std::uint64_t lines)
    {
        inv_lines_[static_cast<std::size_t>(c)] += lines;
    }

    SystemContext &ctx_;
    // LP-sharded; sums do not depend on the order the LPs add them in.
    LpCounter inv_msgs_; ///< counted at the sending home
    std::array<LpCounter, 2> inv_events_;
    std::array<LpCounter, 2> inv_lines_;
};

/** Instantiate the model selected by `ctx.cfg.protocol`. */
std::unique_ptr<CoherenceModel> makeCoherenceModel(SystemContext &ctx);

// --- shared scope helpers ---

/** Where in the hierarchy a cache sits relative to an address. */
enum class CacheRole : std::uint8_t
{
    NonHome,   //!< any L2 that is neither home level
    GpuHome,   //!< the requester-GPU home (hierarchical protocols)
    SysHome,   //!< the system home
};

/**
 * May a load of scope `s` hit in a cache playing `role`? Implements the
 * forward-progress miss rules of Sections IV-B and V-B: `.gpu` loads
 * must miss below the GPU home; `.sys` loads may hit only at the system
 * home.
 */
constexpr bool
loadMayHit(Scope s, CacheRole role)
{
    switch (role) {
      case CacheRole::NonHome:
        return s <= Scope::Cta;
      case CacheRole::GpuHome:
        return s <= Scope::Gpu;
      case CacheRole::SysHome:
        return true;
    }
    return false;
}

// --- the home chain ---

/** A hop's place on an address's home chain, nearest the SM first.
 *  Dram is where the chain ends; it counts load service only. */
enum class Tier : std::uint8_t
{
    Local,    //!< the requester's own L2
    GpuHome,  //!< the requester-GPU home (hierarchical protocols)
    NodeHome, //!< the requester-node home (HW, multi-node machines)
    SysHome,  //!< the system home
    Dram,     //!< the system home's DRAM
};

constexpr std::size_t kNumTiers = 5;

constexpr std::size_t
tierIndex(Tier t)
{
    return static_cast<std::size_t>(t);
}

/**
 * The route of one request: the GPM serving each tier, or kInvalidGpm
 * for a tier the route skips. A tier is skipped when its GPM already
 * serves a neighbouring tier: a requester that is itself a home enters
 * at that home, a GPU home that is also the node home serves as GPU
 * home, and any home that is the system home serves as system home.
 */
struct HomeChain
{
    std::array<GpmId, 4> hop{}; //!< Local .. SysHome

    GpmId at(Tier t) const { return hop[tierIndex(t)]; }

    /** The first tier on the route (where the requester stands). */
    Tier entry() const { return firstFrom(0); }

    /** The next tier above `t` on the route (SysHome always is). */
    Tier next(Tier t) const { return firstFrom(tierIndex(t) + 1); }

  private:
    Tier
    firstFrom(std::size_t i) const
    {
        while (i < tierIndex(Tier::SysHome) && hop[i] == kInvalidGpm)
            ++i;
        return static_cast<Tier>(i);
    }
};

/**
 * The request walk every protocol family shares. A load, store or
 * atomic climbs the home chain one hop at a time; each hop runs one
 * generic stage parameterised by its tier. A load stage checks the
 * hop's L2 (loadMayHit for the tier's role), answers a hit after the
 * data latency, merges into an in-flight miss, or fetches from the next
 * hop and fills on the way back. A store stage updates the hop's L2,
 * runs the family's per-home work, releases the GPU-level tracker at
 * the GPU home, and forwards the write up.
 *
 * Family policy enters through the chain's shape (`hierarchical`, and
 * `node_tier` for HMG on a multi-node machine) and three hooks.
 */
class HomeChainModel : public CoherenceModel
{
  public:
    void load(const MemAccess &acc, LoadDoneCb done) override;
    void store(const MemAccess &acc, Version v, DoneCb accepted,
               DoneCb sys_done) override;
    void atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                DoneCb sys_done) override;

    void reportStats(StatRecorder &r) const override;

    /** Loads whose data came from tier `t`. */
    std::uint64_t
    loadsServed(Tier t) const
    {
        return served_[tierIndex(t)].total();
    }

  protected:
    HomeChainModel(SystemContext &ctx, bool hierarchical, bool node_tier);

    // --- family hooks (one virtual call per hop) ---

    /** May GPM `node` keep a copy of `line` in its L2? */
    virtual bool
    mayCacheAt(GpmId node, Addr line) const
    {
        (void)node;
        (void)line;
        return true;
    }

    /** Home `home` answers a load that `via` (another GPM) sent it. */
    virtual void
    onLoadAnswered(GpmId home, GpmId via, Addr line)
    {
        (void)home;
        (void)via;
        (void)line;
    }

    /** A write lands at home `home`; `writer` is the GPM to record as
     *  holding the new data, or kInvalidGpm for none. */
    virtual void
    onStore(GpmId home, GpmId writer, Addr line)
    {
        (void)home;
        (void)writer;
        (void)line;
    }

    /** State threaded through a write-through chain. */
    struct StoreFlow
    {
        MemAccess acc;
        HomeChain chain;
        Version v = 0;
        DoneCb sysDone;           //!< per-op completion for the SM
        bool gpuCleared = false;  //!< GPU-level tracker already released
        bool recordWriter = true; //!< writer caches the line (not atomics)
        bool tracked = true;      //!< counts against the ReleaseTracker
        bool serialized = true;   //!< ordered by home arrival; false for
                                  //!< write-back flushes of older data
    };

    /** The route from requester `r` for `line`, whose system home is
     *  `h` (the page must be placed). */
    HomeChain chainFor(GpmId r, Addr line, GpmId h) const;

    /** Home levels on this machine's chain (1 flat, 2 with GPU homes,
     *  3 with node homes): one invalidation wave each. */
    int homeLevels() const { return 1 + hier_ + node_tier_; }

    /** Send a write from its source (f.acc.gpm) up the chain: the first
     *  hop of every store, write-back and write-through. */
    void writeThrough(StoreFlow f);

    /** Tag-check cost (misses); hits additionally pay dataLat(). */
    Tick tagLat() const { return ctx_.cfg.l2TagLatency; }
    Tick dataLat() const
    {
        return ctx_.cfg.l2HitLatency - ctx_.cfg.l2TagLatency;
    }

    bool hier_;
    bool node_tier_;

  private:
    /** The load stage at hop `t`: a tag check, then loadAt(). `via` is
     *  the GPM that sent the request (the hop itself at entry). */
    void loadStage(const MemAccess &acc, const HomeChain &c, Tier t,
                   GpmId via, LoadDoneCb back);
    void loadAt(const MemAccess &acc, const HomeChain &c, Tier t,
                GpmId via, LoadDoneCb back);

    /** Deliver `v` from `at` to `via`, where `back` runs. */
    void answerLoad(GpmId at, GpmId via, Addr line, Version v,
                    LoadDoneCb back);

    /** Fetch the line for hop `t` from the next hop (DRAM above the
     *  system home); `then` runs at `t` with the value. */
    template <typename Then>
    void fetchLine(const MemAccess &acc, const HomeChain &c, Tier t,
                   Then &&then);

    /** The store stage at hop `t`, reached from `via`. */
    void storeAt(StoreFlow f, Tier t, GpmId via);
    /** The write leaves hop `t`: forward it up, or finish at the top. */
    void storeFrom(StoreFlow f, Tier t);

    /** The home performing an atomic: the GPU home for `.gpu` and
     *  narrower scopes when the chain has one, else the system home. */
    static Tier atomicTier(const MemAccess &acc, const HomeChain &c);
    void atomicAt(const MemAccess &acc, const HomeChain &c, Version v,
                  LoadDoneCb done, DoneCb sys_done);
    void atomicPerform(const MemAccess &acc, const HomeChain &c,
                       Version v, Version old_v, LoadDoneCb done,
                       DoneCb sys_done);

    /** The system home's memory update (DRAM write bandwidth). */
    void writeMemory(GpmId h, Addr line, Version v, bool serialized);

    // LP-sharded: counted on whichever LP serves the access.
    std::array<LpCounter, kNumTiers> served_;
};

} // namespace hmg

#endif // HMG_CORE_PROTOCOL_HH
