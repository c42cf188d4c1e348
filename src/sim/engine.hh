/**
 * @file
 * The event-driven simulation kernel.
 *
 * A single Engine owns simulated time. Components schedule closures at
 * future ticks; the engine executes them in (tick, insertion-order)
 * order, which makes simulation results fully deterministic.
 *
 * The pending-event set is a timing wheel specialized for the schedule
 * distribution of cache/NoC events, which is overwhelmingly near-future
 * (hit latencies, hop latencies, DRAM and queueing delays — almost all
 * within a few thousand cycles of `now`):
 *
 *  - one bucket per tick over a 2^14-cycle window; execution walks a
 *    2 KB occupancy bitmap to the next populated tick;
 *  - an event is a size-exact *record*: a 16-byte header (per-closure-
 *    type ops pointer + insertion-order stamp) followed by the closure
 *    itself, rounded up to 16 bytes — a `Port` pump that captures only
 *    `this` takes 32 bytes;
 *  - records are constructed in place in fixed 4 KiB chunks; a bucket is
 *    a chain of chunks with a read cursor and an append tail, so records
 *    never move and same-tick appends during a drain simply extend the
 *    chain;
 *  - drained chunks return to an engine-owned LIFO free list, so the
 *    next populated tick writes into memory that is still in cache;
 *  - events beyond the window go to an overflow list of
 *    (tick, seq, Callback) that is swept into the wheel each time the
 *    wheel drains (at most once per 2^14 ticks, or directly to the next
 *    populated tick when the schedule is sparse). Closures larger than a
 *    chunk or over-aligned for one are boxed in a Callback first.
 *
 * Pending-event memory is therefore bounded by the live events' record
 * bytes plus at most one partly filled 4 KiB chunk per populated tick;
 * steady state does zero heap allocations per event. The determinism
 * contract and its proof obligations are spelled out in DESIGN.md
 * ("Event kernel & parallel sweeps").
 */

#ifndef HMG_SIM_ENGINE_HH
#define HMG_SIM_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace hmg
{

/** Discrete-event simulation engine. */
class Engine
{
  public:
    /**
     * The owning, movable form of an event, for code that holds a
     * closure before scheduling it (message arrivals, PDES mailboxes)
     * and for the engine's own overflow list. Inline capacity of 192
     * bytes covers every closure the protocol engines schedule today
     * (the fattest captures `this` + MemAccess + two ids + a Version +
     * two 64-byte SmallCallback completions = 184 bytes).
     */
    using Callback = SmallCallback<192>;

    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * The engine currently executing events on this thread, or nullptr
     * outside run()/runOne(). Partitioned (PDES) runs use this to route
     * dynamically-scoped scheduling to the logical process that is
     * executing, so code that says "schedule on the engine" keeps
     * working unchanged with one engine per LP.
     */
    static Engine *current();

    /**
     * Redirect the insertion-order counter that stamps every scheduled
     * event. The deterministic LP merge shares one counter across all
     * per-LP engines so the global (tick, insertion-order) total order
     * is exactly the order a single serial wheel would have produced.
     * Pass nullptr to restore the engine's private counter.
     */
    void
    setSeqSource(std::uint64_t *src)
    {
        seq_src_ = src ? src : &own_seq_;
    }

    /**
     * Advance `now` to `t` without executing anything. The deterministic
     * LP merge calls this on every engine before running the globally
     * earliest event, so cross-engine schedules and ready-time
     * comparisons observe the same clock a serial run would. `t` must
     * not exceed the engine's earliest pending event.
     */
    void
    syncNow(Tick t)
    {
        if (t > now_)
            now_ = t;
    }

    /**
     * Tick and insertion-order stamp of the earliest pending event,
     * without executing it. @return false when the queue is empty.
     */
    bool peekNext(Tick &when, std::uint64_t &seq);

    /**
     * When enabled, inserting from a thread that is currently executing
     * a *different* engine panics. The relaxed PDES mode turns this on:
     * cross-LP effects must travel through boundary channels or posted
     * messages, never by direct scheduling into another LP's wheel.
     */
    void setAffinityChecking(bool on) { affine_ = on; }

    /**
     * Schedule `f` to run `delay` cycles from now. Templated so the
     * callable is constructed directly in its record — a closure
     * reaches the queue with zero intermediate moves.
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_constructible_v<Callback, F &&>>>
    void
    schedule(Tick delay, F &&f)
    {
        insert(now_ + delay, std::forward<F>(f));
    }

    /** Schedule `f` at absolute tick `when` (must be >= now). */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_constructible_v<Callback, F &&>>>
    void
    scheduleAt(Tick when, F &&f)
    {
        insert(when, std::forward<F>(f));
    }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /** Execute the next event, if any. @return false when queue empty. */
    bool runOne();

    /**
     * Run until the queue drains or simulated time would pass `until`.
     * @return the final simulated time.
     */
    Tick run(Tick until = kTickMax);

    /** Total events executed over the engine's lifetime. */
    std::uint64_t eventsExecuted() const { return executed_; }

  private:
    /** log2 of the wheel window; one bucket per tick. */
    static constexpr std::size_t kWheelBits = 14;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kBitmapWords = kWheelSize / 64;

    /** Chunks are kChunkBytes long and kChunkBytes-aligned, so a record's
     *  chunk is its address with the low bits cleared. */
    static constexpr std::size_t kChunkBytes = 4096;
    /** Chunks carved from one heap allocation. */
    static constexpr std::size_t kChunksPerSlab = 16;
    static constexpr std::size_t kRecordAlign = 16;
    /** Record bytes per chunk; the last header slot is kept free for the
     *  link to the next chunk, so a link always fits behind the tail. */
    static constexpr std::size_t kChunkPayload = kChunkBytes - kRecordAlign;

    /** Per-closure-type operations on a record's closure. */
    struct RecordOps
    {
        /** Invoke, then destroy. */
        void (*run)(void *);
        /** Move the closure out as a Callback, then destroy it. */
        Callback (*take)(void *);
        void (*destroy)(void *);
        /** Header plus closure, rounded up to kRecordAlign. */
        std::size_t bytes;
    };

    /**
     * Record header; the closure follows it directly. A header with null
     * `ops` is a link: the bucket continues at `next` in another chunk.
     */
    struct alignas(kRecordAlign) Record
    {
        const RecordOps *ops;
        union
        {
            /** Insertion-order stamp; ties on the tick break by `seq`. */
            std::uint64_t seq;
            std::byte *next;
        };
    };
    static_assert(sizeof(Record) == kRecordAlign);

    template <typename Fn>
    static constexpr std::size_t kRecordBytes =
        sizeof(Record) +
        (sizeof(Fn) + kRecordAlign - 1) / kRecordAlign * kRecordAlign;

    /** Closures stored as themselves; anything else is boxed in a
     *  Callback record (sizeof(Callback) is well under a chunk). */
    template <typename Fn>
    static constexpr bool kFitsRecord =
        kRecordBytes<Fn> <= kChunkPayload && alignof(Fn) <= kRecordAlign;
    static_assert(kFitsRecord<Callback>);

    template <typename Fn>
    static Fn *
    closureOf(void *p)
    {
        return std::launder(static_cast<Fn *>(p));
    }

    template <typename Fn>
    static constexpr RecordOps kOps = {
        [](void *p) {
            Fn *f = closureOf<Fn>(p);
            (*f)();
            f->~Fn();
        },
        [](void *p) {
            Fn *f = closureOf<Fn>(p);
            Callback cb(std::move(*f));
            f->~Fn();
            return cb;
        },
        [](void *p) { closureOf<Fn>(p)->~Fn(); },
        kRecordBytes<Fn>,
    };

    /**
     * Events for one tick, in insertion order. `read` is the next record
     * to execute, `tail` the append position in the last chunk; both are
     * null when the bucket is empty. Outside run()'s drain loop `read`
     * never rests on a link.
     */
    struct Bucket
    {
        std::byte *read = nullptr;
        std::byte *tail = nullptr;
    };

    static std::byte *
    chunkOf(const std::byte *p)
    {
        return reinterpret_cast<std::byte *>(
            reinterpret_cast<std::uintptr_t>(p) & ~(kChunkBytes - 1));
    }

    static std::size_t
    chunkOffset(const std::byte *p)
    {
        return reinterpret_cast<std::uintptr_t>(p) & (kChunkBytes - 1);
    }

    /**
     * Common schedule path; the callable is constructed straight into
     * its record or overflow slot. Defined here so scheduling inlines
     * into the protocol engines' hot loops (it is a handful of
     * instructions plus the closure's construction).
     */
    template <typename F>
    void
    insert(Tick when, F &&f)
    {
        hmg_assert(when >= now_);
        // The window-jump arithmetic needs kWheelSize of headroom below
        // the kTickMax sentinel; at 1.3 GHz that bound is ~450 years of
        // simulated time away.
        hmg_assert(when < kTickMax - kWheelSize);
        // Cross-LP effects must not schedule directly into another LP's
        // wheel while its worker thread may be running (see
        // setAffinityChecking).
        hmg_assert(!affine_ || current() == nullptr || current() == this);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            hmg_assert(f);
        if (when < wheel_limit_ && when >= wheel_limit_ - kWheelSize) {
            using Fn = std::decay_t<F>;
            const std::size_t b = when & kWheelMask;
            if constexpr (kFitsRecord<Fn>)
                emplaceRecord<Fn>(b, (*seq_src_)++, std::forward<F>(f));
            else
                emplaceRecord<Callback>(b, (*seq_src_)++,
                                        Callback(std::forward<F>(f)));
            // An LP whose own schedule is sparse can have its scan
            // cursor far ahead of merged time when a boundary delivery
            // lands; pull the cursor back so the bitmap scan visits the
            // new event. Serial runs never take this branch (inserts
            // are always at or after the cursor).
            if (when < search_from_)
                search_from_ = when;
        } else {
            overflow_min_ = std::min(overflow_min_, when);
            overflow_.push_back(
                {when, (*seq_src_)++, Callback(std::forward<F>(f))});
        }
        ++size_;
    }

    /** Construct a record of closure type `Fn` at the tail of bucket `b`. */
    template <typename Fn, typename F>
    void
    emplaceRecord(std::size_t b, std::uint64_t seq, F &&f)
    {
        constexpr std::size_t bytes = kRecordBytes<Fn>;
        Bucket &bk = buckets_[b];
        std::byte *p = bk.tail;
        if (p == nullptr || chunkOffset(p) + bytes > kChunkPayload)
            p = growBucket(bk);
        // Closure first: if building it throws, no header or tail
        // refers to the half-written record.
        new (p + sizeof(Record)) Fn(std::forward<F>(f));
        auto *r = new (p) Record;
        r->ops = &kOps<Fn>;
        r->seq = seq;
        bk.tail = p + bytes;
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
    }

    /**
     * Give bucket `bk` a fresh chunk to append into — its first, or one
     * linked behind its full tail chunk — and return the chunk.
     */
    std::byte *growBucket(Bucket &bk);

    /** Pop a chunk off the free list, carving a new slab if it is empty. */
    std::byte *acquireChunk();

    /** Push a drained chunk; the next acquireChunk() reuses it. */
    void
    releaseChunk(std::byte *chunk)
    {
        new (chunk) std::byte *(free_chunks_);
        free_chunks_ = chunk;
    }

    /**
     * Consume every record of bucket `b` in insertion order — including
     * records appended by `visit` itself — handing each to `visit`, then
     * free the bucket's chunks and mark it empty.
     */
    template <typename Visit> void drainBucket(std::size_t b, Visit &&visit);

    /** Tick of the wheel bucket `b`, given the residency window. */
    Tick
    bucketTick(std::size_t b) const
    {
        return search_from_ + ((static_cast<Tick>(b) - search_from_) &
                               kWheelMask);
    }

    /**
     * Move every wheel event back to the overflow list, preserving
     * per-bucket (per-tick) order. Taken only when a boundary delivery
     * lands below the whole resident window (the LP idled far ahead);
     * the next sweep re-anchors the window at the early event.
     */
    void spillWheelToOverflow();

    /**
     * Index of the bucket holding the earliest pending event, advancing
     * the window / sweeping the overflow list as needed. Returns -1 when
     * no events remain.
     */
    std::ptrdiff_t findNextBucket();

    /** Pop and run the front event of bucket `b` (found by findNextBucket). */
    void executeFront(std::ptrdiff_t b);

    /** Mark bucket `b` empty after its last record was consumed. */
    void
    clearBucket(std::size_t b)
    {
        buckets_[b] = Bucket{};
        occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }

    std::vector<Bucket> buckets_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};

    /** Wheel residency window is [search_from_, wheel_limit_), <= kWheelSize
     *  wide; every pending wheel event's tick lies inside it. */
    Tick wheel_limit_ = kWheelSize;
    /** Lower bound for the next-event scan; no pending event is earlier. */
    Tick search_from_ = 0;
    std::size_t wheel_count_ = 0;

    /** An event held outside the wheel. */
    struct Overflow
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Events at or beyond wheel_limit_, in insertion order. */
    std::vector<Overflow> overflow_;
    Tick overflow_min_ = kTickMax;

    struct SlabDelete
    {
        void
        operator()(std::byte *slab) const
        {
            ::operator delete(slab, std::align_val_t{kChunkBytes});
        }
    };

    /** Every slab this engine allocated; chunks never leave the engine. */
    std::vector<std::unique_ptr<std::byte, SlabDelete>> slabs_;
    /** LIFO list of free chunks, linked through their first word. */
    std::byte *free_chunks_ = nullptr;

    Tick now_ = 0;
    std::size_t size_ = 0;
    std::uint64_t executed_ = 0;

    /** Private insertion-order counter (see setSeqSource). */
    std::uint64_t own_seq_ = 0;
    std::uint64_t *seq_src_ = &own_seq_;
    bool affine_ = false;
};

} // namespace hmg

#endif // HMG_SIM_ENGINE_HH
