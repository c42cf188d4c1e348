#include "sim/engine.hh"

#include <algorithm>
#include <new>
#include <utility>

#include "common/log.hh"

namespace hmg
{

namespace
{

// det-ok: per-thread current-engine pointer; each LP thread only ever
// observes its own engine, so no cross-thread order can leak. It is
// file-local and read through Engine::current(), so no other
// translation unit goes through a TLS wrapper to reach it.
thread_local Engine *tl_current = nullptr;

} // namespace

Engine *
Engine::current()
{
    return tl_current;
}

Engine::Engine() : buckets_(kWheelSize) {}

Engine::~Engine()
{
    // Pending closures are destroyed in place; their chunks go away
    // with the slabs afterwards.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
            const std::size_t b =
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
            drainBucket(b, [](Record *r) { r->ops->destroy(r + 1); });
        }
    }
}

std::byte *
Engine::acquireChunk()
{
    if (free_chunks_ == nullptr) {
        auto *slab = static_cast<std::byte *>(::operator new(
            kChunksPerSlab * kChunkBytes, std::align_val_t{kChunkBytes}));
        slabs_.emplace_back(slab);
        // Pushed in reverse so chunks are handed out in address order.
        for (std::size_t i = kChunksPerSlab; i-- > 0;)
            releaseChunk(slab + i * kChunkBytes);
    }
    std::byte *chunk = free_chunks_;
    free_chunks_ = *std::launder(reinterpret_cast<std::byte **>(chunk));
    return chunk;
}

std::byte *
Engine::growBucket(Bucket &bk)
{
    std::byte *chunk = acquireChunk();
    if (bk.tail == nullptr) {
        bk.read = chunk;
    } else {
        // The tail chunk keeps its last header slot free, so the link
        // always fits where the record did not.
        auto *link = new (bk.tail) Record;
        link->ops = nullptr;
        link->next = chunk;
    }
    return chunk;
}

template <typename Visit>
void
Engine::drainBucket(std::size_t b, Visit &&visit)
{
    Bucket &bk = buckets_[b];
    std::byte *p = bk.read;
    // `visit` may append to this bucket (a same-tick schedule), so the
    // tail is re-read before every record.
    while (p != bk.tail) {
        auto *r = reinterpret_cast<Record *>(p);
        if (r->ops == nullptr) {
            // Everything before the link has run; its chunk is free.
            releaseChunk(chunkOf(p));
            p = r->next;
            continue;
        }
        p += r->ops->bytes;
        visit(r);
    }
    releaseChunk(chunkOf(p - 1));
    clearBucket(b);
}

void
Engine::spillWheelToOverflow()
{
    // Wheel ticks ([search_from_, wheel_limit_)) are disjoint from both
    // the pre-existing overflow ticks (>= wheel_limit_) and the early
    // boundary deliveries that triggered the spill (< the window), so
    // appending bucket-by-bucket keeps every same-tick run of the
    // overflow list in insertion order — the sweep that follows rebuilds
    // (tick, insertion-order) exactly.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const std::size_t b =
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            const Tick when = bucketTick(b);
            drainBucket(b, [&](Record *r) {
                overflow_.push_back({when, r->seq, r->ops->take(r + 1)});
            });
        }
    }
    wheel_count_ = 0;
}

std::ptrdiff_t
Engine::findNextBucket()
{
    for (;;) {
        if (wheel_count_ > 0 && overflow_min_ < search_from_) {
            // A boundary delivery landed below the entire resident
            // window; push the wheel back into overflow and fall through
            // to the sweep, which re-anchors the window at the early
            // event. Only partitioned runs can reach this.
            spillWheelToOverflow();
        }
        if (wheel_count_ > 0) {
            // Every pending wheel event lies in [search_from_,
            // wheel_limit_), a window at most kWheelSize wide, so a
            // circular bitmap scan starting at search_from_ visits
            // buckets in increasing-tick order.
            const std::size_t start = search_from_ & kWheelMask;
            std::size_t word = start >> 6;
            std::uint64_t bits =
                occupied_[word] & (~std::uint64_t{0} << (start & 63));
            for (;;) {
                if (bits != 0) {
                    const auto b = static_cast<std::ptrdiff_t>(
                        (word << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(bits)));
                    // The bucket's (unique) tick, recovered from the
                    // index arithmetically — no memory dependency.
                    search_from_ = bucketTick(static_cast<std::size_t>(b));
                    return b;
                }
                word = (word + 1) & (kBitmapWords - 1);
                bits = occupied_[word];
            }
        }
        if (overflow_.empty())
            return -1;
        // Wheel drained: jump the window to the earliest overflow event
        // and sweep everything inside the new window into the wheel. The
        // sweep preserves insertion order — the tie-break half of the
        // determinism contract — and any event scheduled into these ticks
        // afterwards appends behind the swept ones, so (tick, insertion
        // order) holds across the wheel/overflow boundary.
        search_from_ = overflow_min_;
        wheel_limit_ = overflow_min_ + kWheelSize;
        Tick new_min = kTickMax;
        std::size_t keep = 0;
        for (auto &ev : overflow_) {
            if (ev.when < wheel_limit_) {
                emplaceRecord<Callback>(ev.when & kWheelMask, ev.seq,
                                        std::move(ev.cb));
            } else {
                new_min = std::min(new_min, ev.when);
                overflow_[keep++] = std::move(ev);
            }
        }
        overflow_.resize(keep);
        overflow_min_ = new_min;
    }
}

void
Engine::executeFront(std::ptrdiff_t b)
{
    const auto bi = static_cast<std::size_t>(b);
    Bucket &bk = buckets_[bi];
    auto *r = reinterpret_cast<Record *>(bk.read);
    hmg_assert(search_from_ >= now_);
    now_ = search_from_;
    bk.read += r->ops->bytes;
    // The record runs in place, so a chunk this pop finishes is released
    // only after the closure returns; the cursor steps over a link now,
    // so peekNext() never sees one.
    std::byte *finished = nullptr;
    if (bk.read == bk.tail) {
        finished = chunkOf(bk.tail - 1);
        clearBucket(bi);
    } else if (auto *link = reinterpret_cast<Record *>(bk.read);
               link->ops == nullptr) {
        finished = chunkOf(bk.read);
        bk.read = link->next;
    }
    --wheel_count_;
    --size_;
    ++executed_;
    r->ops->run(r + 1);
    if (finished)
        releaseChunk(finished);
}

bool
Engine::peekNext(Tick &when, std::uint64_t &seq)
{
    const std::ptrdiff_t b = findNextBucket();
    if (b < 0)
        return false;
    when = search_from_;
    seq = reinterpret_cast<const Record *>(
              buckets_[static_cast<std::size_t>(b)].read)
              ->seq;
    return true;
}

bool
Engine::runOne()
{
    const std::ptrdiff_t b = findNextBucket();
    if (b < 0)
        return false;
    Engine *const prev = tl_current;
    tl_current = this;
    executeFront(b);
    tl_current = prev;
    return true;
}

Tick
Engine::run(Tick until)
{
    Engine *const prev = tl_current;
    tl_current = this;
    // The window [search_from_, wheel_limit_) is never wider than
    // kWheelSize, so every event in a bucket shares one tick — a found
    // bucket can be drained whole without rescanning the bitmap. Records
    // run in place (one indirect call each) and never move: a callback
    // scheduling at the current tick appends behind the tail, which the
    // drain loop re-reads before every record, so same-tick events run
    // in insertion order.
    for (;;) {
        const std::ptrdiff_t b = findNextBucket();
        if (b < 0 || search_from_ > until)
            break;
        now_ = search_from_;
        std::size_t ran = 0;
        drainBucket(static_cast<std::size_t>(b), [&ran](Record *r) {
            r->ops->run(r + 1);
            ++ran;
        });
        wheel_count_ -= ran;
        size_ -= ran;
        executed_ += ran;
    }
    tl_current = prev;
    return now_;
}

} // namespace hmg
