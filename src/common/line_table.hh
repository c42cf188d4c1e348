/**
 * @file
 * LineTable: a flat open-addressed map from a line address to a small
 * trivially-copyable value, for per-line bookkeeping on the memop path
 * (the L2 MSHRs and the SM store buffer).
 *
 * Linear probing over a power-of-two slot array with Fibonacci hashing
 * and backward-shift deletion, so there are no tombstones and a probe
 * usually touches one cache line. The array is allocated on the first
 * insert and doubles at half load; it never shrinks, so a table that
 * has seen its high-water mark allocates nothing more. The table is
 * never iterated: callers probe, insert and erase by key, so slot order
 * cannot reach the schedule.
 */

#ifndef HMG_COMMON_LINE_TABLE_HH
#define HMG_COMMON_LINE_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace hmg
{

template <typename V>
class LineTable
{
    static_assert(std::is_trivially_copyable_v<V>);

  public:
    /** The value stored under `key`, or nullptr. Valid until the next
     *  insert or erase. */
    V *
    find(Addr key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == kEmpty)
                return nullptr;
        }
    }

    /**
     * The value under `key`, value-initialised when the key is new.
     * @return the value (valid until the next insert or erase) and
     * whether it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        hmg_assert(key != kEmpty);
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        std::size_t i = home(key);
        for (; slots_[i].key != kEmpty; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
        slots_[i] = {key, V{}};
        ++size_;
        return {&slots_[i].value, true};
    }

    /** Remove `key`, which must be present. */
    void
    erase(Addr key)
    {
        std::size_t i = home(key);
        while (slots_[i].key != key) {
            hmg_assert(slots_[i].key != kEmpty);
            i = (i + 1) & mask_;
        }
        // Backward shift: pull each later entry of the probe run into
        // the hole unless its home lies cyclically in (hole, entry].
        for (std::size_t j = i;;) {
            j = (j + 1) & mask_;
            if (slots_[j].key == kEmpty)
                break;
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) < ((j - i) & mask_))
                continue;
            slots_[i] = slots_[j];
            i = j;
        }
        slots_[i].key = kEmpty;
        --size_;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

  private:
    /** Never a line address: lines are aligned, this is all ones. */
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 8;

    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kInitialSlots : old.size() * 2;
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - floorLog2(n);
        for (const Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace hmg

#endif // HMG_COMMON_LINE_TABLE_HH
