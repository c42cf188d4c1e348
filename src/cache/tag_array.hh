/**
 * @file
 * Generic set-associative tag array with LRU replacement.
 *
 * Used by the L1 caches and the L2 caches. Lines carry the
 * store-version payload used by the correctness oracle (see
 * mem/memory_state.hh).
 *
 * Storage is a structure of arrays, 24 bytes per line: an 8-byte tag
 * word (the line address, with the valid flag in bit 0 and the dirty
 * flag in bit 1 — line addresses are at least 4-byte aligned), an
 * 8-byte LRU stamp and an 8-byte Version. A probe reads only the set's
 * tag words. Each set also carries a 16-bit epoch stamp: a set whose
 * stamp differs from the array's current epoch is empty, whatever its
 * tag words say. invalidateAll() therefore just advances the epoch —
 * O(1), where the software protocols call it on every acquire — and a
 * stale set's ways are cleared by the first insert that touches it.
 */

#ifndef HMG_CACHE_TAG_ARRAY_HH
#define HMG_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace hmg
{

/** One cache line's bookkeeping, by value (victims, peeks, visits). */
struct CacheLine
{
    Addr addr = 0;          //!< full line address (tag + index)
    bool valid = false;
    bool dirty = false;     //!< holds a write not yet at the home (WB)
    Version version = 0;    //!< newest store version this copy reflects
};

/** Set-associative array of lines with true-LRU replacement. */
class TagArray
{
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

  public:
    /**
     * Handle to a resident line, as returned by lookup() and insert():
     * the line's version by reference plus its dirty flag. Valid until
     * the next insert or invalidation of the array. A default (miss)
     * handle converts to false.
     */
    class Line
    {
      public:
        Line() = default;

        explicit operator bool() const { return tag_ != nullptr; }

        Version &version() const { return *version_; }
        bool dirty() const { return (*tag_ & kDirty) != 0; }
        void
        setDirty(bool dirty) const
        {
            *tag_ = dirty ? (*tag_ | kDirty) : (*tag_ & ~kDirty);
        }

      private:
        friend class TagArray;
        Line(std::uint64_t *tag, Version *version)
            : tag_(tag), version_(version)
        {
        }

        std::uint64_t *tag_ = nullptr;
        Version *version_ = nullptr;
    };

    /**
     * @param num_sets number of sets (any positive integer)
     * @param ways associativity
     * @param line_bytes line size; addresses are hashed by line number
     */
    TagArray(std::uint64_t num_sets, std::uint32_t ways,
             std::uint32_t line_bytes);

    /** Build geometry from a capacity in bytes. */
    static TagArray fromCapacity(std::uint64_t capacity_bytes,
                                 std::uint32_t ways,
                                 std::uint32_t line_bytes);

    /** Find `line_addr` and refresh its LRU stamp; a false handle on a
     *  miss. */
    Line lookup(Addr line_addr);

    /** Find without touching LRU state. */
    std::optional<CacheLine> peek(Addr line_addr) const;

    /**
     * Allocate a slot for `line_addr`, evicting the set's LRU victim if
     * the set is full (the first invalid way is used before any valid
     * one). A new line is valid and clean with version 0 — the caller
     * sets it.
     *
     * @param evicted set to the evicted line (valid==true) when a live
     *        victim was displaced, else valid==false.
     * @return the allocated line. If the line is already present it is
     *         reused in place, with its version and dirty flag kept.
     */
    Line insert(Addr line_addr, CacheLine *evicted = nullptr);

    /**
     * Invalidate one line, copying it to `dropped` when given.
     * @return true if it was present.
     */
    bool invalidate(Addr line_addr, CacheLine *dropped = nullptr);

    /** Invalidate every line in [base, base+bytes). @return count. */
    std::uint64_t invalidateRange(Addr base, std::uint64_t bytes);

    /** Invalidate everything in O(1). @return number of lines dropped. */
    std::uint64_t invalidateAll();

    /** Number of currently valid lines. */
    std::uint64_t validCount() const { return valid_; }

    std::uint64_t numSets() const { return num_sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t lineBytes() const { return line_bytes_; }

    /** Visit every valid line, set-major then way-minor. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::uint64_t s = 0; s < num_sets_; ++s) {
            if (set_epoch_[s] != epoch_)
                continue;
            for (std::uint64_t i = s * ways_; i < (s + 1) * ways_; ++i)
                if (tags_[i] & kValid)
                    fn(lineAt(i));
        }
    }

    /**
     * Clear the dirty flag of every dirty line, visiting each (as it
     * was) in forEachValid() order. @return number of lines visited.
     */
    template <typename Fn>
    std::uint64_t
    cleanDirty(Fn &&fn)
    {
        std::uint64_t n = 0;
        for (std::uint64_t s = 0; s < num_sets_; ++s) {
            if (set_epoch_[s] != epoch_)
                continue;
            for (std::uint64_t i = s * ways_; i < (s + 1) * ways_; ++i) {
                if ((tags_[i] & (kValid | kDirty)) == (kValid | kDirty)) {
                    fn(lineAt(i));
                    tags_[i] &= ~kDirty;
                    ++n;
                }
            }
        }
        return n;
    }

  private:
    std::uint64_t setOf(Addr line_addr) const
    {
        return (line_addr >> line_shift_) % num_sets_;
    }

    /** Index of `line_addr`'s way in `set`, or ~0 on a miss (stale
     *  sets miss without reading their tags). */
    std::uint64_t find(std::uint64_t set, Addr line_addr) const;

    CacheLine
    lineAt(std::uint64_t i) const
    {
        return {tags_[i] & ~(kValid | kDirty), true,
                (tags_[i] & kDirty) != 0, versions_[i]};
    }

    std::uint64_t num_sets_;
    std::uint32_t ways_;
    std::uint32_t line_bytes_;
    unsigned line_shift_;
    std::uint64_t next_lru_ = 1;
    /** Lines valid in the current epoch. */
    std::uint64_t valid_ = 0;
    /** Sets stamped with another epoch are empty. */
    std::uint16_t epoch_ = 0;
    std::vector<std::uint16_t> set_epoch_;
    /** Per line, set-major: address | dirty | valid. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<Version> versions_;
};

} // namespace hmg

#endif // HMG_CACHE_TAG_ARRAY_HH
