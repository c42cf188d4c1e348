#include "cache/tag_array.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

namespace
{
constexpr std::uint64_t kMiss = ~std::uint64_t{0};
} // namespace

TagArray::TagArray(std::uint64_t num_sets, std::uint32_t ways,
                   std::uint32_t line_bytes)
    : num_sets_(num_sets),
      ways_(ways),
      line_bytes_(line_bytes),
      line_shift_(floorLog2(line_bytes)),
      set_epoch_(num_sets, epoch_),
      tags_(num_sets * ways),
      lru_(num_sets * ways),
      versions_(num_sets * ways)
{
    hmg_assert(num_sets > 0 && ways > 0);
    hmg_assert(isPowerOf2(line_bytes) && line_bytes >= 4);
}

TagArray
TagArray::fromCapacity(std::uint64_t capacity_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
{
    std::uint64_t lines = capacity_bytes / line_bytes;
    hmg_assert(lines % ways == 0);
    return TagArray(lines / ways, ways, line_bytes);
}

std::uint64_t
TagArray::find(std::uint64_t set, Addr line_addr) const
{
    if (set_epoch_[set] != epoch_)
        return kMiss;
    const std::uint64_t want = line_addr | kValid;
    const std::uint64_t base = set * ways_;
    for (std::uint64_t i = base; i < base + ways_; ++i)
        if ((tags_[i] & ~kDirty) == want)
            return i;
    return kMiss;
}

TagArray::Line
TagArray::lookup(Addr line_addr)
{
    const std::uint64_t i = find(setOf(line_addr), line_addr);
    if (i == kMiss)
        return {};
    lru_[i] = next_lru_++;
    return {&tags_[i], &versions_[i]};
}

std::optional<CacheLine>
TagArray::peek(Addr line_addr) const
{
    const std::uint64_t i = find(setOf(line_addr), line_addr);
    if (i == kMiss)
        return std::nullopt;
    return lineAt(i);
}

TagArray::Line
TagArray::insert(Addr line_addr, CacheLine *evicted)
{
    hmg_assert((line_addr & (kValid | kDirty)) == 0);
    if (evicted)
        evicted->valid = false;
    const std::uint64_t set = setOf(line_addr);
    if (const std::uint64_t i = find(set, line_addr); i != kMiss) {
        lru_[i] = next_lru_++;
        return {&tags_[i], &versions_[i]};
    }

    const std::uint64_t base = set * ways_;
    if (set_epoch_[set] != epoch_) {
        // First touch since invalidateAll(): the ways hold stale lines.
        std::fill_n(tags_.begin() + static_cast<std::ptrdiff_t>(base),
                    ways_, std::uint64_t{0});
        set_epoch_[set] = epoch_;
    }
    // The first invalid way, else the least recently used one.
    std::uint64_t victim = base;
    bool victim_valid = (tags_[base] & kValid) != 0;
    for (std::uint64_t i = base + 1; victim_valid && i < base + ways_;
         ++i) {
        if (!(tags_[i] & kValid)) {
            victim = i;
            victim_valid = false;
        } else if (lru_[i] < lru_[victim]) {
            victim = i;
        }
    }
    if (victim_valid) {
        if (evicted)
            *evicted = lineAt(victim);
    } else {
        ++valid_;
    }
    tags_[victim] = line_addr | kValid;
    versions_[victim] = 0;
    lru_[victim] = next_lru_++;
    return {&tags_[victim], &versions_[victim]};
}

bool
TagArray::invalidate(Addr line_addr, CacheLine *dropped)
{
    const std::uint64_t i = find(setOf(line_addr), line_addr);
    if (i == kMiss)
        return false;
    if (dropped)
        *dropped = lineAt(i);
    tags_[i] = 0;
    --valid_;
    return true;
}

std::uint64_t
TagArray::invalidateRange(Addr base_addr, std::uint64_t bytes)
{
    std::uint64_t n = 0;
    for (Addr a = base_addr; a < base_addr + bytes; a += line_bytes_)
        if (invalidate(a))
            ++n;
    return n;
}

std::uint64_t
TagArray::invalidateAll()
{
    const std::uint64_t n = valid_;
    valid_ = 0;
    if (++epoch_ == 0) {
        // Wrapped: restamp every set as stale against epoch 1, so no
        // set left at an old stamp can come back to life.
        std::fill(set_epoch_.begin(), set_epoch_.end(), std::uint16_t{0});
        epoch_ = 1;
    }
    return n;
}

} // namespace hmg
