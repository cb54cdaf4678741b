#include "mem/random_cache.hpp"

#include "util/logging.hpp"

namespace kb {

RandomCache::RandomCache(std::uint64_t capacity_words, std::uint64_t seed)
    : capacity_(capacity_words), rng_(seed)
{
    KB_REQUIRE(capacity_ > 0 && capacity_ <= 0xFFFFFFFFu,
               "random-replacement capacity must be in [1, 2^32)");
}

bool
RandomCache::access(std::uint64_t addr, bool write)
{
    ++stats_.accesses;
    if (std::uint32_t *idx = map_.find(addr)) {
        ++stats_.hits;
        slots_[*idx].dirty |= write;
        return true;
    }

    ++stats_.misses;
    std::uint32_t slot;
    if (slots_.size() < capacity_) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{addr, write});
    } else {
        slot = static_cast<std::uint32_t>(rng_.below(capacity_));
        Slot &victim = slots_[slot];
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.writebacks;
        map_.erase(victim.addr);
        victim = Slot{addr, write};
    }
    map_.insert(addr, slot);
    return false;
}

void
RandomCache::flush()
{
    for (const Slot &s : slots_) {
        if (s.dirty)
            ++stats_.writebacks;
    }
    slots_.clear();
    map_.clear();
}

} // namespace kb
