/**
 * @file
 * Fully associative random-replacement local memory, word granularity.
 *
 * The E12 ablation replays random replacement to show the balance
 * laws do not depend on a recency order. As a one-set
 * SetAssocCache(1, M, Random) the model scanned all M ways on every
 * access; this one finds a word through a FlatWordMap and replaces a
 * slot by index, so an access costs O(1) at any capacity.
 *
 * It is bit-identical to SetAssocCache(1, M, Random, seed) access by
 * access (the differential test asserts it): empty slots fill in
 * index order — the one-set cache's "first invalid way" — and only
 * once every slot is full does a miss draw its victim with
 * rng_.below(M) from the same Xoshiro256 stream.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/local_memory.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace kb {

/** Fully associative, word-granular, write-back random replacement. */
class RandomCache : public LocalMemory
{
  public:
    /**
     * @param capacity_words capacity M in words; must be positive
     * @param seed           seed of the victim stream
     */
    RandomCache(std::uint64_t capacity_words, std::uint64_t seed);

    using LocalMemory::access;
    bool access(std::uint64_t addr, bool write) override;
    void flush() override;
    std::uint64_t capacity() const override { return capacity_; }
    std::string name() const override { return "random"; }

  private:
    /** One resident word. */
    struct Slot
    {
        std::uint64_t addr = 0;
        bool dirty = false;
    };

    std::uint64_t capacity_;
    /// Every element is resident, so size() is the fill counter:
    /// misses append until it reaches capacity_, then replace in
    /// place; flush() empties it and filling restarts at slot 0.
    std::vector<Slot> slots_;
    FlatWordMap<std::uint32_t> map_; ///< addr -> index into slots_
    Xoshiro256 rng_;
};

} // namespace kb
