/**
 * @file
 * Set-associative local memory with pluggable replacement policy.
 *
 * Real local memories are rarely fully associative; this model lets
 * the ablation experiment (E12) check that Kung's balance exponents
 * survive realistic associativity and cheaper replacement policies.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/local_memory.hpp"
#include "util/rng.hpp"

namespace kb {

/** Replacement policy for a set-associative memory. */
enum class ReplacementPolicy { LRU, FIFO, Random };

/** Name of a policy, for reports. */
const char *replacementPolicyName(ReplacementPolicy policy);

/**
 * Set-associative, word-granular, write-back memory.
 *
 * Capacity = sets * ways words. Addresses map to sets by modulo.
 * The one-set Random configuration is the differential oracle for
 * RandomCache, which the engine replays in its place.
 */
class SetAssocCache : public LocalMemory
{
  public:
    /**
     * @param sets   number of sets (power of two recommended)
     * @param ways   associativity
     * @param policy replacement policy within a set
     * @param seed   RNG seed (Random policy only)
     */
    SetAssocCache(std::uint64_t sets, std::uint64_t ways,
                  ReplacementPolicy policy, std::uint64_t seed = 1);

    using LocalMemory::access;
    bool access(std::uint64_t addr, bool write) override;
    void flush() override;
    std::uint64_t capacity() const override { return sets_ * ways_; }
    std::string name() const override;

    std::uint64_t sets() const { return sets_; }
    std::uint64_t ways() const { return ways_; }

  private:
    struct Way
    {
        std::uint64_t addr = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0; ///< LRU: last use; FIFO: fill time
    };

    std::vector<Way> &setFor(std::uint64_t addr);
    std::size_t victimIn(std::vector<Way> &set);

    std::uint64_t sets_;
    std::uint64_t ways_;
    ReplacementPolicy policy_;
    std::vector<std::vector<Way>> table_;
    std::uint64_t clock_ = 0;
    Xoshiro256 rng_;
};

} // namespace kb
