/**
 * @file
 * The red-blue pebble game (Hong & Kung, 1981).
 *
 * Red pebbles are words in the PE's local memory (at most S at once);
 * blue pebbles are words in the outside world. The four moves:
 *
 *   R1 (read):    place a red pebble on a blue-pebbled node    [1 I/O]
 *   R2 (compute): place a red pebble on a node whose
 *                 predecessors all carry red pebbles           [free]
 *   R3 (write):   place a blue pebble on a red-pebbled node    [1 I/O]
 *   R4 (delete):  remove a red pebble                          [free]
 *
 * Inputs start blue; the game ends when every output is blue. The
 * minimum total count of R1+R3 moves is the computation's I/O
 * complexity Q(S) — the quantity behind the paper's Cio.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "pebble/dag.hpp"

namespace kb {

/** Move types of the red-blue pebble game. */
enum class MoveType : std::uint8_t { Read, Compute, Write, Delete };

/** One move: a type applied to a node. */
struct PebbleMove
{
    MoveType type;
    Dag::NodeId node;
};

/**
 * Game state machine enforcing legality of every move and counting
 * I/O moves.
 */
class PebbleGame
{
  public:
    /**
     * @param dag       the computation DAG (must outlive the game)
     * @param red_limit S: maximum simultaneous red pebbles, >= 1
     */
    PebbleGame(const Dag &dag, std::uint64_t red_limit);

    /**
     * Apply one move.
     * @retval true if the move was legal and applied
     * @retval false if illegal (state unchanged)
     */
    bool apply(const PebbleMove &move);

    /** True when every required output carries a blue pebble. */
    bool done() const;

    bool hasRed(Dag::NodeId v) const { return red_[v]; }
    bool hasBlue(Dag::NodeId v) const { return blue_[v]; }

    std::uint64_t redCount() const { return red_count_; }
    std::uint64_t redLimit() const { return red_limit_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    /** Total I/O moves so far (R1 + R3). */
    std::uint64_t ioMoves() const { return reads_ + writes_; }
    std::uint64_t moveCount() const { return moves_; }

  private:
    const Dag &dag_;
    std::uint64_t red_limit_;
    std::vector<bool> red_, blue_;
    std::uint64_t red_count_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t moves_ = 0;
};

} // namespace kb
