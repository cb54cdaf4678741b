#include "pebble/game.hpp"

#include "util/logging.hpp"

namespace kb {

PebbleGame::PebbleGame(const Dag &dag, std::uint64_t red_limit)
    : dag_(dag), red_limit_(red_limit)
{
    KB_REQUIRE(red_limit_ >= 1, "need at least one red pebble");
    const auto n = dag_.nodeCount();
    red_.assign(n, false);
    blue_.assign(n, false);
    for (const auto v : dag_.inputs())
        blue_[v] = true;
}

bool
PebbleGame::apply(const PebbleMove &move)
{
    const auto v = move.node;
    if (v >= dag_.nodeCount())
        return false;

    switch (move.type) {
      case MoveType::Read:
        if (!blue_[v] || red_[v] || red_count_ >= red_limit_)
            return false;
        red_[v] = true;
        ++red_count_;
        ++reads_;
        break;

      case MoveType::Compute: {
        if (red_[v] || dag_.preds(v).empty() ||
            red_count_ >= red_limit_)
            return false;
        for (const auto p : dag_.preds(v))
            if (!red_[p])
                return false;
        red_[v] = true;
        ++red_count_;
        break;
      }

      case MoveType::Write:
        if (!red_[v] || blue_[v])
            return false;
        blue_[v] = true;
        ++writes_;
        break;

      case MoveType::Delete:
        if (!red_[v])
            return false;
        red_[v] = false;
        --red_count_;
        break;
    }
    ++moves_;
    return true;
}

bool
PebbleGame::done() const
{
    for (const auto v : dag_.outputs())
        if (!blue_[v])
            return false;
    return true;
}

} // namespace kb
