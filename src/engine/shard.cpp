#include "engine/shard.hpp"

#include <bit>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include <csignal>
#include <unistd.h>

#include "util/binio.hpp"
#include "util/faultpoint.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

constexpr const char *kFragmentMagic = "kbshard";
// Version 2: the per-shard `shard i N` line became a free-form
// `owner` line (ownership lives in the point rows).
constexpr unsigned kFragmentVersion = 2;

std::string
hexBits(double v)
{
    return toHex16(std::bit_cast<std::uint64_t>(v));
}

double
bitsFromHex(const std::string &hex, bool &ok)
{
    std::uint64_t bits = 0;
    if (!fromHex16(hex, bits)) {
        ok = false;
        return 0.0;
    }
    return std::bit_cast<double>(bits);
}

/** A fragment as read back: its `jobs` count and its `point` rows. */
struct ParsedFragment
{
    struct Row
    {
        std::size_t job = 0;
        std::size_t point = 0;
        SweepPointResult cell;
    };
    std::size_t jobs = 0;
    std::vector<Row> rows;
    std::string defect; ///< the first defect found; empty when valid
};

/**
 * The one fragment parser, behind both checkFragmentFile() and
 * mergeShardFragments(): the header (magic and version, a signature
 * equal to @p expect_signature, the free-form `owner` line, `jobs`),
 * then fully decoded `point` rows up to the `end` line. Stops at the
 * first defect and names it; grid-dependent checks are the caller's.
 */
ParsedFragment
readFragment(const std::string &path, const std::string &expect_signature)
{
    ParsedFragment frag;
    std::ifstream in(path);
    if (!in) {
        frag.defect = "fragment missing or unreadable";
        return frag;
    }
    std::string line, word;
    std::istringstream ls;
    const auto split = [&] {
        ls.clear();
        ls.str(line);
        word.clear();
        ls >> word;
    };
    const auto header = [&](const char *what) {
        if (std::getline(in, line)) {
            split();
            return true;
        }
        frag.defect = std::string("fragment is truncated (no ") + what +
                      " line)";
        return false;
    };

    unsigned version = 0;
    if (!header("header"))
        return frag;
    ls >> version;
    if (word != kFragmentMagic || version != kFragmentVersion) {
        frag.defect = "not a version-" +
                      std::to_string(kFragmentVersion) + " fragment";
        return frag;
    }
    if (!header("signature"))
        return frag;
    std::string sig;
    ls >> sig;
    if (word != "signature" || sig != expect_signature) {
        frag.defect = "fragment signature " + sig +
                      " does not match the grid (" + expect_signature +
                      ")";
        return frag;
    }
    // The owner line is provenance only: rows carry their own (job,
    // point) keys, so the merge's duplicate check subsumes ownership.
    if (!header("owner") || word != "owner" || !header("jobs") ||
        word != "jobs" || !(ls >> frag.jobs)) {
        if (frag.defect.empty())
            frag.defect = "fragment has a bad header line: " + line;
        return frag;
    }

    while (std::getline(in, line)) {
        split();
        if (word == "end")
            return frag;
        ParsedFragment::Row row;
        RatioPoint &sample = row.cell.sample;
        std::string ratio_hex, comp_hex, io_hex;
        ls >> row.job >> row.point >> sample.m >> ratio_hex >>
            comp_hex >> io_hex;
        bool ok = word == "point" && static_cast<bool>(ls);
        sample.ratio = bitsFromHex(ratio_hex, ok);
        sample.comp_ops = bitsFromHex(comp_hex, ok);
        sample.io_words = bitsFromHex(io_hex, ok);
        std::uint64_t io = 0;
        while (ls >> io)
            row.cell.model_io.push_back(io);
        // Extraction stops at the line's end or at a bad column; only
        // the former is a well-formed row.
        if (!ok || !ls.eof()) {
            frag.defect = "fragment has a malformed row: " + line;
            return frag;
        }
        frag.rows.push_back(std::move(row));
    }
    frag.defect = "fragment is truncated (no end line, " +
                  std::to_string(frag.rows.size()) + " rows)";
    return frag;
}

/** Parse "A<sep>B" where A and B are short decimal numbers. */
bool
parseNumberPair(const std::string &text, char sep, std::size_t &a,
                std::size_t &b)
{
    const auto at = text.find(sep);
    if (at == std::string::npos)
        return false;
    const std::string parts[2] = {text.substr(0, at),
                                  text.substr(at + 1)};
    // Digits only, and few enough of them that stoull cannot throw
    // out_of_range (no real split needs more than 9 digits anyway).
    for (const auto &part : parts)
        if (part.empty() || part.size() > 9 ||
            part.find_first_not_of("0123456789") != std::string::npos)
            return false;
    a = static_cast<std::size_t>(std::stoull(parts[0]));
    b = static_cast<std::size_t>(std::stoull(parts[1]));
    return true;
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec &out)
{
    return parseNumberPair(text, '/', out.index, out.count) &&
           out.count >= 1 && out.index < out.count;
}

CellRange
shardCellRange(const ShardSpec &spec, std::size_t total_cells)
{
    return {spec.index * total_cells / spec.count,
            (spec.index + 1) * total_cells / spec.count};
}

std::uint64_t
sweepSignature(const std::vector<SweepResult> &results)
{
    ByteWriter w;
    w.u64(results.size());
    for (const auto &r : results) {
        const SweepJob &job = r.job;
        w.str(job.kernel);
        w.u64(job.m_lo);
        w.u64(job.m_hi);
        w.u64(job.points);
        w.u64(job.n_hint);
        w.u64(job.models.size());
        for (const auto kind : job.models)
            w.u8(static_cast<std::uint8_t>(kind));
        w.u64(job.schedule_m);
        w.u64(job.schedule_headroom);
        w.u64(job.schedule_headroom_num);
        w.u8(job.force_replay ? 1 : 0);
        w.u8(job.models_only ? 1 : 0);
        w.u64(r.n_hint);
        w.u64(r.points.size());
        // The resolved capacities themselves: a change to the grid
        // construction (rounding, clamping, dedup) must invalidate
        // old fragments even when every job field is unchanged —
        // merging them would splice in capacities this binary never
        // computed. The engine stamps sample.m during resolution, so
        // this is filter-independent.
        for (const auto &point : r.points)
            w.u64(point.sample.m);
    }
    return fnv1a64(w.bytes());
}

void
mergeShardFragments(std::vector<SweepResult> &skeleton,
                    const std::vector<std::string> &paths)
{
    const std::string expect_sig = toHex16(sweepSignature(skeleton));

    // filled[j][p]: which fragment (index into paths) supplied the
    // cell; -1 = still missing.
    std::vector<std::vector<int>> filled(skeleton.size());
    for (std::size_t j = 0; j < skeleton.size(); ++j)
        filled[j].assign(skeleton[j].points.size(), -1);

    for (std::size_t f = 0; f < paths.size(); ++f) {
        const std::string &path = paths[f];
        ParsedFragment frag = readFragment(path, expect_sig);
        KB_REQUIRE(frag.defect.empty(), "cannot merge shard fragment ",
                   path, ": ", frag.defect);
        KB_REQUIRE(frag.jobs == skeleton.size(), "shard fragment ",
                   path, " has ", frag.jobs, " jobs, expected ",
                   skeleton.size());
        for (auto &row : frag.rows) {
            const std::size_t j = row.job, p = row.point;
            KB_REQUIRE(j < skeleton.size() &&
                           p < skeleton[j].points.size(),
                       "shard fragment ", path, " has cell (job ", j,
                       ", point ", p, ") outside the grid");
            KB_REQUIRE(row.cell.model_io.size() ==
                           skeleton[j].job.models.size(),
                       "shard fragment ", path, " point (", j, ", ", p,
                       ") carries ", row.cell.model_io.size(),
                       " model columns, expected ",
                       skeleton[j].job.models.size());
            KB_REQUIRE(filled[j][p] < 0, "cell (job ", j, ", point ",
                       p, ") is supplied by both ",
                       paths[static_cast<std::size_t>(filled[j][p])],
                       " and ", path);
            filled[j][p] = static_cast<int>(f);
            skeleton[j].points[p] = std::move(row.cell);
        }
    }

    for (std::size_t j = 0; j < skeleton.size(); ++j)
        for (std::size_t p = 0; p < filled[j].size(); ++p)
            KB_REQUIRE(filled[j][p] >= 0, "merge is missing cell (job ",
                       j, ", point ", p, "); the ", paths.size(),
                       " fragment(s) passed do not cover the grid");
}

bool
parseCellRange(const std::string &text, CellRange &out)
{
    return parseNumberPair(text, '-', out.lo, out.hi) && out.lo < out.hi;
}

std::size_t
gridCellCount(const std::vector<SweepResult> &skeleton)
{
    std::size_t total = 0;
    for (const auto &result : skeleton)
        total += result.points.size();
    return total;
}

void
cellCoordinates(const std::vector<SweepResult> &skeleton,
                std::size_t cell, std::size_t &job, std::size_t &point)
{
    std::size_t base = 0;
    for (std::size_t j = 0; j < skeleton.size(); ++j) {
        const std::size_t n = skeleton[j].points.size();
        if (cell < base + n) {
            job = j;
            point = cell - base;
            return;
        }
        base += n;
    }
    KB_REQUIRE(false, "cell ", cell, " is outside the grid (", base,
               " cells)");
}

ExperimentEngine::PointFilter
cellRangeFilter(const std::vector<SweepResult> &skeleton,
                const CellRange &range)
{
    // Precompute each job's linear base so the filter is O(1).
    std::vector<std::size_t> base(skeleton.size() + 1, 0);
    for (std::size_t j = 0; j < skeleton.size(); ++j)
        base[j + 1] = base[j] + skeleton[j].points.size();
    return [base, range](std::size_t job, std::size_t point) {
        const std::size_t cell = base[job] + point;
        return cell >= range.lo && cell < range.hi;
    };
}

CellFragmentWriter::CellFragmentWriter(const std::string &path,
                                       std::uint64_t signature,
                                       std::size_t job_count)
    : path_(path), out_(path, std::ios::trunc)
{
    KB_REQUIRE(static_cast<bool>(out_), "cannot open cell fragment ",
               path, " for writing");
    out_ << kFragmentMagic << " " << kFragmentVersion << "\n"
         << "signature " << toHex16(signature) << "\n"
         << "owner cells\n"
         << "jobs " << job_count << "\n";
    out_.flush();
}

void
CellFragmentWriter::appendCell(std::size_t job, std::size_t point,
                               const SweepPointResult &pt)
{
    KB_ASSERT(!finished_, "appendCell after finish on ", path_);
    out_ << "point " << job << " " << point << " " << pt.sample.m << " "
         << hexBits(pt.sample.ratio) << " " << hexBits(pt.sample.comp_ops)
         << " " << hexBits(pt.sample.io_words);
    for (const auto io : pt.model_io)
        out_ << " " << io;
    out_ << "\n";
    // The flush is the heartbeat: the orchestrator watches this file
    // grow, and a worker that stalls past its deadline is killed.
    out_.flush();
    KB_REQUIRE(out_.good(), "write error on cell fragment ", path_);
    if (faultFireAt("kill-after-cells"))
        ::kill(::getpid(), SIGKILL);
    if (faultFireAt("hang-after-cells")) {
        // Wedge, don't exit: this is the "worker stops making
        // progress" failure the deadline reaper exists for.
        std::this_thread::sleep_for(std::chrono::hours(1));
    }
}

void
CellFragmentWriter::finish()
{
    KB_ASSERT(!finished_, "double finish on ", path_);
    finished_ = true;
    out_ << "end\n";
    out_.flush();
    out_.close();
    KB_REQUIRE(!out_.fail(), "write error on cell fragment ", path_);
    if (faultArmed("truncate-fragment")) {
        // Chop the tail off the *finished* fragment: the worker exits
        // 0 but its fragment fails validation — exactly the torn-file
        // shape a crash between write and close would leave.
        const std::uint64_t cut = faultValue("truncate-fragment", 6);
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        const auto size = static_cast<std::uint64_t>(in.tellg());
        in.close();
        if (size > cut)
            [[maybe_unused]] const int rc = ::truncate(
                path_.c_str(), static_cast<off_t>(size - cut));
    }
}

void
writeCellRangeFragment(const ExperimentEngine &engine,
                       const std::vector<SweepJob> &jobs,
                       const std::vector<SweepResult> &skeleton,
                       const CellRange &range, const std::string &path)
{
    CellFragmentWriter writer(path, sweepSignature(skeleton),
                              skeleton.size());
    const auto in_range = cellRangeFilter(skeleton, range);
    engine.run(jobs, in_range, [&](const SweepResult &result) {
        const std::size_t j = result.job_index;
        for (std::size_t p = 0; p < result.points.size(); ++p)
            if (in_range(j, p))
                writer.appendCell(j, p, result.points[p]);
    });
    writer.finish();
}

FragmentCheck
checkFragmentFile(const std::string &path,
                  const std::string &expect_signature,
                  std::size_t expect_cells)
{
    FragmentCheck check;
    if (expect_signature.empty()) {
        // Relaxed mode (no grid to check against): non-empty and
        // closed with its end line.
        std::ifstream in(path);
        std::string line;
        bool any = false, ended = false;
        while (std::getline(in, line)) {
            any = true;
            ended = line == "end";
        }
        if (!in.is_open())
            check.reason = "fragment missing or unreadable";
        else if (!any)
            check.reason = "fragment is empty";
        else if (!ended)
            check.reason = "fragment is truncated (no end line)";
        check.ok = check.reason.empty();
        return check;
    }
    const ParsedFragment frag = readFragment(path, expect_signature);
    check.reason = frag.defect;
    if (check.reason.empty() && expect_cells != 0 &&
        frag.rows.size() != expect_cells)
        check.reason = "fragment carries " +
                       std::to_string(frag.rows.size()) +
                       " cells, expected " + std::to_string(expect_cells);
    check.ok = check.reason.empty();
    return check;
}

} // namespace kb
