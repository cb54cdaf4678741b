#include "engine/orchestrator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/shard.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace ch = std::chrono;

namespace kb {

namespace {

using Clock = ch::steady_clock;

/// The progress deadline extends to this many observed mean slice
/// times (see the file comment in orchestrator.hpp).
constexpr double kDeadlineMultiplier = 8.0;

/** Set by the handler, acted on from the poll loop: forwarding
 *  signals and removing directories is not async-signal-safe. */
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

/** Last ~@p max_bytes of @p path, for quoting a dead worker's log. */
std::string
logTail(const std::string &path, std::size_t max_bytes = 512)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "(log unreadable)";
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(in.tellg());
    const auto start = size > max_bytes ? size - max_bytes : 0;
    in.seekg(static_cast<std::streamoff>(start));
    std::string tail(size - start, '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
    return tail;
}

/** "exited with status 3" / "was killed by signal 9". */
std::string
describeWaitStatus(int status)
{
    if (WIFEXITED(status))
        return "exited with status " +
               std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "was killed by signal " +
               std::to_string(WTERMSIG(status));
    return "ended with wait status " + std::to_string(status);
}

/** Env override for a policy knob; @p def on unset/malformed. */
std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return def;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0')
        return def;
    return parsed;
}

std::uint64_t
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        ch::duration_cast<ch::milliseconds>(b - a).count());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return ch::duration<double>(b - a).count();
}

/** One slice of the grid and its retry state. */
struct Slice
{
    CellRange range;
    bool done = false;
    unsigned failures = 0;
    bool speculated = false;   ///< one speculative twin per slice
    Clock::time_point ready{}; ///< earliest next dispatch
    std::size_t running = 0;   ///< live workers on this slice
    std::string fragment;      ///< accepted fragment path (done only)
};

/** One live worker subprocess. */
struct Worker
{
    pid_t pid = -1;
    std::size_t slice = 0;
    std::string fragment;
    std::string log;
    Clock::time_point started{};
    Clock::time_point last_progress{};
    std::uintmax_t last_size = 0;
    bool speculative = false;
    /// Set when the coordinator killed it on purpose (deadline,
    /// speculative race); overrides the wait status as the reason.
    std::string kill_why;
};

/**
 * Fork/exec one worker for @p range with stdout+stderr redirected to
 * @p log_path and KB_FAULT_WORKER stamped to @p ordinal, so @worker
 * fault scopes hit exactly one spawn. Returns the child pid, or -1
 * when the fork itself failed.
 */
pid_t
spawnWorker(const OrchestratorSpec &spec, const CellRange &range,
            const std::string &fragment, const std::string &log_path,
            std::size_t ordinal)
{
    const std::string ordinal_str = std::to_string(ordinal);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;

    // --- child ---
    const int log_fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
    }
    ::setenv("KB_FAULT_WORKER", ordinal_str.c_str(), 1);
    std::vector<std::string> argv_strings;
    argv_strings.push_back(spec.program);
    argv_strings.insert(argv_strings.end(), spec.args.begin(),
                        spec.args.end());
    argv_strings.push_back("--cells");
    argv_strings.push_back(std::to_string(range.lo) + "-" +
                           std::to_string(range.hi));
    argv_strings.push_back("--shard-out");
    argv_strings.push_back(fragment);
    std::vector<char *> argv;
    argv.reserve(argv_strings.size() + 1);
    for (auto &s : argv_strings)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    // exec failed: the 127 convention shells use, visible in the
    // parent's wait status.
    std::fprintf(stderr, "exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
}

} // namespace

OrchestratorResult
orchestrateSweep(const OrchestratorSpec &spec)
{
    OrchestratorResult result;
    if (spec.program.empty() || spec.jobs < 1 || spec.attempts < 1 ||
        spec.total_cells < 1) {
        result.error = "orchestrator needs a program, jobs >= 1, "
                       "attempts >= 1 and a non-empty grid";
        return result;
    }

    // Policy knobs. KB_ORCH_DEADLINE_MS (CI's hung-worker chaos step)
    // pins the adaptive deadline policy entirely.
    const std::uint64_t env_deadline = envU64("KB_ORCH_DEADLINE_MS", 0);
    const bool deadline_forced = env_deadline != 0;
    const std::uint64_t initial_deadline =
        deadline_forced ? env_deadline : spec.initial_deadline_ms;
    const std::uint64_t backoff_base = spec.backoff_base_ms;
    const std::uint64_t backoff_cap =
        std::max(backoff_base, spec.backoff_cap_ms);
    const std::uint64_t poll_ms = std::max<std::uint64_t>(1, spec.poll_ms);

    // Scratch directory for fragments and logs.
    std::error_code ec;
    if (!spec.scratch_dir.empty()) {
        result.scratch_dir = spec.scratch_dir;
        fs::create_directories(result.scratch_dir, ec);
        if (ec) {
            result.error = "cannot create orchestrator scratch dir " +
                           result.scratch_dir;
            return result;
        }
    } else {
        std::string tmpl =
            (fs::temp_directory_path() / "kb-orch-XXXXXX").string();
        if (::mkdtemp(tmpl.data()) == nullptr) {
            result.error =
                "cannot create orchestrator scratch dir under " +
                fs::temp_directory_path().string();
            return result;
        }
        result.scratch_dir = tmpl;
    }

    // Carve the grid into contiguous slices, several per worker slot.
    const std::size_t want_slices = std::max<std::size_t>(
        1, spec.jobs * std::max<std::size_t>(1, spec.slices_per_worker));
    const std::size_t per_slice = std::max<std::size_t>(
        1, (spec.total_cells + want_slices - 1) / want_slices);
    std::vector<Slice> slices;
    for (std::size_t lo = 0; lo < spec.total_cells; lo += per_slice) {
        Slice s;
        s.range.lo = lo;
        s.range.hi = std::min(spec.total_cells, lo + per_slice);
        slices.push_back(s);
    }
    result.stats.slices = slices.size();

    // Take over SIGINT/SIGTERM for the run so workers and temps are
    // cleaned up; restored on every exit path.
    g_signal = 0;
    struct sigaction sa = {};
    struct sigaction old_int = {};
    struct sigaction old_term = {};
    sa.sa_handler = onSignal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);
    const auto restoreHandlers = [&old_int, &old_term] {
        ::sigaction(SIGINT, &old_int, nullptr);
        ::sigaction(SIGTERM, &old_term, nullptr);
    };

    std::vector<Worker> workers;
    std::vector<double> durations_ms; ///< accepted slice times
    std::size_t spawn_ordinal = 0;
    const auto start = Clock::now();
    std::string fatal;

    const auto avgMs = [&durations_ms]() -> double {
        double sum = 0.0;
        for (const double d : durations_ms)
            sum += d;
        return sum / static_cast<double>(durations_ms.size());
    };
    const auto deadlineMs = [&]() -> std::uint64_t {
        if (deadline_forced)
            return env_deadline;
        if (durations_ms.empty())
            return initial_deadline;
        // Observed completions only EXTEND the deadline (see the
        // file comment: heterogeneous grids, heavy-job first rows).
        const double scaled = kDeadlineMultiplier * avgMs();
        return std::max<std::uint64_t>(
            initial_deadline, static_cast<std::uint64_t>(scaled));
    };
    // SplitMix64 over (slice, failures): deterministic jitter, no
    // wall-clock randomness anywhere in the retry policy.
    const auto jitterMs = [&](std::size_t slice,
                              unsigned failures) -> std::uint64_t {
        const std::uint64_t x =
            SplitMix64((std::uint64_t{slice} << 32) ^ failures).next();
        return backoff_base != 0 ? x % backoff_base : 0;
    };
    const auto backoffMs = [&](std::size_t slice,
                               unsigned failures) -> std::uint64_t {
        std::uint64_t delay = backoff_base;
        for (unsigned i = 1; i < failures && delay < backoff_cap; ++i)
            delay *= 2;
        return std::min(delay, backoff_cap) + jitterMs(slice, failures);
    };
    const auto dispatch = [&](std::size_t si, bool speculative) {
        Slice &s = slices[si];
        const std::string tag = "slice_" + std::to_string(si) +
                                "_try" +
                                std::to_string(spawn_ordinal);
        Worker w;
        w.slice = si;
        w.speculative = speculative;
        w.fragment = result.scratch_dir + "/" + tag + ".kbshard";
        w.log = result.scratch_dir + "/" + tag + ".log";
        w.pid = spawnWorker(spec, s.range, w.fragment, w.log,
                            spawn_ordinal);
        if (w.pid < 0)
            return false;
        ++spawn_ordinal;
        ++result.stats.dispatched;
        if (speculative) {
            ++result.stats.speculative;
            s.speculated = true;
        }
        w.started = w.last_progress = Clock::now();
        ++s.running;
        workers.push_back(std::move(w));
        return true;
    };

    while (fatal.empty()) {
        // Forwarded interrupt: pass it on, reap briefly, hard-kill
        // stragglers, unlink temps, then die of the same signal.
        if (g_signal != 0) {
            const int sig = g_signal;
            for (const auto &w : workers)
                ::kill(w.pid, sig);
            const auto grace_end =
                Clock::now() + ch::milliseconds(500);
            while (!workers.empty() && Clock::now() < grace_end) {
                bool reaped = false;
                for (std::size_t i = 0; i < workers.size(); ++i) {
                    int status = 0;
                    if (::waitpid(workers[i].pid, &status, WNOHANG) ==
                        workers[i].pid) {
                        workers.erase(workers.begin() +
                                      static_cast<std::ptrdiff_t>(i));
                        reaped = true;
                        break;
                    }
                }
                if (!reaped)
                    std::this_thread::sleep_for(ch::milliseconds(10));
            }
            for (const auto &w : workers)
                ::kill(w.pid, SIGKILL);
            for (const auto &w : workers)
                ::waitpid(w.pid, nullptr, 0);
            workers.clear();
            removeOrchestratorScratch(result.scratch_dir);
            result.scratch_dir.clear();
            restoreHandlers();
            ::raise(sig);
            // Only reachable if the signal is blocked/ignored by the
            // embedding process (unit tests): report, don't hang.
            result.error =
                "interrupted by signal " + std::to_string(sig);
            return result;
        }

        const bool all_done = std::all_of(
            slices.begin(), slices.end(),
            [](const Slice &s) { return s.done; });
        if (all_done)
            break;

        // Deal ready slices to free slots, lowest index first.
        while (workers.size() < spec.jobs) {
            const auto now = Clock::now();
            std::size_t pick = slices.size();
            for (std::size_t i = 0; i < slices.size(); ++i) {
                const Slice &s = slices[i];
                if (!s.done && s.running == 0 && s.ready <= now) {
                    pick = i;
                    break;
                }
            }
            if (pick == slices.size())
                break;
            if (!dispatch(pick, false)) {
                // Transient fork failure: retry after a beat.
                slices[pick].ready =
                    now + ch::milliseconds(backoff_base);
                break;
            }
        }

        // Queue drained and a slot free: speculatively duplicate the
        // longest-running straggler once it is well past the mean.
        if (workers.size() < spec.jobs && !durations_ms.empty()) {
            const bool drained = std::none_of(
                slices.begin(), slices.end(), [](const Slice &s) {
                    return !s.done && s.running == 0;
                });
            if (drained) {
                const auto now = Clock::now();
                std::size_t pick = workers.size();
                std::uint64_t longest = 0;
                for (std::size_t i = 0; i < workers.size(); ++i) {
                    const Worker &w = workers[i];
                    const Slice &s = slices[w.slice];
                    // One twin per slice, and never for a slice that
                    // has already failed: it needs its retry budget,
                    // not a duplicate burning the same CPU.
                    if (s.running != 1 || s.speculated ||
                        s.failures != 0 || !w.kill_why.empty())
                        continue;
                    const std::uint64_t run =
                        msBetween(w.started, now);
                    if (run >= longest) {
                        longest = run;
                        pick = i;
                    }
                }
                // Clamp the mean to a millisecond: sub-ms slice
                // times round to 0 and would otherwise make ANY
                // straggler "infinitely" past the mean.
                if (pick < workers.size() &&
                    static_cast<double>(longest) >
                        spec.speculative_factor *
                            std::max(avgMs(), 1.0))
                    dispatch(workers[pick].slice, true);
            }
        }

        // Reap exits (per-worker, so unrelated children of the
        // embedding process are never stolen).
        for (std::size_t wi = 0; wi < workers.size();) {
            int status = 0;
            const pid_t got =
                ::waitpid(workers[wi].pid, &status, WNOHANG);
            if (got != workers[wi].pid) {
                ++wi;
                continue;
            }
            const Worker w = std::move(workers[wi]);
            workers.erase(workers.begin() +
                          static_cast<std::ptrdiff_t>(wi));
            Slice &s = slices[w.slice];
            --s.running;
            const auto now = Clock::now();
            result.stats.busy_s += secondsBetween(w.started, now);
            if (s.done)
                continue; // lost a speculative race; nothing to do

            std::string why = w.kill_why;
            if (why.empty() &&
                (!WIFEXITED(status) || WEXITSTATUS(status) != 0))
                why = describeWaitStatus(status);
            if (why.empty()) {
                const FragmentCheck check = checkFragmentFile(
                    w.fragment, spec.expect_signature,
                    s.range.size());
                if (check.ok) {
                    s.done = true;
                    s.fragment = w.fragment;
                    durations_ms.push_back(static_cast<double>(
                        msBetween(w.started, now)));
                    // A duplicate still running this slice lost.
                    for (auto &other : workers) {
                        if (other.slice != w.slice)
                            continue;
                        other.kill_why = "lost the speculative race";
                        ::kill(other.pid, SIGKILL);
                    }
                    continue;
                }
                ++result.stats.fragments_rejected;
                why = "exited cleanly but its fragment " + w.fragment +
                      " was rejected (" + check.reason + ")";
            }

            // Every failed attempt burns budget, duplicate in flight
            // or not — otherwise a slice with a twin could fail (and
            // respawn) forever without ever tripping the budget.
            ++s.failures;
            if (s.failures >= spec.attempts) {
                fatal = "slice " + std::to_string(w.slice) +
                        " (cells " + std::to_string(s.range.lo) +
                        "-" + std::to_string(s.range.hi) + ") " +
                        why + " after " +
                        std::to_string(s.failures) +
                        " attempt(s); log " + w.log + ":\n" +
                        logTail(w.log);
                break;
            }
            if (s.running > 0)
                continue; // its duplicate is still in flight
            ++result.stats.retried;
            s.ready = Clock::now() + ch::milliseconds(backoffMs(
                                         w.slice, s.failures));
        }
        if (!fatal.empty())
            break;

        // Progress deadlines: a fragment that stopped growing means a
        // wedged worker; kill it and let the reap loop re-queue.
        const std::uint64_t deadline = deadlineMs();
        for (auto &w : workers) {
            if (!w.kill_why.empty())
                continue;
            std::error_code size_ec;
            const auto size = fs::file_size(w.fragment, size_ec);
            const auto now = Clock::now();
            if (!size_ec && size > w.last_size) {
                w.last_size = size;
                w.last_progress = now;
            }
            const std::uint64_t idle = msBetween(w.last_progress, now);
            if (idle <= deadline)
                continue;
            w.kill_why = "made no fragment progress for " +
                         std::to_string(idle) + " ms (deadline " +
                         std::to_string(deadline) +
                         " ms) and was killed";
            ::kill(w.pid, SIGKILL);
            ++result.stats.workers_killed;
        }

        std::this_thread::sleep_for(ch::milliseconds(poll_ms));
    }

    restoreHandlers();
    if (!fatal.empty()) {
        for (const auto &w : workers)
            ::kill(w.pid, SIGKILL);
        for (const auto &w : workers)
            ::waitpid(w.pid, nullptr, 0);
        result.error = fatal;
        result.stats.wall_s = secondsBetween(start, Clock::now());
        return result; // scratch left in place for inspection
    }
    for (const auto &s : slices)
        result.fragments.push_back(s.fragment);
    result.stats.wall_s = secondsBetween(start, Clock::now());
    result.ok = true;
    return result;
}

void
removeOrchestratorScratch(const std::string &scratch_dir)
{
    if (scratch_dir.empty())
        return;
    std::error_code ec;
    fs::remove_all(scratch_dir, ec);
}

} // namespace kb
