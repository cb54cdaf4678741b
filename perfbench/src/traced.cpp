/**
 * @file
 * The traced run: per-layer self times from spans recorded around the
 * layers' public calls.
 *
 * A traced pass re-issues the work of one engine pass from outside the
 * engine, task for task on the same pool (ExperimentEngine::
 * parallelFor), with each call into a layer wrapped in a span:
 *
 *  - kernels: Kernel::emitTrace into a CountingSink once per emission
 *    the engine makes (kernels.emit), Kernel::measureRatioPoint per
 *    schedule-measured cell (kernels.measure.<kernel>);
 *  - trace: the emission rendered through an AnalysisPipeline whose
 *    consumers are separated by no-op ChunkClock sinks. The clocks
 *    stamp each 4096-op chunk's hand-over from one consumer to the
 *    next, giving one child span per (chunk, consumer): the
 *    fully-associative and multi-set analyzers, one ReplaySink per
 *    replayed model, the OPT recorder's pass 1 and the OPT buffer;
 *  - mem: OptNextUseRecorder::finish (pass 2) and simulateOpt;
 *  - engine: every CurveStore find and store of the pass.
 *
 * Self time = duration - child spans - the span named as its `minus`
 * (the separately timed CountingSink emission of the same trace): the
 * pipeline's self time is chunking alone, and OPT pass 2's self time
 * excludes its re-emission. The replica's results must equal the
 * engine's, bit for bit, or the pass counts as failed.
 *
 * The replica differs from the engine in two ways, both so each layer
 * gets its own time: the fully-associative analyzer runs as its own
 * consumer instead of riding the multi-set walk, and each replayed
 * model gets its own ReplaySink.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>
#include <set>

#include "kernels/registry.hpp"
#include "mem/opt_cache.hpp"
#include "perfbench.hpp"
#include "trace/backend.hpp"
#include "trace/pipeline.hpp"
#include "trace/replay.hpp"
#include "trace/reuse.hpp"

namespace perfbench {

using kb::MemoryModelKind;

namespace {

// ------------------------------------------------------------- spans

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t minus = 0;  ///< span whose duration self time excludes
    double start = 0.0;
    double end = 0.0;
    unsigned tid = 0;
    int pass = 0;
};

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{1};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/** In-memory span store, shared by the pool's threads. */
class SpanLog
{
  public:
    std::uint64_t nextId() { return next_id_.fetch_add(1) + 1; }

    void
    add(Span span)
    {
        span.tid = threadIndex();
        span.pass = pass_;
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    void setPass(int pass) { pass_ = pass; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::atomic<std::uint64_t> next_id_{0};
    int pass_ = 0; ///< written between passes only
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opened at construction, recorded at destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name, std::uint64_t parent,
          std::uint64_t minus = 0)
        : log_(log)
    {
        span_.name = std::move(name);
        span_.id = log.nextId();
        span_.parent = parent;
        span_.minus = minus;
        span_.start = nowSeconds();
    }
    ~Scope()
    {
        span_.end = nowSeconds();
        log_.add(std::move(span_));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    SpanLog &log_;
    Span span_;
};

/**
 * No-op pipeline consumer that stamps the clock when a chunk reaches
 * it (first op) and when it has drained a full chunk (last op). The
 * pipeline delivers each chunk to its consumers in attach order, so a
 * clock placed between two consumers marks the hand-over.
 */
class ChunkClock : public kb::TraceSink
{
  public:
    void onAccess(const kb::Access &) override { tick(); }
    void onRun(std::uint64_t, std::uint64_t, kb::AccessType) override
    {
        tick();
    }

    std::vector<double> first; ///< per chunk: the chunk arrived
    std::vector<double> last;  ///< per full chunk: drained

  private:
    void
    tick()
    {
        constexpr std::uint64_t chunk = kb::AnalysisPipeline::kDefaultChunkOps;
        if (ops_ % chunk == 0)
            first.push_back(nowSeconds());
        if (++ops_ % chunk == 0)
            last.push_back(nowSeconds());
    }

    std::uint64_t ops_ = 0;
};

// ------------------------------------------------- engine conventions

/// The engine's set-associative geometry and random-replacement seed
/// (engine.cpp): needed to key the store the way the engine does.
constexpr std::uint64_t kWays = 8;
constexpr std::uint64_t kRandomSeed = 7;

std::uint64_t
setAssocSets(std::uint64_t m)
{
    return std::max<std::uint64_t>((m + 7) / 8, 1);
}

kb::ReplayModelKey
replayModelKey(MemoryModelKind kind)
{
    kb::ReplayModelKey key;
    key.family = static_cast<std::uint8_t>(kind);
    if (kind == MemoryModelKind::SetAssocLru ||
        kind == MemoryModelKind::SetAssocFifo)
        key.param = kWays;
    else if (kind == MemoryModelKind::RandomRepl)
        key.param = kRandomSeed;
    return key;
}

bool
isInclusion(MemoryModelKind kind)
{
    return kind == MemoryModelKind::Lru ||
           kind == MemoryModelKind::SetAssocLru ||
           kind == MemoryModelKind::Opt;
}

bool
usesJobTrace(const kb::SweepJob &job)
{
    return job.schedule_m != 0 && !job.force_replay &&
           std::any_of(job.models.begin(), job.models.end(), isInclusion);
}

std::string
replayLayer(MemoryModelKind kind)
{
    return std::string("trace.replay.") + kb::memoryModelName(kind);
}

// --------------------------------------------------------- the replica

/** Counts one traced pass gathers outside its spans. */
struct PassCounts
{
    std::mutex mutex;
    std::uint64_t emit_words = 0;
    std::uint64_t chunks = 0;
    std::uint64_t fully_assoc_words = 0;
    std::uint64_t multi_set_words = 0;
    std::uint64_t opt_words = 0;
    std::uint64_t opt_peak_resident = 0;
    std::uint64_t opt_spilled = 0;
};

struct Consumer
{
    std::string layer;
    kb::TraceSink *sink = nullptr;
};

class Replica
{
  public:
    Replica(SpanLog &log, PassCounts &counts, std::uint64_t pass_span)
        : log_(log), counts_(counts), pass_span_(pass_span)
    {
    }

    struct Emission
    {
        std::uint64_t span = 0;
        std::uint64_t words = 0;
    };

    /** One emission, timed alone (kernels.emit). */
    Emission
    timedEmission(std::uint64_t parent, const kb::Kernel &kernel,
                  std::uint64_t n, std::uint64_t m)
    {
        Scope span(log_, "kernels.emit", parent);
        kb::CountingSink counter;
        kernel.emitTrace(n, m, counter);
        const std::lock_guard<std::mutex> lock(counts_.mutex);
        counts_.emit_words += counter.total();
        return {span.id(), counter.total()};
    }

    /** The emission again, through a clocked pipeline into @p consumers.
     *  Returns the trace's word count. */
    std::uint64_t
    pipelined(std::uint64_t parent, const kb::Kernel &kernel,
              std::uint64_t n, std::uint64_t m,
              const std::vector<Consumer> &consumers)
    {
        const Emission emission = timedEmission(parent, kernel, n, m);
        Scope span(log_, "trace.pipeline", parent, emission.span);
        std::vector<ChunkClock> clocks(consumers.size() + 1);
        kb::AnalysisPipeline pipeline;
        for (std::size_t i = 0; i < consumers.size(); ++i) {
            pipeline.attach(clocks[i]);
            pipeline.attach(*consumers[i].sink);
        }
        pipeline.attach(clocks.back());
        kb::activeTraceBackend().emit(kernel, n, m, pipeline);
        pipeline.flush();
        for (std::size_t k = 0; k < clocks.back().first.size(); ++k) {
            for (std::size_t i = 0; i < consumers.size(); ++i) {
                Span chunk;
                chunk.name = consumers[i].layer;
                chunk.id = log_.nextId();
                chunk.parent = span.id();
                chunk.start = k < clocks[i].last.size() ? clocks[i].last[k]
                                                        : clocks[i].first[k];
                chunk.end = clocks[i + 1].first[k];
                log_.add(std::move(chunk));
            }
        }
        const std::lock_guard<std::mutex> lock(counts_.mutex);
        counts_.chunks += pipeline.chunksDelivered();
        return emission.words;
    }

    /** The stack-distance fast path of one fixed-schedule job. */
    void
    jobTrace(const kb::SweepResult &skeleton, kb::SweepResult &out)
    {
        Scope task(log_, "engine.task", pass_span_);
        const kb::SweepJob &job = skeleton.job;
        const auto kernel = kb::KernelRegistry::instance().shared(job.kernel);
        const std::uint64_t n =
            kernel->regimeProblemSize(skeleton.n_hint, job.schedule_m);
        const kb::TraceKey key{job.kernel, n, job.schedule_m};
        auto &store = kb::CurveStore::instance();
        std::vector<std::uint64_t> grid;
        for (const auto &p : skeleton.points)
            grid.push_back(p.sample.m);

        bool wants_lru = false, wants_sa = false, wants_opt = false;
        for (const auto kind : job.models) {
            wants_lru |= kind == MemoryModelKind::Lru;
            wants_sa |= kind == MemoryModelKind::SetAssocLru;
            wants_opt |= kind == MemoryModelKind::Opt;
        }
        std::shared_ptr<const kb::MissCurve> lru;
        std::map<std::uint64_t, std::shared_ptr<const kb::MissCurve>> sa;
        std::shared_ptr<const kb::OptCurve> opt;
        std::vector<std::vector<std::optional<std::uint64_t>>> cached(
            grid.size(), std::vector<std::optional<std::uint64_t>>(
                             job.models.size()));
        {
            Scope get(log_, "engine.store.get", task.id());
            if (wants_lru)
                lru = store.findLru(key);
            if (wants_sa)
                for (const auto m : grid)
                    sa.emplace(setAssocSets(m), nullptr);
            for (auto &[sets, curve] : sa)
                curve = store.findSetAssoc(key, sets, kWays);
            if (wants_opt)
                opt = store.findOpt(key, grid);
            for (std::size_t p = 0; p < grid.size(); ++p)
                for (std::size_t i = 0; i < job.models.size(); ++i)
                    if (!isInclusion(job.models[i]))
                        cached[p][i] = store.findReplayIo(
                            key, replayModelKey(job.models[i]), grid[p]);
        }

        std::vector<std::uint64_t> missing_sets;
        for (const auto &[sets, curve] : sa)
            if (!curve)
                missing_sets.push_back(sets);
        std::optional<kb::MultiSetReuseAnalyzer> multi;
        std::optional<kb::ReuseDistanceAnalyzer> fully;
        std::optional<kb::OptNextUseRecorder> recorder;
        std::vector<Consumer> consumers;
        if (!missing_sets.empty()) {
            multi.emplace(missing_sets, kWays, kb::activeAnalyzerPath());
            consumers.push_back({"trace.reuse.multi_set", &*multi});
        }
        if (wants_lru && !lru) {
            fully.emplace();
            consumers.push_back({"trace.reuse.fully_assoc", &*fully});
        }
        if (wants_opt && !opt) {
            recorder.emplace();
            consumers.push_back({"mem.opt.pass1", &*recorder});
        }
        // Non-inclusion models replay from the same emission.
        std::vector<std::unique_ptr<kb::LocalMemory>> models;
        std::vector<std::unique_ptr<kb::ReplaySink>> replays;
        std::vector<std::pair<std::size_t, std::size_t>> replay_cells;
        for (std::size_t p = 0; p < grid.size(); ++p)
            for (std::size_t i = 0; i < job.models.size(); ++i)
                if (!isInclusion(job.models[i]) && !cached[p][i]) {
                    models.push_back(
                        kb::makeMemoryModel(job.models[i], grid[p]));
                    replays.push_back(
                        std::make_unique<kb::ReplaySink>(*models.back()));
                    consumers.push_back(
                        {replayLayer(job.models[i]), replays.back().get()});
                    replay_cells.emplace_back(p, i);
                }

        std::uint64_t words = 0;
        if (!consumers.empty())
            words = pipelined(task.id(), *kernel, n, job.schedule_m,
                              consumers);
        for (auto &r : replays)
            r->flush();

        if (multi) {
            Scope s(log_, "trace.reuse.multi_set", task.id());
            for (std::size_t p = 0; p < multi->planeCount(); ++p)
                sa[multi->setsAt(p)] =
                    std::make_shared<const kb::MissCurve>(multi->waysCurve(p));
        }
        if (fully) {
            Scope s(log_, "trace.reuse.fully_assoc", task.id());
            lru = std::make_shared<const kb::MissCurve>(fully->missCurve());
        }
        if (recorder) {
            const Emission again =
                timedEmission(task.id(), *kernel, n, job.schedule_m);
            Scope pass2(log_, "mem.opt.pass2", task.id(), again.span);
            kb::OptStreamStats stats;
            opt = std::make_shared<const kb::OptCurve>(recorder->finish(
                [&](kb::TraceSink &sink) {
                    kb::activeTraceBackend().emit(*kernel, n, job.schedule_m,
                                                  sink);
                },
                grid, &stats));
            const std::lock_guard<std::mutex> lock(counts_.mutex);
            counts_.opt_words += words;
            counts_.opt_peak_resident =
                std::max(counts_.opt_peak_resident, stats.peak_resident_bytes);
            counts_.opt_spilled += stats.spilled_bytes;
        }
        {
            const std::lock_guard<std::mutex> lock(counts_.mutex);
            if (multi)
                counts_.multi_set_words += words;
            if (fully)
                counts_.fully_assoc_words += words;
        }

        std::vector<std::vector<std::uint64_t>> fresh_caps(job.models.size()),
            fresh_io(job.models.size());
        for (std::size_t r = 0; r < replay_cells.size(); ++r) {
            const auto [p, i] = replay_cells[r];
            cached[p][i] = models[r]->stats().ioWords();
            fresh_caps[i].push_back(grid[p]);
            fresh_io[i].push_back(*cached[p][i]);
        }
        {
            Scope put(log_, "engine.store.put", task.id());
            if (fully)
                store.storeLru(key, lru);
            if (multi)
                for (std::size_t p = 0; p < multi->planeCount(); ++p)
                    store.storeSetAssoc(key, multi->setsAt(p), kWays,
                                        sa[multi->setsAt(p)]);
            if (recorder)
                store.storeOpt(key, opt);
            for (std::size_t i = 0; i < job.models.size(); ++i)
                if (!fresh_caps[i].empty())
                    store.storeReplayPoints(key, replayModelKey(job.models[i]),
                                            fresh_caps[i], fresh_io[i]);
        }

        for (std::size_t p = 0; p < grid.size(); ++p) {
            auto &slot = out.points[p].model_io;
            slot.clear();
            for (std::size_t i = 0; i < job.models.size(); ++i) {
                const auto kind = job.models[i];
                const std::uint64_t m = grid[p];
                if (kind == MemoryModelKind::Lru)
                    slot.push_back(lru->ioWords(m));
                else if (kind == MemoryModelKind::SetAssocLru)
                    slot.push_back(sa[setAssocSets(m)]->ioWords(kWays));
                else if (kind == MemoryModelKind::Opt)
                    slot.push_back(opt->ioWords(m));
                else
                    slot.push_back(*cached[p][i]);
            }
        }
    }

    /** One (job, point) cell: schedule measurement and model replays. */
    void
    point(const kb::SweepResult &skeleton, std::size_t p,
          kb::SweepResult &out)
    {
        Scope task(log_, "engine.task", pass_span_);
        const kb::SweepJob &job = skeleton.job;
        const auto kernel = kb::KernelRegistry::instance().shared(job.kernel);
        const std::uint64_t m = skeleton.points[p].sample.m;
        auto &slot = out.points[p];
        if (job.models_only) {
            slot.sample.m = m;
        } else {
            Scope s(log_, "kernels.measure." + job.kernel, task.id());
            slot.sample = kernel->measureRatioPoint(skeleton.n_hint, m);
        }
        if (job.models.empty() || usesJobTrace(job))
            return;

        std::uint64_t trace_m = job.schedule_m ? job.schedule_m : m;
        if (job.schedule_headroom > 0)
            trace_m = std::max(trace_m * job.schedule_headroom_num /
                                   job.schedule_headroom,
                               kernel->minMemory(skeleton.n_hint));
        const std::uint64_t n =
            kernel->regimeProblemSize(skeleton.n_hint, trace_m);
        const kb::TraceKey key{job.kernel, n, trace_m};
        auto &store = kb::CurveStore::instance();
        const bool use_store = !job.force_replay;

        std::vector<std::optional<std::uint64_t>> io(job.models.size());
        if (use_store) {
            Scope get(log_, "engine.store.get", task.id());
            for (std::size_t i = 0; i < job.models.size(); ++i)
                io[i] = store.findReplayIo(key, replayModelKey(job.models[i]),
                                           m);
        }
        std::vector<Consumer> consumers;
        std::vector<std::unique_ptr<kb::LocalMemory>> models(job.models.size());
        std::vector<std::unique_ptr<kb::ReplaySink>> replays(job.models.size());
        kb::VectorSink buffer;
        std::optional<std::size_t> opt_index;
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            if (io[i])
                continue;
            if (job.models[i] == MemoryModelKind::Opt) {
                opt_index = i;
                consumers.push_back({"mem.opt.buffered", &buffer});
                continue;
            }
            models[i] = kb::makeMemoryModel(job.models[i], m);
            replays[i] = std::make_unique<kb::ReplaySink>(*models[i]);
            consumers.push_back({replayLayer(job.models[i]), replays[i].get()});
        }
        if (consumers.empty())
            return fill(slot, io);
        pipelined(task.id(), *kernel, n, trace_m, consumers);
        for (std::size_t i = 0; i < job.models.size(); ++i)
            if (replays[i]) {
                replays[i]->flush();
                io[i] = models[i]->stats().ioWords();
            }
        if (opt_index) {
            Scope s(log_, "mem.opt.buffered", task.id());
            io[*opt_index] =
                kb::simulateOpt(buffer.trace(), m).stats.ioWords();
        }
        if (use_store) {
            Scope put(log_, "engine.store.put", task.id());
            for (std::size_t i = 0; i < job.models.size(); ++i)
                if (replays[i] || (opt_index && *opt_index == i))
                    store.storeReplayIo(key, replayModelKey(job.models[i]), m,
                                        *io[i]);
        }
        fill(slot, io);
    }

  private:
    static void
    fill(kb::SweepPointResult &slot,
         const std::vector<std::optional<std::uint64_t>> &io)
    {
        slot.model_io.clear();
        for (const auto &v : io)
            slot.model_io.push_back(*v);
    }

    SpanLog &log_;
    PassCounts &counts_;
    std::uint64_t pass_span_;
};

/** One traced pass of @p w; returns its canonical-order results. */
PassResults
tracedPass(const kb::ExperimentEngine &engine, const Workload &w,
           SpanLog &log, PassCounts &counts)
{
    Scope span(log, "pass", 0);
    Replica replica(log, counts, span.id());
    std::size_t total = 0;
    for (const auto &batch : w.batches)
        total += batch.size();
    PassResults results(total);
    for (const auto &batch : w.batches) {
        std::vector<kb::SweepJob> jobs;
        for (const auto &s : batch)
            jobs.push_back(s.job);
        const auto skeleton = engine.run(
            jobs, [](std::size_t, std::size_t) { return false; });
        auto out = skeleton;
        struct Task
        {
            std::size_t job;
            std::optional<std::size_t> point; ///< none = job trace
        };
        std::vector<Task> tasks;
        for (std::size_t j = 0; j < skeleton.size(); ++j) {
            if (usesJobTrace(skeleton[j].job))
                tasks.push_back({j, std::nullopt});
            for (std::size_t p = 0; p < skeleton[j].points.size(); ++p)
                tasks.push_back({j, p});
        }
        engine.parallelFor(tasks.size(), [&](std::size_t t) {
            const Task &task = tasks[t];
            if (task.point)
                replica.point(skeleton[task.job], *task.point,
                              out[task.job]);
            else
                replica.jobTrace(skeleton[task.job], out[task.job]);
        });
        for (std::size_t i = 0; i < batch.size(); ++i) {
            out[i].job_index = batch[i].canonical;
            results[batch[i].canonical] = std::move(out[i]);
        }
    }
    return results;
}

/** Self time of every span of pass @p pass, summed per span name. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans, int pass)
{
    std::map<std::uint64_t, double> duration, children;
    for (const auto &s : spans)
        if (s.pass == pass) {
            duration[s.id] = s.end - s.start;
            if (s.parent)
                children[s.parent] += s.end - s.start;
        }
    std::map<std::string, double> self;
    for (const auto &s : spans) {
        if (s.pass != pass)
            continue;
        double t = duration[s.id] - children[s.id];
        if (s.minus)
            t -= duration[s.minus];
        self[s.name] += t;
    }
    return self;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const Workload &w)
{
    std::ofstream out(path);
    double epoch = spans.empty() ? 0.0 : spans.front().start;
    for (const auto &s : spans)
        epoch = std::min(epoch, s.start);
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
        << w.name << "\", \"seed\": " << w.seed << "},\n\"traceEvents\": [";
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": "
                      "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u, \"args\": {\"id\": %llu, \"parent\": "
                      "%llu, \"minus\": %llu, \"workload\": \"%s\", "
                      "\"pass\": %d}}",
                      i ? "," : "", s.name.c_str(), (s.start - epoch) * 1e6,
                      (s.end - s.start) * 1e6, s.tid,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.minus),
                      w.name.c_str(), s.pass);
        out << buf;
    }
    out << "\n]}\n";
}

std::vector<std::string>
measuredKernels()
{
    std::vector<std::string> names;
    for (const auto id : kb::allKernelIds())
        names.push_back(kb::kernelIdName(id));
    return names;
}

const char *const kReplayModels[] = {"lru", "8way-lru", "8way-fifo",
                                     "random"};

/** Per-layer metrics of traced pass @p pass. */
LayerMetrics
passMetrics(const std::vector<Span> &spans, int pass,
            const PassCounts &counts, const kb::CurveStoreStats &store)
{
    const auto self = selfTimes(spans, pass);
    const auto get = [&self](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const auto rate = [](std::uint64_t words, double s) {
        return s > 0.0 ? static_cast<double>(words) / s : 0.0;
    };
    LayerMetrics m;
    m["kernels.emit_s"] = get("kernels.emit");
    m["kernels.emit_words"] = static_cast<double>(counts.emit_words);
    double measure = 0.0;
    for (const auto &k : measuredKernels()) {
        m["kernels.measure_s." + k] = get("kernels.measure." + k);
        measure += m["kernels.measure_s." + k];
    }
    m["kernels.measure_s"] = measure;
    m["trace.pipeline_s"] = get("trace.pipeline");
    m["trace.pipeline_chunks"] = static_cast<double>(counts.chunks);
    m["trace.reuse.fully_assoc_s"] = get("trace.reuse.fully_assoc");
    m["trace.reuse.fully_assoc_words_per_s"] =
        rate(counts.fully_assoc_words, m["trace.reuse.fully_assoc_s"]);
    m["trace.reuse.multi_set_s"] = get("trace.reuse.multi_set");
    m["trace.reuse.multi_set_words_per_s"] =
        rate(counts.multi_set_words, m["trace.reuse.multi_set_s"]);
    double replay = 0.0;
    for (const char *model : kReplayModels) {
        m[std::string("trace.replay_s.") + model] =
            get(std::string("trace.replay.") + model);
        replay += m[std::string("trace.replay_s.") + model];
    }
    m["mem.opt.pass1_s"] = get("mem.opt.pass1");
    m["mem.opt.pass2_s"] = get("mem.opt.pass2");
    m["mem.opt.words_per_s"] =
        rate(counts.opt_words, m["mem.opt.pass1_s"] + m["mem.opt.pass2_s"]);
    m["mem.opt.peak_resident_bytes"] =
        static_cast<double>(counts.opt_peak_resident);
    m["mem.opt.spilled_bytes"] = static_cast<double>(counts.opt_spilled);
    m["mem.opt.buffered_s"] = get("mem.opt.buffered");
    m["engine.store.get_s"] = get("engine.store.get");
    m["engine.store.put_s"] = get("engine.store.put");
    const std::uint64_t lookups = store.hits + store.misses;
    m["engine.store.hit_frac"] =
        lookups ? static_cast<double>(store.hits) / lookups : 0.0;
    m["engine.store.disk_hits"] = static_cast<double>(store.disk_hits);
    m["engine.store.disk_stores"] = static_cast<double>(store.disk_stores);
    m["layers.self_s"] = m["kernels.emit_s"] + measure +
                         m["trace.pipeline_s"] +
                         m["trace.reuse.fully_assoc_s"] +
                         m["trace.reuse.multi_set_s"] + replay +
                         m["mem.opt.pass1_s"] + m["mem.opt.pass2_s"] +
                         m["mem.opt.buffered_s"] + m["engine.store.get_s"] +
                         m["engine.store.put_s"];
    return m;
}

} // namespace

std::vector<std::string>
perLayerMetricNames()
{
    std::vector<std::string> names = {"kernels.emit_s", "kernels.emit_words",
                                      "kernels.measure_s"};
    for (const auto &k : measuredKernels())
        names.push_back("kernels.measure_s." + k);
    for (const char *n :
         {"trace.pipeline_s", "trace.pipeline_chunks",
          "trace.reuse.fully_assoc_s", "trace.reuse.fully_assoc_words_per_s",
          "trace.reuse.multi_set_s", "trace.reuse.multi_set_words_per_s"})
        names.push_back(n);
    for (const char *model : kReplayModels)
        names.push_back(std::string("trace.replay_s.") + model);
    for (const char *n :
         {"mem.opt.pass1_s", "mem.opt.pass2_s", "mem.opt.words_per_s",
          "mem.opt.peak_resident_bytes", "mem.opt.spilled_bytes",
          "mem.opt.buffered_s", "engine.emissions", "engine.store.get_s",
          "engine.store.hit_frac", "engine.store.disk_hits",
          "engine.store.put_s", "engine.store.disk_stores",
          "engine.pool_efficiency", "engine.cpu_s", "layers.sum_vs_wall",
          "layers.unattributed_s"})
        names.push_back(n);
    return names;
}

std::string
perLayerUnit(const std::string &name)
{
    if (name.ends_with("words_per_s"))
        return "words/s";
    if (name.ends_with("_bytes"))
        return "bytes";
    if (name.ends_with("_s") || name.find("_s.") != std::string::npos)
        return "s";
    if (name.ends_with("_frac") || name.ends_with("_efficiency") ||
        name.ends_with("_vs_wall"))
        return "ratio";
    return "count";
}

LayerMetrics
tracedRun(const kb::ExperimentEngine &engine, const Workload &w,
          const std::string &store_dir, double seconds,
          const std::string &span_path, const Expectation &expect,
          int &attempted, int &failed)
{
    const auto gate = [&](const std::string &why, const char *kind) {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            std::printf("FAILED %s pass: %s\n", kind, why.c_str());
        }
    };
    const double t0 = nowSeconds();

    // --- untraced reference: warm-up, then passes for ~40% of budget ---
    gate(checkPass(w, runPass(engine, w, store_dir), expect), "warm-up");
    std::vector<PassOutcome> reference;
    do {
        reference.push_back(runPass(engine, w, store_dir));
        gate(checkPass(w, reference.back(), expect), "reference");
    } while (nowSeconds() - t0 < 0.4 * seconds);
    std::vector<double> walls, cpus, emissions;
    for (const auto &pass : reference) {
        walls.push_back(pass.wall_s);
        cpus.push_back(pass.cpu_s);
        emissions.push_back(static_cast<double>(pass.emissions));
    }
    const double wall_s = median(walls);

    // --- serial time of every job on a 1-thread engine ---
    const kb::ExperimentEngine serial(1);
    prepareStore(w, store_dir);
    double serial_s = 0.0;
    for (const auto &batch : w.batches)
        for (const auto &s : batch) {
            const double t = nowSeconds();
            (void)serial.runOne(s.job);
            serial_s += nowSeconds() - t;
        }

    // --- traced replica passes for the rest of the budget ---
    SpanLog log;
    std::vector<LayerMetrics> traced;
    std::vector<double> traced_walls;
    const std::uint64_t engine_digest = digestOf(reference.front().results);
    do {
        const int pass = static_cast<int>(traced.size()) + 1;
        log.setPass(pass);
        prepareStore(w, store_dir);
        PassCounts counts;
        const double t = nowSeconds();
        std::string why;
        try {
            const PassResults results = tracedPass(engine, w, log, counts);
            if (digestOf(results) != engine_digest)
                why = "traced replica disagrees with the engine's results";
        } catch (const std::exception &e) {
            why = std::string("traced pass threw: ") + e.what();
        }
        traced_walls.push_back(nowSeconds() - t);
        gate(why, "traced");
        traced.push_back(
            passMetrics(log.spans(), pass, counts,
                        kb::CurveStore::instance().stats()));
    } while (nowSeconds() - t0 < seconds);
    writeChromeTrace(span_path, log.spans(), w);

    LayerMetrics out;
    for (const auto &[name, value] : traced.front()) {
        std::vector<double> values;
        for (const auto &m : traced)
            values.push_back(m.at(name));
        out[name] = median(values);
    }
    const double lanes = w.pooled ? engine.threads() : 1.0;
    out["engine.emissions"] = median(emissions);
    out["engine.cpu_s"] = median(cpus);
    out["engine.pool_efficiency"] = serial_s / (engine.threads() * wall_s);
    out["layers.sum_vs_wall"] = out["layers.self_s"] / (lanes * wall_s);
    out["layers.unattributed_s"] = lanes * wall_s - out["layers.self_s"];
    std::printf("traced: %zu reference passes (wall_s %.6g), serial %.6g s, "
                "%zu traced passes (median wall %.6g s, tracing overhead "
                "%.3gx), %zu spans\n",
                reference.size(), wall_s, serial_s, traced.size(),
                median(traced_walls), median(traced_walls) / wall_s,
                log.spans().size());
    out.erase("layers.self_s");
    return out;
}

// ---------------------------------------------------------- self-tests

namespace {

int g_failures = 0;

void
expectTrue(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

/** A small fixed-schedule job with every model family: seconds-cheap. */
Workload
tinyWorkload(bool warm)
{
    Workload w;
    w.name = warm ? "selftest_warm" : "selftest";
    kb::SweepJob fixed;
    fixed.kernel = "matmul";
    fixed.m_lo = 64;
    fixed.m_hi = 512;
    fixed.points = 4;
    fixed.n_hint = 48;
    fixed.schedule_m = 512;
    fixed.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                    MemoryModelKind::Opt, MemoryModelKind::SetAssocFifo};
    fixed.models_only = true;
    kb::SweepJob replayed = fixed;
    replayed.schedule_m = 0;
    replayed.schedule_headroom = 2;
    replayed.models_only = false;
    replayed.models = {MemoryModelKind::Lru, MemoryModelKind::Opt,
                       MemoryModelKind::RandomRepl};
    w.batches = {{SeededJob{fixed, 0}, SeededJob{replayed, 1}}};
    w.warm = warm;
    return w;
}

} // namespace

int
selfTest(const std::string &scratch_dir)
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::set<std::string> seen;
    bool names_ok = true;
    for (const auto &name : perLayerMetricNames())
        names_ok = names_ok && std::regex_match(name, name_re) &&
                   seen.insert(name).second;
    expectTrue(names_ok, "per-layer metric names match [A-Za-z0-9_.-]+ "
                         "and are unique");

    const kb::ExperimentEngine engine(2);
    const std::string dir = scratch_dir + "/selftest-store";
    const Workload cold = tinyWorkload(false);

    PassOutcome pass = runPass(engine, cold, dir);
    Expectation expect;
    expect.digest = digestOf(pass.results);
    expectTrue(checkPass(cold, pass, expect).empty(),
               "a clean pass passes the digest gate");
    const Expectation oracle = crossCheckCells(engine, cold, 4);
    expectTrue(checkPass(cold, pass, oracle).empty(),
               "a clean pass matches force_replay cells");

    PassOutcome flipped = pass;
    flipped.results[0].points[1].model_io[0] ^= 1;
    expectTrue(!checkPass(cold, flipped, expect).empty(),
               "a flipped model_io bit fails the digest gate");
    Expectation all_cells;
    for (std::size_t j = 0; j < pass.results.size(); ++j)
        for (std::size_t p = 0; p < pass.results[j].points.size(); ++p)
            all_cells.oracle_cells[{j, p}] = pass.results[j].points[p];
    expectTrue(!checkPass(cold, flipped, all_cells).empty(),
               "a flipped model_io bit fails the oracle cross-check");

    const Workload warm = tinyWorkload(true);
    const std::string empty_dir = scratch_dir + "/selftest-empty";
    std::filesystem::create_directories(empty_dir);
    kb::CurveStore::instance().setDiskDirectory(empty_dir);
    kb::CurveStore::instance().clearDisk();
    const PassOutcome emitting = runPass(engine, warm, empty_dir);
    expectTrue(emitting.emissions > 0 &&
                   !checkPass(warm, emitting, expect).empty(),
               "a warm_store pass that emits a trace fails");
    populateStore(warm, dir, 2);
    const PassOutcome served = runPass(engine, warm, dir);
    expectTrue(served.emissions == 0 && checkPass(warm, served, expect).empty(),
               "a warm_store pass served from disk passes");

    for (const bool is_warm : {false, true}) {
        const Workload &w = is_warm ? warm : cold;
        if (is_warm)
            populateStore(w, dir, 2);
        int attempted = 0, failed = 0;
        const LayerMetrics layers =
            tracedRun(engine, w, dir, 0.1, scratch_dir + "/selftest-spans.json",
                      expect, attempted, failed);
        bool all = failed == 0;
        for (const auto &name : perLayerMetricNames())
            all = all && layers.count(name) == 1;
        all = all && layers.size() == perLayerMetricNames().size();
        expectTrue(all, std::string("traced run on a ") +
                            (is_warm ? "warm" : "cold") +
                            " workload reports every per-layer metric and "
                            "its replica matches the engine");
        if (is_warm)
            expectTrue(layers.at("engine.emissions") == 0 &&
                           layers.at("engine.store.hit_frac") == 1.0,
                       "warm traced run: zero emissions, hit_frac 1");
        else
            expectTrue(layers.at("trace.reuse.multi_set_s") > 0 &&
                           layers.at("mem.opt.pass2_s") > 0 &&
                           layers.at("trace.replay_s.random") > 0 &&
                           layers.at("mem.opt.buffered_s") > 0 &&
                           layers.at("kernels.measure_s.matmul") > 0,
                       "cold traced run times every layer it exercises");
    }
    std::printf("%d self-test failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace perfbench
