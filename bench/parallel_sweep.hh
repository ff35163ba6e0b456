/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * A design-space sweep is a list of independent *points* (one server
 * config, one fault rate, one cluster layout, ...). ParallelSweep
 * executes the points across `--jobs N` worker threads and then
 * emits every point's outputs -- stdout text, stats-JSON fragment,
 * ordered merge callback -- strictly in submission order on the
 * calling thread. Because each point owns all of its simulation
 * state (its own models, FaultInjector stream, and stats Registry)
 * and the merge order is the submission order rather than the
 * completion order, `--jobs 8` output is byte-identical to
 * `--jobs 1`; the tests/determinism suite locks that down per bench.
 *
 * Usage:
 *
 *   bench::ParallelSweep sweep(session);
 *   for (const auto &cfg : configs)
 *       sweep.point([&, cfg](bench::PointContext &ctx) {
 *           Model model(paramsFor(cfg, ctx.statsParent()));
 *           results[cfg.index] = model.measure();
 *           ctx.printf("%s done\n", cfg.name);  // ordered text
 *           ctx.capture();   // fold stats while the model is alive
 *       });
 *   sweep.run();
 *
 * Points must not touch stdout/stderr, the session registry, or any
 * state shared with another point from inside the work function;
 * ctx.printf and per-slot result vectors are the supported channels.
 * The optional `after` callback runs on the calling thread during
 * the ordered emission phase and may use std::printf freely.
 */

#ifndef MERCURY_BENCH_PARALLEL_SWEEP_HH
#define MERCURY_BENCH_PARALLEL_SWEEP_HH

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"

#include "sim/stats.hh"
#include "sim/trace.hh"

namespace mercury::bench
{

/**
 * Call @p fn(i) once for every i in [0, count): inline when @p jobs
 * is 1, otherwise on @p jobs threads that pull the next index from a
 * shared counter. Returns after every call has finished; the join is
 * the barrier that hands the calls' results to the calling thread.
 * An exception a call throws on a worker is rethrown here after the
 * join, as it would propagate from the inline loop.
 */
template <typename Fn>
void
forEachIndex(unsigned jobs, std::size_t count, Fn fn)
{
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(jobs);
    {
        std::vector<std::jthread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w)
            workers.emplace_back([&, w] {
                try {
                    for (std::size_t i = next.fetch_add(1); i < count;
                         i = next.fetch_add(1))
                        fn(i);
                } catch (...) {
                    errors[w] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

/**
 * One sweep point's private output channels. Handed to the point's
 * work function; everything accumulated here is published in
 * submission order after the point finishes.
 */
class PointContext
{
  public:
    /**
     * Parent for this point's statistics tree: a per-point Registry
     * named like the session's, so stat paths come out identical to
     * a model registered directly on the session. Created on first
     * use.
     */
    stats::StatGroup *
    statsParent()
    {
        if (!registry_)
            registry_.emplace(registryName_);
        return &*registry_;
    }

    /**
     * The session tracer in serial mode, nullptr under --jobs > 1.
     * (Session already clamps jobs to 1 when --trace-out is active,
     * so traced runs never lose spans.)
     */
    trace::Tracer *tracer() const { return tracer_; }

    bool smoke() const { return smoke_; }

    /** True when the session wants --timeseries-out; points attach
     * per-point samplers only then. */
    bool wantTimeseries() const { return wantTimeseries_; }

    /** The session's --sample-interval, as simulated ticks. */
    Tick sampleInterval() const { return sampleInterval_; }

    /**
     * Publish a finished sampler's JSONL as this point's time-series
     * segment. Segments from all points are appended to the session
     * in submission order, so the --timeseries-out bytes are
     * identical across --jobs values.
     */
    void
    timeseries(const std::string &jsonl)
    {
        timeseries_ += jsonl;
    }

    /** Append printf-formatted text to the point's ordered stdout
     * segment. */
    void
    printf(const char *fmt, ...)
    {
        char stack[512];
        std::va_list args;
        va_start(args, fmt);
        const int needed =
            std::vsnprintf(stack, sizeof(stack), fmt, args);
        va_end(args);
        if (needed < 0)
            return;
        if (static_cast<std::size_t>(needed) < sizeof(stack)) {
            text_.append(stack, static_cast<std::size_t>(needed));
            return;
        }
        std::vector<char> heap(static_cast<std::size_t>(needed) + 1);
        va_start(args, fmt);
        std::vsnprintf(heap.data(), heap.size(), fmt, args);
        va_end(args);
        text_.append(heap.data(), static_cast<std::size_t>(needed));
    }

    /**
     * Fold the point registry's *current* contents into the point's
     * stats fragment -- call while transient models are still alive,
     * mirroring Session::capture(). No-op unless the session asked
     * for --stats-json.
     */
    void
    capture()
    {
        if (!wantStats_ || !registry_)
            return;
        registry_->formatJson(fragment_, "", fragmentFirst_);
        captured_ = true;
    }

  private:
    friend class ParallelSweep;

    PointContext(std::string registry_name, bool want_stats,
                 bool smoke, trace::Tracer *tracer,
                 bool want_timeseries, Tick sample_interval)
        : registryName_(std::move(registry_name)),
          wantStats_(want_stats), smoke_(smoke), tracer_(tracer),
          wantTimeseries_(want_timeseries),
          sampleInterval_(sample_interval)
    {}

    /**
     * Emit the point's accumulated outputs on the calling thread --
     * the submission-order merge step that makes --jobs N
     * byte-identical to serial. ParallelSweep calls this after
     * joining the workers, so the one that filled the buffers is
     * done.
     */
    void
    publish(Session &session)
    {
        if (!text_.empty())
            std::fwrite(text_.data(), 1, text_.size(), stdout);
        if (!captured_)
            capture();  // stats objects that outlived work()
        session.appendStatsFragment(fragment_);
        session.appendTimeseries(timeseries_);
    }

    std::string registryName_;
    bool wantStats_;
    bool smoke_;
    trace::Tracer *tracer_;
    bool wantTimeseries_ = false;
    Tick sampleInterval_ = 0;
    /** This state and everything below is filled by the one worker
     * that runs the point and read by publish() on the calling
     * thread after the workers are joined; the join orders the two,
     * so none of it needs a lock. */
    std::optional<stats::Registry> registry_;
    std::string text_;
    std::string fragment_;
    std::string timeseries_;
    bool fragmentFirst_ = true;
    bool captured_ = false;
};

class ParallelSweep
{
  public:
    explicit ParallelSweep(Session &session)
        : session_(session)
    {}

    /**
     * Enqueue a sweep point. @p work runs on a worker thread (or
     * inline under --jobs 1); the optional @p after runs on the
     * calling thread during the ordered emission phase, right after
     * the point's text and stats are published.
     */
    void
    point(std::function<void(PointContext &)> work,
          std::function<void()> after = {})
    {
        points_.push_back(Point{std::move(work), std::move(after),
                                nullptr});
    }

    /** Execute all queued points under session.jobs() workers, then
     * publish every point's outputs in submission order. Reusable:
     * the point list is cleared afterwards. */
    void
    run()
    {
        const unsigned jobs = std::min<unsigned>(
            std::max(1u, session_.jobs()),
            static_cast<unsigned>(
                std::max<std::size_t>(1, points_.size())));

        for (Point &p : points_) {
            p.context.reset(new PointContext(
                session_.registry().name(), session_.wantStats(),
                session_.smoke(),
                jobs == 1 ? session_.tracer() : nullptr,
                session_.wantTimeseries(),
                session_.sampleInterval()));
        }

        // --jobs 1 takes the same path minus threads: per-point
        // registries and ordered emission keep the bytes identical
        // by construction.
        forEachIndex(jobs, points_.size(), [this](std::size_t i) {
            points_[i].work(*points_[i].context);
        });

        for (Point &p : points_) {
            p.context->publish(session_);
            if (p.after)
                p.after();
        }
        points_.clear();
    }

  private:
    struct Point
    {
        std::function<void(PointContext &)> work;
        std::function<void()> after;
        std::unique_ptr<PointContext> context;
    };

    Session &session_;
    std::vector<Point> points_;
};

} // namespace mercury::bench

#endif // MERCURY_BENCH_PARALLEL_SWEEP_HH
