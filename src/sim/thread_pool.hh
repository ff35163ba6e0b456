/**
 * @file
 * Fixed-size host thread pool for embarrassingly-parallel sweeps.
 *
 * The simulator itself stays single-threaded: one sweep point owns
 * its own models, one FaultInjector stream, and one stats Registry,
 * and never shares them. The pool only provides the host-side
 * workers that execute independent points concurrently; determinism
 * is the *caller's* job and is achieved by merging results in
 * submission order (see bench::ParallelSweep), never by relying on
 * completion order.
 *
 * The implementation is a plain mutex + condition-variable task
 * queue, clean under ThreadSanitizer (scripts/check.sh runs the
 * determinism suite under the tsan preset) and fully annotated for
 * Clang's thread-safety analysis (sim/sync.hh): every field the
 * workers share is GUARDED_BY(mutex_), so taking one without the
 * lock is a compile error under -Wthread-safety.
 */

#ifndef MERCURY_SIM_THREAD_POOL_HH
#define MERCURY_SIM_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "sim/sync.hh"
#include "sim/thread_annotations.hh"

namespace mercury::sim
{

class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding work (wait()) before joining. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; tasks may be submitted from any thread. */
    void submit(std::function<void()> task) EXCLUDES(mutex_);

    /** Block until every submitted task has finished executing. */
    void wait() EXCLUDES(mutex_);

    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Host hardware concurrency, at least 1. */
    static unsigned
    hardwareThreads()
    {
        const unsigned n = std::thread::hardware_concurrency();
        return n ? n : 1;
    }

  private:
    void workerLoop() EXCLUDES(mutex_);

    Mutex mutex_;
    ConditionVariable workAvailable_;
    ConditionVariable allIdle_;
    std::deque<std::function<void()>> tasks_ GUARDED_BY(mutex_);
    /** Queued + currently executing. */
    std::size_t inFlight_ GUARDED_BY(mutex_) = 0;
    bool stopping_ GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
};

} // namespace mercury::sim

#endif // MERCURY_SIM_THREAD_POOL_HH
