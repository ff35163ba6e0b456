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
 * queue, clean under ThreadSanitizer: scripts/check.sh runs the
 * golden and determinism suites and the ThreadPool tests under the
 * tsan preset.
 */

#ifndef MERCURY_SIM_THREAD_POOL_HH
#define MERCURY_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished executing. */
    void wait();

    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void workerLoop();

    /** Guards tasks_, inFlight_ and stopping_. */
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> tasks_;
    /** Queued + currently executing. */
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace mercury::sim

#endif // MERCURY_SIM_THREAD_POOL_HH
