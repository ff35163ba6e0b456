#include "sim/thread_pool.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::sim
{

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned count = std::max(1u, threads);
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    MERCURY_EXPECTS(task != nullptr, "null task submitted to pool");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MERCURY_EXPECTS(!stopping_, "task submitted to stopping pool");
        tasks_.push_back(std::move(task));
        ++inFlight_;
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (inFlight_ != 0)
        allIdle_.wait(lock);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!stopping_ && tasks_.empty())
                workAvailable_.wait(lock);
            if (tasks_.empty())
                return;  // stopping, queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                allIdle_.notify_all();
        }
    }
}

} // namespace mercury::sim
