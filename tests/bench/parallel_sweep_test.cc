/**
 * @file
 * Tests for bench::ParallelSweep: every point runs once whatever
 * --jobs says, and outputs come back in submission order on the
 * calling thread. The tsan stage of scripts/check.sh reruns these
 * under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel_sweep.hh"

namespace
{

using namespace mercury;

constexpr std::size_t kPoints = 5;
const char *const kNames[kPoints] = {"p0", "p1", "p2", "p3", "p4"};

/** A mutable argv for bench::Session, which rewrites it in place. */
class Args
{
  public:
    explicit Args(std::vector<std::string> words)
        : words_(std::move(words))
    {
        for (std::string &word : words_)
            ptrs_.push_back(word.data());
        ptrs_.push_back(nullptr);
        argc = static_cast<int>(words_.size());
    }

    char **argv() { return ptrs_.data(); }

    int argc;

  private:
    std::vector<std::string> words_;
    std::vector<char *> ptrs_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Position of each "pN" in @p text, in point order. */
std::vector<std::size_t>
positions(const std::string &text)
{
    std::vector<std::size_t> at;
    for (const char *name : kNames)
        at.push_back(text.find(name));
    return at;
}

TEST(ParallelSweep, RunsEveryPointOnceAtAnyJobs)
{
    for (const unsigned jobs : {1u, 3u, 8u}) {
        SCOPED_TRACE(jobs);
        Args args({"sweep", "--jobs", std::to_string(jobs)});
        bench::Session session(args.argc, args.argv(), "sweep");
        std::array<std::atomic<int>, kPoints> runs{};
        std::array<std::thread::id, kPoints> ranOn{};
        bench::ParallelSweep sweep(session);
        for (std::size_t i = 0; i < kPoints; ++i)
            sweep.point([&, i](bench::PointContext &) {
                runs[i].fetch_add(1);
                ranOn[i] = std::this_thread::get_id();
            });
        sweep.run();

        for (const std::atomic<int> &count : runs)
            EXPECT_EQ(count.load(), 1);
        const std::set<std::thread::id> threads(ranOn.begin(),
                                                ranOn.end());
        EXPECT_LE(threads.size(), std::min<std::size_t>(jobs, kPoints));
        // --jobs 1 runs inline; otherwise only workers run points.
        EXPECT_EQ(threads.count(std::this_thread::get_id()),
                  jobs == 1 ? 1u : 0u);
    }
}

TEST(ParallelSweep, PublishesInSubmissionOrderWhenLaterPointsFinishFirst)
{
    const std::string stats =
        testing::TempDir() + "parallel_sweep_order_stats.json";
    const std::string series =
        testing::TempDir() + "parallel_sweep_order_series.jsonl";
    Args args({"sweep", "--jobs", "3", "--stats-json", stats,
               "--timeseries-out", series});
    bench::Session session(args.argc, args.argv(), "sweep");

    std::atomic<int> finished{0};
    std::array<int, kPoints> finishRank{};
    bench::ParallelSweep sweep(session);
    for (std::size_t i = 0; i < kPoints; ++i)
        sweep.point([&, i](bench::PointContext &ctx) {
            // Point 0 waits for every other point, so it finishes
            // last although it is submitted first.
            if (i == 0) {
                while (finished.load() < static_cast<int>(kPoints) - 1)
                    std::this_thread::yield();
            }
            stats::Counter counter(ctx.statsParent(), kNames[i], "");
            counter += i;
            ctx.capture();
            ctx.printf("%s\n", kNames[i]);
            ctx.timeseries(std::string(kNames[i]) + "\n");
            finishRank[i] = finished.fetch_add(1);
        });

    testing::internal::CaptureStdout();
    sweep.run();
    const std::string out = testing::internal::GetCapturedStdout();
    session.finish();

    EXPECT_EQ(finishRank[0], static_cast<int>(kPoints) - 1);
    EXPECT_EQ(out, "p0\np1\np2\np3\np4\n");
    EXPECT_EQ(readFile(series), "p0\np1\np2\np3\np4\n");
    const std::vector<std::size_t> at = positions(readFile(stats));
    for (std::size_t i = 0; i < kPoints; ++i)
        ASSERT_NE(at[i], std::string::npos) << kNames[i];
    for (std::size_t i = 1; i < kPoints; ++i)
        EXPECT_LT(at[i - 1], at[i]) << kNames[i];
    std::remove(stats.c_str());
    std::remove(series.c_str());
}

TEST(ParallelSweep, AfterCallbacksRunInOrderOnCallingThread)
{
    Args args({"sweep", "--jobs", "3"});
    bench::Session session(args.argc, args.argv(), "sweep");
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ranOn;
    bench::ParallelSweep sweep(session);
    for (std::size_t i = 0; i < kPoints; ++i)
        sweep.point(
            [i](bench::PointContext &ctx) {
                ctx.printf("point %zu\n", i);
            },
            [&, i] {
                order.push_back(i);
                ranOn.push_back(std::this_thread::get_id());
                std::printf("after %zu\n", i);
            });

    testing::internal::CaptureStdout();
    sweep.run();
    const std::string out = testing::internal::GetCapturedStdout();

    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    for (const std::thread::id id : ranOn)
        EXPECT_EQ(id, std::this_thread::get_id());
    // Each callback follows its own point's text.
    EXPECT_EQ(out, "point 0\nafter 0\npoint 1\nafter 1\npoint 2\n"
                   "after 2\npoint 3\nafter 3\npoint 4\nafter 4\n");
}

TEST(ParallelSweep, WorkerExceptionReachesTheCaller)
{
    std::array<std::atomic<int>, kPoints> runs{};
    EXPECT_THROW(bench::forEachIndex(3, kPoints,
                                     [&](std::size_t i) {
                                         runs[i].fetch_add(1);
                                         if (i == 2)
                                             throw std::runtime_error(
                                                 "point 2");
                                     }),
                 std::runtime_error);
    // The worker that threw stops; the others finish the points.
    for (const std::atomic<int> &count : runs)
        EXPECT_EQ(count.load(), 1);
}

} // anonymous namespace
