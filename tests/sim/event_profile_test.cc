/**
 * @file
 * Unit tests for the host-side event profiler and the queue's
 * first-level bin accounting it samples.
 *
 * EventProfiler is always compiled (only the serviceOne hooks are
 * behind MERCURY_EVENT_PROFILE), so the accounting and JSON shape
 * are testable in every build.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace
{

using mercury::Event;
using mercury::EventFunctionWrapper;
using mercury::EventProfiler;
using mercury::EventQueue;

TEST(EventProfiler, AccumulatesPerTypeCosts)
{
    EventProfiler profiler;
    profiler.noteService("nic completion", 120);
    profiler.noteService("nic completion", 80);
    profiler.noteService("dram completion", 500);

    EXPECT_EQ(profiler.serviced(), 3u);
    EXPECT_EQ(profiler.hostNs(), 700u);
    ASSERT_EQ(profiler.costs().size(), 2u);
    // std::map keys iterate sorted, so the structure (unlike the
    // numbers) is deterministic.
    auto it = profiler.costs().begin();
    EXPECT_EQ(it->first, "dram completion");
    EXPECT_EQ(it->second.serviced, 1u);
    EXPECT_EQ(it->second.hostNs, 500u);
    ++it;
    EXPECT_EQ(it->first, "nic completion");
    EXPECT_EQ(it->second.serviced, 2u);
    EXPECT_EQ(it->second.hostNs, 200u);
}

TEST(EventProfiler, TracksQueueShapeSummary)
{
    EventProfiler profiler;
    EXPECT_EQ(profiler.meanDepth(), 0.0);
    profiler.noteQueueShape(4, 2);
    profiler.noteQueueShape(8, 4);
    profiler.noteQueueShape(6, 3);

    EXPECT_EQ(profiler.shapeSamples(), 3u);
    EXPECT_EQ(profiler.maxDepth(), 8u);
    EXPECT_EQ(profiler.maxBins(), 4u);
    EXPECT_DOUBLE_EQ(profiler.meanDepth(), 6.0);
    EXPECT_DOUBLE_EQ(profiler.meanBins(), 3.0);
}

TEST(EventProfiler, WriteJsonEmitsSortedParsableStructure)
{
    EventProfiler profiler;
    profiler.noteService("zeta", 30);
    profiler.noteService("alpha", 70);
    profiler.noteQueueShape(2, 1);

    std::ostringstream os;
    profiler.writeJson(os);
    const std::string out = os.str();

    EXPECT_EQ(out.front(), '{');
    // "alpha" must precede "zeta" regardless of insertion order.
    EXPECT_LT(out.find("\"alpha\""), out.find("\"zeta\""));
    EXPECT_NE(out.find("\"serviced\":2"), std::string::npos);
    EXPECT_NE(out.find("\"host_ns\":100"), std::string::npos);
    EXPECT_NE(out.find("\"types\""), std::string::npos);
}

TEST(EventProfiler, ClearForgetsEverything)
{
    EventProfiler profiler;
    profiler.noteService("x", 10);
    profiler.noteQueueShape(1, 1);
    profiler.clear();

    EXPECT_EQ(profiler.serviced(), 0u);
    EXPECT_EQ(profiler.hostNs(), 0u);
    EXPECT_EQ(profiler.shapeSamples(), 0u);
    EXPECT_TRUE(profiler.costs().empty());
    EXPECT_EQ(profiler.meanDepth(), 0.0);
}

TEST(EventQueue, BinCountTracksDistinctTickPriorityBins)
{
    EventQueue queue;
    EXPECT_EQ(queue.bins(), 0u);

    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    EventFunctionWrapper c([] {}, "c");
    EventFunctionWrapper d([] {}, "d", Event::highPriority);

    queue.schedule(&a, 100);
    EXPECT_EQ(queue.bins(), 1u);
    // Same tick and priority shares the bin.
    queue.schedule(&b, 100);
    EXPECT_EQ(queue.bins(), 1u);
    // A different tick and a different priority each open one.
    queue.schedule(&c, 200);
    EXPECT_EQ(queue.bins(), 2u);
    queue.schedule(&d, 100);
    EXPECT_EQ(queue.bins(), 3u);

    // Draining collapses the bins back down as their last members
    // are serviced.
    EXPECT_EQ(queue.serviceOne(), &d);
    EXPECT_EQ(queue.bins(), 2u);
    EXPECT_EQ(queue.serviceOne(), &a);
    EXPECT_EQ(queue.bins(), 2u);
    EXPECT_EQ(queue.serviceOne(), &b);
    EXPECT_EQ(queue.bins(), 1u);
    EXPECT_EQ(queue.serviceOne(), &c);
    EXPECT_EQ(queue.bins(), 0u);
}

TEST(EventQueue, BinCountSurvivesDeschedule)
{
    EventQueue queue;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");

    queue.schedule(&a, 100);
    queue.schedule(&b, 100);
    EXPECT_EQ(queue.bins(), 1u);
    queue.deschedule(&a);
    // The bin still holds b.
    EXPECT_EQ(queue.bins(), 1u);
    queue.deschedule(&b);
    EXPECT_EQ(queue.bins(), 0u);
    EXPECT_TRUE(queue.empty());
}

} // anonymous namespace
