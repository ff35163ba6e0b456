/**
 * @file
 * Unit tests for the request-lifecycle event tracer: ring-buffer
 * retention and wrap-around, JSONL output, digest drift detection,
 * the runtime-off mode, and the zero-allocation record() hot path.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "alloc_probe.hh"
#include "sim/trace.hh"

namespace
{

using namespace mercury;
using trace::Stage;
using trace::Tracer;

TEST(Tracer, RecordsSpansInOrder)
{
    Tracer tracer(16);
    const std::uint32_t req = tracer.beginRequest();
    tracer.record(req, Stage::NicIn, 0, 100, 15);
    tracer.record(req, Stage::Hash, 100, 140, 9);
    tracer.record(req, Stage::Request, 0, 500, 1);

    ASSERT_EQ(tracer.size(), 3u);
    EXPECT_EQ(tracer.recordedSpans(), 3u);
    EXPECT_EQ(tracer.droppedSpans(), 0u);
    EXPECT_EQ(tracer.span(0).stage, Stage::NicIn);
    EXPECT_EQ(tracer.span(0).end, 100u);
    EXPECT_EQ(tracer.span(1).stage, Stage::Hash);
    EXPECT_EQ(tracer.span(2).stage, Stage::Request);
    EXPECT_EQ(tracer.span(2).arg, 1u);
}

TEST(Tracer, BeginRequestHandsOutSequentialIds)
{
    Tracer tracer;
    EXPECT_EQ(tracer.beginRequest(), 0u);
    EXPECT_EQ(tracer.beginRequest(), 1u);
    EXPECT_EQ(tracer.beginRequest(), 2u);
}

TEST(Tracer, RingWrapKeepsNewestSpans)
{
    Tracer tracer(4);
    for (std::uint32_t i = 0; i < 10; ++i)
        tracer.record(i, Stage::Netstack, i * 10, i * 10 + 5);

    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recordedSpans(), 10u);
    EXPECT_EQ(tracer.droppedSpans(), 6u);
    // Oldest retained is request 6, newest is request 9.
    EXPECT_EQ(tracer.span(0).request, 6u);
    EXPECT_EQ(tracer.span(3).request, 9u);
}

TEST(Tracer, TraceSpanMacroToleratesNullTracer)
{
    Tracer *tracer = nullptr;
    // Must neither crash nor evaluate into anything observable.
    MERCURY_TRACE_SPAN(tracer, 0, Stage::NicIn, 0, 10, 0);
    SUCCEED();
}

TEST(Tracer, WriteJsonlEmitsOneObjectPerSpan)
{
    Tracer tracer(8);
    tracer.record(3, Stage::StoreWalk, 100, 250, 2);
    tracer.record(3, Stage::NicOut, 250, 300, 64);

    std::ostringstream os;
    tracer.writeJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"req\":3,\"stage\":\"store-walk\",\"node\":0,"
              "\"begin\":100,\"end\":250,\"arg\":2}\n"
              "{\"req\":3,\"stage\":\"nic-out\",\"node\":0,"
              "\"begin\":250,\"end\":300,\"arg\":64}\n");
}

TEST(Tracer, WriteJsonlEmitsParentOnlyWhenSet)
{
    Tracer tracer(8);
    tracer.setContext(2, 7);
    tracer.record(9, Stage::Attempt, 10, 20, 0);

    std::ostringstream os;
    tracer.writeJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"req\":9,\"stage\":\"attempt\",\"node\":2,"
              "\"parent\":7,\"begin\":10,\"end\":20,\"arg\":0}\n");
}

TEST(Tracer, StageNamesAreStable)
{
    EXPECT_STREQ(trace::stageName(Stage::NicIn), "nic-in");
    EXPECT_STREQ(trace::stageName(Stage::Netstack), "netstack");
    EXPECT_STREQ(trace::stageName(Stage::Hash), "hash");
    EXPECT_STREQ(trace::stageName(Stage::StoreWalk), "store-walk");
    EXPECT_STREQ(trace::stageName(Stage::Memory), "memory");
    EXPECT_STREQ(trace::stageName(Stage::NicOut), "nic-out");
    EXPECT_STREQ(trace::stageName(Stage::Request), "request");
    EXPECT_STREQ(trace::stageName(Stage::Client), "client");
    EXPECT_STREQ(trace::stageName(Stage::Attempt), "attempt");
    EXPECT_STREQ(trace::stageName(Stage::Backoff), "backoff");
}

TEST(Tracer, ContextStampsNodeAndParentOntoSpans)
{
    Tracer tracer(8);
    tracer.record(0, Stage::NicIn, 0, 10);
    tracer.setContext(5, 42);
    tracer.record(1, Stage::Request, 10, 20);

    EXPECT_EQ(tracer.span(0).node, 0u);
    EXPECT_EQ(tracer.span(0).parent, trace::noParent);
    EXPECT_EQ(tracer.span(1).node, 5u);
    EXPECT_EQ(tracer.span(1).parent, 42u);
}

TEST(Tracer, ScopedContextRestoresOnExitAndToleratesNull)
{
    Tracer tracer(8);
    tracer.setContext(1, 11);
    {
        trace::ScopedTraceContext guard(&tracer, 9, 99);
        EXPECT_EQ(tracer.contextNode(), 9u);
        EXPECT_EQ(tracer.contextParent(), 99u);
        {
            trace::ScopedTraceContext inner(&tracer,
                                            trace::clientNode);
            EXPECT_EQ(tracer.contextNode(), trace::clientNode);
            EXPECT_EQ(tracer.contextParent(), trace::noParent);
        }
        EXPECT_EQ(tracer.contextNode(), 9u);
        EXPECT_EQ(tracer.contextParent(), 99u);
    }
    EXPECT_EQ(tracer.contextNode(), 1u);
    EXPECT_EQ(tracer.contextParent(), 11u);

    // A null tracer must be a no-op, like MERCURY_TRACE_SPAN.
    trace::ScopedTraceContext none(nullptr, 3, 4);
    SUCCEED();
}

TEST(Tracer, ChromeJsonLinksClientAndAttemptSpans)
{
    Tracer tracer(8);
    const std::uint32_t req = tracer.beginRequest();
    tracer.setContext(trace::clientNode);
    tracer.record(req, Stage::Client, 0, 3 * tickUs, 1);
    tracer.setContext(3, req);
    tracer.record(req, Stage::Attempt, tickUs / 2, 2 * tickUs, 0);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string out = os.str();

    // Envelope and process-name metadata for both endpoints.
    EXPECT_NE(out.find("\"displayTimeUnit\":\"ns\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"client\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"node3\""), std::string::npos);

    // Complete events with exact-microsecond timestamps and the
    // causal parent surfaced in args.
    EXPECT_NE(out.find("\"ph\":\"X\",\"name\":\"client\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ts\":0.500000"), std::string::npos);
    EXPECT_NE(out.find("\"parent\":0"), std::string::npos);

    // One flow start on the client envelope, one landing on the
    // attempt, joined by the shared request id.
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\",\"bp\":\"e\""),
              std::string::npos);
}

TEST(Tracer, RecordHotPathNeverAllocates)
{
    Tracer tracer(1024);

    const std::uint64_t before = mercuryAllocCalls.load();
    for (std::uint32_t i = 0; i < 100'000; ++i)
        tracer.record(i, Stage::Netstack, i, i + 7, i % 3);
    const std::uint64_t after = mercuryAllocCalls.load();

    EXPECT_EQ(before, after)
        << "Tracer::record allocated on the hot path";
    EXPECT_EQ(tracer.recordedSpans(), 100'000u);
    EXPECT_EQ(tracer.size(), 1024u);
}

} // anonymous namespace
