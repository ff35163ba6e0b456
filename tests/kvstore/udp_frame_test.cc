/**
 * @file
 * Unit tests for the UDP datagram count.
 */

#include <gtest/gtest.h>

#include "kvstore/udp_frame.hh"

namespace
{

using namespace mercury::kvstore;

TEST(UdpFrame, DatagramCountAtBoundaries)
{
    EXPECT_EQ(udpDatagramCount(0), 1u);
    EXPECT_EQ(udpDatagramCount(1), 1u);
    EXPECT_EQ(udpDatagramCount(1399), 1u);
    EXPECT_EQ(udpDatagramCount(1400), 1u);
    EXPECT_EQ(udpDatagramCount(1401), 2u);
    EXPECT_EQ(udpDatagramCount(3000), 3u);
    EXPECT_EQ(udpDatagramCount(100000), 72u);
}

} // namespace
