/**
 * @file
 * Unit tests for the contract/invariant layer.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/contract.hh"
#include "sim/logging.hh"

namespace
{

using mercury::ScopedLogCapture;
using mercury::SimFatalError;
using mercury::contract::ContractViolation;
using mercury::contract::ScopedContractThrow;

TEST(Contract, PassingChecksAreSilent)
{
    MERCURY_ASSERT(1 + 1 == 2);
    MERCURY_EXPECTS(true, "never printed");
    MERCURY_ENSURES(2 > 1, "never printed either");
    MERCURY_ASSERT_SLOW(true);
}

TEST(Contract, ViolationThrowsUnderScopedContractThrow)
{
    ScopedContractThrow guard;
    EXPECT_THROW(MERCURY_ASSERT(false, "broken"), ContractViolation);
}

TEST(Contract, ViolationIsAlsoASimFatalError)
{
    // Legacy tests catch SimFatalError; the contract layer must stay
    // compatible with them.
    ScopedContractThrow guard;
    EXPECT_THROW(MERCURY_EXPECTS(false), SimFatalError);
}

TEST(Contract, DiagnosticNamesKindConditionAndLocation)
{
    ScopedContractThrow guard;
    try {
        MERCURY_EXPECTS(2 + 2 == 5, "math still works");
        FAIL() << "expected a ContractViolation";
    } catch (const ContractViolation &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("precondition"), std::string::npos) << what;
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
        EXPECT_NE(what.find("contract_test.cc"), std::string::npos)
            << what;
        EXPECT_NE(what.find("math still works"), std::string::npos)
            << what;
    }
}

TEST(Contract, DiagnosticEmbedsLastNotedTick)
{
    mercury::contract::noteTick(777123);
    EXPECT_EQ(mercury::contract::lastNotedTick(), 777123u);

    ScopedContractThrow guard;
    try {
        MERCURY_ENSURES(false);
        FAIL() << "expected a ContractViolation";
    } catch (const ContractViolation &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("postcondition"), std::string::npos)
            << what;
        EXPECT_NE(what.find("curTick=777123"), std::string::npos)
            << what;
    }
    mercury::contract::noteTick(0);
}

TEST(Contract, ScopedContractThrowNests)
{
    ScopedContractThrow outer;
    {
        ScopedContractThrow inner;
        EXPECT_THROW(MERCURY_ASSERT(false), ContractViolation);
    }
    // Outer guard still active after the inner one unwinds.
    EXPECT_THROW(MERCURY_ASSERT(false), ContractViolation);
}

TEST(Contract, ScopedLogCaptureAlsoEnablesThrowMode)
{
    // The pre-contract tests use ScopedLogCapture +
    // EXPECT_THROW(..., SimFatalError); violations must keep honoring
    // it and the captured record must carry the diagnostic.
    ScopedLogCapture capture;
    EXPECT_THROW(MERCURY_ASSERT(false, "captured"), SimFatalError);
    ASSERT_FALSE(capture.messages().empty());
    EXPECT_NE(capture.messages().back().find("captured"),
              std::string::npos);
}

TEST(Contract, SlowChecksMatchBuildConfiguration)
{
    // MERCURY_ASSERT_SLOW must not evaluate its condition when
    // expensive checks are compiled out.
    bool evaluated = false;
    auto probe = [&] {
        evaluated = true;
        return true;
    };
    static_cast<void>(probe);  // unused when checks are compiled out
    MERCURY_ASSERT_SLOW(probe());
    EXPECT_EQ(evaluated, bool(MERCURY_EXTRA_CHECKS_ENABLED));
}

TEST(ContractDeath, ViolationAbortsOutsideTestModes)
{
    // Without a ScopedContractThrow or ScopedLogCapture a violation
    // must abort so a debugger sees the broken state.
    EXPECT_DEATH(MERCURY_ASSERT(false, "fatal in release"), "");
}

} // anonymous namespace
