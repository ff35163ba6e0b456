/**
 * @file
 * Unit tests for the contract/invariant layer.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/contract.hh"

namespace
{

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

// The diagnostic message: argument folding and the throw/no-throw
// behaviour of a check as a caller sees it.

TEST(Logging, FatalMessageCarriesConcatenatedArgs)
{
    ScopedContractThrow guard;
    try {
        MERCURY_EXPECTS(false, "value=", 7, " name=", "stack");
        FAIL() << "expected a ContractViolation";
    } catch (const ContractViolation &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(": value=7 name=stack"), std::string::npos)
            << what;
    }
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    ScopedContractThrow guard;
    EXPECT_NO_THROW(MERCURY_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Logging, AssertThrowsOnFalseCondition)
{
    ScopedContractThrow guard;
    EXPECT_THROW(MERCURY_ASSERT(false, "must not hold"),
                 ContractViolation);
}

TEST(Contract, UnreachableThrowsAnInvariantViolation)
{
    ScopedContractThrow guard;
    try {
        MERCURY_UNREACHABLE("unknown kind ", 3);
        FAIL() << "expected a ContractViolation";
    } catch (const ContractViolation &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("invariant"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown kind 3"), std::string::npos)
            << what;
    }
}

TEST(Contract, ThrownViolationWritesNothingToStderr)
{
    // Under test mode the diagnostic travels in what(); stderr stays
    // clean so expected violations do not flood the test log.
    ScopedContractThrow guard;
    testing::internal::CaptureStderr();
    EXPECT_THROW(MERCURY_ASSERT(false, "quiet"), ContractViolation);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
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
    // Without a ScopedContractThrow a violation writes its diagnostic
    // to stderr and aborts so a debugger sees the broken state.
    EXPECT_DEATH(MERCURY_ASSERT(false, "fatal in release"),
                 "invariant 'false' violated at .*contract_test\\.cc:"
                 "[0-9]+ \\[curTick=[0-9]+\\]: fatal in release");
}

} // anonymous namespace
