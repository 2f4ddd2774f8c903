/** Tests for the structured diagnostics layer (support/diag.hh). */

#include <gtest/gtest.h>

#include "support/diag.hh"

namespace ilp {
namespace {

TEST(DiagTest, SourceLocRendering)
{
    EXPECT_EQ((SourceLoc{"a.mt", 3, 7}.str()), "a.mt:3:7");
    EXPECT_EQ((SourceLoc{"a.mt", 3, 0}.str()), "a.mt:3");
    EXPECT_EQ((SourceLoc{"a.mt", 0, 0}.str()), "a.mt");
    EXPECT_EQ((SourceLoc{"", 0, 0}.str()), "<input>");
}

TEST(DiagTest, FormatIsGrepableAndStable)
{
    Diag d{Severity::Error, ErrCode::ParseUnexpectedToken,
           "expected ';'", SourceLoc{"prog.mt", 4, 9}};
    EXPECT_EQ(d.format(), "prog.mt:4:9: error[E0201]: expected ';'");

    Diag w{Severity::Warning, ErrCode::Internal, "odd", {}};
    EXPECT_EQ(w.format(), "<input>: warning[E0999]: odd");
}

TEST(DiagTest, ErrCodeIdsAreStable)
{
    // These ids appear in JSON output and tests downstream; they are
    // append-only, so pin a representative from each band.
    EXPECT_STREQ(errCodeId(ErrCode::LexUnexpectedChar), "E0101");
    EXPECT_STREQ(errCodeId(ErrCode::ParseUnexpectedToken), "E0201");
    EXPECT_STREQ(errCodeId(ErrCode::SemaUndefined), "E0302");
    EXPECT_STREQ(errCodeId(ErrCode::TrapDivideByZero), "E0401");
    EXPECT_STREQ(errCodeId(ErrCode::OptTempRegsExhausted), "E0501");
    EXPECT_STREQ(errCodeId(ErrCode::BytecodeLoweringFailed), "E0502");
    EXPECT_STREQ(errCodeId(ErrCode::Internal), "E0999");
    EXPECT_STREQ(errCodeName(ErrCode::TrapFuelExhausted),
                 "trap-fuel-exhausted");
    EXPECT_STREQ(errCodeName(ErrCode::BytecodeLoweringFailed),
                 "bytecode-lowering-failed");
}

TEST(DiagEngineTest, CountsOnlyErrors)
{
    DiagEngine diags;
    diags.warning(ErrCode::Internal, {}, "just a warning");
    EXPECT_FALSE(diags.hasErrors());
    diags.error(ErrCode::SemaUndefined, {}, "boom");
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_EQ(diags.errorCount(), 1u);
    EXPECT_EQ(diags.diags().size(), 2u);
}

TEST(DiagEngineTest, ErrorLimit)
{
    DiagEngine diags(3);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(diags.atErrorLimit());
        diags.error(ErrCode::ParseUnexpectedToken, {}, "err");
    }
    EXPECT_TRUE(diags.atErrorLimit());
}

TEST(DiagEngineTest, FormatAllJoinsWithNewlines)
{
    DiagEngine diags;
    diags.error(ErrCode::SemaUndefined, SourceLoc{"u", 1, 1}, "a");
    diags.error(ErrCode::SemaUndefined, SourceLoc{"u", 2, 1}, "b");
    EXPECT_EQ(diags.formatAll(),
              "u:1:1: error[E0302]: a\nu:2:1: error[E0302]: b");
}

TEST(ResultTest, SuccessAndFailure)
{
    Result<int> ok = Result<int>::success(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);
    EXPECT_EQ(ok.code(), ErrCode::None);

    Result<int> bad = Result<int>::failure(
        {Diag{Severity::Error, ErrCode::SemaBadCall, "nope", {}}});
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrCode::SemaBadCall);
    EXPECT_NE(bad.formatErrors().find("E0304"), std::string::npos);
}

TEST(ResultTest, SuccessMayCarryWarnings)
{
    Result<int> ok = Result<int>::success(
        1, {Diag{Severity::Warning, ErrCode::Internal, "hmm", {}}});
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.diags().size(), 1u);
    EXPECT_EQ(ok.code(), ErrCode::None); // warnings are not errors
}

TEST(ResultTest, EmptyFailureGetsADiagnostic)
{
    // A failed Result must always explain itself.
    Result<int> bad = Result<int>::failure({});
    ASSERT_EQ(bad.diags().size(), 1u);
    EXPECT_EQ(bad.code(), ErrCode::Internal);
}

TEST(ResultTest, RaiseThrowsDiagException)
{
    Result<int> bad = Result<int>::failure(
        {Diag{Severity::Error, ErrCode::OptTempRegsExhausted,
              "too small", {}}});
    try {
        bad.raise();
        FAIL() << "expected DiagException";
    } catch (const DiagException &e) {
        EXPECT_EQ(e.code(), ErrCode::OptTempRegsExhausted);
        ASSERT_EQ(e.diags().size(), 1u);
        // what() is the formatted first error, so logs without
        // structured handling still say something useful.
        EXPECT_NE(std::string(e.what()).find("E0501"),
                  std::string::npos);
    }
}

TEST(DiagExceptionTest, FirstErrorWinsWhatEvenAfterNotes)
{
    DiagException e({
        Diag{Severity::Note, ErrCode::None, "context", {}},
        Diag{Severity::Error, ErrCode::SemaUndefined, "boom", {}},
    });
    EXPECT_EQ(e.code(), ErrCode::SemaUndefined);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
}

} // namespace
} // namespace ilp
