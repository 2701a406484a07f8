#include "mnc/matrix/io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "mnc/matrix/coo_matrix.h"
#include "mnc/matrix/generate.h"
#include "mnc/util/fail_point.h"
#include "mnc/util/random.h"

namespace mnc {
namespace {

TEST(IoTest, RoundTrip) {
  Rng rng(1);
  CsrMatrix m = GenerateUniformSparse(20, 30, 0.1, rng);
  std::stringstream ss;
  WriteMatrixMarket(m, ss);
  auto back = ReadMatrixMarket(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->Equals(m));
}

TEST(IoTest, RoundTripEmptyMatrix) {
  CsrMatrix m(5, 7);
  std::stringstream ss;
  WriteMatrixMarket(m, ss);
  auto back = ReadMatrixMarket(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->Equals(m));
}

TEST(IoTest, ReadsPatternFormat) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->NumNonZeros(), 2);
  EXPECT_EQ(m->At(0, 1), 1.0);
  EXPECT_EQ(m->At(2, 0), 1.0);
}

TEST(IoTest, ReadsSymmetricFormat) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->NumNonZeros(), 3);  // (1,0), (0,1) mirrored, (2,2) diagonal
  EXPECT_EQ(m->At(1, 0), 5.0);
  EXPECT_EQ(m->At(0, 1), 5.0);
  EXPECT_EQ(m->At(2, 2), 7.0);
}

TEST(IoTest, SkipsComments) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "% another\n"
      "2 2 1\n"
      "1 1 4.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->At(0, 0), 4.0);
}

TEST(IoTest, RejectsMissingHeader) {
  std::stringstream ss("2 2 1\n1 1 4.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(m.status().message().empty());
}

TEST(IoTest, RejectsOutOfRangeIndices) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 4.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  // Error names the offending line for debuggability.
  EXPECT_NE(m.status().message().find("line 3"), std::string::npos)
      << m.status().ToString();
}

// Entry fields parse as `std::istream >> value` would: a leading '+',
// trailing junk after the last field and an underflowing value are
// accepted; inf/nan spellings, a bare exponent marker, an overflowing value
// and an overflowing index are rejected with the same typed errors.
TEST(IoTest, EntryFieldsParseLikeStreamExtraction) {
  auto read = [](const std::string& entry) {
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                         "3 3 1\n" +
                         entry + "\n");
    return ReadMatrixMarket(ss);
  };
  for (const char* ok : {"+1 +2 +.5", "1\t2\r0.5", "1 2 0.5abc", "1 2 5e-1x",
                         "1 2 1e-400"}) {
    EXPECT_TRUE(read(ok).ok()) << ok << ": " << read(ok).status().ToString();
  }
  EXPECT_EQ(read("+1 +2 +.5")->At(0, 1), 0.5);
  EXPECT_EQ(read("1 2 1e-400")->NumNonZeros(), 0);  // underflows to 0.0
  for (const char* bad : {"1 2 inf", "1 2 nan", "1 2 3.0e", "1 2 1e+",
                          "1 2 1e400", "1 2 +-5", "1 2"}) {
    const auto m = read(bad);
    ASSERT_FALSE(m.ok()) << bad;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(m.status().message().find("missing its value"),
              std::string::npos)
        << m.status().ToString();
  }
  for (const char* bad :
       {"99999999999999999999 1 1.0", "1.5 2 1.0", "x y z"}) {
    const auto m = read(bad);
    ASSERT_FALSE(m.ok()) << bad;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(m.status().message().find("malformed entry"), std::string::npos)
        << m.status().ToString();
  }
}

TEST(IoTest, RejectsTruncatedEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 4.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kDataLoss);
}

TEST(IoTest, RejectsUnsupportedFormat) {
  std::stringstream ss(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n1\n2\n3\n4\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kUnimplemented);
}

TEST(IoTest, RejectsNnzExceedingDims) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 5\n"
      "1 1 1.0\n1 2 1.0\n2 1 1.0\n2 2 1.0\n1 1 2.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);
}

TEST(IoTest, RejectsNnzExceedingStreamBytes) {
  // Declared nnz of a billion entries cannot fit in a few bytes of stream;
  // the reader must refuse before reserving memory for them.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "100000 100000 1000000000\n"
      "1 1 4.0\n");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(m.status().message().find("1000000000"), std::string::npos)
      << m.status().ToString();
}

TEST(IoTest, RejectsNegativeDims) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "-2 2 1\n"
      "1 1 4.0\n");
  EXPECT_FALSE(ReadMatrixMarket(ss).ok());
}

TEST(IoTest, ReadFailPoint) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 4.0\n");
  ScopedFailPoint fp("mm.read_fail");
  auto m = ReadMatrixMarket(ss);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(m.status().message().find("mm.read_fail"), std::string::npos);
}

TEST(IoTest, FileRoundTrip) {
  Rng rng(2);
  CsrMatrix m = GenerateUniformSparse(10, 10, 0.3, rng);
  const std::string path = ::testing::TempDir() + "/mnc_io_test.mtx";
  ASSERT_TRUE(WriteMatrixMarketFile(m, path).ok());
  auto back = ReadMatrixMarketFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Equals(m));
}

TEST(IoTest, MissingFileIsNotFound) {
  auto m = ReadMatrixMarketFile("/nonexistent/path.mtx");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
  // The path is part of the message so callers can log it directly.
  EXPECT_NE(m.status().message().find("/nonexistent/path.mtx"),
            std::string::npos);
}

TEST(IoTest, WriteToUnwritablePathFails) {
  CsrMatrix m(2, 2);
  const Status s = WriteMatrixMarketFile(m, "/nonexistent/dir/out.mtx");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
}

}  // namespace
}  // namespace mnc
