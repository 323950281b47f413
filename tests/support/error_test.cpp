#include "support/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ndpgen {
namespace {

TEST(Error, KindNamesAndMessageComposition) {
  const Error error(ErrorKind::kStorage, "disk on fire");
  EXPECT_EQ(error.kind(), ErrorKind::kStorage);
  EXPECT_STREQ(error.what(), "storage: disk on fire");
  EXPECT_EQ(to_string(ErrorKind::kParse), "parse");
  EXPECT_EQ(to_string(ErrorKind::kInvalidArg), "invalid-argument");
}

TEST(Error, CheckMacrosThrowWithContext) {
  try {
    NDPGEN_CHECK_ARG(1 == 2, "math is broken");
    FAIL();
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kInvalidArg);
    EXPECT_NE(std::string(error.what()).find("math is broken"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("1 == 2"), std::string::npos);
  }
  try {
    NDPGEN_CHECK(false, "invariant");
    FAIL();
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kInternal);
  }
}

}  // namespace
}  // namespace ndpgen
