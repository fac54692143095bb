#ifndef WHYQ_TESTS_TEMP_PATH_H_
#define WHYQ_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace whyq {

/// A scratch path under ::testing::TempDir() private to the running test:
/// `<prefix><Suite>.<Test>_<name>`. ctest runs every test in its own
/// process, in parallel under `ctest -j`, so a fixed file name shared by
/// the tests of one fixture lets one test overwrite another's file.
inline std::string PerTestTempPath(const std::string& prefix,
                                   const std::string& name) {
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = t == nullptr ? std::string("global")
                                  : std::string(t->test_suite_name()) + "." +
                                        t->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + prefix + test + "_" + name;
}

}  // namespace whyq

#endif  // WHYQ_TESTS_TEMP_PATH_H_
