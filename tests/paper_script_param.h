// Shared parameter for the value-parameterized suites that run each of the
// paper's S1-S4 scripts.
//
// gtest_discover_tests registers every instance under a name that embeds the
// printed parameter ("S1  # GetParam() = ..."). A plain pair of `const char*`
// prints its pointer values, which move with address-space randomization, so
// the registered test names would differ from build to build. This parameter
// prints as its script name instead.

#ifndef SCX_TESTS_PAPER_SCRIPT_PARAM_H_
#define SCX_TESTS_PAPER_SCRIPT_PARAM_H_

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "workload/paper_scripts.h"

namespace scx {

struct PaperScriptParam {
  const char* name;
  const char* text;
};

inline void PrintTo(const PaperScriptParam& param, std::ostream* os) {
  *os << param.name;
}

/// The four paper scripts, for INSTANTIATE_TEST_SUITE_P.
inline auto PaperScriptParams() {
  return ::testing::Values(PaperScriptParam{"S1", kScriptS1},
                           PaperScriptParam{"S2", kScriptS2},
                           PaperScriptParam{"S3", kScriptS3},
                           PaperScriptParam{"S4", kScriptS4});
}

/// Instance-name generator: "S1" ... "S4".
inline std::string PaperScriptParamName(
    const ::testing::TestParamInfo<PaperScriptParam>& info) {
  return info.param.name;
}

}  // namespace scx

#endif  // SCX_TESTS_PAPER_SCRIPT_PARAM_H_
