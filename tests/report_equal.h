// Whole-report equality for the determinism, wire and dispatch tests.
//
// The batch structs compare through their defaulted operator==, so no
// test can skip a field; on a mismatch this helper walks the struct's
// for_each_field table and names every field that differs.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "api/engine.h"

namespace cbtc::api {

/// Use as EXPECT_TRUE(reports_equal(a, b)).
template <class Batch>
::testing::AssertionResult reports_equal(const Batch& a, const Batch& b) {
  if (a == b) return ::testing::AssertionSuccess();
  std::string differing;
  for_each_field(
      [&differing](std::string_view name, const auto& x, const auto& y) {
        if (!(x == y)) differing += " " + std::string(name);
      },
      a, b);
  return ::testing::AssertionFailure() << "batch reports differ in:" << differing;
}

}  // namespace cbtc::api
