// Shared helpers for SDVM integration tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/site.hpp"

namespace sdvm::testing_util {

/// A counter from the site's metrics registry, read through
/// Site::introspect() (takes the site lock).
inline std::uint64_t counter(Site& site, const std::string& name) {
  return site.introspect().metrics.counter(name);
}

/// The primes app reports the count found when a round pushes it to >= p;
/// the final round may overshoot by up to width-1 (the paper's app has the
/// same property — rounds are atomic).
inline void expect_primes_verdict(const std::vector<std::string>& out,
                                  std::int64_t p, std::int64_t width) {
  ASSERT_FALSE(out.empty()) << "no program output collected";
  std::int64_t found = std::stoll(out.back());
  EXPECT_GE(found, p);
  EXPECT_LT(found, p + width);
}

}  // namespace sdvm::testing_util
