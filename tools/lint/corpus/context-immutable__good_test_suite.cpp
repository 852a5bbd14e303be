// lint-path: tests/test_scoring.cpp
// Corpus: a gtest suite may be named after the class it tests. The suite
// name in TEST(ScoringContext, ...) is not a use of the type; the test
// body still reaches the context through const pointers only.
#include <gtest/gtest.h>

#include <memory>

#include "core/scoring_context.hpp"

TEST(ScoringContext, ReadsThroughConst) {
  std::shared_ptr<const tofmcl::core::ScoringContext> ctx;
  EXPECT_EQ(ctx, nullptr);
}
