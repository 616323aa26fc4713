#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ignem {
namespace {

TEST(Samples, MeanSumMinMax) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (const double v : {0.0, 10.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

TEST(Samples, PercentileSingleValue) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(Samples, PercentileRejectsEmptyAndOutOfRange) {
  Samples s;
  EXPECT_THROW(s.percentile(50), CheckFailure);
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), CheckFailure);
  EXPECT_THROW(s.percentile(101), CheckFailure);
}

TEST(Samples, FractionAtMost) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(10.0), 1.0);
  EXPECT_DOUBLE_EQ(Samples{}.fraction_at_most(1.0), 0.0);
}

TEST(Samples, PercentileValidAfterLaterAdds) {
  // Internal sort cache must invalidate on add.
  Samples s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
}

TEST(Samples, CdfIsMonotonic) {
  Samples s;
  for (int i = 100; i > 0; --i) s.add(static_cast<double>(i));
  const auto cdf = s.cdf(10);
  ASSERT_EQ(cdf.size(), 10u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, CdfEmpty) {
  Samples s;
  EXPECT_TRUE(s.cdf().empty());
}

TEST(Summarize, MentionsKeyFields) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const std::string text = summarize(s, "s");
  EXPECT_NE(text.find("n=100"), std::string::npos);
  EXPECT_NE(text.find("mean=50.5"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
}

TEST(Summarize, EmptySamples) {
  EXPECT_EQ(summarize(Samples{}), "n=0");
}

}  // namespace
}  // namespace ignem
