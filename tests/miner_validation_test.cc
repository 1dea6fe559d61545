#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "core/miner.h"

namespace pgm {
namespace {

Sequence SmallSeq() {
  return *Sequence::FromString("ACGTACGTACGT", Alphabet::Dna());
}

MinerConfig ValidConfig() {
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 2;
  return config;
}

using MinerFn = StatusOr<MiningResult> (*)(const Sequence&, const MinerConfig&);

class MinerValidationTest : public testing::TestWithParam<MinerFn> {};

TEST_P(MinerValidationTest, AcceptsValidConfig) {
  EXPECT_TRUE(GetParam()(SmallSeq(), ValidConfig()).ok());
}

TEST_P(MinerValidationTest, RejectsEmptySequence) {
  Sequence empty = *Sequence::FromString("", Alphabet::Dna());
  EXPECT_FALSE(GetParam()(empty, ValidConfig()).ok());
}

TEST_P(MinerValidationTest, RejectsNegativeMinGap) {
  MinerConfig config = ValidConfig();
  config.min_gap = -1;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsInvertedGap) {
  MinerConfig config = ValidConfig();
  config.min_gap = 3;
  config.max_gap = 2;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsZeroSupportRatio) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 0.0;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsSupportRatioAboveOne) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 1.5;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsNonPositiveStartLength) {
  MinerConfig config = ValidConfig();
  config.start_length = 0;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, RejectsMaxLengthBelowStart) {
  MinerConfig config = ValidConfig();
  config.start_length = 3;
  config.max_length = 2;
  EXPECT_FALSE(GetParam()(SmallSeq(), config).ok());
}

TEST_P(MinerValidationTest, SupportRatioOfExactlyOneIsValid) {
  MinerConfig config = ValidConfig();
  config.min_support_ratio = 1.0;
  EXPECT_TRUE(GetParam()(SmallSeq(), config).ok());
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerValidationTest,
                         testing::Values(&MineMpp, &MineMppm, &MineEnumeration,
                                         &MineAdaptive));

TEST(MinerValidationTest, AdaptiveRejectsBadIterationKnobs) {
  MinerConfig config = ValidConfig();
  config.initial_n = 0;
  EXPECT_FALSE(MineAdaptive(SmallSeq(), config).ok());
  config = ValidConfig();
  config.max_iterations = 0;
  EXPECT_FALSE(MineAdaptive(SmallSeq(), config).ok());
}

TEST(MinerValidationTest, MppmRejectsBadEmOrder) {
  MinerConfig config = ValidConfig();
  config.em_order = 0;
  EXPECT_FALSE(MineMppm(SmallSeq(), config).ok());
}

TEST(MinerValidationTest, StartLengthBeyondL2YieldsEmptyResult) {
  MinerConfig config = ValidConfig();
  config.start_length = 100;  // far beyond l2 for a 12-char sequence
  StatusOr<MiningResult> result = MineMpp(SmallSeq(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
  EXPECT_TRUE(result->level_stats.empty());
}

TEST(MinerValidationTest, MineWithAlgorithmDispatchesByName) {
  for (const char* algorithm : {"mpp", "mppm", "enum", "adaptive"}) {
    EXPECT_TRUE(MineWithAlgorithm(algorithm, SmallSeq(), ValidConfig()).ok())
        << algorithm;
  }
  const StatusOr<MiningResult> bogus =
      MineWithAlgorithm("bogus", SmallSeq(), ValidConfig());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bogus.status().message(), "unknown algorithm: bogus");
}

// The ConfigField table: keys and cache-key names are unique, every keyed
// row parses back what it formats, and only keyless rows lack a parser.
TEST(ConfigFieldTest, RowsAreUniqueAndRoundTripTheirText) {
  std::set<std::string_view> keys, canonicals;
  for (const ConfigField& field : MinerConfigFields()) {
    EXPECT_TRUE(canonicals.insert(field.canonical).second) << field.canonical;
    EXPECT_EQ(field.canonical_value == nullptr,
              field.role == FieldRole::kExecution)
        << field.canonical;
    if (field.key.empty()) continue;
    EXPECT_TRUE(keys.insert(field.key).second) << field.key;
    EXPECT_EQ(FindConfigField(field.key), &field);
    EXPECT_FALSE(field.help.empty()) << field.key;
    ASSERT_NE(field.parse, nullptr) << field.key;
    ASSERT_NE(field.format, nullptr) << field.key;
    MinerConfig config = ValidConfig();
    config.kernel_tier = KernelTier::kBits;
    MinerConfig parsed;
    ASSERT_TRUE(field.parse(field.format(config), &parsed).ok()) << field.key;
    EXPECT_EQ(field.format(parsed), field.format(config)) << field.key;
  }
  EXPECT_EQ(keys.size(), 8u);  // the pgm mine/corpus flags and job keys
  EXPECT_EQ(FindConfigField(""), nullptr);
  EXPECT_EQ(FindConfigField("threads"), nullptr);
}

}  // namespace
}  // namespace pgm
