// Randomized kernel-oracle campaign: 200 seeded (gap, prefix PIL, suffix
// group) configurations run through CombinePrefixGroupKernel under every
// tier and cross-checked row-for-row against PartialIndexList::Combine +
// TotalSupport — the heap-backed reference the whole PIL layer is defined
// by. The window-width schedule pins the bitset kernel's boundary cases
// (W = 1, 63, 64, and a 65 that must fall back to scalar) and the PIL
// shapes force every internal path: dense spans (bitmap fast path), sparse
// spans (density-guard fallback), saturated and near-clamp counts
// (exactness-guard fallback), and empty lists. An exhaustive small-case
// sweep and the ResolveKernel dispatch rules round out the suite. Runs
// under both sanitizer presets via the robustness/concurrency labels.

#include "core/kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/gap.h"
#include "core/miner.h"
#include "core/pil.h"
#include "core/pil_arena.h"
#include "util/random.h"
#include "util/saturating.h"

namespace pgm {
namespace {

// Every implementation the host can run: scalar always (the dispatch path
// to the oracle itself), bits always, avx2 when compiled in and supported.
std::vector<KernelImpl> TiersUnderTest() {
  std::vector<KernelImpl> tiers = {KernelImpl::kScalar, KernelImpl::kBits};
  if (Avx2Available()) tiers.push_back(KernelImpl::kAvx2);
  return tiers;
}

const char* TierName(KernelImpl impl) { return KernelImplToString(impl); }

// PIL shape classes; the draw weights skew toward the bitmap fast path
// while keeping every fallback lane in the campaign.
enum class PilShape { kDense, kMedium, kSparse, kHugeCounts, kSaturated };

std::vector<PilEntry> RandomPil(Rng& rng, PilShape shape) {
  const std::size_t len = static_cast<std::size_t>(rng.UniformRange(0, 120));
  std::vector<PilEntry> rows;
  rows.reserve(len);
  std::uint32_t pos = static_cast<std::uint32_t>(rng.UniformInt(1 << 16));
  for (std::size_t i = 0; i < len; ++i) {
    std::uint32_t step = 0;
    switch (shape) {
      case PilShape::kDense:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 3));
        break;
      case PilShape::kMedium:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 40));
        break;
      case PilShape::kSparse:
        // Spans of ~millions of positions over ~100 rows overflow the
        // density guard (words > 4 * (|prefix| + |suffix|) + 64), forcing
        // the per-pair scalar fallback.
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 60000));
        break;
      case PilShape::kHugeCounts:
      case PilShape::kSaturated:
        step = static_cast<std::uint32_t>(rng.UniformRange(1, 10));
        break;
    }
    pos += step;
    std::uint64_t count = 0;
    switch (shape) {
      case PilShape::kHugeCounts:
        // A handful of these sum past kSaturatedCount, tripping the
        // exactness guard (the bitset kernel's uint64 prefix sums would
        // clamp differently than the oracle's 128-bit window).
        count = std::uint64_t{1} << (40 + rng.UniformInt(23));
        break;
      case PilShape::kSaturated:
        count = rng.Bernoulli(0.2) ? kSaturatedCount
                                   : 1 + rng.UniformInt(100);
        break;
      default:
        count = 1 + static_cast<std::uint64_t>(rng.UniformInt(1000));
        break;
    }
    rows.push_back(PilEntry{pos, count});
  }
  return rows;
}

PilShape DrawShape(Rng& rng) {
  const std::int64_t roll = rng.UniformInt(10);
  if (roll < 4) return PilShape::kDense;
  if (roll < 7) return PilShape::kMedium;
  if (roll < 8) return PilShape::kSparse;
  if (roll < 9) return PilShape::kHugeCounts;
  return PilShape::kSaturated;
}

// Runs one (prefix, suffix group) configuration through `impl` and checks
// every candidate's rows and support byte-for-byte against the heap oracle.
void CheckGroupAgainstOracle(const std::vector<PilEntry>& prefix,
                             const std::vector<std::vector<PilEntry>>& group,
                             const GapRequirement& gap, KernelImpl impl,
                             KernelScratch& scratch) {
  SCOPED_TRACE(std::string("tier=") + TierName(impl));
  std::vector<GroupSuffix> suffixes(group.size());
  std::vector<GroupOutput> outputs(group.size());
  // Combine emits at most one row per prefix row; slack on top catches a
  // kernel overrunning its slice (ASan patrols the redzone).
  std::vector<std::vector<PilEntry>> slices(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    suffixes[i] = {group[i].data(), group[i].size()};
    slices[i].resize(prefix.size() + 1);
    outputs[i].rows = slices[i].data();
  }
  CombinePrefixGroupKernel(impl, prefix.data(), prefix.size(), gap,
                           suffixes.data(), outputs.data(), group.size(),
                           scratch);

  const PartialIndexList prefix_pil =
      PartialIndexList::FromEntries(prefix);
  for (std::size_t i = 0; i < group.size(); ++i) {
    SCOPED_TRACE("suffix " + std::to_string(i));
    const PartialIndexList expected = PartialIndexList::Combine(
        prefix_pil, PartialIndexList::FromEntries(group[i]), gap);
    const SupportInfo expected_support = expected.TotalSupport();
    ASSERT_EQ(outputs[i].len, expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(outputs[i].rows[r], expected.entries()[r])
          << "row " << r << " diverged from the oracle";
    }
    EXPECT_EQ(outputs[i].support.count, expected_support.count);
    EXPECT_EQ(outputs[i].support.saturated, expected_support.saturated);
  }
}

TEST(KernelOracleSweep, RandomizedConfigsMatchOracleAcrossTiers) {
  constexpr std::size_t kNumConfigs = 200;
  const std::vector<KernelImpl> tiers = TiersUnderTest();
  Rng rng(0xC0FFEE0DDBA11ull);
  KernelScratch scratch;
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    // Boundary schedule first — W = 64 is the widest mask a word holds,
    // W = 65 the narrowest window every tier must refuse (and fall back to
    // scalar on) — then uniform over the bitset kernel's whole domain.
    std::int64_t width = 0;
    switch (c) {
      case 0: width = 1; break;
      case 1: width = 63; break;
      case 2: width = 64; break;
      case 3: width = 65; break;
      default: width = rng.UniformRange(1, 64); break;
    }
    const std::int64_t min_gap = rng.UniformRange(0, 12);
    const GapRequirement gap =
        *GapRequirement::Create(min_gap, min_gap + width - 1);
    SCOPED_TRACE("config " + std::to_string(c) + " gap=[" +
                 std::to_string(min_gap) + "," +
                 std::to_string(min_gap + width - 1) + "]");

    const std::vector<PilEntry> prefix = RandomPil(rng, DrawShape(rng));
    const std::size_t group_size =
        static_cast<std::size_t>(rng.UniformRange(1, 6));
    std::vector<std::vector<PilEntry>> group;
    group.reserve(group_size);
    for (std::size_t i = 0; i < group_size; ++i) {
      group.push_back(RandomPil(rng, DrawShape(rng)));
    }

    for (KernelImpl impl : tiers) {
      CheckGroupAgainstOracle(prefix, group, gap, impl, scratch);
    }
  }
}

// Exhaustive sweep over tiny inputs: every subset of positions {0..6} as
// prefix, the full 128-subset powerset as one suffix group, at several
// small windows. Small cases are where off-by-ones live (empty windows,
// window clipping at either end, bit 0 / bit 63 extraction).
TEST(KernelOracleSweep, ExhaustiveSmallCasesMatchOracleAcrossTiers) {
  const std::vector<KernelImpl> tiers = TiersUnderTest();
  KernelScratch scratch;
  constexpr std::uint32_t kPositions = 7;
  constexpr std::uint32_t kMasks = 1u << kPositions;

  auto from_mask = [](std::uint32_t mask) {
    std::vector<PilEntry> rows;
    for (std::uint32_t p = 0; p < kPositions; ++p) {
      if (mask & (1u << p)) rows.push_back(PilEntry{p, 1});
    }
    return rows;
  };

  std::vector<std::vector<PilEntry>> group;
  group.reserve(kMasks);
  for (std::uint32_t mask = 0; mask < kMasks; ++mask) {
    group.push_back(from_mask(mask));
  }

  for (std::int64_t min_gap : {0, 1, 2}) {
    for (std::int64_t width : {1, 2, 3}) {
      const GapRequirement gap =
          *GapRequirement::Create(min_gap, min_gap + width - 1);
      SCOPED_TRACE("gap=[" + std::to_string(min_gap) + "," +
                   std::to_string(min_gap + width - 1) + "]");
      for (std::uint32_t pmask = 0; pmask < kMasks; ++pmask) {
        const std::vector<PilEntry> prefix = from_mask(pmask);
        for (KernelImpl impl : tiers) {
          CheckGroupAgainstOracle(prefix, group, gap, impl, scratch);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelDispatch, ResolveKernelFollowsTierAndWindowRules) {
  const GapRequirement narrow = *GapRequirement::Create(9, 12);    // W = 4
  const GapRequirement w64 = *GapRequirement::Create(0, 63);      // W = 64
  const GapRequirement w65 = *GapRequirement::Create(0, 64);      // W = 65

  // Scalar is always scalar.
  for (const GapRequirement* gap : {&narrow, &w64, &w65}) {
    EXPECT_EQ(ResolveKernel(KernelTier::kScalar, *gap), KernelImpl::kScalar);
  }
  // W > 64 has no bit-parallel representation: every tier degrades to
  // scalar rather than failing.
  for (KernelTier tier : {KernelTier::kAuto, KernelTier::kBits,
                          KernelTier::kAvx2}) {
    EXPECT_EQ(ResolveKernel(tier, w65), KernelImpl::kScalar);
  }
  // Within the 64-bit window, bits means bits and auto/avx2 take the
  // fastest tier the CPU offers.
  const KernelImpl best =
      Avx2Available() ? KernelImpl::kAvx2 : KernelImpl::kBits;
  for (const GapRequirement* gap : {&narrow, &w64}) {
    EXPECT_EQ(ResolveKernel(KernelTier::kBits, *gap), KernelImpl::kBits);
    EXPECT_EQ(ResolveKernel(KernelTier::kAuto, *gap), best);
    EXPECT_EQ(ResolveKernel(KernelTier::kAvx2, *gap), best);
  }
}

TEST(KernelDispatch, TierStringsRoundTrip) {
  // Tier names are parsed by the "kernel" ConfigField row (core/miner.h).
  const ConfigField* kernel = FindConfigField("kernel");
  ASSERT_NE(kernel, nullptr);
  for (KernelTier tier : {KernelTier::kAuto, KernelTier::kScalar,
                          KernelTier::kBits, KernelTier::kAvx2}) {
    MinerConfig config;
    ASSERT_TRUE(kernel->parse(KernelTierToString(tier), &config).ok());
    EXPECT_EQ(config.kernel_tier, tier);
    EXPECT_EQ(kernel->format(config), KernelTierToString(tier));
  }
  MinerConfig config;
  EXPECT_FALSE(kernel->parse("sse9", &config).ok());
  EXPECT_FALSE(kernel->parse("", &config).ok());
  EXPECT_STREQ(KernelImplToString(KernelImpl::kScalar), "scalar");
  EXPECT_STREQ(KernelImplToString(KernelImpl::kBits), "bits");
  EXPECT_STREQ(KernelImplToString(KernelImpl::kAvx2), "avx2");
}

}  // namespace
}  // namespace pgm
