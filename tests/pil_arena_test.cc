// Tests for the arena-backed PIL representation (core/pil_arena.h).
//
// Three layers:
//   1. Property tests pinning the equivalence contract: an arena span must
//      report exactly the SupportInfo that the heap-backed
//      PartialIndexList::FromEntries / TotalSupport path reports for the
//      same rows, and the CombinePrefixGroup kernel must emit exactly the
//      rows and support of PartialIndexList::Combine per candidate —
//      including saturating counts and positions at the
//      kMaxSequenceLength boundary.
//   2. Arena mechanics: the watermark/scratch protocol (Promote
//      compaction, TruncateToWatermark), capacity reuse across Clear()
//      (the ping-pong path), move semantics, and the growth counter that
//      makes the "zero steady-state allocations" claim checkable.
//   3. Ledger regression tests: every early-return path of the level-wise
//      engine — completion, memory-budget trip, candidate-cap trip,
//      expired deadline, pre-cancelled token — must leave the guard's
//      memory ledger at exactly zero once the run's arenas die. With
//      capacity-based charging this is structural (arena destructors
//      release everything they charged), and these tests keep it that way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/gap.h"
#include "core/guard.h"
#include "core/miner.h"
#include "core/offset_counter.h"
#include "core/pil.h"
#include "core/pil_arena.h"
#include "seq/sequence.h"
#include "util/limits.h"
#include "util/random.h"
#include "util/saturating.h"

namespace pgm {
namespace {

// Sorted entries with strictly increasing positions and positive counts —
// the invariant PartialIndexList::FromEntries assert-checks. In saturating
// mode a fifth of the counts land within a few units of kSaturatedCount so
// both the clamp and the exact 128-bit sum paths are exercised.
std::vector<PilEntry> RandomEntries(Rng& rng, std::size_t max_len,
                                    bool saturating) {
  const std::size_t len = rng.UniformInt(max_len + 1);
  std::vector<PilEntry> entries;
  entries.reserve(len);
  std::uint32_t pos = static_cast<std::uint32_t>(rng.UniformInt(4));
  for (std::size_t i = 0; i < len; ++i) {
    std::uint64_t count;
    if (saturating && rng.Bernoulli(0.2)) {
      count = kSaturatedCount - rng.UniformInt(3);
    } else {
      count = 1 + rng.UniformInt(1000);
    }
    entries.push_back(PilEntry{pos, count});
    pos += static_cast<std::uint32_t>(1 + rng.UniformInt(4));
  }
  return entries;
}

// Copies `entries` into `arena` as a fresh span.
PilSpan SpanOf(PilArena& arena, const std::vector<PilEntry>& entries) {
  EXPECT_TRUE(arena.Reserve(arena.size() + entries.size()));
  PilSpan span = arena.Allocate(entries.size());
  std::copy(entries.begin(), entries.end(), arena.MutableRows(span));
  return span;
}

TEST(PilArenaSupportTest, SpanSupportMatchesPartialIndexList) {
  Rng rng(0x5eedc0de);
  PilArena arena;
  for (int round = 0; round < 200; ++round) {
    const bool saturating = (round % 2) == 1;
    const std::vector<PilEntry> entries = RandomEntries(rng, 64, saturating);
    const PilSpan span = SpanOf(arena, entries);
    const SupportInfo from_arena = arena.Support(span);
    const SupportInfo from_list =
        PartialIndexList::FromEntries(entries).TotalSupport();
    ASSERT_EQ(from_arena.count, from_list.count) << "round " << round;
    ASSERT_EQ(from_arena.saturated, from_list.saturated) << "round " << round;
  }
}

TEST(PilArenaSupportTest, SaturatedAndBoundaryRowsRoundTrip) {
  // One saturated row plus a row at the last indexable position: the span
  // must agree with the heap path that the sum clamps and stays clamped.
  const std::uint32_t last_pos =
      static_cast<std::uint32_t>(kMaxSequenceLength - 1);
  const std::vector<PilEntry> saturated = {
      PilEntry{0, kSaturatedCount},
      PilEntry{last_pos, 1},
  };
  // Two rows that only saturate when summed (each is below the clamp).
  const std::vector<PilEntry> overflowing = {
      PilEntry{7, kSaturatedCount / 2 + 1},
      PilEntry{last_pos, kSaturatedCount / 2 + 1},
  };
  PilArena arena;
  for (const auto& entries : {saturated, overflowing}) {
    const PilSpan span = SpanOf(arena, entries);
    const SupportInfo from_arena = arena.Support(span);
    const SupportInfo from_list =
        PartialIndexList::FromEntries(entries).TotalSupport();
    EXPECT_EQ(from_arena.count, kSaturatedCount);
    EXPECT_TRUE(from_arena.saturated);
    EXPECT_EQ(from_arena.count, from_list.count);
    EXPECT_EQ(from_arena.saturated, from_list.saturated);
  }
  // And an empty span reports zero support, like an empty list.
  const PilSpan empty = arena.Allocate(0);
  EXPECT_EQ(arena.Support(empty).count, 0u);
  EXPECT_FALSE(arena.Support(empty).saturated);
}

TEST(PilArenaSupportTest, CombinePrefixGroupMatchesCombinePerCandidate) {
  Rng rng(0xa11ce5);
  GroupJoinScratch scratch;
  for (int round = 0; round < 100; ++round) {
    const std::int64_t min_gap = rng.UniformRange(0, 3);
    const std::int64_t max_gap = min_gap + rng.UniformRange(0, 3);
    const GapRequirement gap = *GapRequirement::Create(min_gap, max_gap);
    const bool saturating = (round % 3) == 0;

    const std::vector<PilEntry> prefix = RandomEntries(rng, 48, saturating);
    const std::size_t group_size = 1 + rng.UniformInt(5);
    std::vector<std::vector<PilEntry>> suffix_entries;
    std::vector<GroupSuffix> suffixes;
    for (std::size_t s = 0; s < group_size; ++s) {
      suffix_entries.push_back(RandomEntries(rng, 48, saturating));
      suffixes.push_back(
          GroupSuffix{suffix_entries.back().data(), suffix_entries.back().size()});
    }

    // Combine emits at most one row per prefix row, so prefix.size() rows
    // per candidate is the executor's reservation bound too.
    std::vector<PilEntry> out_rows(group_size * prefix.size());
    std::vector<GroupOutput> outputs(group_size);
    for (std::size_t s = 0; s < group_size; ++s) {
      outputs[s].rows = out_rows.data() + s * prefix.size();
    }
    CombinePrefixGroup(prefix.data(), prefix.size(), gap, suffixes.data(),
                       outputs.data(), group_size, scratch);

    const PartialIndexList prefix_pil = PartialIndexList::FromEntries(prefix);
    for (std::size_t s = 0; s < group_size; ++s) {
      const PartialIndexList expected = PartialIndexList::Combine(
          prefix_pil, PartialIndexList::FromEntries(suffix_entries[s]), gap);
      ASSERT_EQ(outputs[s].len, expected.size())
          << "round " << round << " suffix " << s;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(outputs[s].rows[i], expected.entries()[i])
            << "round " << round << " suffix " << s << " row " << i;
      }
      const SupportInfo expected_support = expected.TotalSupport();
      ASSERT_EQ(outputs[s].support.count, expected_support.count);
      ASSERT_EQ(outputs[s].support.saturated, expected_support.saturated);
    }
  }
}

TEST(PilArenaMechanicsTest, PromoteCompactsScratchOntoWatermark) {
  PilArena arena;
  // Retained level output: two rows, sealed below the watermark.
  SpanOf(arena, {PilEntry{1, 10}, PilEntry{2, 20}});
  arena.SealWatermark();
  ASSERT_EQ(arena.watermark(), 2u);

  // Three scratch spans; the middle one is abandoned (an infrequent
  // candidate), the other two are promoted in offset order.
  arena.BeginScratch();
  const PilSpan keep_a = SpanOf(arena, {PilEntry{3, 30}});
  SpanOf(arena, {PilEntry{4, 40}, PilEntry{5, 50}});  // abandoned
  const PilSpan keep_b = SpanOf(arena, {PilEntry{6, 60}, PilEntry{7, 70}});

  const PilSpan a = arena.Promote(keep_a);
  const PilSpan b = arena.Promote(keep_b);
  EXPECT_EQ(a.offset, 2u);
  EXPECT_EQ(b.offset, 3u);
  arena.TruncateToWatermark();
  arena.EndScratch();
  EXPECT_EQ(arena.size(), arena.watermark());
  EXPECT_EQ(arena.size(), 5u);

  // The promoted rows are dense and intact; the abandoned rows are gone.
  EXPECT_EQ(arena.Rows(a)[0], (PilEntry{3, 30}));
  EXPECT_EQ(arena.Rows(b)[0], (PilEntry{6, 60}));
  EXPECT_EQ(arena.Rows(b)[1], (PilEntry{7, 70}));
}

TEST(PilArenaMechanicsTest, ClearKeepsCapacityAndChargeForPingPong) {
  MiningGuard guard(ResourceLimits{});
  {
    PilArena arena(&guard);
    ASSERT_TRUE(arena.Reserve(1000));
    EXPECT_EQ(arena.capacity_bytes(), 1000 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
    EXPECT_EQ(arena.growth_count(), 1u);

    arena.Clear();
    EXPECT_EQ(arena.size(), 0u);
    // Capacity and its ledger charge survive Clear — that is the whole
    // point of the ping-pong reuse.
    EXPECT_EQ(arena.capacity_bytes(), 1000 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());

    // Re-reserving within the high-water mark charges nothing.
    ASSERT_TRUE(arena.Reserve(500));
    ASSERT_TRUE(arena.Reserve(1000));
    EXPECT_EQ(arena.capacity_bytes(), 1000 * sizeof(PilEntry));
    // Raising the mark charges exactly the new rows — the real high-water
    // footprint, not a doubled capacity — and stays inside the committed
    // step, so nothing is mapped.
    ASSERT_TRUE(arena.Reserve(1001));
    EXPECT_EQ(arena.capacity_bytes(), 1001 * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
    EXPECT_EQ(arena.growth_count(), 1u);
    // Past the committed step the writable prefix grows once more.
    const std::size_t step_rows = PilArena::kCommitStepBytes / sizeof(PilEntry);
    ASSERT_TRUE(arena.Reserve(step_rows + 1));
    EXPECT_EQ(arena.growth_count(), 2u);
    EXPECT_EQ(arena.capacity_bytes(), (step_rows + 1) * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
  EXPECT_EQ(guard.memory_peak_bytes(),
            (PilArena::kCommitStepBytes / sizeof(PilEntry) + 1) *
                sizeof(PilEntry));
}

TEST(PilArenaMechanicsTest, ReserveNeverMovesTheRows) {
  PilArena arena;
  ASSERT_TRUE(arena.Reserve(16));
  const PilSpan span = arena.Allocate(1);
  arena.MutableRows(span)[0] = PilEntry{3, 7};
  const PilEntry* base = arena.Rows(PilSpan{});
  // Grow across several commit steps: the base and the row stay put.
  for (std::size_t rows : {std::size_t{4096}, std::size_t{1} << 18,
                           std::size_t{1} << 20}) {
    ASSERT_TRUE(arena.Reserve(rows));
    EXPECT_EQ(arena.Rows(PilSpan{}), base) << "rows=" << rows;
    EXPECT_EQ(arena.Rows(span)[0], (PilEntry{3, 7}));
  }
  // The newly writable tail is usable right up to the high-water mark.
  const PilSpan tail = arena.Allocate((std::size_t{1} << 20) - 1);
  arena.MutableRows(tail)[tail.len - 1] = PilEntry{9, 9};
  EXPECT_EQ(arena.Rows(tail)[tail.len - 1], (PilEntry{9, 9}));
  EXPECT_EQ(arena.Rows(PilSpan{}), base);
}

TEST(PilArenaMechanicsTest, ReservationOverrunLatchesMemoryBudget) {
  internal::ScopedReservationCap cap(PilArena::kCommitStepBytes);
  MiningGuard guard(ResourceLimits{});
  {
    PilArena arena(&guard);
    const std::size_t fit = PilArena::kCommitStepBytes / sizeof(PilEntry);
    ASSERT_TRUE(arena.Reserve(fit));
    // One row past the reservation: refused, nothing charged, guard latched.
    EXPECT_FALSE(arena.Reserve(fit + 1));
    EXPECT_EQ(guard.reason(), TerminationReason::kMemoryBudget);
    EXPECT_EQ(arena.capacity_bytes(), fit * sizeof(PilEntry));
    EXPECT_EQ(guard.memory_in_use_bytes(), arena.capacity_bytes());
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
}

TEST(PilArenaMechanicsTest, MoveTransfersBufferAndLedgerCharge) {
  MiningGuard guard(ResourceLimits{});
  PilArena source(&guard);
  ASSERT_TRUE(source.Reserve(100));
  const PilSpan span = SpanOf(source, {PilEntry{9, 9}});
  const std::uint64_t charged = guard.memory_in_use_bytes();
  ASSERT_GT(charged, 0u);

  PilArena moved(std::move(source));
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  EXPECT_EQ(source.capacity_bytes(), 0u);
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(moved.Rows(span)[0], (PilEntry{9, 9}));

  // Move-assignment over a charged arena releases the overwritten charge.
  PilArena other(&guard);
  ASSERT_TRUE(other.Reserve(5000));
  ASSERT_GT(guard.memory_in_use_bytes(), charged);
  other = std::move(moved);
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  EXPECT_EQ(other.Rows(span)[0], (PilEntry{9, 9}));

  // Destroying the chargeless husk releases nothing further...
  { PilArena graveyard(std::move(source)); }
  EXPECT_EQ(guard.memory_in_use_bytes(), charged);
  // ...and destroying the live arena drains the ledger to zero.
  other = PilArena{};
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
}

TEST(PilArenaMechanicsTest, ReserveTripReportsBudgetButKeepsCapacityUsable) {
  ResourceLimits limits;
  limits.pil_memory_budget_bytes = 64;
  MiningGuard guard(limits);
  PilArena arena(&guard);
  // The charge trips the budget, but per the "deliver what was paid for"
  // contract the capacity is really there: the caller may finish the
  // in-flight block before unwinding.
  EXPECT_FALSE(arena.Reserve(100));
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), TerminationReason::kMemoryBudget);
  const PilSpan span = arena.Allocate(100);
  arena.MutableRows(span)[99] = PilEntry{1, 1};
  EXPECT_EQ(arena.Rows(span)[99], (PilEntry{1, 1}));
  // A tripped guard also fails the no-growth Reserve path, so the block
  // loop observes the stop even when capacity already suffices.
  EXPECT_FALSE(arena.Reserve(10));
}

// --- Ledger regression tests -------------------------------------------
//
// Every exit path of the level-wise engine must return the guard's memory
// ledger to zero once the run's arenas are destroyed. The charge is
// capacity-based and released by arena destructors, so a leak here means a
// BuiltLevel or arena outlived the run (or a charge bypassed the arena).

Sequence LedgerSequence() {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "ACGTTGCAACGGTTAC";
  return *Sequence::FromString(text, Alphabet::Dna());
}

MinerConfig LedgerConfig(std::int64_t threads) {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 1;
  config.threads = threads;
  return config;
}

struct LedgerRun {
  MiningResult result;
  std::uint64_t in_use_after = 0;
  std::uint64_t peak = 0;
};

LedgerRun RunLevelwiseWith(const ResourceLimits& limits,
                           const CancelToken* cancel, std::int64_t threads) {
  const Sequence sequence = LedgerSequence();
  const MinerConfig config = LedgerConfig(threads);
  const GapRequirement gap =
      *GapRequirement::Create(config.min_gap, config.max_gap);
  MiningGuard guard(limits, cancel);
  OffsetCounter counter(static_cast<std::int64_t>(sequence.size()), gap);
  StatusOr<MiningResult> result =
      internal::RunLevelwise(sequence, config, counter, counter.l1(),
                             internal::BuiltLevel{}, guard);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  LedgerRun run;
  run.result = *std::move(result);
  run.in_use_after = guard.memory_in_use_bytes();
  run.peak = guard.memory_peak_bytes();
  return run;
}

TEST(ArenaLedgerTest, CompletedRunDrainsLedgerToZero) {
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(ResourceLimits{}, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCompleted);
    EXPECT_GT(run.result.patterns.size(), 0u);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
    EXPECT_GT(run.peak, 0u);
  }
}

TEST(ArenaLedgerTest, MemoryBudgetTripDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.pil_memory_budget_bytes = 256;  // trips on the first level arena
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kMemoryBudget);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
    // The trip happened because a charge exceeded the budget, so the peak
    // must show the overshooting charge.
    EXPECT_GT(run.peak, limits.pil_memory_budget_bytes);
  }
}

TEST(ArenaLedgerTest, CandidateCapTripDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.max_level_candidates = 1;  // trips at the first level's charge
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCandidateCap);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, ExpiredDeadlineDrainsLedgerToZero) {
  ResourceLimits limits;
  limits.deadline_ms = 0;  // expired before the first check
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(limits, nullptr, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kDeadline);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, PreCancelledTokenDrainsLedgerToZero) {
  CancelToken cancel;
  cancel.RequestCancel();
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const LedgerRun run = RunLevelwiseWith(ResourceLimits{}, &cancel, threads);
    EXPECT_EQ(run.result.termination, TerminationReason::kCancelled);
    EXPECT_EQ(run.in_use_after, 0u) << "threads=" << threads;
  }
}

TEST(ArenaLedgerTest, BuiltLevelCarriesChargeAndReleasesOnDestruction) {
  const Sequence sequence = LedgerSequence();
  const GapRequirement gap = *GapRequirement::Create(0, 2);
  MiningGuard guard(ResourceLimits{});
  {
    internal::BuiltLevel level =
        internal::BuildAllPatternsOfLength(sequence, gap, 2, &guard);
    EXPECT_FALSE(level.entries.empty());
    EXPECT_EQ(guard.memory_in_use_bytes(), level.arena.capacity_bytes());
    EXPECT_GT(level.arena.capacity_bytes(), 0u);
  }
  EXPECT_EQ(guard.memory_in_use_bytes(), 0u);
}

// The exact-rows contract: the ledger charges each arena's high-water rows,
// and the executor reserves scratch windows only at pipeline-empty
// boundaries, so the run's peak PIL charge is a function of the input and
// config alone — pinned exactly, and equal at every thread count.
std::string PinnedPeakText() {
  Rng rng(0x9eaf);
  std::string text;
  for (int i = 0; i < 20000; ++i) text += "ACGT"[rng.UniformInt(4)];
  return text;
}

MinerConfig PinnedPeakConfig(std::int64_t threads) {
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 3;
  config.min_support_ratio = 0.02;
  config.start_length = 1;
  config.threads = threads;
  return config;
}

TEST(ArenaLedgerTest, PeakBytesPinnedAtOneAndFourThreads) {
  const Sequence sequence =
      *Sequence::FromString(PinnedPeakText(), Alphabet::Dna());
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
    const StatusOr<MiningResult> result =
        MineMpp(sequence, PinnedPeakConfig(threads));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->termination, TerminationReason::kCompleted);
    EXPECT_EQ(result->pil_memory_peak_bytes, 3198864u)
        << "threads=" << threads;
  }
}

// Relabeling the alphabet maps the candidate set onto itself — same PIL
// lengths, same retained sets — but permutes the order the join plan visits
// candidates in. The peak charge must not follow that order: the executor
// sizes its windows and its end-of-level reservation from the candidate
// set alone.
TEST(ArenaLedgerTest, PeakBytesInvariantUnderRelabeling) {
  const std::string text = PinnedPeakText();
  std::uint64_t reference = 0;
  for (const char* labels : {"ACGT", "TGCA", "CATG", "GTAC"}) {
    std::string relabeled = text;
    for (char& c : relabeled) c = labels[std::string("ACGT").find(c)];
    const Sequence sequence =
        *Sequence::FromString(relabeled, Alphabet::Dna());
    for (std::int64_t threads : {std::int64_t{1}, std::int64_t{2}}) {
      const StatusOr<MiningResult> result =
          MineMpp(sequence, PinnedPeakConfig(threads));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->termination, TerminationReason::kCompleted);
      if (reference == 0) reference = result->pil_memory_peak_bytes;
      EXPECT_EQ(result->pil_memory_peak_bytes, reference)
          << "labels=" << labels << " threads=" << threads;
    }
  }
}

// The "zero allocations in the join loop at steady state" claim, pinned:
// once the ping-pong arenas have grown to the run's high-water mark, later
// levels reuse that capacity. A completed run's arenas must report far
// fewer growths than levels — here, the seed run's growth counts stabilize
// after re-running the same level joins on a warmed arena.
TEST(ArenaLedgerTest, WarmedArenaStopsGrowing) {
  PilArena arena;
  ASSERT_TRUE(arena.Reserve(4096));
  const std::uint64_t warm_growths = arena.growth_count();
  for (int level = 0; level < 16; ++level) {
    arena.Clear();
    ASSERT_TRUE(arena.Reserve(1 + (level * 251) % 4096));
    arena.BeginScratch();
    const PilSpan span = arena.Allocate(64);
    arena.MutableRows(span)[0] = PilEntry{0, 1};
    arena.Promote(span);
    arena.TruncateToWatermark();
    arena.EndScratch();
  }
  EXPECT_EQ(arena.growth_count(), warm_growths);
}

}  // namespace
}  // namespace pgm
