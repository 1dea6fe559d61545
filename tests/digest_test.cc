// Digest and cache-key canonicalization. The hex goldens here are the
// contract: a change that silently re-keys the result cache shows up as a
// failing golden, not as a fleet of cold caches in production.

#include "util/digest.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "serve/canonical.h"
#include "seq/alphabet.h"
#include "seq/sequence.h"

namespace pgm {
namespace {

// --- FNV-1a 64 reference vectors ---

TEST(DigestTest, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(DigestTest, StreamingMatchesOneShot) {
  Digest64 digest;
  digest.Update("foo").Update("bar");
  EXPECT_EQ(digest.value(), Fnv1a64("foobar"));
}

TEST(DigestTest, HexIsFixedWidthLowercase) {
  EXPECT_EQ(DigestToHex(0), "0000000000000000");
  EXPECT_EQ(DigestToHex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(DigestTest, UpdateU64IsLittleEndian) {
  Digest64 digest;
  digest.UpdateU64(0x0102030405060708ull);
  const unsigned char bytes[] = {8, 7, 6, 5, 4, 3, 2, 1};
  Digest64 expected;
  expected.Update(bytes, sizeof(bytes));
  EXPECT_EQ(digest.value(), expected.value());
}

// --- Canonical config string ---

Sequence Acgt() {
  StatusOr<Sequence> sequence = Sequence::FromString("ACGT", Alphabet::Dna());
  EXPECT_TRUE(sequence.ok());
  return *sequence;
}

TEST(CanonicalTest, DefaultConfigStringGolden) {
  // This literal IS the cache-key schema for a default config. Changing it
  // invalidates every persisted key — do that deliberately, not by accident.
  EXPECT_EQ(
      CanonicalConfigString("mpp", MinerConfig{}),
      "algorithm=mpp;em_order=10;initial_n=10;max_gap=0;max_iterations=16;"
      "max_length=-1;min_gap=0;min_support_ratio=0x0p+0;start_length=3;"
      "use_em_bound=1;user_n=-1;");
}

TEST(CanonicalTest, DigestGoldens) {
  EXPECT_EQ(Fnv1a64(CanonicalConfigString("mpp", MinerConfig{})),
            0x6756c649f370712dull);
  EXPECT_EQ(SequenceDigest(Acgt()), 0x5c6d81563d4325afull);
  EXPECT_EQ(CacheKey(Acgt(), "mpp", MinerConfig{}),
            "5c6d81563d4325af:6756c649f370712d");
}

TEST(CanonicalTest, VolatileFieldsDoNotChangeTheKey) {
  const std::string base = CacheKey(Acgt(), "mpp", MinerConfig{});

  // A completed run under any of these knobs is byte-identical to the
  // ungoverned serial run (the guard only observes; the parallel merge is
  // candidate-ordered; every kernel tier emits identical rows), so they
  // must share the cache entry — each alone and all together.
  CancelToken cancel;
  MiningObserver observer;
  const std::map<std::string, std::function<void(MinerConfig&)>> knobs = {
      {"threads", [](MinerConfig& c) { c.threads = 8; }},
      {"kernel_tier",
       [](MinerConfig& c) { c.kernel_tier = KernelTier::kScalar; }},
      {"limits.deadline_ms",
       [](MinerConfig& c) { c.limits.deadline_ms = 1234; }},
      {"limits.pil_memory_budget_bytes",
       [](MinerConfig& c) { c.limits.pil_memory_budget_bytes = 1 << 20; }},
      {"limits.max_level_candidates",
       [](MinerConfig& c) { c.limits.max_level_candidates = 99; }},
      {"limits.max_total_candidates",
       [](MinerConfig& c) { c.limits.max_total_candidates = 999; }},
      {"cancel", [&](MinerConfig& c) { c.cancel = &cancel; }},
      {"observer", [&](MinerConfig& c) { c.observer = &observer; }},
  };
  MinerConfig all;
  for (const auto& [name, perturb] : knobs) {
    MinerConfig config;
    perturb(config);
    perturb(all);
    EXPECT_EQ(CacheKey(Acgt(), "mpp", config), base) << name;
  }
  EXPECT_EQ(CacheKey(Acgt(), "mpp", all), base);

  // Every execution-tagged ConfigField row is among the knobs above.
  for (const ConfigField& field : MinerConfigFields()) {
    if (field.role != FieldRole::kExecution) continue;
    EXPECT_EQ(field.canonical_value, nullptr) << field.canonical;
    EXPECT_TRUE(knobs.count(std::string(field.canonical))) << field.canonical;
  }
}

TEST(CanonicalTest, SemanticFieldsChangeTheKey) {
  const std::string base = CacheKey(Acgt(), "mpp", MinerConfig{});

  // One perturbation per semantic ConfigField row, keyed by canonical name.
  const std::map<std::string, std::function<void(MinerConfig&)>> perturb = {
      {"em_order", [](MinerConfig& c) { c.em_order = 3; }},
      {"initial_n", [](MinerConfig& c) { c.initial_n = 4; }},
      {"max_gap", [](MinerConfig& c) { c.max_gap = 5; }},
      {"max_iterations", [](MinerConfig& c) { c.max_iterations = 2; }},
      {"max_length", [](MinerConfig& c) { c.max_length = 7; }},
      {"min_gap", [](MinerConfig& c) { c.min_gap = 1; }},
      {"min_support_ratio", [](MinerConfig& c) { c.min_support_ratio = 0.25; }},
      {"start_length", [](MinerConfig& c) { c.start_length = 1; }},
      {"use_em_bound", [](MinerConfig& c) { c.use_em_bound = false; }},
      {"user_n", [](MinerConfig& c) { c.user_n = 6; }},
  };
  std::size_t semantic_rows = 0;
  for (const ConfigField& field : MinerConfigFields()) {
    if (field.role != FieldRole::kSemantic) continue;
    ++semantic_rows;
    const auto it = perturb.find(std::string(field.canonical));
    ASSERT_NE(it, perturb.end()) << "no perturbation for " << field.canonical;
    MinerConfig config;
    it->second(config);
    EXPECT_NE(CacheKey(Acgt(), "mpp", config), base) << field.canonical;
  }
  EXPECT_EQ(semantic_rows, perturb.size());

  EXPECT_NE(CacheKey(Acgt(), "mppm", MinerConfig{}), base);
}

TEST(CanonicalTest, SequenceChangesTheKey) {
  StatusOr<Sequence> other = Sequence::FromString("ACGG", Alphabet::Dna());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(CacheKey(*other, "mpp", MinerConfig{}),
            CacheKey(Acgt(), "mpp", MinerConfig{}));
}

TEST(CanonicalTest, AlphabetIsPartOfTheSequenceDigest) {
  // The same residue characters over different alphabets encode to
  // different symbol streams semantically; the digest must not conflate
  // them even when the raw bytes happen to match.
  StatusOr<Sequence> protein =
      Sequence::FromString("ACGT", Alphabet::Protein());
  ASSERT_TRUE(protein.ok());
  EXPECT_NE(SequenceDigest(*protein), SequenceDigest(Acgt()));
}

}  // namespace
}  // namespace pgm
