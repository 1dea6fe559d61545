// Golden-file tests for the observability exports: the metrics and trace
// JSON for a small fixed run are pinned byte-for-byte, so any schema drift
// (key renames, ordering changes, format changes) fails loudly here before
// it breaks downstream consumers. The same run is repeated at several
// thread counts to pin the determinism contract: the exports must be
// byte-identical because every recording call happens in the engines'
// serial sections.

#include <gtest/gtest.h>

#include <string>

#include "core/miner.h"
#include "core/trace.h"
#include "seq/sequence.h"
#include "util/metrics.h"

namespace pgm {
namespace {

Sequence GoldenSequence() {
  std::string text;
  for (int i = 0; i < 4; ++i) text += "AACCGGTTACGTAGCT";
  return *Sequence::FromString(text, Alphabet::Dna());
}

MinerConfig GoldenConfig() {
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 1;
  config.max_length = 4;
  config.em_order = 2;
  return config;
}

struct Export {
  std::string metrics_json;
  std::string trace_json;
};

Export RunGolden(std::int64_t threads) {
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  MinerConfig config = GoldenConfig();
  config.threads = threads;
  config.observer = &observer;
  StatusOr<MiningResult> result = MineMppm(GoldenSequence(), config);
  EXPECT_TRUE(result.ok());
  return {metrics.ToJson() + "\n", trace.ToJson() + "\n"};
}

// Pinned exports for the run above (regenerate by printing the actual
// values when the schema changes deliberately — the test failure output
// shows them in full).
extern const char kGoldenMetrics[];
extern const char kGoldenTrace[];

TEST(ObservabilityGoldenTest, MetricsJsonMatchesGolden) {
  EXPECT_EQ(RunGolden(1).metrics_json, kGoldenMetrics);
}

TEST(ObservabilityGoldenTest, TraceJsonMatchesGolden) {
  EXPECT_EQ(RunGolden(1).trace_json, kGoldenTrace);
}

TEST(ObservabilityGoldenTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  const Export reference = RunGolden(1);
  for (std::int64_t threads : {std::int64_t{2}, std::int64_t{8}}) {
    const Export run = RunGolden(threads);
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(run.trace_json, reference.trace_json) << "threads=" << threads;
  }
}

TEST(ObservabilityGoldenTest, MetricsKeysAreSorted) {
  const std::string json = RunGolden(1).metrics_json;
  // Spot-check lexicographic ordering of the counter section; the zero
  // padding in per-level keys makes lexicographic order the numeric order.
  EXPECT_LT(json.find("\"mine.candidates.evaluated\""),
            json.find("\"mine.candidates.frequent\""));
  EXPECT_LT(json.find("\"mine.candidates.generated\""),
            json.find("\"mine.candidates.pruned\""));
  EXPECT_LT(json.find("\"mine.level.00001.candidates\""),
            json.find("\"mine.level.00002.candidates\""));
  EXPECT_LT(json.find("\"mine.levels.started\""), json.find("\"mine.runs\""));
}

const char kGoldenMetrics[] =
    "{\n"
    "  \"counters\": {\n"
    "    \"mine.candidates.evaluated\": 42,\n"
    "    \"mine.candidates.frequent\": 15,\n"
    "    \"mine.candidates.generated\": 42,\n"
    "    \"mine.candidates.pruned\": 26,\n"
    "    \"mine.candidates.retained\": 16,\n"
    "    \"mine.level.00001.candidates\": 4,\n"
    "    \"mine.level.00001.evaluated\": 4,\n"
    "    \"mine.level.00001.frequent\": 4,\n"
    "    \"mine.level.00001.retained\": 4,\n"
    "    \"mine.level.00002.candidates\": 16,\n"
    "    \"mine.level.00002.evaluated\": 16,\n"
    "    \"mine.level.00002.frequent\": 9,\n"
    "    \"mine.level.00002.retained\": 9,\n"
    "    \"mine.level.00003.candidates\": 20,\n"
    "    \"mine.level.00003.evaluated\": 20,\n"
    "    \"mine.level.00003.frequent\": 2,\n"
    "    \"mine.level.00003.retained\": 3,\n"
    "    \"mine.level.00004.candidates\": 2,\n"
    "    \"mine.level.00004.evaluated\": 2,\n"
    "    \"mine.levels.completed\": 4,\n"
    "    \"mine.levels.started\": 4,\n"
    "    \"mine.patterns.emitted\": 15,\n"
    "    \"mine.runs\": 1\n"
    "  },\n"
    "  \"gauges\": {\n"
    "    \"mine.last.em\": 4,\n"
    "    \"mine.last.estimated_n\": 6,\n"
    "    \"mine.last.guaranteed_complete_up_to\": 6,\n"
    "    \"mine.last.longest_frequent_length\": 3,\n"
    "    \"mine.last.n_used\": 6\n"
    "  },\n"
    "  \"histograms\": {\n"
    // pil_bytes reports the exact rows of each candidate's arena span
    // (span.len * sizeof(PilEntry), 12-byte rows), not the old per-vector
    // capacity.
    "    \"mine.candidate.pil_bytes\": {\"bounds\": [64, 256, 1024, 4096, "
    "16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864], "
    "\"buckets\": [4, 38, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \"count\": 42, "
    "\"sum\": 5652},\n"
    "    \"mine.candidate.support\": {\"bounds\": [1, 2, 4, 8, 16, 32, 64, "
    "128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576], "
    "\"buckets\": [0, 0, 4, 6, 21, 7, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "
    "\"count\": 42, \"sum\": 685}\n"
    "  }\n"
    "}\n";

const char kGoldenTrace[] =
    "{\n"
    "  \"events\": [\n"
    "    {\"kind\": \"run_start\", \"algorithm\": \"mppm\", "
    "\"kernel_tier\": \"auto\"},\n"
    "    {\"kind\": \"estimate\", \"em\": 4, \"estimated_n\": 6},\n"
    "    {\"kind\": \"level_start\", \"level\": 1, \"candidates\": 4, "
    "\"lambda\": 0.84375, \"full_threshold\": 3.2000000000000002, "
    "\"relaxed_threshold\": 2.7000000000000002},\n"
    "    {\"kind\": \"level_end\", \"level\": 1, \"candidates\": 4, "
    "\"evaluated\": 4, \"frequent\": 4, \"retained\": 4, \"pruned\": 0, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 2, \"candidates\": 16, "
    "\"lambda\": 0.87096774193548387, \"full_threshold\": "
    "9.3000000000000007, \"relaxed_threshold\": 8.0999999999999996},\n"
    "    {\"kind\": \"level_end\", \"level\": 2, \"candidates\": 16, "
    "\"evaluated\": 16, \"frequent\": 9, \"retained\": 9, \"pruned\": 7, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 3, \"candidates\": 20, "
    "\"lambda\": 0.90000000000000002, \"full_threshold\": 27, "
    "\"relaxed_threshold\": 24.300000000000001},\n"
    "    {\"kind\": \"level_end\", \"level\": 3, \"candidates\": 20, "
    "\"evaluated\": 20, \"frequent\": 2, \"retained\": 3, \"pruned\": 17, "
    "\"completed\": true},\n"
    "    {\"kind\": \"level_start\", \"level\": 4, \"candidates\": 2, "
    "\"lambda\": 0.93103448275862066, \"full_threshold\": "
    "78.300000000000011, \"relaxed_threshold\": 72.900000000000006},\n"
    "    {\"kind\": \"level_end\", \"level\": 4, \"candidates\": 2, "
    "\"evaluated\": 2, \"frequent\": 0, \"retained\": 0, \"pruned\": 2, "
    "\"completed\": true},\n"
    "    {\"kind\": \"run_end\", \"reason\": \"completed\", \"patterns\": "
    "15, \"levels\": 4}\n"
    "  ]\n"
    "}\n";

}  // namespace
}  // namespace pgm
