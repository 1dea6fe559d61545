#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "seq/fasta.h"

namespace pgm::cli {
namespace {

TEST(CliInputTest, RawDna) {
  StatusOr<Sequence> s = LoadInput("raw:ACGT");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "ACGT");
  EXPECT_EQ(s->alphabet().size(), 4u);
}

TEST(CliInputTest, RawProteinSuffix) {
  StatusOr<Sequence> s = LoadInput("raw:LWLW@protein");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->alphabet().size(), 20u);
  EXPECT_EQ(s->ToString(), "LWLW");
}

TEST(CliInputTest, RawRejectsBadCharacters) {
  EXPECT_FALSE(LoadInput("raw:ACGTN").ok());
}

TEST(CliInputTest, MissingKindIsError) {
  EXPECT_FALSE(LoadInput("ACGT").ok());
  EXPECT_FALSE(LoadInput("raw:").ok());
  EXPECT_FALSE(LoadInput("bogus:x").ok());
}

TEST(CliInputTest, Presets) {
  StatusOr<Sequence> surrogate = LoadInput("preset:ax829174");
  ASSERT_TRUE(surrogate.ok());
  EXPECT_EQ(surrogate->size(), 10'011u);

  StatusOr<Sequence> bacteria = LoadInput("preset:bacteria:5000:3");
  ASSERT_TRUE(bacteria.ok());
  EXPECT_EQ(bacteria->size(), 5000u);

  EXPECT_FALSE(LoadInput("preset:unknown").ok());
  EXPECT_FALSE(LoadInput("preset:bacteria:-5").ok());
  EXPECT_FALSE(LoadInput("preset:bacteria:10:2:9").ok());
}

TEST(CliInputTest, PresetDeterministicPerSpec) {
  Sequence a = *LoadInput("preset:worm:4000:9");
  Sequence b = *LoadInput("preset:worm:4000:9");
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(CliInputTest, FastaFileWithRecordSelection) {
  const std::string path = testing::TempDir() + "/cli_test.fa";
  ASSERT_TRUE(WriteFastaFile(path, {{"one", "", "ACGT"},
                                    {"two", "", "TTTT"}})
                  .ok());
  StatusOr<Sequence> first = LoadInput("fasta:" + path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(), "ACGT");
  StatusOr<Sequence> second = LoadInput("fasta:" + path + "#two");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToString(), "TTTT");
  EXPECT_FALSE(LoadInput("fasta:" + path + "#three").ok());
  std::remove(path.c_str());
}

TEST(CliInputTest, TextFileDropsNonAlphabet) {
  const std::string path = testing::TempDir() + "/cli_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("AC GT\nNN-acgt\n", f);
  std::fclose(f);
  StatusOr<Sequence> s = LoadInput("text:" + path);
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "ACGTACGT");
}

TEST(CliRunTest, HelpReturnsZeroWithUsage) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm help", &output), 0);
  EXPECT_NE(output.find("mine"), std::string::npos);
  EXPECT_NE(output.find("tandem"), std::string::npos);
}

TEST(CliRunTest, NoArgsShowsUsageWithError) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm", &output), 2);
  EXPECT_NE(output.find("Usage"), std::string::npos);
}

TEST(CliRunTest, UnknownCommand) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm frobnicate", &output), 2);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliRunTest, MineOnRawSequence) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGTACGTACGT "
      "--min-gap 1 --max-gap 3 --rho-percent 1 --start-length 2 --top 5",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("frequent patterns"), std::string::npos);
  EXPECT_NE(output.find("pattern"), std::string::npos);
}

TEST(CliRunTest, MineRequiresInput) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm mine --min-gap 1 --max-gap 2", &output), 2);
  EXPECT_NE(output.find("--input is required"), std::string::npos);
}

TEST(CliRunTest, MineRejectsUnknownAlgorithm) {
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGT --algorithm quantum --min-gap 0 "
                "--max-gap 1 --rho-percent 1",
                &output),
            2);
  EXPECT_NE(output.find("unknown algorithm: quantum"), std::string::npos);
}

TEST(CliRunTest, MineFlagValueErrorNamesTheFlag) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm mine --input raw:ACGT --min-gap x", &output,
                          &error),
            2);
  EXPECT_NE(error.find("--min-gap: trailing garbage in integer: 'x'"),
            std::string::npos)
      << error;
}

TEST(CliRunTest, MineWritesCsv) {
  const std::string path = testing::TempDir() + "/cli_mine.csv";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 1 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --csv " + path,
      &output);
  EXPECT_EQ(code, 0) << output;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[64] = {};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(header), "pattern,length,support,ratio,saturated\n");
}

TEST(CliRunTest, AllAlgorithmsAgreeOnPatternCount) {
  auto count_patterns = [](const std::string& algorithm) {
    std::string output;
    const int code = RunFromString(
        "pgm mine --input raw:AACCGGTTAACCGGTTAACCGGTTAACCGGTT --min-gap 0 "
        "--max-gap 2 --rho-percent 2 --start-length 1 --algorithm " +
            algorithm,
        &output);
    EXPECT_EQ(code, 0) << output;
    const std::size_t pos = output.find(" frequent patterns");
    EXPECT_NE(pos, std::string::npos);
    std::size_t start = output.rfind('\n', pos);
    start = (start == std::string::npos) ? 0 : start + 1;
    return output.substr(start, pos - start);
  };
  const std::string mppm = count_patterns("mppm");
  EXPECT_EQ(count_patterns("mpp"), mppm);
  EXPECT_EQ(count_patterns("adaptive"), mppm);
}

TEST(CliRunTest, MineWithLiftRanking) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input preset:bacteria:4000:2 --min-gap 1 --max-gap 3 "
      "--rho-percent 0.5 --start-length 2 --top 5 --lift",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("compositional lift"), std::string::npos);
  EXPECT_NE(output.find("expected (composition)"), std::string::npos);
}

TEST(CliRunTest, EmCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm em --input raw:ACGTCCGT --min-gap 1 --max-gap 2 --m 2", &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("e_m = 2"), std::string::npos);  // the paper's value
}

TEST(CliRunTest, ScanCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm scan --input preset:bacteria:4000:5 --pairs AA,AT "
      "--max-distance 12",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("corr_AA(p)"), std::string::npos);
  EXPECT_NE(output.find("corr_AT(p)"), std::string::npos);
  EXPECT_NE(output.find("peaks:"), std::string::npos);
}

TEST(CliRunTest, ScanRejectsBadPair) {
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm scan --input raw:ACGTACGT --pairs AAT --max-distance 3",
                &output),
            2);
}

TEST(CliRunTest, TandemCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm tandem --input raw:GGATATATATATCC --max-period 3 --min-copies 3 "
      "--min-length 6",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("AT"), std::string::npos);
}

TEST(CliRunTest, GenerateRoundTripsThroughFastaInput) {
  const std::string path = testing::TempDir() + "/cli_gen.fa";
  std::string output;
  const int code = RunFromString(
      "pgm generate --preset bacteria --length 3000 --seed 11 --output " +
          path,
      &output);
  EXPECT_EQ(code, 0) << output;
  StatusOr<Sequence> loaded = LoadInput("fasta:" + path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3000u);
  // Must equal the preset generated directly.
  Sequence direct = *LoadInput("preset:bacteria:3000:11");
  EXPECT_EQ(loaded->ToString(), direct.ToString());
}

TEST(CliRunTest, GenerateRequiresOutput) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm generate --preset bacteria", &output), 2);
}

TEST(CliRunTest, CompareCommand) {
  // Mine two inputs to CSV, then compare them.
  const std::string path_a = testing::TempDir() + "/cmp_a.csv";
  const std::string path_b = testing::TempDir() + "/cmp_b.csv";
  std::string output;
  ASSERT_EQ(RunFromString("pgm mine --input preset:bacteria:3000:1 --min-gap 1 "
                          "--max-gap 3 --rho-percent 1 --start-length 2 "
                          "--top 1 --csv " + path_a,
                          &output),
            0)
      << output;
  output.clear();
  ASSERT_EQ(RunFromString("pgm mine --input preset:eukaryote:3000:1 --min-gap 1 "
                          "--max-gap 3 --rho-percent 1 --start-length 2 "
                          "--top 1 --csv " + path_b,
                          &output),
            0)
      << output;
  output.clear();
  const int code =
      RunFromString("pgm compare " + path_a + " " + path_b, &output);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("common to all"), std::string::npos);
  EXPECT_NE(output.find("Jaccard similarity"), std::string::npos);
}

TEST(CliRunTest, CompareRequiresTwoFiles) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm compare /tmp/only_one.csv", &output), 2);
  EXPECT_NE(output.find("at least two"), std::string::npos);
}

TEST(CliRunTest, SubcommandHelpReturnsZero) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm mine --help", &output), 0);
  EXPECT_NE(output.find("rho-percent"), std::string::npos);
}

TEST(CliExitCodeTest, StatusCodeMapping) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::IoError("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::Corruption("x")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), 6);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), 1);
}

TEST(CliExitCodeTest, MissingFastaFileExitsThree) {
  std::string output, error;
  const int code = RunFromString(
      "pgm mine --input fasta:/nonexistent-dir-xyz/missing.fa --min-gap 0 "
      "--max-gap 1 --rho-percent 1",
      &output, &error);
  EXPECT_EQ(code, 3) << error;
  EXPECT_TRUE(output.empty());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CliExitCodeTest, CorruptCsvExitsFour) {
  const std::string path = testing::TempDir() + "/cli_corrupt.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not,a,patterns,header\n", f);
  std::fclose(f);
  std::string output, error;
  const int code =
      RunFromString("pgm compare " + path + " " + path, &output, &error);
  std::remove(path.c_str());
  EXPECT_EQ(code, 4) << error;
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(CliExitCodeTest, DiagnosticsGoToErrorStreamNotOutput) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm mine --min-gap 1 --max-gap 2", &output, &error),
            2);
  EXPECT_TRUE(output.empty()) << output;
  EXPECT_NE(error.find("--input is required"), std::string::npos);
}

TEST(CliObservabilityTest, MetricsAndTraceFilesAreWritten) {
  const std::string metrics_path = testing::TempDir() + "/cli_metrics.json";
  const std::string trace_path = testing::TempDir() + "/cli_trace.json";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --metrics-out " + metrics_path +
          " --trace " + trace_path,
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("wrote metrics JSON to"), std::string::npos);
  EXPECT_NE(output.find("wrote trace JSON to"), std::string::npos);

  auto read_file = [](const std::string& path) {
    std::string contents;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
    return contents;
  };
  const std::string metrics = read_file(metrics_path);
  const std::string trace = read_file(trace_path);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"mine.candidates.generated\""), std::string::npos);
  EXPECT_NE(metrics.find("\"mine.runs\": 1"), std::string::npos);
  EXPECT_NE(trace.find("\"events\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"run_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"run_end\""), std::string::npos);
  // Byte-stable export: no volatile fields without --trace-timings.
  EXPECT_EQ(trace.find("shard_timing"), std::string::npos);
  EXPECT_EQ(trace.find("memory_peak_bytes"), std::string::npos);
}

TEST(CliObservabilityTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  auto run = [](int threads, const std::string& suffix) {
    const std::string metrics_path =
        testing::TempDir() + "/cli_m_" + suffix + ".json";
    const std::string trace_path =
        testing::TempDir() + "/cli_t_" + suffix + ".json";
    std::string output;
    EXPECT_EQ(RunFromString(
                  "pgm mine --input preset:bacteria:2000:7 --min-gap 1 "
                  "--max-gap 3 --rho-percent 1 --start-length 1 --threads " +
                      std::to_string(threads) + " --metrics-out " +
                      metrics_path + " --trace " + trace_path,
                  &output),
              0)
        << output;
    std::string contents;
    for (const std::string& path : {metrics_path, trace_path}) {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      EXPECT_NE(f, nullptr) << path;
      if (f != nullptr) {
        char buffer[4096];
        std::size_t n = 0;
        while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
          contents.append(buffer, n);
        }
        std::fclose(f);
      }
      std::remove(path.c_str());
    }
    return contents;
  };
  const std::string serial = run(1, "1");
  EXPECT_EQ(run(2, "2"), serial);
  EXPECT_EQ(run(8, "8"), serial);
}

TEST(CliObservabilityTest, UnwritableMetricsPathExitsThreeWithReport) {
  std::string output, error;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 "
      "--metrics-out /nonexistent-dir-xyz/metrics.json",
      &output, &error);
  EXPECT_EQ(code, 3) << error;
  // The mining report was already produced before the write failed — the
  // failure is loud but does not eat the result.
  EXPECT_NE(output.find("frequent patterns"), std::string::npos);
  EXPECT_NE(error.find("cannot open for writing"), std::string::npos);
}

TEST(CliObservabilityTest, TraceTimingsFlagIncludesVolatileFields) {
  const std::string trace_path = testing::TempDir() + "/cli_trace_vol.json";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --trace " + trace_path +
          " --trace-timings",
      &output);
  EXPECT_EQ(code, 0) << output;
  std::string contents;
  std::FILE* f = std::fopen(trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  std::remove(trace_path.c_str());
  EXPECT_NE(contents.find("\"memory_peak_bytes\""), std::string::npos);
}

TEST(CliGovernanceTest, NegativeBudgetRejected) {
  std::string output, error;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGTACGT --min-gap 0 --max-gap 1 "
                "--rho-percent 1 --pil-budget-bytes -5",
                &output, &error),
            2);
  EXPECT_NE(error.find("must be non-negative"), std::string::npos);
}

TEST(CliGovernanceTest, ZeroDeadlineExitsZeroWithPartialBanner) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --deadline-ms 0",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("partial result"), std::string::npos);
  EXPECT_NE(output.find("deadline"), std::string::npos);
}

TEST(CliGovernanceTest, OneBytePilBudgetExitsZeroWithPartialBanner) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --pil-budget-bytes 1",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("partial result"), std::string::npos);
  EXPECT_NE(output.find("memory-budget"), std::string::npos);
}

TEST(CliGovernanceTest, GenerousLimitsMatchUnlimitedOutput) {
  const std::string base =
      "pgm mine --input preset:bacteria:3000:1 --min-gap 1 --max-gap 3 "
      "--rho-percent 0.5 --start-length 2 --top 5";
  std::string unlimited, governed;
  ASSERT_EQ(RunFromString(base, &unlimited), 0);
  ASSERT_EQ(RunFromString(base +
                              " --deadline-ms 600000 --pil-budget-bytes "
                              "4294967296 --max-level-candidates 1000000000 "
                              "--max-total-candidates 1000000000",
                          &governed),
            0);
  // The report includes timings, so compare everything except the summary
  // line's trailing seconds figure.
  const std::size_t cut_a = unlimited.find(" s\n");
  const std::size_t cut_b = governed.find(" s\n");
  ASSERT_NE(cut_a, std::string::npos);
  ASSERT_NE(cut_b, std::string::npos);
  const std::size_t start_a = unlimited.rfind(';', cut_a);
  const std::size_t start_b = governed.rfind(';', cut_b);
  EXPECT_EQ(unlimited.substr(0, start_a), governed.substr(0, start_b));
  EXPECT_EQ(unlimited.substr(cut_a), governed.substr(cut_b));
}

// ---------------------------------------------------------------------------
// pgm serve
// ---------------------------------------------------------------------------

std::string WriteJobsFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(contents.c_str(), f);
  std::fclose(f);
  return path;
}

// The signal handlers latch the process-wide token; tests that poke it must
// restore it no matter how they exit, or every later test inherits the
// cancellation.
struct ScopedGlobalCancelReset {
  ~ScopedGlobalCancelReset() { GlobalCancelToken().Reset(); }
};

TEST(CliServeTest, BatchRunsAndReportsPerJobOutcomes) {
  const std::string jobs = WriteJobsFile(
      "serve_batch.jobs",
      "# duplicate inputs share one cache entry\n"
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50 max-gap=1\n"
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50 max-gap=1\n"
      "raw:TTTTGGGGTTTTGGGG rho-percent=50 max-gap=1\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --cache-bytes 1048576", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("served 3 jobs: 3 completed, 0 partial, 0 shed, "
                        "0 failed, 1 cache hits"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("job 1 "), std::string::npos);
  EXPECT_NE(output.find("cache_hit=1"), std::string::npos);
}

TEST(CliServeTest, OversubmissionShedsWithRetryHint) {
  const std::string jobs = WriteJobsFile(
      "serve_shed.jobs",
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "raw:ACGTACGTACGTACGT rho-percent=50\n");
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs +
                                     " --queue-capacity 1 --retry-after-ms 99",
                                 &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;  // shedding is service behavior, not failure
  EXPECT_NE(output.find("Unavailable retry_after_ms=99"), std::string::npos)
      << output;
  EXPECT_NE(output.find("2 shed"), std::string::npos);
}

TEST(CliServeTest, DeadlineCeilingYieldsPartialResponses) {
  const std::string jobs = WriteJobsFile(
      "serve_deadline.jobs", "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --max-deadline-ms 0", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("deadline patterns=0"), std::string::npos) << output;
  EXPECT_NE(output.find("1 partial"), std::string::npos);
}

TEST(CliServeTest, RequiresJobsFlag) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm serve", &output, &error), 2);
  EXPECT_NE(error.find("--jobs is required"), std::string::npos);
}

TEST(CliServeTest, MalformedJobLineIsRejectedWithLineNumber) {
  const std::string jobs =
      WriteJobsFile("serve_bad.jobs", "raw:ACGT rho-percent=50\nraw:ACGT oops\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("expected key=value"), std::string::npos);
}

TEST(CliServeTest, UnknownJobKeyIsRejected) {
  const std::string jobs =
      WriteJobsFile("serve_badkey.jobs", "raw:ACGT frobnicate=1\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("unknown key 'frobnicate'"), std::string::npos);
}

TEST(CliServeTest, EmptyJobsFileIsError) {
  const std::string jobs = WriteJobsFile("serve_empty.jobs", "# nothing\n\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("no jobs in"), std::string::npos);
}

TEST(CliServeTest, FailedJobIsLoudButDoesNotSinkTheBatch) {
  const std::string jobs = WriteJobsFile(
      "serve_mixed.jobs",
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "fasta:/nonexistent-dir-xyz/missing.fa rho-percent=50\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --retry-attempts 1", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("IoError"), std::string::npos) << output;
  EXPECT_NE(output.find("1 completed"), std::string::npos);
  EXPECT_NE(output.find("1 failed"), std::string::npos);
}

TEST(CliServeTest, MetricsAndTraceExportsCoverTheJobLifecycle) {
  const std::string jobs = WriteJobsFile(
      "serve_obs.jobs", "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n");
  const std::string metrics_path = testing::TempDir() + "/serve_metrics.json";
  const std::string trace_path = testing::TempDir() + "/serve_trace.json";
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs +
                                     " --metrics-out " + metrics_path +
                                     " --trace " + trace_path,
                                 &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  auto read_file = [](const std::string& path) {
    std::string contents;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
    return contents;
  };
  const std::string metrics = read_file(metrics_path);
  const std::string trace = read_file(trace_path);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_NE(metrics.find("\"serve.jobs.admitted\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"serve.jobs.completed\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"serve.latency_us\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_admitted\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_end\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parity of the surfaces generated from the ConfigField table: the flags,
// defaults and help of `pgm mine`/`pgm corpus` and every job key keep the
// behavior of their hand-written predecessors.
// ---------------------------------------------------------------------------

TEST(CliParityTest, MineHelpIsPinned) {
  std::string output;
  ASSERT_EQ(RunFromString("pgm mine --help", &output), 0) << output;
  EXPECT_EQ(output,
      "pgm mine: find frequent periodic patterns\n"
      "\n"
      "Flags:\n"
      "  --algorithm                mpp | mppm | enum | adaptive"
      " (default: mppm)\n"
      "  --csv                      also write all patterns as CSV here"
      " (default: )\n"
      "  --deadline-ms              wall-clock budget in ms; partial"
      " result on expiry (-1 = none) (default: -1)\n"
      "  --input                    input spec (see pgm --help)"
      " (default: )\n"
      "  --kernel                   join-kernel tier: auto | scalar |"
      " bits | avx2 (auto picks the bitset/AVX2 kernel when the gap"
      " window fits 64 bits; results are identical under every tier)"
      " (default: auto)\n"
      "  --level-stats              include per-level candidates"
      " (default: false)\n"
      "  --lift                     also rank patterns by compositional"
      " lift (observed/expected) (default: false)\n"
      "  --m                        MPPm e_m order (default: 10)\n"
      "  --max-gap                  maximum gap M (default: 12)\n"
      "  --max-length               pattern length cap (-1 = none)"
      " (default: -1)\n"
      "  --max-level-candidates     cap on candidates per level (0 ="
      " unlimited) (default: 0)\n"
      "  --max-total-candidates     cap on total candidates (0 ="
      " unlimited) (default: 0)\n"
      "  --maximal                  condense to maximal patterns"
      " (default: false)\n"
      "  --metrics-out              write run metrics"
      " (counters/gauges/histograms) as deterministic JSON here"
      " (default: )\n"
      "  --min-gap                  minimum gap N (default: 9)\n"
      "  --n                        MPP estimate of longest pattern (-1"
      " = worst) (default: -1)\n"
      "  --pil-budget-bytes         PIL memory budget in bytes (0 ="
      " unlimited) (default: 0)\n"
      "  --rho-percent              support threshold in percent"
      " (default: 0.003)\n"
      "  --start-length             first mined pattern length (default:"
      " 3)\n"
      "  --threads                  worker threads for level evaluation"
      " (1 = serial, 0 = one per hardware thread); results are identical"
      " at every thread count (default: 1)\n"
      "  --top                      patterns shown (longest / highest"
      " ratio first) (default: 25)\n"
      "  --trace                    write the structured mining trace"
      " (level starts/ends, prune decisions, guard trips) as JSON here"
      " (default: )\n"
      "  --trace-timings            include wall-clock/worker fields and"
      " shard timings in --trace output (not byte-stable across runs)"
      " (default: false)\n");
}

TEST(CliParityTest, CorpusHelpIsPinned) {
  std::string output;
  ASSERT_EQ(RunFromString("pgm corpus --help", &output), 0) << output;
  EXPECT_EQ(output,
      "pgm corpus: mine every record of a corpus fragment-by-fragment"
      " (the paper's Section 7 methodology: support is counted within"
      " fragments, never across fragment boundaries)\n"
      "\n"
      "Flags:\n"
      "  --algorithm                mpp | mppm | enum | adaptive"
      " (default: mppm)\n"
      "  --csv                      also write the aggregated patterns"
      " as CSV here (default: )\n"
      "  --deadline-ms              corpus-wide wall-clock budget in ms;"
      " later fragments are skipped on expiry, partial result stays"
      " sound (-1 = none) (default: -1)\n"
      "  --fragment-length          window length each record is cut"
      " into (Section 7 uses 100000) (default: 100000)\n"
      "  --input                    input spec; fasta:<path> mines every"
      " record (default: )\n"
      "  --keep-tail                also mine the final sub-window"
      " remainder of each record (off = drop it, the paper's convention)"
      " (default: false)\n"
      "  --kernel                   join-kernel tier per fragment: auto"
      " | scalar | bits | avx2 (results are identical under every tier)"
      " (default: auto)\n"
      "  --m                        MPPm e_m order (default: 10)\n"
      "  --max-fragments            cap on total fragments planned (0 ="
      " all) (default: 0)\n"
      "  --max-gap                  maximum gap M (default: 12)\n"
      "  --max-length               pattern length cap (-1 = none)"
      " (default: -1)\n"
      "  --max-level-candidates     cap on any single fragment's"
      " candidate total (0 = unlimited) (default: 0)\n"
      "  --max-total-candidates     cap on candidates accumulated across"
      " the corpus (0 = unlimited) (default: 0)\n"
      "  --metrics-out              write run metrics (corpus.* +"
      " per-fragment mining counters) as deterministic JSON here"
      " (default: )\n"
      "  --min-gap                  minimum gap N (default: 9)\n"
      "  --n                        MPP estimate of longest pattern (-1"
      " = worst) (default: -1)\n"
      "  --no-mmap                  ingest FASTA through the buffered"
      " reader instead of the memory-mapped scanner (same bytes, same"
      " result) (default: false)\n"
      "  --pil-budget-bytes         per-fragment PIL memory budget in"
      " bytes (0 = unlimited) (default: 0)\n"
      "  --rho-percent              support threshold in percent"
      " (default: 0.003)\n"
      "  --start-length             first mined pattern length (default:"
      " 3)\n"
      "  --threads                  worker threads mining whole"
      " fragments (1 = serial, 0 = one per hardware thread); results are"
      " identical at every thread count (default: 1)\n"
      "  --top                      patterns shown (longest / highest"
      " ratio first) (default: 25)\n"
      "  --trace                    write the corpus trace"
      " (fragment_start/fragment_end bracketing each fragment's mining"
      " events) as JSON here (default: )\n"
      "  --trace-timings            include wall-clock/worker fields in"
      " --trace output (not byte-stable across runs) (default: false)\n");
}

TEST(CliParityTest, BadKernelFlagIsUsageError) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm mine --input raw:ACGT --kernel sse9", &output,
                          &error),
            2);
  EXPECT_NE(error.find("unknown kernel 'sse9'"), std::string::npos) << error;
  EXPECT_EQ(RunFromString("pgm corpus --input raw:ACGT --kernel sse9",
                          &output, &error),
            2);
}

TEST(CliJobLineTest, DefaultsComeFromMiningJob) {
  MiningJob job;
  ASSERT_TRUE(ParseJobLine("raw:ACGT", 1, &job).ok());
  EXPECT_EQ(job.input, "raw:ACGT");
  EXPECT_EQ(job.algorithm, "mpp");
  EXPECT_EQ(job.config.min_gap, 0);
  EXPECT_EQ(job.config.max_gap, 0);
  EXPECT_EQ(job.config.min_support_ratio, 0.0);
  EXPECT_EQ(job.corpus_fragment_length, 0u);
  EXPECT_FALSE(job.corpus_keep_tail);
}

TEST(CliJobLineTest, EveryKeySetsItsField) {
  MiningJob job;
  ASSERT_TRUE(ParseJobLine("fasta:g.fa  algorithm=enum min-gap=2 max-gap=7 "
                           "rho-percent=0.5 start-length=4 max-length=9 n=6 "
                           "m=3 threads=5 kernel=bits deadline-ms=250 "
                           "corpus=1000 corpus-keep-tail=1",
                           3, &job)
                  .ok());
  EXPECT_EQ(job.input, "fasta:g.fa");
  EXPECT_EQ(job.algorithm, "enum");
  EXPECT_EQ(job.config.min_gap, 2);
  EXPECT_EQ(job.config.max_gap, 7);
  EXPECT_EQ(job.config.min_support_ratio, 0.5 / 100.0);
  EXPECT_EQ(job.config.start_length, 4);
  EXPECT_EQ(job.config.max_length, 9);
  EXPECT_EQ(job.config.user_n, 6);
  EXPECT_EQ(job.config.em_order, 3);
  EXPECT_EQ(job.config.threads, 5);
  EXPECT_EQ(job.config.kernel_tier, KernelTier::kBits);
  EXPECT_EQ(job.config.limits.deadline_ms, 250);
  EXPECT_EQ(job.corpus_fragment_length, 1000u);
  EXPECT_TRUE(job.corpus_keep_tail);
  // Fields no key names keep their MinerConfig{} values.
  EXPECT_EQ(job.config.limits.pil_memory_budget_bytes, 0u);
  EXPECT_EQ(job.config.initial_n, MinerConfig{}.initial_n);
}

TEST(CliJobLineTest, RejectsUnknownKeysAndMalformedTokens) {
  MiningJob job;
  const Status unknown = ParseJobLine("raw:ACGT frobnicate=abc", 4, &job);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.message(), "jobs line 4: unknown key 'frobnicate'");
  // Execution knobs without a job key stay unknown.
  EXPECT_FALSE(ParseJobLine("raw:ACGT pil-budget-bytes=1", 1, &job).ok());
  EXPECT_FALSE(ParseJobLine("raw:ACGT =5", 1, &job).ok());
  const Status malformed = ParseJobLine("raw:ACGT min-gap", 5, &job);
  EXPECT_EQ(malformed.message(),
            "jobs line 5: expected key=value, got 'min-gap'");
  EXPECT_FALSE(ParseJobLine("   ", 6, &job).ok());
}

TEST(CliJobLineTest, ValueErrorsNameTheLineAndTheKey) {
  MiningJob job;
  EXPECT_EQ(ParseJobLine("raw:ACGT min-gap=x", 7, &job).message(),
            "jobs line 7: key 'min-gap': trailing garbage in integer: 'x'");
  EXPECT_EQ(ParseJobLine("raw:ACGT rho-percent=abc", 8, &job).message(),
            "jobs line 8: key 'rho-percent': trailing garbage in double: "
            "'abc'");
  EXPECT_EQ(ParseJobLine("raw:ACGT kernel=sse9", 9, &job).message(),
            "jobs line 9: key 'kernel': unknown kernel 'sse9' (auto | "
            "scalar | bits | avx2)");
  EXPECT_EQ(ParseJobLine("raw:ACGT corpus-keep-tail=yes", 10, &job).message(),
            "jobs line 10: key 'corpus-keep-tail': trailing garbage in "
            "integer: 'yes'");
  EXPECT_EQ(ParseJobLine("raw:ACGT corpus=0", 11, &job).message(),
            "jobs line 11: key 'corpus': corpus fragment length must be "
            "positive, got 0");
}

TEST(CliJobLineTest, ServeReportsTheBadKeyWithoutRunningAnyJob) {
  const std::string jobs = WriteJobsFile(
      "serve_badvalue.jobs", "raw:ACGT rho-percent=50\nraw:ACGT min-gap=x\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("jobs line 2: key 'min-gap': trailing garbage in "
                       "integer: 'x'"),
            std::string::npos)
      << error;
  EXPECT_EQ(output.find("served"), std::string::npos) << output;
}

TEST(CliServeTest, FailedResponsesSayWhy) {
  const std::string jobs = WriteJobsFile(
      "serve_why.jobs",
      "raw:ACGTACGTACGTACGT rho-percent=50 algorithm=bogus\n"
      "raw:ACGTACGTACGTACGT max-gap=1\n");
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  // The status code stays the first outcome token; the message column
  // comes last and runs to the end of the line.
  EXPECT_NE(output.find("job 1 raw:ACGTACGTACGTACGT bogus: InvalidArgument "
                        "message=unknown algorithm: bogus\n"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("job 2 raw:ACGTACGTACGTACGT mpp: InvalidArgument "
                        "message=min_support_ratio must lie in (0, 1], got "
                        "0\n"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("2 failed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Graceful interrupt (the CLI half of the SIGINT/SIGTERM story — the
// signal handler itself only latches GlobalCancelToken, which is what
// these tests do directly)
// ---------------------------------------------------------------------------

TEST(CliInterruptTest, MineDrainsToPartialResultAndExits130) {
  ScopedGlobalCancelReset reset;
  GlobalCancelToken().RequestCancel();  // as if SIGINT arrived mid-run
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1",
      &output);
  EXPECT_EQ(code, kExitCancelled) << output;
  EXPECT_NE(output.find("interrupted: partial result is sound"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("cancelled"), std::string::npos);
}

TEST(CliInterruptTest, ServeDrainsGracefullyAndExits130) {
  ScopedGlobalCancelReset reset;
  const std::string jobs = WriteJobsFile(
      "serve_interrupt.jobs",
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n"
      "raw:TTTTGGGGTTTTGGGG rho-percent=50\n");
  GlobalCancelToken().RequestCancel();
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, kExitCancelled) << output;
  EXPECT_NE(output.find("interrupted: drained gracefully"), std::string::npos)
      << output;
  // Every admitted job still gets a response line — the drain never loses
  // one. Whether each shows "cancelled" or "completed" depends on how far
  // the worker got before the watcher latched the drain; both are sound, so
  // the deterministic service_test covers the cancelled path instead.
  EXPECT_NE(output.find("served 2 jobs"), std::string::npos);
  EXPECT_NE(output.find("0 shed, 0 failed"), std::string::npos) << output;
}

TEST(CliInterruptTest, TokenResetRestoresNormalRuns) {
  {
    ScopedGlobalCancelReset reset;
    GlobalCancelToken().RequestCancel();
  }
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 "
                "--max-gap 2 --rho-percent 1 --start-length 1",
                &output),
            0)
      << output;
  EXPECT_EQ(output.find("interrupted"), std::string::npos);
}

TEST(CliExitCodeTest, UnavailableMapsToSeven) {
  EXPECT_EQ(ExitCodeForStatus(Status::Unavailable("x")), 7);
}

}  // namespace
}  // namespace pgm::cli
