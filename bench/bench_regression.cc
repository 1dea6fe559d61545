// Benchmark-regression harness for the arena join path (PR "arena-backed
// PILs"), the serving layer (PR "pgm serve"), and the corpus executor
// (PR "pgm corpus"). Four measurement groups, emitted as a flat JSON file
// that tools/bench_check compares against the committed baseline
// (BENCH_pr9.json at the repo root):
//
//   1. Candidate-join benchmark: one level's full candidate pipeline run
//      (a) the pre-arena way — eager CandidateSpec generation with one
//      symbol string per candidate, one heap-allocating
//      PartialIndexList::Combine per candidate, a per-PIL MiningGuard
//      memory charge/release pair, and a separate TotalSupport pass — and
//      (b) through the shipped arena path: JoinPlan::SelfJoin +
//      ParallelLevelExecutor::ExecuteJoin writing into a reused output
//      arena, support computed inside the kernel, symbols built lazily for
//      retained candidates only. Both paths apply the same retention
//      threshold and fold the identical checksum over every candidate's
//      rows, so the comparison also re-verifies the byte-equivalence
//      contract. Two regimes: the Section 6 wide-gap DNA join (few
//      candidates, long PILs — bandwidth-bound) and a deep protein-alphabet
//      level (~150k candidates over ~4-row PILs in prefix groups of 20 —
//      where per-candidate spec generation, allocation, and ledger traffic
//      dominate and the arena wins big).
//   2. End-to-end MineMpp wall clock on a surrogate segment at 1, 2, and 8
//      worker threads, interleaved rep by rep so the gated
//      e2e_mpp_2t_speedup / e2e_mpp_8t_speedup ratios (t1/t2, t1/t8) draw
//      their minima from the same machine conditions. On a single-core box
//      the ratios sit near 1.0; the gate then guards the pipelined
//      executor's overhead (a ratio collapse means threading suddenly
//      costs wall clock it did not before).
//   3. Serving-layer rows (PR "pgm serve"): a 100-job batch through a full
//      MiningService lifecycle — cold (cache off, every job mines), miss
//      (cache on, 100 distinct inputs: mining plus insert/lookup overhead),
//      and hit (cache on, 1000 identical jobs: one mine plus 999 cache
//      hits, so the row prices the admission + lookup path itself; the
//      larger batch amortizes service start/stop noise).
//   4. Corpus executor rows (PR "pgm corpus"): MineCorpus over a
//      multi-fragment surrogate plan at corpus_threads 1 and 8,
//      interleaved rep by rep like the e2e sweep. The gated
//      corpus_8t_speedup ratio (t1/t8) sits near 1.0 on a single-core box
//      and guards the whole-fragment fan-out's overhead: a collapse below
//      1 means claiming fragments off the shared cursor suddenly costs
//      wall clock that serial fragment mining did not.
//
// Every timing is the minimum over several repetitions (robust against
// scheduler noise). Keys prefixed "info." are informational only;
// bench_check ignores them. --smoke runs fewer repetitions of the same
// workloads, so its numbers remain comparable to a full run's baseline.
//
// Gating policy (abi_stamp 5): only *ratio* rows (join_*_speedup,
// join_speedup, serve_hit_speedup, e2e_mpp_*_speedup, kernel_*_speedup,
// corpus_8t_speedup) are tracked by bench_check. Both sides
// of each ratio are measured in the same process seconds apart, so
// machine-wide slowdowns (noisy neighbours, thermal throttling) cancel and
// the 10% tolerance is meaningful. Absolute wall-clock rows are emitted as
// info.* — recorded in the baseline for eyeballing trends, never gated,
// because on shared hardware they swing well past any sane tolerance
// between back-to-back runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/candidate_index.h"
#include "core/gap.h"
#include "core/guard.h"
#include "core/kernel.h"
#include "core/miner.h"
#include "core/parallel.h"
#include "core/pil.h"
#include "core/pil_arena.h"
#include "corpus/executor.h"
#include "corpus/plan.h"
#include "seq/alphabet.h"
#include "serve/service.h"
#include "util/bench_abi.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/limits.h"
#include "util/random.h"
#include "util/saturating.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pgm::bench {
namespace {

constexpr std::size_t kJoinSequenceLength = 8000;
constexpr std::size_t kEndToEndSequenceLength = 8000;

// Uniform random sequence over the 20-letter protein alphabet — the
// deep-level join workload (a DNA alphabet caps prefix groups at 4
// suffixes; protein groups of 20 exercise the prefix-sharing kernel the
// way dense deep levels do).
Sequence RandomProteinSegment(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  const Alphabet& protein = Alphabet::Protein();
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text.push_back(
        protein.CharAt(static_cast<Symbol>(rng.UniformInt(protein.size()))));
  }
  return ValueOrDie(Sequence::FromString(text, protein));
}

// Minimum wall clock over `reps` runs of `fn`, in milliseconds.
template <typename Fn>
double MinMillis(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedSeconds() * 1e3;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Folds a candidate's output rows into a checksum that the compiler cannot
// elide and both join paths must agree on.
std::uint64_t Fold(std::uint64_t checksum, const PilEntry* rows,
                   std::size_t len, const SupportInfo& support) {
  checksum = checksum * 1099511628211ull + len;
  checksum += support.count;
  if (len > 0) checksum ^= rows[0].pos + rows[len - 1].count;
  return checksum;
}

// The pre-arena level representation and candidate generator, reproduced
// from the engine this PR replaced (git history: core/parallel.cc
// GenerateCandidates): eager specs, one symbol string per candidate.
struct LegacyEntry {
  std::string symbols;
  PartialIndexList pil;
};

struct LegacySpec {
  std::string symbols;
  std::uint32_t left = 0;
  std::uint32_t right = 0;
};

std::vector<LegacySpec> GenerateLegacyCandidates(
    const std::vector<LegacyEntry>& level) {
  std::vector<LegacySpec> candidates;
  if (level.empty()) return candidates;
  const std::size_t len = level.front().symbols.size();
  std::unordered_map<std::string_view, std::vector<std::uint32_t>> by_prefix;
  by_prefix.reserve(level.size());
  for (std::uint32_t i = 0; i < level.size(); ++i) {
    const std::string_view prefix =
        std::string_view(level[i].symbols).substr(0, len - 1);
    by_prefix[prefix].push_back(i);
  }
  for (std::uint32_t i = 0; i < level.size(); ++i) {
    const std::string_view suffix_key =
        std::string_view(level[i].symbols).substr(1);
    auto it = by_prefix.find(suffix_key);
    if (it == by_prefix.end()) continue;
    for (std::uint32_t j : it->second) {
      LegacySpec spec;
      spec.symbols.reserve(len + 1);
      spec.symbols.push_back(level[i].symbols.front());
      spec.symbols.append(level[j].symbols);
      spec.left = i;
      spec.right = j;
      candidates.push_back(std::move(spec));
    }
  }
  return candidates;
}

struct JoinBenchResult {
  double legacy_ms = 0.0;
  double arena_ms = 0.0;
  double arena_t2_ms = 0.0;
  double arena_t8_ms = 0.0;
  std::uint64_t candidates = 0;
};

// Times one level's candidate pipeline — generation, join, support,
// threshold, retention — through the pre-arena engine loop and through the
// shipped arena executor, on the same level at the same retention
// threshold.
JoinBenchResult RunJoinBench(const Sequence& sequence,
                             const GapRequirement& gap, std::int64_t level_k,
                             int reps) {
  internal::BuiltLevel level =
      internal::BuildAllPatternsOfLength(sequence, gap, level_k);
  const internal::JoinPlan ref_plan =
      internal::JoinPlan::SelfJoin(level.entries);

  std::vector<LegacyEntry> legacy_level;
  legacy_level.reserve(level.entries.size());
  for (const internal::ArenaEntry& entry : level.entries) {
    const PilEntry* rows = level.arena.Rows(entry.span);
    legacy_level.push_back(
        {entry.symbols, PartialIndexList::FromEntries(std::vector<PilEntry>(
                            rows, rows + entry.span.len))});
  }

  // Retention threshold at roughly the 80th percentile of candidate
  // supports (computed once, untimed): most candidates get pruned, the
  // survivors get promoted/stored — the shape of a real mining level.
  std::uint64_t threshold = 0;
  {
    std::vector<std::uint64_t> supports;
    for (const internal::JoinTask& task : ref_plan.tasks()) {
      for (std::uint32_t r = task.rights_begin; r < task.rights_end; ++r) {
        supports.push_back(
            PartialIndexList::Combine(
                legacy_level[task.left].pil,
                legacy_level[ref_plan.rights_pool()[r]].pil, gap)
                .TotalSupport()
                .count);
      }
    }
    std::sort(supports.begin(), supports.end());
    threshold = supports.empty() ? 0 : supports[supports.size() * 4 / 5];
  }

  MiningGuard guard(ResourceLimits{});
  std::uint64_t legacy_checksum = 0;
  auto legacy_rep = [&] {
    legacy_checksum = 0;
    std::vector<LegacySpec> specs = GenerateLegacyCandidates(legacy_level);
    std::vector<LegacyEntry> retained;
    for (LegacySpec& spec : specs) {
      // Engine-faithful charging. The bench guard has unlimited limits, so
      // a trip here means the harness itself is broken — fail loudly rather
      // than time a short-circuited loop.
      if (!guard.Tick()) std::abort();
      PartialIndexList pil = PartialIndexList::Combine(
          legacy_level[spec.left].pil, legacy_level[spec.right].pil, gap);
      const std::uint64_t bytes = pil.MemoryBytes();
      if (!guard.ChargeMemory(bytes)) std::abort();
      const SupportInfo support = pil.TotalSupport();
      legacy_checksum =
          Fold(legacy_checksum, pil.entries().data(), pil.size(), support);
      if (support.count >= threshold) {
        retained.push_back({std::move(spec.symbols), std::move(pil)});
      } else {
        guard.ReleaseMemory(bytes);
      }
    }
    for (const LegacyEntry& entry : retained) {
      guard.ReleaseMemory(entry.pil.MemoryBytes());
    }
  };

  PilArena out(&guard);
  std::uint64_t arena_checksum = 0;
  std::uint64_t num_candidates = 0;
  // One arena-path repetition at the given worker count. The merge is
  // deterministic (candidate order) at every thread count, so the checksum
  // must match the legacy one regardless of `threads`.
  auto arena_rep = [&](internal::ParallelLevelExecutor& executor) {
    arena_checksum = 0;
    num_candidates = 0;
    const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
    std::vector<internal::ArenaEntry> retained;
    bool interrupted = false;
    auto sink = [&](const internal::JoinedCandidate& candidate) -> Status {
      ++num_candidates;
      arena_checksum = Fold(arena_checksum, out.Rows(candidate.span),
                            candidate.span.len, candidate.support);
      if (candidate.support.count >= threshold) {
        internal::ArenaEntry entry;
        entry.symbols.reserve(level.entries.front().symbols.size() + 1);
        entry.symbols.push_back(
            level.entries[candidate.left].symbols.front());
        entry.symbols.append(level.entries[candidate.right].symbols);
        entry.span = out.Promote(candidate.span);
        retained.push_back(std::move(entry));
      }
      return Status::OK();
    };
    out.BeginScratch();
    CheckOk(executor.ExecuteJoin(level.entries, level.arena, level.entries,
                                 level.arena, plan, gap, KernelImpl::kScalar,
                                 &guard, out, sink, &interrupted));
    out.EndScratch();
    // Steady state: the output arena keeps its capacity across levels.
    out.Clear();
  };

  internal::ParallelLevelExecutor serial(1);
  // Interleave the two paths rep by rep (legacy, arena, legacy, arena, ...)
  // instead of running each path's repetitions as a block. A multi-second
  // noise burst (noisy neighbour, thermal dip) then slows both sides of the
  // speedup ratio together, and the per-path minima are drawn from the same
  // quiet windows — which is what keeps the gated ratio rows stable on
  // shared hardware.
  double legacy_ms = 0.0;
  double arena_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    {
      Stopwatch watch;
      legacy_rep();
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < legacy_ms) legacy_ms = ms;
    }
    {
      Stopwatch watch;
      arena_rep(serial);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < arena_ms) arena_ms = ms;
    }
  }

  if (legacy_checksum != arena_checksum) {
    std::fprintf(stderr,
                 "FATAL: join paths disagree (legacy %llu vs arena %llu)\n",
                 static_cast<unsigned long long>(legacy_checksum),
                 static_cast<unsigned long long>(arena_checksum));
    std::exit(1);
  }

  JoinBenchResult result;
  result.legacy_ms = legacy_ms;
  result.arena_ms = arena_ms;
  result.candidates = num_candidates;
  internal::ParallelLevelExecutor two(2);
  result.arena_t2_ms = MinMillis(reps, [&] { arena_rep(two); });
  internal::ParallelLevelExecutor eight(8);
  result.arena_t8_ms = MinMillis(reps, [&] { arena_rep(eight); });
  if (legacy_checksum != arena_checksum) {
    std::fprintf(stderr, "FATAL: threaded arena join is not deterministic\n");
    std::exit(1);
  }
  return result;
}

struct KernelBenchResult {
  double scalar_ms = 0.0;
  double bits_ms = 0.0;
  double avx2_ms = 0.0;
  bool avx2_supported = false;
};

// Times one level's join through ExecuteJoin under each kernel tier on the
// same plan — the pure kernel-dispatch comparison (PR "kernel tier"). The
// gap window must fit 64 bits or every tier degenerates to the scalar
// fallback and the ratios pin at 1. Reps are interleaved (scalar, bits,
// avx2, scalar, ...) with per-tier minima, the same noise-cancelling
// pattern as the legacy/arena interleave above. Checksums must agree
// across tiers — the benchmark doubles as a byte-equivalence re-check.
// When AVX2 is unavailable the avx2 tier re-times the bits kernel
// (ResolveKernel's own fallback), so kernel_avx2_speedup stays present in
// the JSON and the baseline comparison never sees a missing key.
KernelBenchResult RunKernelBench(const Sequence& sequence,
                                 const GapRequirement& gap,
                                 std::int64_t level_k, int reps) {
  internal::BuiltLevel level =
      internal::BuildAllPatternsOfLength(sequence, gap, level_k);
  const internal::JoinPlan plan = internal::JoinPlan::SelfJoin(level.entries);
  MiningGuard guard(ResourceLimits{});
  PilArena out(&guard);
  internal::ParallelLevelExecutor serial(1);

  std::uint64_t checksum = 0;
  auto one_rep = [&](KernelImpl kernel) {
    checksum = 0;
    bool interrupted = false;
    auto sink = [&](const internal::JoinedCandidate& candidate) -> Status {
      checksum = Fold(checksum, out.Rows(candidate.span), candidate.span.len,
                      candidate.support);
      return Status::OK();
    };
    out.BeginScratch();
    CheckOk(serial.ExecuteJoin(level.entries, level.arena, level.entries,
                               level.arena, plan, gap, kernel, &guard, out,
                               sink, &interrupted));
    out.EndScratch();
    out.Clear();
  };

  KernelBenchResult result;
  result.avx2_supported = Avx2Available();
  const KernelImpl avx2_impl =
      result.avx2_supported ? KernelImpl::kAvx2 : KernelImpl::kBits;
  std::uint64_t scalar_checksum = 0;
  for (int r = 0; r < reps; ++r) {
    {
      Stopwatch watch;
      one_rep(KernelImpl::kScalar);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < result.scalar_ms) result.scalar_ms = ms;
      scalar_checksum = checksum;
    }
    {
      Stopwatch watch;
      one_rep(KernelImpl::kBits);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < result.bits_ms) result.bits_ms = ms;
    }
    if (checksum != scalar_checksum) {
      std::fprintf(stderr, "FATAL: bits kernel disagrees with scalar\n");
      std::exit(1);
    }
    {
      Stopwatch watch;
      one_rep(avx2_impl);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < result.avx2_ms) result.avx2_ms = ms;
    }
    if (checksum != scalar_checksum) {
      std::fprintf(stderr, "FATAL: avx2 kernel disagrees with scalar\n");
      std::exit(1);
    }
  }
  return result;
}

struct ServeBenchResult {
  double cold_ms = 0.0;
  double miss_ms = 0.0;
  double hit_ms = 0.0;
};

constexpr std::size_t kServeJobs = 100;
// The hit batch runs 10x more jobs than the cold/miss batches: a 100-job
// all-hits batch finishes in ~1ms, where service start/stop scheduling
// noise swamps the signal. 1000 jobs amortizes that fixed cost; the gated
// speedup is computed per job, so the batch sizes need not match.
constexpr std::size_t kServeHitJobs = 1000;

// Prices the serving layer itself with a deliberately light mining config:
// small segments and a tight max_length keep the per-job mining cost low,
// so the cold/miss/hit spread reflects the service machinery (admission,
// queue, cache key, lookup, response accounting) rather than the miners.
ServeBenchResult RunServeBench(int reps, std::uint64_t seed) {
  constexpr std::size_t kSegmentLength = 1000;
  std::vector<Sequence> segments;
  segments.reserve(kServeJobs);
  for (std::size_t i = 0; i < kServeJobs; ++i) {
    segments.push_back(
        ValueOrDie(SurrogateSegment(kSegmentLength, seed + 1000 + i)));
  }
  MinerConfig config;
  config.min_gap = 0;
  config.max_gap = 2;
  config.min_support_ratio = 0.05;
  config.start_length = 2;
  config.max_length = 4;

  // One full service lifecycle: submit the whole batch, drain, join.
  // `distinct` jobs cycle through the prepared segments (all different for
  // a batch of kServeJobs); identical jobs all reuse segment 0.
  auto run_batch = [&](std::uint64_t cache_bytes, bool distinct,
                       std::size_t jobs) {
    ServiceConfig service_config;
    service_config.queue_capacity = jobs + 1;
    service_config.workers = 1;
    service_config.cache_capacity_bytes = cache_bytes;
    service_config.loader =
        [&segments](const std::string& input) -> StatusOr<Sequence> {
      PGM_ASSIGN_OR_RETURN(std::int64_t index, ParseInt64(input));
      return segments[static_cast<std::size_t>(index) % segments.size()];
    };
    MiningService service(std::move(service_config));
    for (std::size_t i = 0; i < jobs; ++i) {
      MiningJob job;
      job.input = std::to_string(distinct ? i : 0);
      job.config = config;
      CheckOk(service.Submit(std::move(job)).status());
    }
    service.Start();
    const std::vector<JobResponse> responses = service.Join();
    if (responses.size() != jobs) std::abort();
    for (const JobResponse& response : responses) CheckOk(response.status);
  };

  ServeBenchResult result;
  result.cold_ms = MinMillis(
      reps, [&] { run_batch(0, /*distinct=*/false, kServeJobs); });
  // Interleave miss/hit reps so both sides of the gated serve_hit_speedup
  // ratio sample the same machine conditions (same rationale as the
  // legacy/arena interleave in RunJoinBench).
  for (int r = 0; r < reps; ++r) {
    {
      Stopwatch watch;
      run_batch(16u << 20, /*distinct=*/true, kServeJobs);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < result.miss_ms) result.miss_ms = ms;
    }
    {
      Stopwatch watch;
      run_batch(16u << 20, /*distinct=*/false, kServeHitJobs);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (r == 0 || ms < result.hit_ms) result.hit_ms = ms;
    }
  }
  return result;
}

struct EndToEndResult {
  double t1_ms = 0.0;
  double t2_ms = 0.0;
  double t8_ms = 0.0;
};

// End-to-end MineMpp at 1, 2, and 8 threads, interleaved one rep of each
// per round (t1, t2, t8, t1, ...) with per-config minima — the same
// rationale as the legacy/arena interleave in RunJoinBench: a machine-wide
// noise burst slows all three configs of the same round together, so the
// gated t1/t2 and t1/t8 ratios stay stable on shared hardware.
EndToEndResult RunEndToEndSweep(const Sequence& sequence, int reps) {
  auto one_rep = [&](std::int64_t threads) {
    MinerConfig config = Section6Defaults();
    config.threads = threads;
    Stopwatch watch;
    const StatusOr<MiningResult> result = MineMpp(sequence, config);
    CheckOk(result.status());
    return watch.ElapsedSeconds() * 1e3;
  };
  EndToEndResult e2e;
  for (int r = 0; r < reps; ++r) {
    const double t1 = one_rep(1);
    const double t2 = one_rep(2);
    const double t8 = one_rep(8);
    if (r == 0 || t1 < e2e.t1_ms) e2e.t1_ms = t1;
    if (r == 0 || t2 < e2e.t2_ms) e2e.t2_ms = t2;
    if (r == 0 || t8 < e2e.t8_ms) e2e.t8_ms = t8;
  }
  return e2e;
}

struct CorpusBenchResult {
  double t1_ms = 0.0;
  double t8_ms = 0.0;
  std::size_t fragments = 0;
};

// MineCorpus over a surrogate segment cut into fragments, at corpus_threads
// 1 and 8, interleaved one rep of each per round with per-config minima —
// the same noise-cancelling pattern as RunEndToEndSweep. The workload
// parallelizes at whole-fragment granularity (one miner per fragment), so
// on a multi-core box the ratio tracks the fan-out's scaling and on a
// single-core box it prices the fan-out's overhead.
CorpusBenchResult RunCorpusBench(const Sequence& sequence, int reps) {
  CorpusPlanOptions plan_options;
  plan_options.fragment.fragment_length = 1000;
  const CorpusPlan plan =
      ValueOrDie(CorpusPlan::FromSequence(sequence, "bench", plan_options));
  auto one_rep = [&](std::int64_t threads) {
    CorpusOptions options;
    options.algorithm = "mpp";
    options.miner = Section6Defaults();
    options.corpus_threads = threads;
    Stopwatch watch;
    const StatusOr<CorpusResult> result = MineCorpus(plan, options);
    CheckOk(result.status());
    if (result->fragments_completed != plan.fragments().size()) std::abort();
    return watch.ElapsedSeconds() * 1e3;
  };
  CorpusBenchResult corpus;
  corpus.fragments = plan.fragments().size();
  for (int r = 0; r < reps; ++r) {
    const double t1 = one_rep(1);
    const double t8 = one_rep(8);
    if (r == 0 || t1 < corpus.t1_ms) corpus.t1_ms = t1;
    if (r == 0 || t8 < corpus.t8_ms) corpus.t8_ms = t8;
  }
  return corpus;
}

std::string ToJson(const std::map<std::string, double>& metrics) {
  std::string json = "{\n";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) json += ",\n";
    first = false;
    json += StrFormat("  \"%s\": %.6g", key.c_str(), value);
  }
  json += "\n}\n";
  return json;
}

int Main(int argc, char** argv) {
  FlagSet flags(
      "Arena join benchmark-regression harness: candidate-join pipeline "
      "(pre-arena engine loop vs arena executor) and end-to-end MineMpp "
      "wall clock, written as flat JSON for tools/bench_check.");
  bool smoke = false;
  std::string json_path = "BENCH_pr9.json";
  std::int64_t seed = 42;
  flags.AddBool("smoke", &smoke,
                "fewer repetitions of the same workloads (CI mode)");
  flags.AddString("json", &json_path, "output path for the flat metrics JSON");
  flags.AddInt64("seed", &seed, "surrogate segment seed");
  const int parse_exit = HandleParseResult(flags.Parse(argc, argv));
  if (parse_exit >= 0) return parse_exit;

  const int join_reps = smoke ? 5 : 9;
  const int e2e_reps = smoke ? 2 : 5;
  const MinerConfig defaults = Section6Defaults();
  const GapRequirement gap =
      ValueOrDie(GapRequirement::Create(defaults.min_gap, defaults.max_gap));

  const Sequence join_sequence = ValueOrDie(
      SurrogateSegment(kJoinSequenceLength, static_cast<std::uint64_t>(seed)));
  // Wide-gap regime (the Section 6 defaults): few long PILs, memory-bound.
  const JoinBenchResult wide = RunJoinBench(join_sequence, gap, 3, join_reps);
  // Deep-level regime: a protein alphabet with a narrow gap yields ~150k
  // length-4 candidates over ~4-row PILs in prefix groups of 20 — the
  // regime where the pre-arena engine's eager per-candidate spec (one
  // symbol-string allocation each), per-Combine heap PIL, and per-PIL
  // ledger round-trip dominate the window arithmetic.
  const GapRequirement deep_gap = ValueOrDie(GapRequirement::Create(0, 1));
  const Sequence deep_sequence =
      RandomProteinSegment(kJoinSequenceLength, static_cast<std::uint64_t>(seed));
  const JoinBenchResult deep =
      RunJoinBench(deep_sequence, deep_gap, 3, join_reps);

  const Sequence e2e_sequence = ValueOrDie(SurrogateSegment(
      kEndToEndSequenceLength, static_cast<std::uint64_t>(seed)));

  // Kernel tiers on the wide-gap Section 6 workload (W = 4, so the bitset
  // kernel engages): long suffix PILs are exactly the regime the bitmap
  // rank/cum precomputation amortizes over.
  const KernelBenchResult kern =
      RunKernelBench(join_sequence, gap, 3, join_reps);

  std::map<std::string, double> metrics;
  metrics["info.abi_stamp"] = kBenchAbiStamp;
  metrics["info.join_wide_legacy_ms"] = wide.legacy_ms;
  metrics["info.join_wide_arena_ms"] = wide.arena_ms;
  metrics["join_wide_speedup"] = wide.legacy_ms / wide.arena_ms;
  metrics["info.join_deep_legacy_ms"] = deep.legacy_ms;
  metrics["info.join_deep_arena_ms"] = deep.arena_ms;
  metrics["join_deep_speedup"] = deep.legacy_ms / deep.arena_ms;
  metrics["join_speedup"] =
      (wide.legacy_ms + deep.legacy_ms) / (wide.arena_ms + deep.arena_ms);
  const EndToEndResult e2e = RunEndToEndSweep(e2e_sequence, e2e_reps);
  metrics["info.e2e_mpp_t1_ms"] = e2e.t1_ms;
  metrics["info.e2e_mpp_t2_ms"] = e2e.t2_ms;
  metrics["info.e2e_mpp_t8_ms"] = e2e.t8_ms;
  // Gated end-to-end thread-scaling ratios (see the gating-policy note):
  // both sides come from interleaved reps of the same sweep.
  metrics["e2e_mpp_2t_speedup"] = e2e.t1_ms / e2e.t2_ms;
  metrics["e2e_mpp_8t_speedup"] = e2e.t1_ms / e2e.t8_ms;
  const int serve_reps = smoke ? 3 : 5;
  const ServeBenchResult serve =
      RunServeBench(serve_reps, static_cast<std::uint64_t>(seed));
  metrics["info.serve_cold_ms"] = serve.cold_ms;
  metrics["info.serve_miss_ms"] = serve.miss_ms;
  metrics["info.serve_hit_ms"] = serve.hit_ms;
  // The cache payoff, per job: a warm hit skips mining entirely, so
  // miss/hit is the end-to-end price of a mine relative to an admission +
  // digest + lookup. The hit batch is larger, hence the normalization.
  metrics["serve_hit_speedup"] = (serve.miss_ms / kServeJobs) /
                                 (serve.hit_ms / kServeHitJobs);
  metrics["info.serve_hit_jobs"] = static_cast<double>(kServeHitJobs);
  metrics["info.serve_jobs"] = static_cast<double>(kServeJobs);
  metrics["info.join_wide_arena_t2_ms"] = wide.arena_t2_ms;
  metrics["info.join_wide_arena_t8_ms"] = wide.arena_t8_ms;
  metrics["info.join_deep_arena_t2_ms"] = deep.arena_t2_ms;
  metrics["info.join_deep_arena_t8_ms"] = deep.arena_t8_ms;
  metrics["info.join_wide_candidates"] = static_cast<double>(wide.candidates);
  metrics["info.join_deep_candidates"] = static_cast<double>(deep.candidates);
  metrics["info.join_reps"] = join_reps;
  metrics["info.sequence_length"] =
      static_cast<double>(kJoinSequenceLength);
  metrics["info.kernel_scalar_ms"] = kern.scalar_ms;
  metrics["info.kernel_bits_ms"] = kern.bits_ms;
  metrics["info.kernel_avx2_ms"] = kern.avx2_ms;
  metrics["info.kernel_avx2_supported"] = kern.avx2_supported ? 1.0 : 0.0;
  // Gated kernel-tier ratios: both sides interleaved in RunKernelBench.
  // On a box without AVX2 the avx2 row re-times the bits kernel, so the
  // ratio degrades to a second bits sample rather than a missing key.
  metrics["kernel_bits_speedup"] = kern.scalar_ms / kern.bits_ms;
  metrics["kernel_avx2_speedup"] = kern.scalar_ms / kern.avx2_ms;
  const CorpusBenchResult corpus = RunCorpusBench(e2e_sequence, e2e_reps);
  metrics["info.corpus_t1_ms"] = corpus.t1_ms;
  metrics["info.corpus_t8_ms"] = corpus.t8_ms;
  metrics["info.corpus_fragments"] = static_cast<double>(corpus.fragments);
  // Gated corpus fan-out ratio: both sides interleaved in RunCorpusBench.
  metrics["corpus_8t_speedup"] = corpus.t1_ms / corpus.t8_ms;

  const std::string json = ToJson(metrics);
  std::fputs(json.c_str(), stdout);
  CheckOk(WriteStringToFile(json_path, json));
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pgm::bench

int main(int argc, char** argv) { return pgm::bench::Main(argc, argv); }
