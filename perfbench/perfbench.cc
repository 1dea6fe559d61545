// The repository benchmark harness (perfbench/README.md explains the
// workloads, the metrics and how to run it through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--expect-digest <hex>]
//
// The harness writes the workload's seeded inputs as files under --workdir
// and then drives the public entry points of seq, core, corpus and serve
// in-process on those files only. With --trace 0 it times the end-to-end
// metrics with no observer attached; with --trace 1 it makes one untraced
// and one traced pass at each thread count and reports the per-layer split.
// Every pass is checked; the last stdout line is the JSON result.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gap.h"
#include "core/kernel.h"
#include "core/miner.h"
#include "core/trace.h"
#include "core/verifier.h"
#include "corpus/executor.h"
#include "corpus/plan.h"
#include "datagen/generators.h"
#include "datagen/presets.h"
#include "serve/canonical.h"
#include "serve/service.h"
#include "seq/fasta.h"
#include "seq/fragmenter.h"
#include "util/digest.h"
#include "util/random.h"
#include "util/status.h"

namespace pgm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Check(StatusOr<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// FNV-1a over the (pattern, support) list.
std::uint64_t PatternDigest(const std::vector<FrequentPattern>& patterns) {
  Digest64 digest;
  for (const FrequentPattern& p : patterns) {
    const std::vector<Symbol>& symbols = p.pattern.symbols();
    digest.UpdateU64(symbols.size());
    digest.Update(symbols.data(), symbols.size());
    digest.UpdateU64(p.support);
  }
  return digest.value();
}

/// Recounts the supports of the longest pattern and `samples` seeded picks
/// with the independent DP scorer (core/verifier.h); returns the number of
/// patterns whose reported support differs.
std::uint64_t SpotCheck(const Sequence& sequence, const GapRequirement& gap,
                        const std::vector<FrequentPattern>& patterns,
                        std::size_t samples, Rng& rng) {
  if (patterns.empty()) return 0;
  std::vector<std::size_t> picks = {patterns.size() - 1};
  for (std::size_t i = 0; i < samples; ++i) {
    picks.push_back(static_cast<std::size_t>(rng.UniformInt(patterns.size())));
  }
  std::uint64_t mismatches = 0;
  for (std::size_t pick : picks) {
    StatusOr<SupportInfo> support =
        CountSupport(sequence, patterns[pick].pattern, gap);
    if (!support.ok() || support->count != patterns[pick].support) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The content every seed's input is made from (see Relabel).
constexpr std::uint64_t kShapeSeed = 42;

/// Relabels `sequence` by a seed-chosen permutation of its alphabet. Mining
/// is symmetric in the symbols, so every seed gets the same candidates, PIL
/// sizes and work, and the spread between seeds measures the machine, not
/// the input; the patterns, and so the checked digest, differ per seed.
Sequence Relabel(const Sequence& sequence, std::uint64_t seed) {
  std::vector<Symbol> permutation(sequence.alphabet().size());
  for (std::size_t i = 0; i < permutation.size(); ++i) {
    permutation[i] = static_cast<Symbol>(i);
  }
  Rng rng(seed);
  for (std::size_t i = permutation.size() - 1; i > 0; --i) {
    std::swap(permutation[i], permutation[rng.UniformInt(i + 1)]);
  }
  std::vector<Symbol> symbols;
  symbols.reserve(sequence.size());
  for (Symbol symbol : sequence.symbols()) symbols.push_back(permutation[symbol]);
  return Check(Sequence::FromSymbols(std::move(symbols), sequence.alphabet()),
               "relabel");
}

Sequence LoadFasta(const std::string& path, const Alphabet& alphabet) {
  std::vector<FastaRecord> records = Check(ReadFastaFile(path), "read " + path);
  if (records.size() != 1) Die(path + ": expected one FASTA record");
  return RecordToSequence(records[0], alphabet);
}

void WriteFasta(const std::string& path,
                const std::vector<std::pair<std::string, Sequence>>& records) {
  std::vector<FastaRecord> fasta;
  for (const auto& [id, sequence] : records) {
    FastaRecord record;
    record.id = id;
    record.residues = sequence.ToString();
    fasta.push_back(std::move(record));
  }
  Check(WriteFastaFile(path, fasta), "write " + path);
}

/// Section 6: gap [9,12], ρs = 0.003%, start length 3, n = -1 (MPP).
MinerConfig Section6Config() {
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;
  config.min_support_ratio = 0.003 / 100.0;
  config.start_length = 3;
  config.em_order = 10;
  return config;
}

/// Section 7: gap [10,12], ρs = 0.006%, start length 3, m = 10 (MPPm).
MinerConfig Section7Config() {
  MinerConfig config;
  config.min_gap = 10;
  config.max_gap = 12;
  config.min_support_ratio = 0.006 / 100.0;
  config.start_length = 3;
  config.em_order = 10;
  return config;
}

GapRequirement GapOf(const MinerConfig& config) {
  return Check(GapRequirement::Create(config.min_gap, config.max_gap), "gap");
}

/// What one mining pass over the whole workload returned.
struct Outcome {
  /// Wall time of the pass: the mining call(s) only.
  double seconds = 0.0;
  /// Digest of the pass's (pattern, support) results.
  std::uint64_t digest = 0;
  /// Operations attempted and failed (README.md, "Correctness gate and
  /// failure accounting").
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Spot-check mismatches plus serve hits that differ from their miss.
  std::uint64_t wrong = 0;
  /// Max pil_memory_peak_bytes over the pass's mining runs.
  std::uint64_t peak_pil = 0;
  /// Per-operation latencies: the call, each fragment, or each job.
  std::vector<double> op_ms;
  /// Σ total_seconds and Σ em_seconds over the mining runs executed, and
  /// the sequences those runs mined (for the bench-timed level-1 build).
  double runs_seconds = 0.0;
  double em_seconds = 0.0;
  std::vector<const Sequence*> mined;
  // Corpus passes: fragment latencies and the ledger peak.
  std::vector<double> fragment_ms;
  std::uint64_t ledger_peak = 0;
  // Serve passes: latencies split by cache outcome, and service counters.
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  std::int64_t queue_depth_peak = 0;
};

/// One benchmark workload: its input files, its configuration, and one
/// mining pass over the loaded input at a given parallelism.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Writes the seeded input files under `dir`.
  virtual void Generate(const std::string& dir, std::uint64_t seed) = 0;
  /// Does everything a user pays before the first mining call and returns
  /// its wall time. Later passes use what the last call loaded.
  virtual double Setup() = 0;
  /// How many Setup calls the setup_s median is taken over.
  virtual int setup_reps() const = 0;
  /// One pass at `threads` (threads, corpus_threads or workers) with
  /// `observer` attached (null = untraced). With `spot_check` the results
  /// are also recounted independently, after the timed section.
  virtual Outcome Mine(std::int64_t threads, const MiningObserver* observer,
                       bool spot_check) = 0;
  /// Wall time of ReadFastaFile + RecordToSequence over the input files.
  virtual double LoadSeconds() = 0;
  /// The miner configuration (gap and start length for the level-1 build).
  virtual MinerConfig config() const = 0;
  /// Wall time of one CacheKey call in µs (serve workloads only).
  virtual double KeyMicros() { return 0.0; }
};

// --- dna-deep / protein-dense ---------------------------------------------

/// MineMpp over one FASTA sequence.
class SequenceWorkload : public Workload {
 public:
  using Maker = std::function<StatusOr<Sequence>(std::uint64_t seed)>;
  SequenceWorkload(const Alphabet& alphabet, Maker maker)
      : alphabet_(alphabet), maker_(std::move(maker)) {}

  void Generate(const std::string& dir, std::uint64_t seed) override {
    path_ = dir + "/input.fa";
    WriteFasta(path_, {{"input", Check(maker_(seed), "generate input")}});
    seed_ = seed;
  }
  double Setup() override {
    const Clock::time_point start = Clock::now();
    sequence_ = LoadFasta(path_, alphabet_);
    return SecondsSince(start);
  }
  int setup_reps() const override { return 201; }
  double LoadSeconds() override { return Setup(); }
  MinerConfig config() const override { return Section6Config(); }

  Outcome Mine(std::int64_t threads, const MiningObserver* observer,
               bool spot_check) override {
    MinerConfig config = Section6Config();
    config.threads = threads;
    config.observer = observer;
    Outcome out;
    const Clock::time_point start = Clock::now();
    StatusOr<MiningResult> result = MineMpp(*sequence_, config);
    out.seconds = SecondsSince(start);
    out.ops = 1;
    out.op_ms = {out.seconds * 1e3};
    if (!result.ok() || !result->complete()) {
      out.failed = 1;
      return out;
    }
    out.digest = PatternDigest(result->patterns);
    out.peak_pil = result->pil_memory_peak_bytes;
    out.runs_seconds = result->total_seconds;
    out.em_seconds = result->em_seconds;
    out.mined = {&*sequence_};
    if (spot_check) {
      Rng rng(seed_);
      out.wrong = SpotCheck(*sequence_, GapOf(config), result->patterns, 32, rng);
    }
    return out;
  }

 private:
  const Alphabet& alphabet_;
  Maker maker_;
  std::string path_;
  std::uint64_t seed_ = 0;
  std::optional<Sequence> sequence_;
};

// --- corpus-genomes --------------------------------------------------------

constexpr std::size_t kCorpusFragment = 4000;

const char* const kGenomeKinds[] = {"bacteria", "eukaryote", "worm"};

/// The bacteria-, eukaryote- or worm-like preset genome, by `kind` mod 3.
Sequence MakeGenome(int kind, std::size_t length, std::uint64_t seed) {
  StatusOr<Sequence> genome =
      kind % 3 == 0   ? MakeBacteriaLikeGenome(length, seed)
      : kind % 3 == 1 ? MakeEukaryoteLikeGenome(length, seed)
                      : MakeWormLikeGenome(length, seed);
  return Check(std::move(genome), "generate genome");
}

/// Writes a multi-record FASTA of bacteria-, eukaryote- and worm-like
/// records drawn from `rng`, each `full` whole fragments plus an uneven
/// tail, relabelled by `seed`.
void WriteGenomeCorpus(const std::string& path, Rng& rng, std::uint64_t seed,
                       int records, std::size_t fragment, std::size_t full) {
  std::vector<std::pair<std::string, Sequence>> fasta;
  for (int i = 0; i < records; ++i) {
    const std::size_t tail =
        fragment / 8 + static_cast<std::size_t>(rng.UniformInt(fragment * 3 / 4));
    const std::size_t length = full * fragment + tail;
    fasta.emplace_back(std::string(kGenomeKinds[i % 3]) + "_" + std::to_string(i),
                       Relabel(MakeGenome(i, length, rng.Next()), seed));
  }
  WriteFasta(path, fasta);
}

CorpusPlanOptions CorpusPlanFor(std::size_t fragment) {
  CorpusPlanOptions options;
  options.fragment.fragment_length = fragment;
  options.fragment.keep_tail = true;
  return options;
}

/// MineCorpus (MPPm, Section 7 settings) over a FromFastaFile plan.
class CorpusWorkload : public Workload {
 public:
  void Generate(const std::string& dir, std::uint64_t seed) override {
    path_ = dir + "/corpus.fa";
    Rng rng(kShapeSeed);
    WriteGenomeCorpus(path_, rng, seed, /*records=*/3, kCorpusFragment, /*full=*/3);
    seed_ = seed;
  }
  double Setup() override {
    const Clock::time_point start = Clock::now();
    plan_ = Check(CorpusPlan::FromFastaFile(path_, Alphabet::Dna(),
                                            CorpusPlanFor(kCorpusFragment)),
                  "plan " + path_);
    return SecondsSince(start);
  }
  int setup_reps() const override { return 101; }
  MinerConfig config() const override { return Section7Config(); }

  double LoadSeconds() override {
    const Clock::time_point start = Clock::now();
    for (const FastaRecord& record :
         Check(ReadFastaFile(path_), "read " + path_)) {
      (void)RecordToSequence(record, Alphabet::Dna());
    }
    return SecondsSince(start);
  }

  Outcome Mine(std::int64_t threads, const MiningObserver* observer,
               bool spot_check) override {
    CorpusOptions options;
    options.algorithm = "mppm";
    options.miner = Section7Config();
    options.corpus_threads = threads;
    options.observer = observer;
    Outcome out;
    const Clock::time_point start = Clock::now();
    StatusOr<CorpusResult> result = MineCorpus(plan_, options);
    out.seconds = SecondsSince(start);
    out.ops = plan_.fragments().size();
    if (!result.ok()) {
      out.failed = out.ops;
      return out;
    }
    Rng rng(seed_);
    for (const FragmentResult& fragment : result->fragments) {
      const bool ok = fragment.mined && fragment.status.ok() &&
                      fragment.result.complete();
      if (!ok) {
        ++out.failed;
        continue;
      }
      const double ms = fragment.result.total_seconds * 1e3;
      out.op_ms.push_back(ms);
      out.fragment_ms.push_back(ms);
      out.runs_seconds += fragment.result.total_seconds;
      out.em_seconds += fragment.result.em_seconds;
      const Sequence& sequence = plan_.fragments()[fragment.ordinal].sequence;
      out.mined.push_back(&sequence);
      if (spot_check) {
        out.wrong += SpotCheck(sequence, GapOf(options.miner),
                               fragment.result.patterns, 4, rng);
      }
    }
    out.digest = PatternDigest(result->patterns);
    out.peak_pil = result->pil_memory_peak_bytes;
    out.ledger_peak = result->ledger_peak_bytes;
    return out;
  }

 private:
  std::string path_;
  std::uint64_t seed_ = 0;
  CorpusPlan plan_;
};

// --- serve-mixed -----------------------------------------------------------

constexpr int kPoolInputs = 60;
constexpr std::size_t kPoolLength = 650;
constexpr int kJobs = 200;
constexpr int kCorpusJobs = 4;
constexpr std::size_t kServeCorpusFragment = 800;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kCacheBytes = 640u << 10;

/// Serve jobs: the Section 6 gap at ρs = 0.2%, ~10–20 ms per miss.
MinerConfig ServeConfig() {
  MinerConfig config = Section6Config();
  config.min_support_ratio = 0.2 / 100.0;
  return config;
}

/// A MiningService batch: Zipf-popular single-sequence MPP jobs over a pool
/// of small FASTA inputs, plus a few corpus jobs that bypass the cache.
class ServeWorkload : public Workload {
 public:
  void Generate(const std::string& dir, std::uint64_t seed) override {
    seed_ = seed;
    Rng rng(kShapeSeed);
    for (int i = 0; i < kPoolInputs; ++i) {
      const std::string path = dir + "/pool-" + std::to_string(i) + ".fa";
      WriteFasta(path, {{"pool", Relabel(MakeGenome(i, kPoolLength, rng.Next()), seed)}});
      pool_paths_.push_back(path);
    }
    corpus_path_ = dir + "/corpus.fa";
    WriteGenomeCorpus(corpus_path_, rng, seed, /*records=*/3,
                      kServeCorpusFragment, /*full=*/1);

    // Zipf(kZipfExponent) popularity over a shuffled pool; corpus jobs at
    // random positions. The job list, like the content, is the same for
    // every seed.
    std::vector<double> cumulative;
    double total = 0.0;
    for (int rank = 1; rank <= kPoolInputs; ++rank) {
      total += 1.0 / std::pow(rank, kZipfExponent);
      cumulative.push_back(total);
    }
    std::vector<int> order(kPoolInputs);
    for (int i = 0; i < kPoolInputs; ++i) order[i] = i;
    for (int i = kPoolInputs - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(static_cast<std::uint64_t>(i) + 1)]);
    }
    std::vector<bool> corpus_slot(kJobs, false);
    for (int placed = 0; placed < kCorpusJobs;) {
      const std::size_t slot = rng.UniformInt(kJobs);
      if (!corpus_slot[slot]) {
        corpus_slot[slot] = true;
        ++placed;
      }
    }
    for (int j = 0; j < kJobs; ++j) {
      MiningJob job;
      job.algorithm = "mpp";
      job.config = ServeConfig();
      if (corpus_slot[j]) {
        job.input = corpus_path_;
        job.corpus_fragment_length = kServeCorpusFragment;
        job.corpus_keep_tail = true;
      } else {
        const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin());
        job.input = pool_paths_[order[std::min<std::size_t>(rank, kPoolInputs - 1)]];
      }
      jobs_.push_back(std::move(job));
    }
    for (const std::string& path : pool_paths_) {
      pool_.emplace(path, LoadFasta(path, Alphabet::Dna()));
    }
    corpus_plan_ = Check(
        CorpusPlan::FromFastaFile(corpus_path_, Alphabet::Dna(),
                                  CorpusPlanFor(kServeCorpusFragment)),
        "plan " + corpus_path_);
  }

  double Setup() override {
    const Clock::time_point start = Clock::now();
    MiningService service(MakeConfig(2, nullptr));
    return SecondsSince(start);
  }
  int setup_reps() const override { return 101; }
  MinerConfig config() const override { return ServeConfig(); }

  double LoadSeconds() override {
    const Clock::time_point start = Clock::now();
    for (const std::string& path : pool_paths_) {
      (void)LoadFasta(path, Alphabet::Dna());
    }
    return SecondsSince(start);
  }

  double KeyMicros() override {
    constexpr int kRounds = 20;
    const MinerConfig config = ServeConfig();
    std::size_t bytes = 0;
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [path, sequence] : pool_) {
        bytes += CacheKey(sequence, "mpp", config).size();
      }
    }
    const double seconds = SecondsSince(start);
    if (bytes == 0) Die("empty cache keys");
    return seconds * 1e6 / (kRounds * static_cast<double>(pool_.size()));
  }

  Outcome Mine(std::int64_t threads, const MiningObserver* observer,
               bool spot_check) override {
    MiningService service(MakeConfig(static_cast<std::size_t>(threads), observer));
    Outcome out;
    const Clock::time_point start = Clock::now();
    service.Start();
    for (const MiningJob& job : jobs_) (void)service.Submit(job);
    const std::vector<JobResponse> responses = service.Join();
    out.seconds = SecondsSince(start);
    out.ops = jobs_.size();

    Rng rng(seed_);
    Digest64 batch;
    // Every response for an input must equal the first one; in particular
    // a hit must return exactly what the miss for the same input did.
    std::map<std::string, std::uint64_t> first_digest;
    for (const JobResponse& response : responses) {
      out.op_ms.push_back(response.latency_ms);
      if (!response.status.ok() || !response.result.complete()) {
        ++out.failed;
        batch.UpdateU64(0);
        continue;
      }
      const MiningResult& result = response.result;
      const std::uint64_t digest = PatternDigest(result.patterns);
      batch.UpdateU64(digest);
      out.peak_pil = std::max(out.peak_pil, result.pil_memory_peak_bytes);
      if (response.corpus_fragments > 0) {
        // A corpus job's result carries no run times; its wall time stands
        // in for the runs of its fragments.
        out.runs_seconds += response.latency_ms / 1e3;
        for (const CorpusFragment& fragment : corpus_plan_.fragments()) {
          out.mined.push_back(&fragment.sequence);
        }
        continue;
      }
      const auto [first, inserted] = first_digest.emplace(response.input, digest);
      if (first->second != digest) ++out.wrong;
      if (response.cache_hit) {
        out.hit_ms.push_back(response.latency_ms);
        continue;
      }
      out.miss_ms.push_back(response.latency_ms);
      const Sequence& sequence = pool_.at(response.input);
      if (spot_check && inserted) {
        out.wrong += SpotCheck(sequence, GapOf(ServeConfig()),
                               result.patterns, 2, rng);
      }
      out.runs_seconds += result.total_seconds;
      out.em_seconds += result.em_seconds;
      out.mined.push_back(&sequence);
    }
    out.digest = batch.value();
    const MetricsRegistry& metrics = service.metrics();
    out.cache_hits = metrics.CounterValue("serve.cache.hits");
    out.cache_misses = metrics.CounterValue("serve.cache.misses");
    out.evictions = metrics.CounterValue("serve.cache.evictions");
    if (const Gauge* depth = metrics.FindGauge("serve.queue.depth_peak")) {
      out.queue_depth_peak = depth->value();
    }
    return out;
  }

 private:
  ServiceConfig MakeConfig(std::size_t workers,
                           const MiningObserver* observer) const {
    ServiceConfig config;
    config.queue_capacity = kJobs;
    config.workers = workers;
    config.cache_capacity_bytes = kCacheBytes;
    config.observer = observer;
    config.loader = [](const std::string& path) -> StatusOr<Sequence> {
      return LoadFasta(path, Alphabet::Dna());
    };
    config.corpus_loader = [](const std::string& path,
                              const CorpusPlanOptions& options) {
      return CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);
    };
    return config;
  }

  std::uint64_t seed_ = 0;
  std::vector<std::string> pool_paths_;
  std::map<std::string, Sequence> pool_;
  std::string corpus_path_;
  CorpusPlan corpus_plan_;
  std::vector<MiningJob> jobs_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "dna-deep") {
    return std::make_unique<SequenceWorkload>(
        Alphabet::Dna(), [](std::uint64_t seed) -> StatusOr<Sequence> {
          PGM_ASSIGN_OR_RETURN(Sequence genome, MakeAx829174Surrogate());
          Rng rng(kShapeSeed);
          PGM_ASSIGN_OR_RETURN(Sequence segment, RandomSegment(genome, 8000, rng));
          return Relabel(segment, seed);
        });
  }
  if (name == "protein-dense") {
    return std::make_unique<SequenceWorkload>(
        Alphabet::Protein(), [](std::uint64_t seed) -> StatusOr<Sequence> {
          Rng rng(kShapeSeed);
          PGM_ASSIGN_OR_RETURN(
              Sequence residues,
              UniformRandomSequence(8000, Alphabet::Protein(), rng));
          return Relabel(residues, seed);
        });
  }
  if (name == "corpus-genomes") return std::make_unique<CorpusWorkload>();
  if (name == "serve-mixed") return std::make_unique<ServeWorkload>();
  Die("unknown workload '" + name +
      "' (dna-deep, protein-dense, corpus-genomes, serve-mixed)");
}

// --- accounting and output -------------------------------------------------

/// Operations attempted/failed and the correctness verdict across passes.
class Tally {
 public:
  explicit Tally(std::string expected) : expected_(std::move(expected)) {}

  void Add(const Outcome& out) {
    attempted_ += out.ops;
    failed_ += out.failed + out.wrong;
    if (out.wrong > 0) correct_ = false;
    if (!have_digest_) {
      digest_ = out.digest;
      have_digest_ = true;
    }
    const bool differs = out.digest != digest_ ||
                         (!expected_.empty() && DigestToHex(out.digest) != expected_);
    if (differs) {
      ++failed_;
      correct_ = false;
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  std::uint64_t digest() const { return digest_; }

 private:
  std::string expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  bool have_digest_ = false;
  std::uint64_t digest_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

/// CPU count, AVX2, a 32-bit digest of the CPUID brand string and the L3
/// size — taken from CPUID and the affinity mask, never from files.
struct Host {
  double cpus = 0;
  double avx2 = 0;
  double model = 0;
  double l3_bytes = 0;
};

Host Fingerprint() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) host.cpus = CPU_COUNT(&set);
  std::string brand = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  host.avx2 = __builtin_cpu_supports("avx2") ? 1 : 0;
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    brand.assign(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop the NUL padding
  }
#endif
  host.model = static_cast<double>(Fnv1a64(brand) & 0xffffffffu);
#ifdef _SC_LEVEL3_CACHE_SIZE
  host.l3_bytes = static_cast<double>(std::max<long>(0, sysconf(_SC_LEVEL3_CACHE_SIZE)));
#endif
  std::printf("host cpus=%.0f avx2=%.0f cpu_model=%s cpu_model_digest=%08llx "
              "l3_bytes=%.0f\n",
              host.cpus, host.avx2, brand.c_str(),
              static_cast<unsigned long long>(host.model), host.l3_bytes);
  return host;
}

/// Sums of the shard_timing stage fields. `skip_build` drops the joins a
/// run's level-1 build makes (those between run_start and the run's first
/// level_end), which core.level1_s already covers; it needs runs that do
/// not interleave, i.e. a serial pass.
struct JoinSplit {
  double join = 0.0;
  double fill = 0.0;
  double merge = 0.0;
  double stall = 0.0;
};

JoinSplit SplitJoins(const MiningTrace& trace, bool skip_build) {
  JoinSplit split;
  bool in_build = false;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kRunStart) in_build = true;
    if (event.kind == TraceEventKind::kLevelEnd) in_build = false;
    if (event.kind != TraceEventKind::kShardTiming) continue;
    if (skip_build && in_build) continue;
    split.join += event.seconds;
    split.fill += event.fill_seconds;
    split.merge += event.merge_seconds;
    split.stall += event.stall_seconds;
  }
  return split;
}

/// Serial, bench-timed level-1 builds over every sequence the pass mined.
double Level1Seconds(const Workload& workload, const Outcome& pass) {
  const MinerConfig config = workload.config();
  const GapRequirement gap = GapOf(config);
  const KernelImpl kernel = ResolveKernel(config.kernel_tier, gap);
  const Clock::time_point start = Clock::now();
  for (const Sequence* sequence : pass.mined) {
    internal::BuiltLevel level = internal::BuildAllPatternsOfLength(
        *sequence, gap, config.start_length, nullptr, nullptr, kernel);
    if (level.entries.empty()) Die("empty level-1 build");
  }
  return SecondsSince(start);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string expect_digest;
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
      have_workdir = true;
    } else if (flag == "--expect-digest") {
      options.expect_digest = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_workdir) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir> [--expect-digest <hex>]");
  }
  return options;
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const Host host = Fingerprint();
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  workload->Generate(options.workdir, options.seed);
  const Clock::time_point start = Clock::now();

  // setup_s is the median over setup_reps() calls here and as many again
  // after every timed round, so it samples the whole run.
  std::vector<double> setups;
  const auto sample_setup = [&] {
    for (int rep = 0; rep < workload->setup_reps(); ++rep) {
      setups.push_back(workload->Setup());
    }
  };
  sample_setup();

  // First-call effect: the first pass in a process pays one-off costs
  // (fresh heap pages, malloc arenas for new threads), so every timed
  // sample follows one untimed, fully checked warm-up pass.
  Tally tally(options.expect_digest);
  const Outcome warm = workload->Mine(2, nullptr, /*spot_check=*/true);
  tally.Add(warm);

  std::vector<Metric> metrics;
  if (!options.trace) {
    std::vector<double> serial, parallel, op_ms;
    std::uint64_t peak_pil = warm.peak_pil;
    double longest_round = 0.0;
    // Each round makes one serial and two 2-thread passes, rotating the
    // serial pass through the three slots: the 2-thread passes are the
    // noisier ones, so they get more of the samples. A round never starts
    // unless it is predicted to end within --seconds; one always runs.
    for (int round = 0; round == 0 || SecondsSince(start) + longest_round <=
                                          options.seconds;
         ++round) {
      const Clock::time_point round_start = Clock::now();
      for (int slot = 0; slot < 3; ++slot) {
        const std::int64_t threads = slot == round % 3 ? 1 : 2;
        const Outcome out = workload->Mine(threads, nullptr, false);
        tally.Add(out);
        peak_pil = std::max(peak_pil, out.peak_pil);
        if (threads == 1) {
          serial.push_back(out.seconds);
        } else {
          parallel.push_back(out.seconds);
          op_ms.insert(op_ms.end(), out.op_ms.begin(), out.op_ms.end());
        }
      }
      longest_round = std::max(longest_round, SecondsSince(round_start));
      sample_setup();
    }
    std::printf("samples ops_per_pass=%llu warm_up_s=%.4f",
                static_cast<unsigned long long>(warm.ops), warm.seconds);
    for (double seconds : serial) std::printf(" serial_s=%.4f", seconds);
    for (double seconds : parallel) std::printf(" mine_s=%.4f", seconds);
    std::printf("\n");
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"mine_s", Median(parallel), "s"},
        {"mine_serial_s", Median(serial), "s"},
        {"peak_pil_bytes", static_cast<double>(peak_pil), "B"},
        {"peak_rss_bytes", static_cast<double>(PeakRssBytes()), "B"},
        {"job_p50_ms", Quantile(op_ms, 0.50), "ms"},
        {"job_p95_ms", Quantile(op_ms, 0.95), "ms"},
    };
  } else {
    MetricsRegistry serial_metrics, parallel_metrics;
    MiningTrace serial_trace, parallel_trace;
    const MiningObserver serial_observer{&serial_metrics, &serial_trace};
    const MiningObserver parallel_observer{&parallel_metrics, &parallel_trace};
    const Outcome u1 = workload->Mine(1, nullptr, false);
    const Outcome u2 = workload->Mine(2, nullptr, false);
    const Outcome t1 = workload->Mine(1, &serial_observer, false);
    const Outcome t2 = workload->Mine(2, &parallel_observer, false);
    for (const Outcome* out : {&u1, &u2, &t1, &t2}) tally.Add(*out);

    const JoinSplit serial_split = SplitJoins(serial_trace, /*skip_build=*/true);
    const JoinSplit parallel_split = SplitJoins(parallel_trace, false);
    const double level1_s = Level1Seconds(*workload, t1);
    const double generated = static_cast<double>(
        serial_metrics.CounterValue("mine.candidates.generated"));
    const double retained = static_cast<double>(
        serial_metrics.CounterValue("mine.candidates.retained"));
    const Histogram* pil_bytes =
        serial_metrics.FindHistogram("mine.candidate.pil_bytes");
    const double lookups = static_cast<double>(u2.cache_hits + u2.cache_misses);
    const double fragment_s = Sum(u2.fragment_ms) / 1e3;
    metrics = {
        {"seq.load_s", workload->LoadSeconds(), "s"},
        {"core.level1_s", level1_s, "s"},
        {"core.em_s", t1.em_seconds, "s"},
        {"core.join_s", serial_split.join, "s"},
        {"core.fill_s", serial_split.fill, "s"},
        {"core.merge_s", serial_split.merge, "s"},
        {"core.stall_s", parallel_split.stall, "s"},
        {"core.join_other_s",
         serial_split.join - serial_split.fill - serial_split.merge -
             serial_split.stall,
         "s"},
        {"core.unattributed_s",
         t1.runs_seconds - t1.em_seconds - level1_s - serial_split.join, "s"},
        {"core.candidates", generated, "count"},
        {"core.retained_ratio", generated > 0 ? retained / generated : 0.0,
         "ratio"},
        {"core.candidates_per_s",
         serial_split.join > 0 ? generated / serial_split.join : 0.0, "1/s"},
        {"core.pil_bytes_per_candidate",
         pil_bytes != nullptr && pil_bytes->count() > 0
             ? static_cast<double>(pil_bytes->sum()) /
                   static_cast<double>(pil_bytes->count())
             : 0.0,
         "B"},
        {"core.parallel_efficiency", u1.seconds / (2.0 * u2.seconds), "ratio"},
        {"corpus.plan_s",
         options.workload == "corpus-genomes" ? Median(setups) : 0.0, "s"},
        {"corpus.fragments", static_cast<double>(u2.fragment_ms.size()), "count"},
        {"corpus.fragment_p50_ms", Median(u2.fragment_ms), "ms"},
        {"corpus.fragment_max_ms", Quantile(u2.fragment_ms, 1.0), "ms"},
        {"corpus.busy_frac", fragment_s / (2.0 * u2.seconds), "ratio"},
        {"corpus.overhead_s",
         u1.fragment_ms.empty() ? 0.0 : u1.seconds - Sum(u1.fragment_ms) / 1e3,
         "s"},
        {"corpus.ledger_peak_bytes", static_cast<double>(u2.ledger_peak), "B"},
        {"serve.hit_ratio",
         lookups > 0 ? static_cast<double>(u2.cache_hits) / lookups : 0.0,
         "ratio"},
        {"serve.evictions", static_cast<double>(u2.evictions), "count"},
        {"serve.hit_p50_ms", Median(u2.hit_ms), "ms"},
        {"serve.miss_p50_ms", Median(u2.miss_ms), "ms"},
        {"serve.key_us", workload->KeyMicros(), "us"},
        {"serve.queue_depth_peak", static_cast<double>(u2.queue_depth_peak),
         "count"},
        {"trace_overhead_s", t2.seconds - u2.seconds, "s"},
        {"host.cpus", host.cpus, "count"},
        {"host.avx2", host.avx2, "bool"},
        {"host.cpu_model_digest", host.model, "id"},
        {"host.l3_bytes", host.l3_bytes, "B"},
    };
  }
  std::printf("digest %s\n", DigestToHex(tally.digest()).c_str());
  std::fflush(stdout);
  PrintResult(tally, metrics);
  return tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace pgm::perfbench

int main(int argc, char** argv) { return pgm::perfbench::Main(argc, argv); }
