#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>
#include <thread>

#include "analysis/compare.h"
#include "analysis/composition.h"
#include "analysis/report.h"
#include "analysis/significance.h"
#include "analysis/oscillation.h"
#include "analysis/tandem.h"
#include "core/em.h"
#include "core/miner.h"
#include "core/trace.h"
#include "corpus/executor.h"
#include "datagen/presets.h"
#include "seq/fasta.h"
#include "serve/service.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pgm::cli {

CancelToken& GlobalCancelToken() {
  static CancelToken token;
  return token;
}

namespace {

StatusOr<Sequence> LoadPreset(const std::string& body) {
  // body = <name>[:<length>[:<seed>]]
  std::vector<std::string> parts = Split(body, ':');
  const std::string& name = parts[0];
  std::size_t length = 100'000;
  std::uint64_t seed = 1;
  if (parts.size() >= 2) {
    PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(parts[1]));
    if (parsed <= 0) return Status::InvalidArgument("preset length must be positive");
    length = static_cast<std::size_t>(parsed);
  }
  if (parts.size() >= 3) {
    PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(parts[2]));
    seed = static_cast<std::uint64_t>(parsed);
  }
  if (parts.size() > 3) {
    return Status::InvalidArgument("preset spec has too many ':' fields");
  }
  if (name == "ax829174") return MakeAx829174Surrogate();
  if (name == "bacteria") return MakeBacteriaLikeGenome(length, seed);
  if (name == "eukaryote") return MakeEukaryoteLikeGenome(length, seed);
  if (name == "worm") return MakeWormLikeGenome(length, seed);
  return Status::InvalidArgument(
      "unknown preset '" + name +
      "' (expected ax829174, bacteria, eukaryote, or worm)");
}

/// Strips an input spec's `@protein` suffix off *body and returns the
/// alphabet the spec selects.
const Alphabet& TakeAlphabetSuffix(std::string* body) {
  constexpr std::string_view kProteinSuffix = "@protein";
  if (body->size() > kProteinSuffix.size() && body->ends_with(kProteinSuffix)) {
    body->resize(body->size() - kProteinSuffix.size());
    return Alphabet::Protein();
  }
  return Alphabet::Dna();
}

/// Applies a job key that no ConfigField row owns; `key` is one of
/// threads, deadline-ms, corpus or corpus-keep-tail.
Status ApplyIntegerJobKey(const std::string& key, const std::string& value,
                          MiningJob* job) {
  PGM_ASSIGN_OR_RETURN(const std::int64_t parsed, ParseInt64(value));
  if (key == "threads") {
    job->config.threads = parsed;
  } else if (key == "deadline-ms") {
    job->config.limits.deadline_ms = parsed;
  } else if (key == "corpus-keep-tail") {
    job->corpus_keep_tail = parsed != 0;
  } else if (parsed <= 0) {
    return Status::InvalidArgument(
        StrFormat("corpus fragment length must be positive, got %lld",
                  static_cast<long long>(parsed)));
  } else {
    job->corpus_fragment_length = static_cast<std::size_t>(parsed);
  }
  return Status::OK();
}

}  // namespace

StatusOr<Sequence> LoadInput(const std::string& spec) {
  std::string body = spec;
  const Alphabet& alphabet = TakeAlphabetSuffix(&body);
  const std::size_t colon = body.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "input spec must look like kind:value (kinds: fasta, text, raw, "
        "preset); got '" + spec + "'");
  }
  const std::string kind = body.substr(0, colon);
  const std::string value = body.substr(colon + 1);
  if (value.empty()) {
    return Status::InvalidArgument("empty value in input spec '" + spec + "'");
  }

  if (kind == "raw") {
    return Sequence::FromString(value, alphabet);
  }
  if (kind == "text") {
    PGM_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(value));
    std::size_t dropped = 0;
    Sequence sequence = Sequence::FromStringLossy(contents, alphabet, &dropped);
    if (sequence.empty()) {
      return Status::InvalidArgument("file contains no alphabet characters: " +
                                     value);
    }
    return sequence;
  }
  if (kind == "fasta") {
    std::string path = value;
    std::string record_id;
    const std::size_t hash = value.find('#');
    if (hash != std::string::npos) {
      path = value.substr(0, hash);
      record_id = value.substr(hash + 1);
    }
    PGM_ASSIGN_OR_RETURN(std::vector<FastaRecord> records, ReadFastaFile(path));
    if (records.empty()) {
      return Status::NotFound("no records in FASTA file: " + path);
    }
    const FastaRecord* chosen = &records.front();
    if (!record_id.empty()) {
      chosen = nullptr;
      for (const FastaRecord& record : records) {
        if (record.id == record_id) {
          chosen = &record;
          break;
        }
      }
      if (chosen == nullptr) {
        return Status::NotFound("record '" + record_id + "' not in " + path);
      }
    }
    return RecordToSequence(*chosen, alphabet);
  }
  if (kind == "preset") {
    return LoadPreset(value);
  }
  return Status::InvalidArgument("unknown input kind '" + kind + "'");
}

StatusOr<CorpusPlan> LoadCorpusInput(const std::string& spec,
                                     const CorpusPlanOptions& options,
                                     bool use_mmap) {
  std::string body = spec;
  const Alphabet& alphabet = TakeAlphabetSuffix(&body);
  const std::size_t colon = body.find(':');
  const std::string kind =
      colon == std::string::npos ? std::string() : body.substr(0, colon);
  if (kind == "fasta") {
    std::string path = body.substr(colon + 1);
    std::string record_id;
    const std::size_t hash = path.find('#');
    if (hash != std::string::npos) {
      record_id = path.substr(hash + 1);
      path.resize(hash);
    }
    if (path.empty()) {
      return Status::InvalidArgument("empty value in input spec '" + spec +
                                     "'");
    }
    if (record_id.empty()) {
      return CorpusPlan::FromFastaFile(path, alphabet, options, use_mmap);
    }
    PGM_ASSIGN_OR_RETURN(std::vector<FastaRecord> records,
                         ReadFastaFile(path));
    for (const FastaRecord& record : records) {
      if (record.id == record_id) {
        return CorpusPlan::FromRecords({record}, alphabet, options);
      }
    }
    return Status::NotFound("record '" + record_id + "' not in " + path);
  }
  // raw:/text:/preset: (and malformed specs, which fail inside LoadInput
  // with the usual message) become a single pseudo-record named by the
  // spec, so corpus reports and fragment traces stay self-describing.
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(spec));
  return CorpusPlan::FromSequence(sequence, spec, options);
}

Status ParseJobLine(const std::string& line, std::size_t line_number,
                    MiningJob* job) {
  std::vector<std::string> tokens;
  for (const std::string& token : Split(line, ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  if (tokens.empty()) {
    return Status::InvalidArgument(
        StrFormat("jobs line %zu: missing input spec", line_number));
  }
  job->input = tokens.front();
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("jobs line %zu: expected key=value, got '%s'", line_number,
                    tokens[i].c_str()));
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    Status status = Status::OK();
    if (const ConfigField* field = FindConfigField(key)) {
      status = field->parse(value, &job->config);
    } else if (key == "algorithm") {
      job->algorithm = value;
    } else if (key == "threads" || key == "deadline-ms" || key == "corpus" ||
               key == "corpus-keep-tail") {
      status = ApplyIntegerJobKey(key, value, job);
    } else {
      return Status::InvalidArgument(
          StrFormat("jobs line %zu: unknown key '%s'", line_number,
                    key.c_str()));
    }
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrFormat("jobs line %zu: key '%s': %s", line_number, key.c_str(),
                    status.message().c_str()));
    }
  }
  return Status::OK();
}

namespace {

/// The MinerConfig `pgm mine`, `pgm corpus` and `pgm em` start from: the
/// paper's Section 6 setting, gap [9, 12] and rho_s = 0.003%. `pgm serve`
/// jobs start from MinerConfig{} instead.
constexpr MinerConfig kCliMinerDefaults{
    .min_gap = 9, .max_gap = 12, .min_support_ratio = 0.003 / 100.0};

/// Registers a flag for every MinerConfig field that has a key
/// (core/miner.h), defaulting to the field's value in *config.
/// `help_overrides` rewords a row's help for this command.
void AddConfigFlags(
    FlagSet* flags, MinerConfig* config,
    const std::map<std::string_view, std::string_view>& help_overrides = {}) {
  for (const ConfigField& field : MinerConfigFields()) {
    if (field.key.empty()) continue;
    const auto it = help_overrides.find(field.key);
    const std::string_view help =
        it == help_overrides.end() ? field.help : it->second;
    flags->Add(std::string(field.key), std::string(help),
               field.format(*config),
               [&field, config](const std::string& text) {
                 return field.parse(text, config);
               });
  }
}

/// Registers a resource-budget flag: a non-negative count, 0 = unlimited.
void AddBudgetFlag(FlagSet* flags, const std::string& name,
                   std::uint64_t* budget, const std::string& help) {
  flags->Add(name, help, std::to_string(*budget),
             [budget](const std::string& text) -> Status {
               PGM_ASSIGN_OR_RETURN(const std::int64_t parsed,
                                    ParseInt64(text));
               if (parsed < 0) {
                 return Status::InvalidArgument(
                     "resource budgets must be non-negative (0 = unlimited)");
               }
               *budget = static_cast<std::uint64_t>(parsed);
               return Status::OK();
             });
}

/// The --metrics-out / --trace exports of one command run.
struct RunExports {
  std::string metrics_path;
  std::string trace_path;
  bool trace_timings = false;
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;

  /// The observer of the sinks to export; null when there are none.
  const MiningObserver* Observer() {
    if (!metrics_path.empty()) observer.metrics = &metrics;
    if (!trace_path.empty()) observer.trace = &trace;
    return metrics_path.empty() && trace_path.empty() ? nullptr : &observer;
  }

  /// Writes the requested exports, noting each in *output.
  Status Write(std::string* output) const {
    if (!metrics_path.empty()) {
      PGM_RETURN_IF_ERROR(
          WriteStringToFile(metrics_path, metrics.ToJson() + "\n"));
      output->append("wrote metrics JSON to " + metrics_path + "\n");
    }
    if (!trace_path.empty()) {
      TraceJsonOptions trace_options;
      trace_options.include_volatile = trace_timings;
      PGM_RETURN_IF_ERROR(
          WriteStringToFile(trace_path, trace.ToJson(trace_options) + "\n"));
      output->append("wrote trace JSON to " + trace_path + "\n");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// pgm mine
// ---------------------------------------------------------------------------

Status RunMine(const std::vector<std::string>& args, std::string* output,
               int* exit_override) {
  std::string input;
  std::string algorithm = "mppm";
  MinerConfig config = kCliMinerDefaults;
  std::int64_t top = 25;
  ReportOptions report_options;
  bool level_stats = false;
  bool lift = false;
  std::string csv_path;
  RunExports exports;

  FlagSet flags("pgm mine: find frequent periodic patterns");
  flags.AddString("input", &input, "input spec (see pgm --help)");
  flags.AddString("algorithm", &algorithm, "mpp | mppm | enum | adaptive");
  AddConfigFlags(&flags, &config);
  flags.AddInt64("top", &top, "patterns shown (longest / highest ratio first)");
  flags.AddBool("maximal", &report_options.maximal_only,
                "condense to maximal patterns");
  flags.AddBool("lift", &lift,
                "also rank patterns by compositional lift (observed/expected)");
  flags.AddBool("level-stats", &level_stats, "include per-level candidates");
  flags.AddString("csv", &csv_path, "also write all patterns as CSV here");
  flags.AddString("metrics-out", &exports.metrics_path,
                  "write run metrics (counters/gauges/histograms) as "
                  "deterministic JSON here");
  flags.AddString("trace", &exports.trace_path,
                  "write the structured mining trace (level starts/ends, "
                  "prune decisions, guard trips) as JSON here");
  flags.AddBool("trace-timings", &exports.trace_timings,
                "include wall-clock/worker fields and shard timings in "
                "--trace output (not byte-stable across runs)");
  flags.AddInt64("deadline-ms", &config.limits.deadline_ms,
                 "wall-clock budget in ms; partial result on expiry "
                 "(-1 = none)");
  AddBudgetFlag(&flags, "pil-budget-bytes",
                &config.limits.pil_memory_budget_bytes,
                "PIL memory budget in bytes (0 = unlimited)");
  AddBudgetFlag(&flags, "max-level-candidates",
                &config.limits.max_level_candidates,
                "cap on candidates per level (0 = unlimited)");
  AddBudgetFlag(&flags, "max-total-candidates",
                &config.limits.max_total_candidates,
                "cap on total candidates (0 = unlimited)");
  flags.AddInt64("threads", &config.threads,
                 "worker threads for level evaluation (1 = serial, 0 = one "
                 "per hardware thread); results are identical at every "
                 "thread count");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm mine", args));
  if (input.empty()) {
    return Status::InvalidArgument("--input is required\n" + flags.Usage());
  }

  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  // SIGINT/SIGTERM latch the process-wide token (tools/pgm_main.cc); the
  // miners poll it and wind down to a partial-but-sound result.
  config.cancel = &GlobalCancelToken();
  config.observer = exports.Observer();

  PGM_ASSIGN_OR_RETURN(const MiningResult result,
                       MineWithAlgorithm(algorithm, sequence, config));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));

  output->append(StrFormat(
      "subject: L=%zu over {%s}; rho_s=%g%%; algorithm=%s\n",
      sequence.size(), sequence.alphabet().symbols().c_str(),
      config.min_support_ratio * 100.0, algorithm.c_str()));
  report_options.top = static_cast<std::size_t>(std::max<std::int64_t>(0, top));
  report_options.include_level_stats = level_stats;
  output->append(FormatMiningReport(result, gap, report_options));

  if (lift) {
    PGM_ASSIGN_OR_RETURN(std::vector<ScoredPattern> ranked,
                         RankByLift(result, sequence));
    TablePrinter lift_table(
        {"pattern", "observed ratio", "expected (composition)", "lift"});
    const std::size_t shown = std::min<std::size_t>(
        ranked.size(), static_cast<std::size_t>(std::max<std::int64_t>(0, top)));
    for (std::size_t i = 0; i < shown; ++i) {
      lift_table.Row()
          .Add(ranked[i].pattern.pattern.ToShorthand())
          .Add(ranked[i].pattern.support_ratio)
          .Add(ranked[i].expected_ratio)
          .Add(ranked[i].lift)
          .Done();
    }
    output->append("\nmost surprising patterns (by compositional lift):\n");
    output->append(lift_table.ToString());
  }

  if (!csv_path.empty()) {
    PGM_RETURN_IF_ERROR(SavePatternsCsv(result, csv_path));
    output->append("wrote " + std::to_string(result.patterns.size()) +
                   " patterns to " + csv_path + "\n");
  }
  // The observability exports come after the report so a failed write
  // (IoError, loud in *error) never swallows the mining result itself.
  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (result.termination == TerminationReason::kCancelled &&
      GlobalCancelToken().cancelled()) {
    // Interrupted, not failed: everything reported above is genuinely
    // frequent, but patterns past guaranteed_complete_up_to may be missing.
    // The distinct exit code lets scripts keep the partial output.
    output->append(StrFormat(
        "interrupted: partial result is sound; complete up to length %lld\n",
        static_cast<long long>(result.guaranteed_complete_up_to)));
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm corpus
// ---------------------------------------------------------------------------

Status RunCorpus(const std::vector<std::string>& args, std::string* output,
                 int* exit_override) {
  std::string input;
  std::int64_t fragment_length = 100'000;
  std::int64_t max_fragments = 0;
  CorpusPlanOptions plan_options;
  CorpusOptions options;
  options.miner = kCliMinerDefaults;
  std::int64_t top = 25;
  bool no_mmap = false;
  std::string csv_path;
  RunExports exports;

  FlagSet flags(
      "pgm corpus: mine every record of a corpus fragment-by-fragment "
      "(the paper's Section 7 methodology: support is counted within "
      "fragments, never across fragment boundaries)");
  flags.AddString("input", &input,
                  "input spec; fasta:<path> mines every record");
  flags.AddString("algorithm", &options.algorithm,
                  "mpp | mppm | enum | adaptive");
  flags.AddInt64("fragment-length", &fragment_length,
                 "window length each record is cut into (Section 7 uses "
                 "100000)");
  flags.AddBool("keep-tail", &plan_options.fragment.keep_tail,
                "also mine the final sub-window remainder of each record "
                "(off = drop it, the paper's convention)");
  flags.AddInt64("max-fragments", &max_fragments,
                 "cap on total fragments planned (0 = all)");
  AddConfigFlags(&flags, &options.miner,
                 {{"kernel",
                   "join-kernel tier per fragment: auto | scalar | bits | "
                   "avx2 (results are identical under every tier)"}});
  flags.AddInt64("top", &top, "patterns shown (longest / highest ratio first)");
  flags.AddInt64("threads", &options.corpus_threads,
                 "worker threads mining whole fragments (1 = serial, 0 = one "
                 "per hardware thread); results are identical at every "
                 "thread count");
  flags.AddInt64("deadline-ms", &options.limits.deadline_ms,
                 "corpus-wide wall-clock budget in ms; later fragments are "
                 "skipped on expiry, partial result stays sound (-1 = none)");
  AddBudgetFlag(&flags, "pil-budget-bytes",
                &options.miner.limits.pil_memory_budget_bytes,
                "per-fragment PIL memory budget in bytes (0 = unlimited)");
  AddBudgetFlag(&flags, "max-level-candidates",
                &options.limits.max_level_candidates,
                "cap on any single fragment's candidate total (0 = "
                "unlimited)");
  AddBudgetFlag(&flags, "max-total-candidates",
                &options.limits.max_total_candidates,
                "cap on candidates accumulated across the corpus (0 = "
                "unlimited)");
  flags.AddBool("no-mmap", &no_mmap,
                "ingest FASTA through the buffered reader instead of the "
                "memory-mapped scanner (same bytes, same result)");
  flags.AddString("csv", &csv_path,
                  "also write the aggregated patterns as CSV here");
  flags.AddString("metrics-out", &exports.metrics_path,
                  "write run metrics (corpus.* + per-fragment mining "
                  "counters) as deterministic JSON here");
  flags.AddString("trace", &exports.trace_path,
                  "write the corpus trace (fragment_start/fragment_end "
                  "bracketing each fragment's mining events) as JSON here");
  flags.AddBool("trace-timings", &exports.trace_timings,
                "include wall-clock/worker fields in --trace output (not "
                "byte-stable across runs)");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm corpus", args));
  if (input.empty()) {
    return Status::InvalidArgument("--input is required\n" + flags.Usage());
  }
  if (fragment_length <= 0) {
    return Status::InvalidArgument("--fragment-length must be positive");
  }
  if (max_fragments < 0) {
    return Status::InvalidArgument("--max-fragments must be non-negative");
  }

  plan_options.fragment.fragment_length =
      static_cast<std::size_t>(fragment_length);
  plan_options.max_fragments = static_cast<std::size_t>(max_fragments);
  PGM_ASSIGN_OR_RETURN(CorpusPlan plan,
                       LoadCorpusInput(input, plan_options, !no_mmap));
  if (plan.fragments().empty()) {
    // The loud-diagnostic contract: an input that fragments to nothing is
    // a usage error (exit 2), never a silent zero-pattern success.
    return Status::InvalidArgument(plan.EmptyPlanDiagnostic(plan_options));
  }

  options.cancel = &GlobalCancelToken();
  options.observer = exports.Observer();

  PGM_ASSIGN_OR_RETURN(CorpusResult corpus, MineCorpus(plan, options));

  output->append(StrFormat(
      "corpus: %s; fragment_length=%lld keep_tail=%s; rho_s=%g%%; "
      "algorithm=%s\n",
      plan.Describe().c_str(), static_cast<long long>(fragment_length),
      plan_options.fragment.keep_tail ? "true" : "false",
      options.miner.min_support_ratio * 100.0, options.algorithm.c_str()));
  for (const SkippedRecord& skipped : plan.skipped_records()) {
    output->append(StrFormat(
        "warning: record '%s' contributed no fragments (%zu symbol(s))\n",
        skipped.record_id.c_str(), skipped.length));
  }
  if (plan.num_dropped_residues() > 0) {
    output->append(StrFormat(
        "note: %zu non-alphabet residue(s) dropped during encoding\n",
        plan.num_dropped_residues()));
  }
  output->append(StrFormat(
      "fragments: %zu planned, %zu mined, %zu completed, %zu skipped, "
      "%zu failed\n",
      corpus.fragments_planned, corpus.fragments_mined,
      corpus.fragments_completed, corpus.fragments_skipped,
      corpus.fragments_failed));
  output->append(StrFormat(
      "termination: %s; candidates=%llu; complete up to length %lld\n",
      TerminationReasonToString(corpus.termination),
      static_cast<unsigned long long>(corpus.total_candidates),
      static_cast<long long>(corpus.guaranteed_complete_up_to)));

  // Aggregate pattern table, longest first (support ratio as tiebreak) to
  // mirror FormatMiningReport; `fragments` counts the fragments in which
  // the pattern met the threshold — the Section 7 aggregation unit.
  std::vector<std::size_t> order(corpus.patterns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const FrequentPattern& pa = corpus.patterns[a];
    const FrequentPattern& pb = corpus.patterns[b];
    if (pa.pattern.length() != pb.pattern.length()) {
      return pa.pattern.length() > pb.pattern.length();
    }
    if (pa.support_ratio != pb.support_ratio) {
      return pa.support_ratio > pb.support_ratio;
    }
    return a < b;
  });
  output->append(StrFormat("%zu distinct frequent pattern(s) across the "
                           "corpus\n",
                           corpus.patterns.size()));
  TablePrinter table(
      {"pattern", "length", "fragments", "best support", "best ratio"});
  const std::size_t shown = std::min<std::size_t>(
      order.size(), static_cast<std::size_t>(std::max<std::int64_t>(0, top)));
  for (std::size_t i = 0; i < shown; ++i) {
    const FrequentPattern& pattern = corpus.patterns[order[i]];
    table.Row()
        .Add(pattern.pattern.ToShorthand())
        .Add(static_cast<std::uint64_t>(pattern.pattern.length()))
        .Add(corpus.pattern_fragment_counts[order[i]])
        .Add(pattern.support)
        .Add(pattern.support_ratio)
        .Done();
  }
  output->append(table.ToString());

  if (!csv_path.empty()) {
    const MiningResult flat = corpus.ToMiningResult();
    PGM_RETURN_IF_ERROR(SavePatternsCsv(flat, csv_path));
    output->append("wrote " + std::to_string(flat.patterns.size()) +
                   " patterns to " + csv_path + "\n");
  }
  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (corpus.termination == TerminationReason::kCancelled &&
      GlobalCancelToken().cancelled()) {
    output->append(
        "interrupted: partial corpus result is sound; unmined fragments "
        "were skipped\n");
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm em
// ---------------------------------------------------------------------------

Status RunEm(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  MinerConfig config = kCliMinerDefaults;
  FlagSet flags("pgm em: compute the e_m statistic (Theorem 2)");
  flags.AddString("input", &input, "input spec");
  flags.AddInt64("min-gap", &config.min_gap, "minimum gap N");
  flags.AddInt64("max-gap", &config.max_gap, "maximum gap M");
  flags.AddInt64("m", &config.em_order, "order of the statistic");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm em", args));
  if (input.empty()) {
    return Status::InvalidArgument("--input is required\n" + flags.Usage());
  }
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  const std::int64_t m = config.em_order;
  PGM_ASSIGN_OR_RETURN(EmResult em, ComputeEm(sequence, gap, m));
  long double wm = 1.0L;
  for (std::int64_t i = 0; i < m; ++i) {
    wm *= static_cast<long double>(gap.flexibility());
  }
  output->append(StrFormat(
      "L=%zu, gap %s, m=%lld: e_m = %llu, W^m = %.6g, W^m/e_m = %.4g\n",
      sequence.size(), gap.ToString().c_str(), static_cast<long long>(m),
      static_cast<unsigned long long>(em.em), static_cast<double>(wm),
      static_cast<double>(wm / static_cast<long double>(
                                   em.em == 0 ? 1 : em.em))));
  // Top-5 positions by K_r.
  std::vector<std::size_t> order(em.k_values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return em.k_values[a] > em.k_values[b];
  });
  output->append("highest-K_r positions:");
  for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
    output->append(StrFormat(" %zu (K=%llu)", order[i],
                             static_cast<unsigned long long>(
                                 em.k_values[order[i]])));
  }
  output->append("\n");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm scan (base-pair oscillation)
// ---------------------------------------------------------------------------

Status RunScan(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  std::string pairs = "AA,AT,GC";
  std::int64_t max_distance = 20;
  FlagSet flags("pgm scan: base-pair oscillation correlation spectra");
  flags.AddString("input", &input, "input spec");
  flags.AddString("pairs", &pairs, "comma-separated base pairs, e.g. AA,AT");
  flags.AddInt64("max-distance", &max_distance, "largest distance p");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm scan", args));
  if (input.empty()) {
    return Status::InvalidArgument("--input is required\n" + flags.Usage());
  }
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));

  for (const std::string& pair : Split(pairs, ',')) {
    if (pair.size() != 2) {
      return Status::InvalidArgument("pair must be two characters: '" + pair +
                                     "'");
    }
    PGM_ASSIGN_OR_RETURN(
        CorrelationSpectrum spectrum,
        CorrelationSpectrumFor(sequence, pair[0], pair[1], max_distance));
    output->append(StrFormat("corr_%c%c(p):\n", pair[0], pair[1]));
    double max_abs = 1e-12;
    for (double v : spectrum.values) max_abs = std::max(max_abs, std::abs(v));
    for (std::size_t i = 0; i < spectrum.values.size(); ++i) {
      const double v = spectrum.values[i];
      const int bar = static_cast<int>(std::abs(v) / max_abs * 32);
      output->append(StrFormat("  p=%2zu  %+10.6f  %s\n", i + 1, v,
                               std::string(static_cast<std::size_t>(bar),
                                           v < 0 ? '-' : '#')
                                   .c_str()));
    }
    std::vector<std::int64_t> peaks = FindPeaks(spectrum, 0.0);
    output->append("  peaks:");
    for (std::int64_t p : peaks) {
      output->append(StrFormat(" %lld", static_cast<long long>(p)));
    }
    output->append("\n");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm tandem
// ---------------------------------------------------------------------------

Status RunTandem(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  std::int64_t max_period = 6, min_copies = 3, top = 20, min_length = 12;
  FlagSet flags("pgm tandem: classical tandem-repeat scan");
  flags.AddString("input", &input, "input spec");
  flags.AddInt64("max-period", &max_period, "largest repeat period");
  flags.AddInt64("min-copies", &min_copies, "minimum complete copies");
  flags.AddInt64("min-length", &min_length, "minimum region length shown");
  flags.AddInt64("top", &top, "repeats shown (longest first)");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm tandem", args));
  if (input.empty()) {
    return Status::InvalidArgument("--input is required\n" + flags.Usage());
  }
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  PGM_ASSIGN_OR_RETURN(std::vector<TandemRepeat> repeats,
                       FindTandemRepeats(sequence, max_period, min_copies));
  std::vector<const TandemRepeat*> shown;
  for (const TandemRepeat& repeat : repeats) {
    if (repeat.length >= min_length) shown.push_back(&repeat);
  }
  std::sort(shown.begin(), shown.end(),
            [](const TandemRepeat* a, const TandemRepeat* b) {
              return a->length > b->length;
            });
  output->append(StrFormat("%zu tandem repeats (of %zu total) with length "
                           ">= %lld:\n",
                           shown.size(), repeats.size(),
                           static_cast<long long>(min_length)));
  TablePrinter table({"start", "period", "length", "copies", "unit"});
  for (std::size_t i = 0; i < shown.size() &&
                          i < static_cast<std::size_t>(std::max<std::int64_t>(0, top));
       ++i) {
    const TandemRepeat& repeat = *shown[i];
    table.Row()
        .Add(repeat.start)
        .Add(repeat.period)
        .Add(repeat.length)
        .Add(repeat.copies())
        .Add(sequence
                 .Subsequence(static_cast<std::size_t>(repeat.start),
                              static_cast<std::size_t>(repeat.period))
                 .ToString())
        .Done();
  }
  output->append(table.ToString());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm compare
// ---------------------------------------------------------------------------

Status RunCompare(const std::vector<std::string>& args, std::string* output) {
  std::int64_t examples = 3;
  bool use_protein = false;
  FlagSet flags(
      "pgm compare: compare two or more patterns-CSV files (as written by "
      "pgm mine --csv)");
  flags.AddBool("protein", &use_protein, "patterns use the protein alphabet");
  flags.AddInt64("examples", &examples, "unique-pattern examples shown");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm compare", args));
  const std::vector<std::string>& paths = flags.positional_args();
  if (paths.size() < 2) {
    return Status::InvalidArgument(
        "pgm compare needs at least two patterns-CSV files\n" + flags.Usage());
  }
  const Alphabet& alphabet =
      use_protein ? Alphabet::Protein() : Alphabet::Dna();
  std::vector<NamedPatternSet> sets;
  for (const std::string& path : paths) {
    NamedPatternSet set;
    set.name = path;
    PGM_ASSIGN_OR_RETURN(set.patterns, LoadPatternsCsv(path, alphabet));
    sets.push_back(std::move(set));
  }
  PGM_ASSIGN_OR_RETURN(std::vector<SetComparison> comparisons,
                       ComparePatternSets(sets));
  TablePrinter table({"file", "patterns", "common to all", "unique",
                      "example unique"});
  for (const SetComparison& comparison : comparisons) {
    std::string example = "-";
    if (!comparison.unique.empty()) {
      example.clear();
      for (std::int64_t i = 0;
           i < examples &&
           i < static_cast<std::int64_t>(comparison.unique.size());
           ++i) {
        if (i > 0) example += " ";
        example += comparison.unique[i].ToShorthand();
      }
    }
    table.Row()
        .Add(comparison.name)
        .Add(static_cast<std::uint64_t>(comparison.total))
        .Add(static_cast<std::uint64_t>(comparison.common.size()))
        .Add(static_cast<std::uint64_t>(comparison.unique.size()))
        .Add(example)
        .Done();
  }
  output->append(table.ToString());
  if (sets.size() == 2) {
    output->append(StrFormat(
        "Jaccard similarity: %.4f\n",
        PatternSetJaccard(sets[0].patterns, sets[1].patterns)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm generate
// ---------------------------------------------------------------------------

Status RunGenerate(const std::vector<std::string>& args, std::string* output) {
  std::string preset = "bacteria";
  std::int64_t length = 100'000, seed = 1;
  std::string out_path;
  FlagSet flags("pgm generate: write a synthetic genome preset as FASTA");
  flags.AddString("preset", &preset,
                  "ax829174 | bacteria | eukaryote | worm");
  flags.AddInt64("length", &length, "genome length (ignored for ax829174)");
  flags.AddInt64("seed", &seed, "generation seed");
  flags.AddString("output", &out_path, "output FASTA path (required)");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm generate", args));
  if (out_path.empty()) {
    return Status::InvalidArgument("--output is required\n" + flags.Usage());
  }
  PGM_ASSIGN_OR_RETURN(
      Sequence sequence,
      LoadInput(StrFormat("preset:%s:%lld:%lld", preset.c_str(),
                          static_cast<long long>(length),
                          static_cast<long long>(seed))));
  FastaRecord record;
  record.id = preset;
  record.description = StrFormat("synthetic %s genome, L=%zu, seed=%lld",
                                 preset.c_str(), sequence.size(),
                                 static_cast<long long>(seed));
  record.residues = sequence.ToString();
  PGM_RETURN_IF_ERROR(WriteFastaFile(out_path, {record}));
  output->append(StrFormat("wrote %zu bp to %s\n", sequence.size(),
                           out_path.c_str()));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm serve
// ---------------------------------------------------------------------------

/// One line per job response: machine-greppable outcome columns. A failed
/// job's last column, `message=`, runs to the end of the line.
void AppendResponseLine(const JobResponse& response, std::string* output) {
  output->append(StrFormat("job %lld %s %s: ",
                           static_cast<long long>(response.id),
                           response.input.c_str(),
                           response.algorithm.c_str()));
  if (!response.status.ok()) {
    output->append(StatusCodeToString(response.status.code()));
    if (response.status.code() == StatusCode::kUnavailable) {
      output->append(StrFormat(" retry_after_ms=%lld",
                               static_cast<long long>(response.retry_after_ms)));
    }
  } else {
    output->append(StrFormat(
        "%s patterns=%zu cache_hit=%d",
        TerminationReasonToString(response.result.termination),
        response.result.patterns.size(), response.cache_hit ? 1 : 0));
    if (response.corpus_fragments > 0) {
      output->append(
          StrFormat(" fragments=%zu", response.corpus_fragments));
    }
  }
  if (response.load_attempts > 1) {
    output->append(StrFormat(" load_attempts=%d", response.load_attempts));
  }
  if (!response.status.ok()) {
    output->append(" message=" + response.status.message());
  }
  output->append("\n");
}

Status RunServe(const std::vector<std::string>& args, std::string* output,
                int* exit_override) {
  std::string jobs_path;
  std::int64_t queue_capacity = 64;
  std::int64_t workers = 1;
  std::int64_t cache_bytes = 0;
  std::int64_t retry_attempts = 2;
  std::int64_t retry_base_ms = 1;
  ServiceConfig service_config;
  RunExports exports;

  FlagSet flags("pgm serve: run a batch of mining jobs as a bounded service");
  flags.AddString("jobs", &jobs_path,
                  "job file: one '<input-spec> key=value ...' per line "
                  "('#' starts a comment)");
  flags.AddInt64("queue-capacity", &queue_capacity,
                 "admission queue bound; jobs past it are shed (exit-visible "
                 "as Unavailable responses)");
  flags.AddInt64("workers", &workers,
                 "service worker threads (0 = one per hardware thread)");
  flags.AddInt64("max-deadline-ms", &service_config.max_deadline_ms,
                 "server ceiling on any job's deadline (-1 = none)");
  flags.AddInt64("cache-bytes", &cache_bytes,
                 "result-cache budget in bytes (0 = cache off)");
  flags.AddInt64("retry-attempts", &retry_attempts,
                 "input-load attempts per job (transient I/O faults only)");
  flags.AddInt64("retry-base-ms", &retry_base_ms,
                 "first retry backoff; doubles per attempt");
  flags.AddInt64("retry-after-ms", &service_config.retry_after_ms,
                 "backoff hint attached to shed responses");
  flags.AddString("metrics-out", &exports.metrics_path,
                  "write service+mining metrics as deterministic JSON here");
  flags.AddString("trace", &exports.trace_path,
                  "write the job/mining trace as JSON here");
  PGM_RETURN_IF_ERROR(flags.Parse("pgm serve", args));
  if (jobs_path.empty()) {
    return Status::InvalidArgument("--jobs is required\n" + flags.Usage());
  }
  if (queue_capacity <= 0 || workers < 0 || cache_bytes < 0 ||
      retry_attempts < 1 || retry_base_ms < 0 ||
      service_config.retry_after_ms < 0) {
    return Status::InvalidArgument(
        "serve knobs must be positive (queue-capacity, retry-attempts) or "
        "non-negative (workers, cache-bytes, retry-base-ms, retry-after-ms)");
  }

  PGM_ASSIGN_OR_RETURN(std::string jobs_text, ReadFileToString(jobs_path));
  std::vector<MiningJob> jobs;
  std::size_t line_number = 0;
  for (const std::string& raw_line : Split(jobs_text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    MiningJob job;
    PGM_RETURN_IF_ERROR(
        ParseJobLine(std::string(line), line_number, &job));
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    return Status::InvalidArgument("no jobs in " + jobs_path);
  }

  service_config.queue_capacity = static_cast<std::size_t>(queue_capacity);
  service_config.workers = static_cast<std::size_t>(workers);
  service_config.cache_capacity_bytes = static_cast<std::uint64_t>(cache_bytes);
  service_config.io_retry.max_attempts = static_cast<int>(retry_attempts);
  service_config.io_retry.base_delay_ms = retry_base_ms;
  service_config.observer = exports.Observer();
  service_config.loader = LoadInput;
  service_config.corpus_loader = [](const std::string& spec,
                                    const CorpusPlanOptions& options) {
    return LoadCorpusInput(spec, options);
  };
  MiningService service(std::move(service_config));

  // Submit everything before starting the drain: shedding then depends only
  // on queue capacity and submission order, so batch runs are reproducible.
  for (MiningJob& job : jobs) {
    (void)service.Submit(std::move(job));  // shed jobs recorded as responses
  }
  service.Start();

  // Signal watcher: SIGINT/SIGTERM latch the global token; the watcher
  // turns that into a graceful drain (stop admitting, cancel in-flight,
  // flush partials).
  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&service, &watcher_stop] {
    while (!watcher_stop.load(std::memory_order_acquire)) {
      if (GlobalCancelToken().cancelled()) {
        service.BeginShutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::vector<JobResponse> responses = service.Join();
  watcher_stop.store(true, std::memory_order_release);
  watcher.join();

  std::size_t completed = 0, partial = 0, shed = 0, failed = 0, hits = 0;
  for (const JobResponse& response : responses) {
    AppendResponseLine(response, output);
    if (response.status.ok()) {
      if (response.result.complete()) {
        ++completed;
      } else {
        ++partial;
      }
      if (response.cache_hit) ++hits;
    } else if (response.status.code() == StatusCode::kUnavailable) {
      ++shed;
    } else {
      ++failed;
    }
  }
  output->append(StrFormat(
      "served %zu jobs: %zu completed, %zu partial, %zu shed, %zu failed, "
      "%zu cache hits\n",
      responses.size(), completed, partial, shed, failed, hits));

  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (GlobalCancelToken().cancelled()) {
    output->append("interrupted: drained gracefully; partial results above "
                   "are sound\n");
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

}  // namespace

std::string RootUsage() {
  return
      "pgm — periodic pattern mining with gap requirements (SIGMOD 2005)\n"
      "\n"
      "Usage: pgm <command> [flags]   (pgm <command> --help for details)\n"
      "\n"
      "Commands:\n"
      "  mine      find frequent periodic patterns (MPP/MPPm/enum/adaptive)\n"
      "  corpus    mine a multi-record corpus fragment-by-fragment (paper "
      "Section 7)\n"
      "  em        compute the e_m pruning statistic\n"
      "  scan      base-pair oscillation correlation spectra\n"
      "  tandem    classical tandem-repeat scan\n"
      "  compare   compare two or more patterns-CSV files\n"
      "  generate  write a synthetic genome preset as FASTA\n"
      "  serve     run a job batch as a bounded, fault-tolerant service\n"
      "\n"
      "Input specs (--input):\n"
      "  fasta:<path>[#<record-id>]     FASTA file\n"
      "  text:<path>                    raw characters from a file\n"
      "  raw:<characters>               characters inline\n"
      "  preset:<name>[:<len>[:<seed>]] synthetic genome (ax829174,\n"
      "                                 bacteria, eukaryote, worm)\n"
      "  append @protein for the amino-acid alphabet\n";
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kIoError:
      return 3;
    case StatusCode::kCorruption:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    case StatusCode::kNotFound:
      return 6;
    case StatusCode::kUnavailable:
      return 7;
    default:
      return 1;
  }
}

int Run(int argc, char** argv, std::string* output, std::string* error) {
  if (argc < 2) {
    error->append(RootUsage());
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  if (command == "--help" || command == "-h" || command == "help") {
    output->append(RootUsage());
    return 0;
  }
  Status status = Status::OK();
  // -1 = no override; RunMine/RunServe set kExitCancelled after a graceful
  // signal-driven wind-down (the Status stays OK — the partial result is
  // sound and already rendered).
  int exit_override = -1;
  if (command == "mine") {
    status = RunMine(rest, output, &exit_override);
  } else if (command == "corpus") {
    status = RunCorpus(rest, output, &exit_override);
  } else if (command == "serve") {
    status = RunServe(rest, output, &exit_override);
  } else if (command == "em") {
    status = RunEm(rest, output);
  } else if (command == "scan") {
    status = RunScan(rest, output);
  } else if (command == "tandem") {
    status = RunTandem(rest, output);
  } else if (command == "compare") {
    status = RunCompare(rest, output);
  } else if (command == "generate") {
    status = RunGenerate(rest, output);
  } else {
    error->append("unknown command '" + command + "'\n\n" + RootUsage());
    return 2;
  }
  if (!status.ok()) {
    if (status.code() == StatusCode::kNotFound &&
        status.message().rfind("pgm ", 0) == 0) {
      // --help inside a sub-command: message is the usage text.
      output->append(status.message());
      return 0;
    }
    error->append(status.ToString());
    error->append("\n");
    return ExitCodeForStatus(status);
  }
  return exit_override >= 0 ? exit_override : 0;
}

int Run(int argc, char** argv, std::string* output) {
  return Run(argc, argv, output, output);
}

int RunFromString(const std::string& command_line, std::string* output,
                  std::string* error) {
  std::vector<std::string> tokens;
  for (const std::string& token : Split(command_line, ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  std::vector<char*> argv;
  for (std::string& token : tokens) argv.push_back(token.data());
  return Run(static_cast<int>(argv.size()), argv.data(), output,
             error == nullptr ? output : error);
}

}  // namespace pgm::cli
