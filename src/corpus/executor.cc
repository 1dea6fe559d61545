#include "corpus/executor.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <utility>

#include "util/metrics.h"
#include "util/saturating.h"
#include "util/thread_pool.h"

namespace pgm {

namespace {

/// Bytes the executor keeps alive for one fragment between mining and
/// aggregation: the window's symbols plus the mined result's footprint.
std::uint64_t WindowBytes(const Sequence& sequence) {
  return sizeof(Sequence) +
         static_cast<std::uint64_t>(sequence.size()) * sizeof(Symbol);
}

std::uint64_t ResultBytes(const MiningResult& result) {
  std::uint64_t bytes = sizeof(MiningResult);
  for (const FrequentPattern& p : result.patterns) {
    bytes += sizeof(FrequentPattern) +
             static_cast<std::uint64_t>(p.pattern.length()) * sizeof(Symbol);
  }
  bytes += static_cast<std::uint64_t>(result.level_stats.size()) *
           sizeof(LevelStats);
  return bytes;
}

/// One fragment's in-flight state. Workers write disjoint slots (claimed
/// off an atomic cursor), so no lock is needed; the aggregation pass reads
/// them serially after the fork-join barrier.
struct Slot {
  FragmentResult out;
  std::uint64_t charged_bytes = 0;
  // Per-fragment observer sinks (allocated only when the caller attached an
  // observer): interposing them is what makes the merged export
  // deterministic — each fragment records privately, and the aggregator
  // replays the streams in ordinal order.
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<MiningTrace> trace;
  MiningObserver observer;
};

const char* FragmentReason(const FragmentResult& fragment) {
  if (!fragment.mined) return "skipped";
  if (!fragment.status.ok()) return "error";
  return TerminationReasonToString(fragment.result.termination);
}

}  // namespace

MiningResult CorpusResult::ToMiningResult() const {
  MiningResult result;
  result.patterns = patterns;
  result.termination = termination;
  result.total_candidates = total_candidates;
  result.pil_memory_peak_bytes = pil_memory_peak_bytes;
  result.longest_frequent_length = longest_frequent_length;
  result.guaranteed_complete_up_to = guaranteed_complete_up_to;
  return result;
}

StatusOr<CorpusResult> MineCorpus(const CorpusPlan& plan,
                                  const CorpusOptions& options) {
  if (plan.fragments().empty()) {
    return Status::InvalidArgument(
        "corpus plan contains no fragments (" + plan.Describe() +
        "); see CorpusPlan::EmptyPlanDiagnostic");
  }
  if (options.corpus_threads < 0) {
    return Status::InvalidArgument("corpus_threads must be >= 0");
  }
  if (options.algorithm != "mpp" && options.algorithm != "mppm" &&
      options.algorithm != "enum" && options.algorithm != "adaptive") {
    return Status::InvalidArgument("unknown algorithm: " + options.algorithm);
  }

  const std::vector<CorpusFragment>& fragments = plan.fragments();
  const bool observing =
      options.observer != nullptr && (options.observer->metrics != nullptr ||
                                      options.observer->trace != nullptr);

  CorpusLedger own_ledger;
  CorpusLedger& ledger =
      options.ledger != nullptr ? *options.ledger : own_ledger;

  // The corpus guard: deadline/cancellation polled at every fragment
  // pickup, per-fragment candidate totals charged against the corpus-level
  // caps as fragments finish (max_level_candidates caps one fragment,
  // max_total_candidates the accumulated corpus).
  ResourceLimits corpus_limits = options.limits;
  corpus_limits.pil_memory_budget_bytes = 0;  // per-fragment (miner.limits)
  MiningGuard corpus_guard(corpus_limits, options.cancel);

  std::vector<Slot> slots(fragments.size());
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    const CorpusFragment& fragment = fragments[i];
    FragmentResult& out = slots[i].out;
    out.ordinal = fragment.ordinal;
    out.record_index = fragment.record_index;
    out.record_id = fragment.record_id;
    out.fragment_index = fragment.fragment_index;
    out.start = fragment.start;
    out.length = fragment.sequence.size();
    if (observing) {
      Slot& slot = slots[i];
      if (options.observer->metrics != nullptr) {
        slot.metrics = std::make_unique<MetricsRegistry>();
        slot.observer.metrics = slot.metrics.get();
      }
      if (options.observer->trace != nullptr) {
        slot.trace = std::make_unique<MiningTrace>();
        slot.observer.trace = slot.trace.get();
      }
    }
  }

  // Fan out at whole-fragment granularity: workers claim ordinals off a
  // shared cursor and mine one fragment per claim. One miner per fragment
  // sidesteps the per-level pipeline barrier entirely — fragments are
  // independent runs, so this is the coarse-grain parallelism the level
  // executor cannot reach on small inputs.
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.corpus_threads));
  pool.Execute([&](std::size_t) {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= fragments.size()) break;
      Slot& slot = slots[i];
      // A latched corpus budget/cancel skips everything not yet started;
      // already-running fragments wind down through their own guards.
      if (!corpus_guard.CheckNow()) continue;

      const Sequence& window = fragments[i].sequence;
      slot.charged_bytes = WindowBytes(window);
      ledger.Charge(slot.charged_bytes);

      MinerConfig config = options.miner;
      config.observer = observing ? &slot.observer : nullptr;
      config.cancel = options.cancel;
      if (options.limits.deadline_ms > 0) {
        // The remaining corpus deadline clamps each fragment's own, so one
        // fragment cannot overshoot the corpus budget on its own.
        const std::int64_t elapsed_ms =
            static_cast<std::int64_t>(corpus_guard.elapsed_seconds() * 1000.0);
        std::int64_t remaining = options.limits.deadline_ms - elapsed_ms;
        if (remaining < 1) remaining = 1;
        if (config.limits.deadline_ms <= 0 ||
            remaining < config.limits.deadline_ms) {
          config.limits.deadline_ms = remaining;
        }
      }

      StatusOr<MiningResult> mined =
          MineWithAlgorithm(options.algorithm, window, config);
      slot.out.mined = true;
      if (mined.ok()) {
        slot.out.result = *std::move(mined);
        const std::uint64_t result_bytes = ResultBytes(slot.out.result);
        ledger.Charge(result_bytes);
        slot.charged_bytes = SatAdd(slot.charged_bytes, result_bytes);
        if (!corpus_guard.ChargeLevelCandidates(
                slot.out.result.total_candidates)) {
          // A corpus candidate cap latched: unstarted fragments will be
          // skipped at pickup. This fragment's own result stays — it is
          // already complete and sound.
        }
      } else {
        slot.out.status = mined.status();
      }
    }
  });

  // Deterministic aggregation: fold the slots in plan-ordinal order,
  // whatever order the workers finished in. Everything derived below —
  // pattern union, counters, merged observer streams — depends only on the
  // per-fragment results and this fixed order, so untripped runs are
  // byte-identical at every corpus_threads setting.
  CorpusResult corpus;
  corpus.fragments_planned = fragments.size();
  corpus.fragments.reserve(fragments.size());

  struct UnionEntry {
    FrequentPattern pattern;
    std::uint64_t fragment_count = 0;
  };
  std::map<std::vector<Symbol>, UnionEntry> pattern_union;

  MetricsRegistry* user_metrics =
      observing ? options.observer->metrics : nullptr;
  MiningTrace* user_trace = observing ? options.observer->trace : nullptr;

  for (Slot& slot : slots) {
    FragmentResult& fragment = slot.out;
    if (user_trace != nullptr) {
      TraceEvent start;
      start.kind = TraceEventKind::kFragmentStart;
      start.fragment = static_cast<std::int64_t>(fragment.ordinal);
      start.detail = fragment.record_id;
      start.offset = fragment.start;
      start.candidates = fragment.length;
      user_trace->Append(std::move(start));
      if (slot.trace != nullptr) {
        for (TraceEvent& event : slot.trace->events()) {
          user_trace->Append(std::move(event));
        }
      }
    }
    if (user_metrics != nullptr && slot.metrics != nullptr) {
      user_metrics->MergeFrom(*slot.metrics);
    }

    const bool ok = fragment.mined && fragment.status.ok();
    if (fragment.mined) {
      ++corpus.fragments_mined;
      if (!fragment.status.ok()) {
        ++corpus.fragments_failed;
      } else if (fragment.result.complete()) {
        ++corpus.fragments_completed;
      }
    } else {
      ++corpus.fragments_skipped;
    }
    if (ok) {
      const MiningResult& result = fragment.result;
      corpus.total_candidates =
          SatAdd(corpus.total_candidates, result.total_candidates);
      corpus.pil_memory_peak_bytes =
          std::max(corpus.pil_memory_peak_bytes, result.pil_memory_peak_bytes);
      corpus.longest_frequent_length = std::max(
          corpus.longest_frequent_length, result.longest_frequent_length);
      for (const FrequentPattern& found : result.patterns) {
        UnionEntry& entry = pattern_union[found.pattern.symbols()];
        if (entry.fragment_count == 0 || found.support > entry.pattern.support) {
          // Keep the best *per-fragment* support (§7 aggregation: support
          // is never summed across fragment boundaries); ties keep the
          // earliest fragment's entry.
          entry.pattern = found;
        }
        ++entry.fragment_count;
      }
    }

    if (user_trace != nullptr) {
      TraceEvent end;
      end.kind = TraceEventKind::kFragmentEnd;
      end.fragment = static_cast<std::int64_t>(fragment.ordinal);
      end.detail = FragmentReason(fragment);
      end.patterns = ok ? fragment.result.patterns.size() : 0;
      user_trace->Append(std::move(end));
    }

    ledger.Release(slot.charged_bytes);
    slot.charged_bytes = 0;
    corpus.fragments.push_back(std::move(fragment));
  }

  // The union map is keyed by symbols; re-sort to the MiningResult contract
  // (length, then symbols).
  corpus.patterns.reserve(pattern_union.size());
  corpus.pattern_fragment_counts.reserve(pattern_union.size());
  std::vector<const UnionEntry*> entries;
  entries.reserve(pattern_union.size());
  for (const auto& [symbols, entry] : pattern_union) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const UnionEntry* a, const UnionEntry* b) {
              if (a->pattern.pattern.length() != b->pattern.pattern.length()) {
                return a->pattern.pattern.length() < b->pattern.pattern.length();
              }
              return a->pattern.pattern.symbols() < b->pattern.pattern.symbols();
            });
  for (const UnionEntry* entry : entries) {
    corpus.patterns.push_back(entry->pattern);
    corpus.pattern_fragment_counts.push_back(entry->fragment_count);
  }

  // Termination: a corpus-level trip wins; otherwise the first fragment cut
  // short by its own budget names the reason.
  if (corpus_guard.stopped()) {
    corpus.termination = corpus_guard.reason();
  } else {
    for (const FragmentResult& fragment : corpus.fragments) {
      if (fragment.mined && fragment.status.ok() &&
          !fragment.result.complete()) {
        corpus.termination = fragment.result.termination;
        break;
      }
    }
  }

  if (corpus.fragments_skipped == 0 && corpus.fragments_failed == 0 &&
      corpus.fragments_mined == corpus.fragments_planned) {
    corpus.guaranteed_complete_up_to = INT64_MAX;
    for (const FragmentResult& fragment : corpus.fragments) {
      corpus.guaranteed_complete_up_to =
          std::min(corpus.guaranteed_complete_up_to,
                   fragment.result.guaranteed_complete_up_to);
    }
  }

  corpus.ledger_peak_bytes = ledger.peak_bytes();

  // Deterministic corpus.* metrics (the ledger peak is concurrency-shaped,
  // so it stays out of the export and rides on the result instead).
  if (user_metrics != nullptr) {
    std::uint64_t patterns_total = 0;
    for (const FragmentResult& fragment : corpus.fragments) {
      if (fragment.mined && fragment.status.ok()) {
        patterns_total = SatAdd(
            patterns_total,
            static_cast<std::uint64_t>(fragment.result.patterns.size()));
      }
    }
    user_metrics->GetCounter("corpus.records")->Add(plan.num_records());
    user_metrics->GetCounter("corpus.records.skipped")
        ->Add(plan.skipped_records().size());
    user_metrics->GetCounter("corpus.residues.dropped")
        ->Add(plan.num_dropped_residues());
    user_metrics->GetCounter("corpus.fragments.planned")
        ->Add(corpus.fragments_planned);
    user_metrics->GetCounter("corpus.fragments.mined")
        ->Add(corpus.fragments_mined);
    user_metrics->GetCounter("corpus.fragments.completed")
        ->Add(corpus.fragments_completed);
    user_metrics->GetCounter("corpus.fragments.failed")
        ->Add(corpus.fragments_failed);
    user_metrics->GetCounter("corpus.fragments.skipped")
        ->Add(corpus.fragments_skipped);
    user_metrics->GetCounter("corpus.patterns.total")->Add(patterns_total);
    user_metrics->GetCounter("corpus.patterns.unique")
        ->Add(corpus.patterns.size());
    user_metrics->GetCounter("corpus.candidates.total")
        ->Add(corpus.total_candidates);
  }

  return corpus;
}

}  // namespace pgm
