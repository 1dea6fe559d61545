#ifndef PGM_CORE_GUARD_H_
#define PGM_CORE_GUARD_H_

#include <atomic>
#include <cstdint>

#include "util/limits.h"
#include "util/stopwatch.h"

namespace pgm {

/// Cooperative cancellation flag. The owner (e.g. a request handler) keeps
/// the token alive for the duration of the mining call and may flip it from
/// another thread; the miners poll it at level boundaries and every
/// MiningGuard::kTickPeriod PIL extensions.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Re-arms a latched token. Only safe between mining calls (no run may be
  /// polling the token); exists so a long-lived owner — the CLI's
  /// process-wide signal token, tests — can reuse one token across runs.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Tracks a mining run against its ResourceLimits and an optional
/// CancelToken. All Charge*/Tick/CheckNow methods return true while mining
/// may continue; the first violation latches a sticky TerminationReason and
/// every later call returns false, so callers can unwind level by level.
///
/// The guard only observes — it never changes which candidates are generated
/// or how supports are counted — so a run that finishes without tripping any
/// limit is bit-identical to an ungoverned run.
///
/// Thread safety: every method may be called concurrently from the parallel
/// level engine's workers. The tick counter, memory ledger, and candidate
/// totals are atomics; the termination reason latches via compare-exchange,
/// so exactly one violation wins and all workers observe the stop. The
/// partial-but-sound contract survives parallelism: a trip seen by one
/// worker is seen by all at their next Tick/Charge, and whatever candidates
/// were fully evaluated before the stop carry exact supports.
///
/// Under the thread-safety capability model (util/thread_annotations.h) the
/// guard is deliberately capability-free: it owns no mutex, every member is
/// an atomic (asserted lock-free below), and cross-member consistency is
/// never assumed — each charge checks its own budget against its own
/// counter, and the only multi-member protocol (trip exactly once) is the
/// CAS latch in Stop(). There is therefore nothing for PGM_GUARDED_BY to
/// name; the enforced contract is instead the [[nodiscard]] on every
/// charge, which makes ignoring a trip a compile error.
class MiningGuard {
 public:
  /// PIL extensions between two wall-clock/cancellation polls. Power of two
  /// so the fast path of Tick() is a mask, not a division.
  static constexpr std::uint64_t kTickPeriod = 1 << 16;

  /// `cancel` may be null; when non-null it must outlive the guard.
  explicit MiningGuard(const ResourceLimits& limits,
                       const CancelToken* cancel = nullptr);

  /// Full check of deadline and cancellation. Used at level boundaries.
  [[nodiscard]] bool CheckNow();

  /// Per-PIL-extension tick: an atomic counter bump on the fast path, a
  /// full CheckNow() every kTickPeriod calls (per process, not per worker —
  /// the counter is shared, so the polling cadence is independent of the
  /// thread count).
  [[nodiscard]] bool Tick() {
    if (stopped()) return false;
    const std::uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
    if (((tick + 1) & (kTickPeriod - 1)) != 0) return true;
    return CheckNow();
  }

  /// Batched Tick(): charges `n` extensions in one atomic add, polling
  /// CheckNow() when the batch crosses a kTickPeriod boundary (the same
  /// cadence as n single Ticks). On a trip — latched earlier, detected by
  /// the poll, or raced in by another thread — the whole batch is refunded
  /// and false is returned, so the tick total counts only batches whose
  /// work was actually delivered. This is what keeps the executor's
  /// "ticks == sink-delivered candidates" invariant exact: a piece charges
  /// its candidates up front and hands them back when it is abandoned.
  [[nodiscard]] bool TickN(std::uint64_t n) {
    if (n == 0) return !stopped();
    if (stopped()) return false;
    const std::uint64_t before = ticks_.fetch_add(n, std::memory_order_relaxed);
    const bool poll = ((before + n) / kTickPeriod) != (before / kTickPeriod);
    if ((poll && !CheckNow()) || stopped()) {
      ticks_.fetch_sub(n, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Extensions charged so far (Tick calls plus net TickN batches). With
  /// the executor's batched protocol this equals the number of candidates
  /// whose joins were delivered to the sink.
  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Accounts `bytes` of live PIL memory against the budget.
  [[nodiscard]] bool ChargeMemory(std::uint64_t bytes);
  /// Returns memory accounted by a matching ChargeMemory (freed PILs).
  void ReleaseMemory(std::uint64_t bytes);
  /// Latches kMemoryBudget without charging: the PIL store could not obtain
  /// the memory at all (its reservation is exhausted, or the kernel refused
  /// it), so the run unwinds exactly as on a budget trip.
  void StopForMemory() { Stop(TerminationReason::kMemoryBudget); }
  /// The PIL memory budget in bytes (0 = unlimited).
  std::uint64_t memory_budget_bytes() const {
    return limits_.pil_memory_budget_bytes;
  }

  /// Accounts one level's candidate set against the per-level and total
  /// candidate caps.
  [[nodiscard]] bool ChargeLevelCandidates(std::uint64_t level_candidates);

  bool stopped() const {
    return reason() != TerminationReason::kCompleted;
  }
  TerminationReason reason() const {
    return reason_.load(std::memory_order_acquire);
  }

  std::uint64_t memory_in_use_bytes() const {
    return memory_in_use_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t memory_peak_bytes() const {
    return memory_peak_bytes_.load(std::memory_order_relaxed);
  }
  double elapsed_seconds() const { return watch_.ElapsedSeconds(); }

 private:
  /// Latches the first violation: later calls (from any thread) lose the
  /// compare-exchange and keep the original reason.
  void Stop(TerminationReason reason) {
    TerminationReason expected = TerminationReason::kCompleted;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  }

  // The capability-free design above only holds while these stay lock-free;
  // a platform where they silently degrade to mutex-backed atomics would
  // reintroduce the locking the annotations claim is absent.
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "MiningGuard's ledger must be lock-free atomics");
  static_assert(std::atomic<bool>::is_always_lock_free,
                "CancelToken's flag must be a lock-free atomic");

  ResourceLimits limits_;
  const CancelToken* cancel_;
  Stopwatch watch_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> memory_in_use_bytes_{0};
  std::atomic<std::uint64_t> memory_peak_bytes_{0};
  std::atomic<std::uint64_t> total_candidates_{0};
  std::atomic<TerminationReason> reason_{TerminationReason::kCompleted};
};

}  // namespace pgm

#endif  // PGM_CORE_GUARD_H_
