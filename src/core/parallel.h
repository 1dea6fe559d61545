#ifndef PGM_CORE_PARALLEL_H_
#define PGM_CORE_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/candidate_index.h"
#include "core/gap.h"
#include "core/guard.h"
#include "core/kernel.h"
#include "core/pil_arena.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pgm {
namespace internal {

class ObserverContext;

/// One joined candidate, handed to the consumer in candidate order. `span`
/// is scratch in the output arena (above its watermark): the consumer
/// Promote()s it to retain the candidate, or simply returns to drop it —
/// scratch is reclaimed wholesale after the block, so dropping costs
/// nothing and there is no per-candidate charge to hand back.
struct JoinedCandidate {
  /// Index into the join's left entry table.
  std::uint32_t left = 0;
  /// Index into the join's right entry table.
  std::uint32_t right = 0;
  /// The candidate's PIL rows in the output arena (scratch).
  PilSpan span;
  /// sup of the candidate, computed inside the join kernel.
  SupportInfo support;
};

/// Serial, in-candidate-order consumer of joined candidates. May call
/// Promote on the output arena (and nothing else on it).
using JoinSink = std::function<Status(const JoinedCandidate&)>;

/// Data-parallel execution of one level's join plan — a pipeline, not a
/// barrier.
///
/// The plan is pre-sliced (serially, from the plan alone) into "pieces":
/// slices of one task's rights range sized by output rows (left-PIL length
/// × candidates, targeting kPieceRowsTarget), each one call of the
/// prefix-group kernel (core/pil_arena.h). Pieces are grouped in plan order
/// into "blocks" sized by the same row measure (kBlockRowsTarget), so a
/// skewed prefix group costs proportionally many blocks instead of
/// straggling inside one. Slicing depends only on the plan, never on the
/// schedule or the thread count.
///
/// Execution runs the whole level inside ONE ThreadPool::Execute call.
/// Worker 0 — the caller thread — is the driver: it publishes blocks into a
/// bounded ring of reserved scratch (assigning every piece a disjoint
/// output-arena slice), merges completed pieces through the sink strictly
/// in piece order, and fills pieces itself whenever the merge head is
/// waiting on someone else's piece. The other workers loop claiming pieces
/// off a shared cursor (claim order = plan order) and filling their
/// pre-assigned slices. Publication is the release-store of the claimable
/// piece limit; completion is a per-piece state flag the driver
/// acquire-loads before reading the piece's rows — so the merge overlaps
/// in-flight joins instead of waiting for a level-wide barrier.
///
/// Ring bound / arena protocol: the driver reserves a scratch window of a
/// fixed row count (kWindowRowsTarget plus one block, or one block plus
/// the largest piece when that is more) ahead of the watermark and
/// publishes whole blocks only while they fit; when the window is
/// exhausted and every published piece has merged, it truncates the dead
/// scratch and recycles the window. A completed level tops the reservation
/// up to min(level rows, retained rows + window), so the arena's
/// high-water mark depends on the candidate set, not on the plan order
/// (which relabeling the alphabet permutes). The arena's base never moves
/// (its reservation is fixed), so workers address every slice from one
/// pointer taken at entry; recycling waits for an empty pipeline because
/// truncation hands dead scratch rows back for reuse and the window
/// metadata is resized then, not because the rows could move. Promote()
/// compacts merged rows onto the watermark, which never overtakes an
/// unmerged piece's slice because retained rows never exceed the scratch
/// they came from.
///
/// Ordering argument (the byte-identical `--threads` contract): the sink
/// sees candidates exactly in plan order regardless of which worker filled
/// them, kernel arithmetic is schedule-independent, and scratch offsets
/// never reach the output (Promote assigns final spans in merge order). An
/// uninterrupted run is therefore byte-identical at every thread count.
///
/// Guard interaction: a worker charges a claimed piece's candidates with
/// one TickN(count) before filling; a refused batch (trip) abandons the
/// piece and refunds the ticks, so the guard's tick total equals the
/// candidates actually delivered to the sink. After a trip the driver stops
/// publishing, drains the published window (filled pieces still reach the
/// sink — the work was paid for), and reports *interrupted. A Reserve()
/// that trips the memory budget latches at a window boundary, where the
/// pipeline is empty by construction — so memory-budget truncation points
/// are deterministic and the delivered prefix is byte-identical at every
/// thread count; tick-based trips keep the documented latitude (the
/// delivered set may differ between thread counts, never its soundness).
///
/// Thread-safety shape: the executor's mutex/condvars exist only to park
/// idle threads (workers waiting for publication, the driver waiting for
/// the merge head's piece); every data handoff is lock-free — the claim
/// cursor, the publication limit (release/acquire), the per-piece state
/// flags (release/acquire), and disjoint pre-assigned arena slices. The
/// sink and all arena mutation run on the driver (= caller) thread only;
/// the `arena-scratch` lint rule plus PilArena's runtime asserts enforce
/// the scratch bracket, and the TSan `concurrency` suite checks the
/// handoff.
class ParallelLevelExecutor {
 public:
  /// `threads` follows MinerConfig::threads: 1 = serial (no pool), 0 = one
  /// worker per hardware thread, T > 1 = exactly T workers.
  explicit ParallelLevelExecutor(std::int64_t threads);
  ~ParallelLevelExecutor();

  ParallelLevelExecutor(const ParallelLevelExecutor&) = delete;
  ParallelLevelExecutor& operator=(const ParallelLevelExecutor&) = delete;

  /// Worker count (1 when serial).
  std::size_t num_threads() const;

  /// Attaches the recording context that receives one shard-timing trace
  /// event per ExecuteJoin call (wall-clock and worker count — the volatile
  /// part of the trace). Null (the default) disables recording; the context
  /// must outlive the executor's use.
  void set_observer(ObserverContext* ctx) { ctx_ = ctx; }

  /// Runs `plan` — every candidate left_entries[t.left] ⋈
  /// right_entries[rights_pool[r]] under `gap` — writing candidate PILs
  /// into `out` and feeding the results to `sink` serially, in plan order.
  /// `left_arena`/`right_arena` back the entries' spans and may alias each
  /// other (the level self-join) but never `out`. `kernel` is the resolved
  /// join-kernel implementation (ResolveKernel, core/kernel.h) every piece
  /// of this level runs — all tiers produce byte-identical rows and
  /// supports, so the choice never affects results, only speed. `guard` may
  /// be null (ungoverned build). Returns a non-OK status only when the sink
  /// fails; *interrupted is set when the guard tripped, in which case the
  /// sink saw a sound subset of the candidates. On return `out` holds
  /// exactly the spans the sink promoted (scratch is truncated on every
  /// path).
  Status ExecuteJoin(const std::vector<ArenaEntry>& left_entries,
                     const PilArena& left_arena,
                     const std::vector<ArenaEntry>& right_entries,
                     const PilArena& right_arena, const JoinPlan& plan,
                     const GapRequirement& gap, KernelImpl kernel,
                     MiningGuard* guard, PilArena& out, const JoinSink& sink,
                     bool* interrupted);

  /// Data-parallel loop over [0, n) on this executor's pool (inline when
  /// serial): ThreadPool::ParallelFor with its disjoint-writes discipline.
  /// The serial phases of the level loop — first-level construction,
  /// candidate-generation probing, support thresholding — run through this.
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  ObserverContext* ctx_ = nullptr;
};

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_PARALLEL_H_
