#ifndef PGM_CORE_PIL_ARENA_H_
#define PGM_CORE_PIL_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gap.h"
#include "core/guard.h"
#include "core/pil.h"

namespace pgm {

/// A half-open row range inside a PilArena: the arena-backed representation
/// of one pattern's partial index list. Spans are trivially copyable and
/// 16 bytes, so pattern tables stay compact; the rows themselves live in
/// the owning arena's fixed reservation.
struct PilSpan {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  bool empty() const { return len == 0; }
  std::uint64_t bytes() const { return len * sizeof(PilEntry); }
};

/// Contiguous bump storage for the PIL rows of one mining level.
///
/// The level-wise engines keep two arenas that ping-pong across levels: the
/// join reads level l-1's spans from the source arena and writes level l's
/// rows into the destination arena, then the source is Clear()ed (its
/// high-water mark kept) and the roles swap.
///
/// Storage: the arena maps one fixed virtual range at construction
/// (PROT_NONE, MAP_NORESERVE — address space only; a small arena's mapping
/// is parked for reuse when it dies) and Reserve makes a growing prefix of
/// it writable with mprotect, in kCommitStepBytes steps. The base pointer
/// therefore never moves while the arena lives: growth
/// copies no row and zero-fills nothing (the kernel hands out zero pages on
/// first touch), and a span's rows stay where they were written. The
/// still-PROT_NONE tail is the overrun guard: a write past the committed
/// prefix faults instead of landing in someone else's memory. The usable
/// reservation is physical memory, or the guard's PIL memory budget when
/// that is smaller (rounded up to a page); a Reserve that would
/// overrun it, or whose mmap/mprotect failed, returns false with the guard
/// latched as kMemoryBudget — the same partial-but-sound unwind as a budget
/// trip.
///
/// Scratch/watermark protocol: rows appended above `watermark()` are
/// speculative join output ("scratch"). The serial consumer either
/// Promote()s a scratch span — compacting its rows down onto the watermark —
/// or abandons it; TruncateToWatermark() then reclaims everything
/// speculative at once. This is what lets parallel workers write candidate
/// PILs into disjoint pre-reserved slices and still end the level with the
/// retained rows densely packed.
///
/// The window in which scratch operations are legal is explicit: the join
/// driver brackets it with BeginScratch()/EndScratch(), and Promote /
/// TruncateToWatermark assert the window is open (debug builds; the
/// `arena-scratch` pgm_lint rule enforces the same pairing textually at
/// build time). EndScratch additionally asserts no speculative rows
/// survived — every scratch row was either promoted or truncated — which is
/// the structural half of the ledger-balance invariant.
///
/// Guard accounting: the arena charges its *high-water rows* — the largest
/// row count any Reserve asked for — against the guard's memory ledger: the
/// delta each time the mark rises, the whole mark back on destruction (or
/// move-assignment). The mark never falls while the arena lives (Clear
/// keeps it), so the ledger carries each arena's real high-water footprint,
/// and it drains to zero exactly when the arenas die with the run.
///
/// Thread safety: Reserve/Allocate/Promote/Truncate/Clear are serial-only.
/// Concurrent workers may call Rows()/MutableRows() on disjoint reserved
/// spans at any time, including across a Reserve: the base is fixed.
class PilArena {
 public:
  /// Granularity in which Reserve makes the reservation writable (one
  /// transparent huge page, so committed prefixes stay huge-page aligned).
  static constexpr std::size_t kCommitStepBytes = std::size_t{2} << 20;

  /// An unaccounted arena (no guard), reserved from physical memory.
  PilArena() : PilArena(nullptr) {}
  /// `guard` may be null (unaccounted); when non-null it must outlive the
  /// arena, and its PIL memory budget caps the reservation.
  explicit PilArena(MiningGuard* guard);
  ~PilArena() { Release(); }

  PilArena(const PilArena&) = delete;
  PilArena& operator=(const PilArena&) = delete;

  /// Moves transfer the mapping and its ledger charge; the source is left
  /// empty, chargeless and unmapped (every Reserve on it fails).
  PilArena(PilArena&& other) noexcept { MoveFrom(other); }
  PilArena& operator=(PilArena&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }

  /// Makes rows [0, total_rows) writable, raising the high-water mark (never
  /// lowering it) and charging the rise to the guard. Never moves, copies
  /// or clears a row. Returns false when the charge tripped the memory
  /// budget — the rows are still writable, so the caller can finish the
  /// in-flight block before unwinding (the "deliver what was paid for"
  /// contract) — and also when the rows do not fit the reservation or the
  /// kernel refused them, in which case they are NOT writable and the guard
  /// (if any) is latched as kMemoryBudget.
  /// [[nodiscard]]: ignoring the verdict would mine past a tripped budget.
  [[nodiscard]] bool Reserve(std::size_t total_rows);

  /// Appends `len` uninitialized rows and returns their span. The rows must
  /// have been Reserve()d. Serial-only.
  PilSpan Allocate(std::size_t len) {
    assert(size_ + len <= high_water_rows_ && "Allocate past Reserve");
    PilSpan span{size_, len};
    size_ += len;
    return span;
  }

  /// Appends one initialized row (first-level construction). The row must
  /// have been Reserve()d. Serial-only.
  void AppendRow(PilEntry row) {
    assert(size_ < high_water_rows_ && "AppendRow past Reserve");
    rows_[size_++] = row;
  }

  const PilEntry* Rows(const PilSpan& span) const {
    return rows_ + span.offset;
  }
  PilEntry* MutableRows(const PilSpan& span) { return rows_ + span.offset; }

  /// Rows in use (retained + scratch).
  std::uint64_t size() const { return size_; }
  /// The retained frontier: rows below it are promoted level output, rows
  /// at or above it are speculative scratch.
  std::uint64_t watermark() const { return watermark_; }

  /// Opens the scratch window: the caller is about to Allocate speculative
  /// spans and consume them with Promote/TruncateToWatermark. No scratch
  /// rows may be pending from a previous window.
  void BeginScratch() {
    assert(!scratch_open_ && "BeginScratch inside an open scratch window");
    assert(size_ == watermark_ && "scratch rows pending at BeginScratch");
    scratch_open_ = true;
  }

  /// Closes the scratch window. Every speculative row must have been
  /// promoted or truncated.
  void EndScratch() {
    assert(scratch_open_ && "EndScratch without BeginScratch");
    assert(size_ == watermark_ && "scratch rows leaked past EndScratch");
    scratch_open_ = false;
  }

  /// True between BeginScratch and EndScratch.
  bool scratch_open() const { return scratch_open_; }

  /// Compacts a scratch span down onto the watermark and returns its final
  /// span. Spans must be promoted in increasing offset order (the serial
  /// merge's candidate order), which guarantees the destination never
  /// overtakes the source. Legal only inside a scratch window.
  PilSpan Promote(const PilSpan& span);

  /// Drops all scratch rows (size back to the watermark). Legal only inside
  /// a scratch window.
  void TruncateToWatermark() {
    assert(scratch_open_ && "TruncateToWatermark outside a scratch window");
    size_ = watermark_;
  }

  /// Marks everything currently in the arena as retained (used after
  /// first-level construction, where every row is level output).
  void SealWatermark() { watermark_ = size_; }

  /// Empties the arena but keeps the high-water mark and its ledger charge
  /// — the ping-pong reuse path. Illegal inside a scratch window.
  void Clear() {
    assert(!scratch_open_ && "Clear inside an open scratch window");
    size_ = 0;
    watermark_ = 0;
  }

  /// sup(P) for an arena-backed pattern.
  SupportInfo Support(const PilSpan& span) const {
    return SupportOfRows(Rows(span), span.len);
  }

  /// Bytes currently charged to the guard: the high-water rows Reserve has
  /// asked for, times the row size.
  std::uint64_t capacity_bytes() const {
    return high_water_rows_ * sizeof(PilEntry);
  }

  /// Number of Reserve calls that carried the high-water mark into a new
  /// commit step since construction. A warmed-up arena stops growing:
  /// steady-state levels report zero new growths, which is the "no growth
  /// in the join loop" claim in checkable form.
  std::uint64_t growth_count() const { return growths_; }

 private:
  void Release();
  void MoveFrom(PilArena& other);

  MiningGuard* guard_ = nullptr;
  // Base of the reservation (null when unmapped); fixed for the arena's
  // life, so worker threads never observe a move.
  PilEntry* rows_ = nullptr;
  std::size_t reserved_bytes_ = 0;   // usable prefix of the mapping
  std::size_t committed_bytes_ = 0;  // writable prefix of the mapping
  std::uint64_t high_water_rows_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t watermark_ = 0;
  std::uint64_t growths_ = 0;
  bool scratch_open_ = false;
};

namespace internal {

/// Test seam: while alive, arenas constructed on any thread reserve at
/// most `bytes` of address space (rounded up to a page), so tests
/// can drive the reservation-overrun branch of Reserve without exhausting
/// real memory. Scopes must not nest.
class ScopedReservationCap {
 public:
  explicit ScopedReservationCap(std::size_t bytes);
  ~ScopedReservationCap();
  ScopedReservationCap(const ScopedReservationCap&) = delete;
  ScopedReservationCap& operator=(const ScopedReservationCap&) = delete;
};

}  // namespace internal

/// One suffix input of a prefix-group join.
struct GroupSuffix {
  const PilEntry* rows = nullptr;
  std::size_t len = 0;
};

/// One candidate's output slot: `rows` must point at a pre-reserved slice of
/// at least the prefix length (Combine emits at most one row per prefix
/// row). The kernel sets `len` and `support`.
struct GroupOutput {
  PilEntry* rows = nullptr;
  std::size_t len = 0;
  SupportInfo support;
};

/// Reusable per-worker state for CombinePrefixGroup, so the kernel performs
/// no allocation once warmed up to the largest group it has seen.
class GroupJoinScratch {
 public:
  struct State {
    std::size_t lo = 0;
    std::size_t hi = 0;
    internal::WindowSum window;
    unsigned __int128 support_sum = 0;
    bool support_saturated = false;
  };

  State* Prepare(std::size_t group_size) {
    if (states_.size() < group_size) states_.resize(group_size);
    for (std::size_t i = 0; i < group_size; ++i) states_[i] = State{};
    return states_.data();
  }

 private:
  std::vector<State> states_;
};

/// The arena join kernel: combines one prefix PIL with every suffix PIL of
/// its prefix group, writing each candidate's rows into its pre-reserved
/// output slice. The prefix rows are streamed in cache-sized blocks, each
/// block replayed per suffix with that suffix's window state held in
/// registers (see the comment in the implementation). Arithmetic is
/// identical to PartialIndexList::Combine followed by TotalSupport — same
/// sliding window, same saturation handling — so row contents and supports
/// are byte-identical to the per-candidate path; only the order in which
/// (prefix row, suffix) pairs are visited changes, never the per-suffix
/// sequence of window operations.
void CombinePrefixGroup(const PilEntry* prefix_rows, std::size_t prefix_len,
                        const GapRequirement& gap, const GroupSuffix* suffixes,
                        GroupOutput* outputs, std::size_t group_size,
                        GroupJoinScratch& scratch);

}  // namespace pgm

#endif  // PGM_CORE_PIL_ARENA_H_
