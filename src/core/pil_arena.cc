#include "core/pil_arena.h"

// pgm-lint: allow(arena-scratch) — this file IMPLEMENTS the scratch
// protocol; the bracket lives in callers.

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/saturating.h"

namespace pgm {

namespace {

// Reservation cap installed by ScopedReservationCap (0 = none).
std::atomic<std::size_t> g_reservation_cap_bytes{0};

std::size_t RoundUp(std::size_t bytes, std::size_t step) {
  return bytes > SIZE_MAX - step ? SIZE_MAX / step * step
                                 : (bytes + step - 1) / step * step;
}

std::size_t PageBytes() {
  static const std::size_t bytes = [] {
    const long page_size = sysconf(_SC_PAGESIZE);
    return page_size > 0 ? static_cast<std::size_t>(page_size)
                         : std::size_t{4096};
  }();
  return bytes;
}

// Every arena maps the same range: physical memory, in whole commit steps
// — one arena can never usefully hold more. Equal sizes make any parked
// mapping fit any arena.
std::size_t MappingBytes() {
  static const std::size_t bytes = [] {
    const long pages = sysconf(_SC_PHYS_PAGES);
    if (pages <= 0) return std::size_t{1} << 32;
    return RoundUp(static_cast<std::size_t>(pages) * PageBytes(),
                   PilArena::kCommitStepBytes);
  }();
  return bytes;
}

// The arena's usable reservation, in whole pages: the mapping, or the run's
// PIL budget when that is smaller (an arena past the budget has tripped the
// guard anyway), or the test seam's cap.
std::size_t ReservationBytes(const MiningGuard* guard) {
  std::size_t bytes = MappingBytes();
  if (guard != nullptr && guard->memory_budget_bytes() > 0) {
    bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(bytes, guard->memory_budget_bytes()));
  }
  const std::size_t cap =
      g_reservation_cap_bytes.load(std::memory_order_relaxed);
  if (cap > 0) bytes = std::min(bytes, cap);
  return RoundUp(bytes, PageBytes());
}

// Parked mappings. A dying arena whose writable prefix is exactly one
// commit step parks its mapping here instead of unmapping it, and the next
// arena takes it, pages already faulted in — so a stream of small arenas
// (serve jobs, corpus fragments, test runs) pays mmap, mprotect, page
// faults and munmap once, not once per arena, as malloc's free lists would
// spare it. Bigger arenas unmap, returning their memory at once. Parked
// memory holds at most kParkedMappings commit steps and is charged to no
// run. Release/acquire on the slots orders the previous owner's writes
// before the next owner's.
constexpr int kParkedMappings = 8;
std::atomic<void*> g_parked[kParkedMappings];

void* TakeParkedMapping() {
  for (std::atomic<void*>& slot : g_parked) {
    if (slot.load(std::memory_order_relaxed) == nullptr) continue;
    void* base = slot.exchange(nullptr, std::memory_order_acquire);
    if (base != nullptr) return base;
  }
  return nullptr;
}

bool ParkMapping(void* base) {
  for (std::atomic<void*>& slot : g_parked) {
    void* expected = nullptr;
    if (slot.compare_exchange_strong(expected, base,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

std::size_t CommitSteps(std::size_t bytes) {
  return RoundUp(bytes, PilArena::kCommitStepBytes) /
         PilArena::kCommitStepBytes;
}

}  // namespace

PilArena::PilArena(MiningGuard* guard)
    : guard_(guard), reserved_bytes_(ReservationBytes(guard)) {
  if (void* parked = TakeParkedMapping()) {
    rows_ = static_cast<PilEntry*>(parked);
    committed_bytes_ = kCommitStepBytes;
    return;
  }
  const std::size_t bytes = MappingBytes();
  void* base = mmap(nullptr, bytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  // A failed mapping leaves the arena unmapped: its first Reserve fails and
  // the run unwinds partial-but-sound.
  if (base == MAP_FAILED) {
    reserved_bytes_ = 0;
    return;
  }
  // Huge pages past the first commit step: a large arena then takes one
  // page fault per 2 MiB it fills instead of 512, while a small arena (a
  // typical serve job) never pays for zeroing a whole huge page. Advice
  // only — where it is refused, the arena works with small pages.
  madvise(static_cast<char*>(base) + kCommitStepBytes,
          bytes - kCommitStepBytes, MADV_HUGEPAGE);
  rows_ = static_cast<PilEntry*>(base);
}

bool PilArena::Reserve(std::size_t total_rows) {
  if (total_rows <= high_water_rows_) {
    return guard_ == nullptr || !guard_->stopped();
  }
  const std::size_t bytes =
      total_rows > SIZE_MAX / sizeof(PilEntry) ? SIZE_MAX
                                               : total_rows * sizeof(PilEntry);
  // An unmapped arena (failed mmap, moved-from) reserves 0 bytes.
  if (bytes > reserved_bytes_) {
    if (guard_ != nullptr) guard_->StopForMemory();
    return false;
  }
  if (bytes > committed_bytes_) {
    const std::size_t target = RoundUp(bytes, kCommitStepBytes);
    if (mprotect(reinterpret_cast<char*>(rows_) + committed_bytes_,
                 target - committed_bytes_, PROT_READ | PROT_WRITE) != 0) {
      if (guard_ != nullptr) guard_->StopForMemory();
      return false;
    }
    committed_bytes_ = target;
  }
  // Counted from the high-water mark, not from mprotect calls, so the count
  // does not depend on whether the mapping came pre-committed from the
  // parking slots.
  if (CommitSteps(bytes) > CommitSteps(capacity_bytes())) ++growths_;
  const std::uint64_t delta =
      (total_rows - high_water_rows_) * sizeof(PilEntry);
  high_water_rows_ = total_rows;
  // Charge after committing: the rows exist either way, and the caller is
  // allowed to finish the current block with them (the ledger stays truthful
  // about live memory even past the budget).
  return guard_ == nullptr || guard_->ChargeMemory(delta);
}

PilSpan PilArena::Promote(const PilSpan& span) {
  assert(scratch_open_ && "Promote outside a scratch window");
  assert(span.offset >= watermark_);
  PilSpan promoted{watermark_, span.len};
  if (span.offset != watermark_ && span.len > 0) {
    std::memmove(rows_ + watermark_, rows_ + span.offset,
                 span.len * sizeof(PilEntry));
  }
  watermark_ += span.len;
  return promoted;
}

void PilArena::Release() {
  if (guard_ != nullptr && high_water_rows_ > 0) {
    guard_->ReleaseMemory(capacity_bytes());
  }
  if (rows_ != nullptr &&
      (committed_bytes_ != kCommitStepBytes || !ParkMapping(rows_))) {
    munmap(rows_, MappingBytes());
  }
  rows_ = nullptr;
  reserved_bytes_ = 0;
  committed_bytes_ = 0;
  high_water_rows_ = 0;
  size_ = 0;
  watermark_ = 0;
}

void PilArena::MoveFrom(PilArena& other) {
  guard_ = std::exchange(other.guard_, nullptr);
  rows_ = std::exchange(other.rows_, nullptr);
  reserved_bytes_ = std::exchange(other.reserved_bytes_, 0);
  committed_bytes_ = std::exchange(other.committed_bytes_, 0);
  high_water_rows_ = std::exchange(other.high_water_rows_, 0);
  size_ = std::exchange(other.size_, 0);
  watermark_ = std::exchange(other.watermark_, 0);
  growths_ = std::exchange(other.growths_, 0);
  scratch_open_ = std::exchange(other.scratch_open_, false);
}

namespace internal {

ScopedReservationCap::ScopedReservationCap(std::size_t bytes) {
  assert(g_reservation_cap_bytes.load(std::memory_order_relaxed) == 0 &&
         "ScopedReservationCap scopes must not nest");
  g_reservation_cap_bytes.store(bytes, std::memory_order_relaxed);
}

ScopedReservationCap::~ScopedReservationCap() {
  g_reservation_cap_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace internal

void CombinePrefixGroup(const PilEntry* prefix_rows, std::size_t prefix_len,
                        const GapRequirement& gap, const GroupSuffix* suffixes,
                        GroupOutput* outputs, std::size_t group_size,
                        GroupJoinScratch& scratch) {
  GroupJoinScratch::State* states = scratch.Prepare(group_size);
  for (std::size_t j = 0; j < group_size; ++j) outputs[j].len = 0;

  const std::int64_t min_gap = gap.min_gap();
  const std::int64_t max_gap = gap.max_gap();
  // Blocked iteration: each block of prefix rows is streamed from memory
  // once and then replayed per suffix out of cache, while that suffix's
  // window state lives in registers (loaded from and stored back to the
  // scratch array once per block, amortized over kBlockRows rows). A
  // straight prefix-row-outer loop would instead touch every suffix's
  // ~64-byte state per row, which costs more than the prefix re-streaming
  // it avoids. Each suffix still sees exactly the per-row Add/Remove/Total
  // sequence of PartialIndexList::Combine, so outputs are byte-identical.
  constexpr std::size_t kBlockRows = 256;
  for (std::size_t block_begin = 0; block_begin < prefix_len;
       block_begin += kBlockRows) {
    const std::size_t block_end =
        std::min(prefix_len, block_begin + kBlockRows);
    for (std::size_t j = 0; j < group_size; ++j) {
      GroupJoinScratch::State st = states[j];
      GroupOutput& out = outputs[j];
      const PilEntry* suffix_rows = suffixes[j].rows;
      const std::size_t suffix_len = suffixes[j].len;
      PilEntry* out_rows = out.rows;
      std::size_t out_len = out.len;
      for (std::size_t i = block_begin; i < block_end; ++i) {
        const std::int64_t window_begin =
            static_cast<std::int64_t>(prefix_rows[i].pos) + min_gap + 1;
        const std::int64_t window_end =
            static_cast<std::int64_t>(prefix_rows[i].pos) + max_gap + 1;
        while (st.hi < suffix_len &&
               static_cast<std::int64_t>(suffix_rows[st.hi].pos) <=
                   window_end) {
          st.window.Add(suffix_rows[st.hi].count);
          ++st.hi;
        }
        while (st.lo < st.hi &&
               static_cast<std::int64_t>(suffix_rows[st.lo].pos) <
                   window_begin) {
          st.window.Remove(suffix_rows[st.lo].count);
          ++st.lo;
        }
        const std::uint64_t total = st.window.Total();
        if (total > 0) {
          out_rows[out_len++] = PilEntry{prefix_rows[i].pos, total};
          if (IsSaturated(total)) st.support_saturated = true;
          st.support_sum += total;
        }
      }
      out.len = out_len;
      states[j] = st;
    }
  }

  for (std::size_t j = 0; j < group_size; ++j) {
    const GroupJoinScratch::State& st = states[j];
    SupportInfo info;
    if (st.support_saturated ||
        st.support_sum >= static_cast<unsigned __int128>(kSaturatedCount)) {
      info.count = kSaturatedCount;
      info.saturated = true;
    } else {
      info.count = static_cast<std::uint64_t>(st.support_sum);
      info.saturated = false;
    }
    outputs[j].support = info;
  }
}

}  // namespace pgm
