#include "core/parallel.h"

// pgm-lint: allow(arena-scratch) — ExecuteJoin runs INSIDE the caller's
// BeginScratch/EndScratch bracket (asserted at entry); the truncate calls
// here are the protocol's cleanup half, not an unbracketed use.

#include <algorithm>
#include <atomic>
#include <cassert>

#include "core/trace.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace pgm {
namespace internal {

namespace {

/// Emits one shard-timing event when the enclosing ExecuteJoin call returns
/// — RAII so every early return (sink error, guard trip) still records.
/// Runs on the caller thread, after the pool has quiesced. `candidates`
/// counts deliveries to the sink (not the plan's size), accumulated by the
/// merge as it goes, so tripped levels report the work that happened; the
/// phase fields split the driver's wall-clock into kernel fills it ran
/// itself, sink merging, and waiting on in-flight pieces.
struct ShardTimingScope {
  ObserverContext* ctx = nullptr;
  std::uint64_t candidates = 0;
  std::int64_t workers = 0;
  const char* kernel = "scalar";
  double fill_seconds = 0.0;
  double merge_seconds = 0.0;
  double stall_seconds = 0.0;
  Stopwatch watch;

  ~ShardTimingScope() {
    if (ctx != nullptr) {
      ctx->ShardTiming(candidates, workers, kernel, watch.ElapsedSeconds(),
                       fill_seconds, merge_seconds, stall_seconds);
    }
  }
};

/// Output rows one piece targets. A piece is one kernel call: candidates
/// sharing a left pattern, each needing a left-PIL-length slice. Sizing by
/// rows (not candidate count) keeps pieces comparable units of work when
/// PIL lengths are skewed.
constexpr std::uint64_t kPieceRowsTarget = 2048;
/// Cap on candidates per piece, so short-PIL groups still amortize one
/// streaming pass over the left rows without unbounded kernel state.
constexpr std::uint64_t kMaxPieceCands = 64;
/// Rows per published block — the granule the driver hands the workers.
constexpr std::uint64_t kBlockRowsTarget = 16384;
/// The scratch window (block ring bound): the driver publishes whole
/// blocks ahead of the watermark while they fit in this many rows plus one
/// block's slack (more when a single piece is bigger). Bounds speculative
/// memory independently of the thread count, which also makes
/// memory-budget trip points deterministic.
constexpr std::uint64_t kWindowRowsTarget = 4 * kBlockRowsTarget;

/// One kernel call's worth of candidates: a slice [begin, end) of one
/// task's rights range. Immutable after the prepass except for the two
/// publication fields, which the driver assigns before the release-store
/// of the piece limit (the claiming worker's acquire orders the read).
struct Piece {
  std::uint32_t task = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint64_t left_len = 0;
  /// left_len * (end - begin): the piece's scratch slice size.
  std::uint64_t rows = 0;
  /// Arena offset of the first candidate's output slice; candidate k's
  /// slice starts at out_offset + k * left_len.
  std::uint64_t out_offset = 0;
  /// Index of the piece's first candidate in the window metadata arrays.
  std::uint64_t meta_base = 0;
};

/// Piece fill states (per-piece atomic, release by the filling worker,
/// acquire by the merging driver).
constexpr std::uint8_t kPending = 0;
constexpr std::uint8_t kFilled = 1;
constexpr std::uint8_t kAbandoned = 2;

/// A publication granule: consecutive pieces totalling ~kBlockRowsTarget
/// output rows.
struct Block {
  std::uint64_t piece_begin = 0;
  std::uint64_t piece_end = 0;
  std::uint64_t rows = 0;
  std::uint64_t cands = 0;
};

/// Per-worker reusable buffers: once warmed up to the largest piece, the
/// fill phase performs no allocation.
struct WorkerScratch {
  std::vector<GroupSuffix> suffixes;
  std::vector<GroupOutput> outputs;
  KernelScratch kernel;
};

}  // namespace

ParallelLevelExecutor::ParallelLevelExecutor(std::int64_t threads) {
  const std::size_t resolved = ThreadPool::ResolveThreadCount(threads);
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);
}

ParallelLevelExecutor::~ParallelLevelExecutor() = default;

std::size_t ParallelLevelExecutor::num_threads() const {
  return pool_ == nullptr ? 1 : pool_->num_threads();
}

void ParallelLevelExecutor::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (pool_ == nullptr) {
    fn(0, n);
    return;
  }
  pool_->ParallelFor(n, grain, fn);
}

Status ParallelLevelExecutor::ExecuteJoin(
    const std::vector<ArenaEntry>& left_entries, const PilArena& left_arena,
    const std::vector<ArenaEntry>& right_entries, const PilArena& right_arena,
    const JoinPlan& plan, const GapRequirement& gap, KernelImpl kernel,
    MiningGuard* guard, PilArena& out, const JoinSink& sink,
    bool* interrupted) {
  *interrupted = false;
  assert(out.scratch_open() &&
         "ExecuteJoin requires the caller's BeginScratch/EndScratch bracket");
  if (plan.empty()) return Status::OK();
  ShardTimingScope timing;
  timing.ctx = ctx_;
  timing.workers = static_cast<std::int64_t>(num_threads());
  timing.kernel = KernelImplToString(kernel);

  const std::vector<JoinTask>& tasks = plan.tasks();
  const std::vector<std::uint32_t>& pool = plan.rights_pool();
  const std::size_t workers = num_threads();

  // --- Prepass (serial): slice the plan into row-sized pieces and group
  // them into row-sized blocks. Depends only on the plan, never on the
  // schedule or the thread count — the pieces' flat order IS the candidate
  // order the sink must observe.
  std::vector<Piece> pieces;
  std::vector<Block> blocks;
  std::uint64_t level_rows = 0;  // every piece's rows
  std::uint64_t max_piece_rows = 0;
  {
    Block block;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const JoinTask& task = tasks[t];
      const std::uint64_t left_len = left_entries[task.left].span.len;
      const std::uint32_t group = task.group_size();
      std::uint32_t per_piece = static_cast<std::uint32_t>(kMaxPieceCands);
      if (left_len > 0) {
        per_piece = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
            kPieceRowsTarget / left_len, 1, kMaxPieceCands));
      }
      for (std::uint32_t off = 0; off < group; off += per_piece) {
        Piece piece;
        piece.task = static_cast<std::uint32_t>(t);
        piece.begin = off;
        piece.end = std::min(off + per_piece, group);
        piece.left_len = left_len;
        piece.rows = left_len * (piece.end - piece.begin);
        level_rows += piece.rows;
        max_piece_rows = std::max(max_piece_rows, piece.rows);
        block.rows += piece.rows;
        block.cands += piece.end - piece.begin;
        pieces.push_back(piece);
        if (block.rows >= kBlockRowsTarget) {
          block.piece_end = pieces.size();
          blocks.push_back(block);
          block = Block{};
          block.piece_begin = pieces.size();
        }
      }
    }
    if (block.piece_begin < pieces.size()) {
      block.piece_end = pieces.size();
      blocks.push_back(block);
    }
  }
  const std::uint64_t total_pieces = pieces.size();
  if (total_pieces == 0) return Status::OK();

  // Reservation sizes depend on the plan's multiset of pieces, never on
  // their order. A block closes below kBlockRowsTarget + max_piece_rows
  // rows, so any one block fits in window_rows; a window holds the blocks
  // that fit in it, and every recycle reserves min(window_rows, rows left)
  // — not the rows its blocks happen to use. A completed level then tops
  // its reservation up to min(level_rows, retained + window_rows), which no
  // recycle's watermark-plus-window exceeded (the watermark never passes
  // the rows merged so far, nor the level's retained rows). The output
  // arena's high-water mark, and so its ledger charge, is therefore a
  // function of the candidate set alone; it would otherwise follow the plan
  // order, which relabeling the alphabet permutes.
  const std::uint64_t window_rows =
      kBlockRowsTarget + std::max(kWindowRowsTarget, max_piece_rows);
  const std::uint64_t level_base = out.watermark();
  std::uint64_t rows_left = level_rows;

  std::vector<WorkerScratch> scratch(workers);
  // Per-candidate outputs of the current window, indexed by Piece::meta_base
  // (+ the candidate's position in its piece). Sized at window recycle,
  // when no piece is in flight.
  std::vector<std::uint32_t> meta_lens;
  std::vector<SupportInfo> meta_supports;

  // The output arena's base never moves (its reservation is fixed), so
  // every piece addresses its slice from this one pointer.
  PilEntry* const out_base = out.MutableRows(PilSpan{});

  // Lock-free handoff state. piece_limit's release-store publishes the
  // pieces' out_offset/meta_base assignments; a claim's acquire-load pairs
  // with it. piece_state's release/acquire publishes the filled rows and
  // metadata to the merging driver.
  std::atomic<std::uint64_t> next_piece{0};
  std::atomic<std::uint64_t> piece_limit{0};
  std::atomic<bool> stop{false};        // sink failed: fills are pointless
  std::atomic<bool> level_done{false};  // drained: workers may exit
  std::vector<std::atomic<std::uint8_t>> piece_state(
      static_cast<std::size_t>(total_pieces));
  for (auto& state : piece_state) {
    state.store(kPending, std::memory_order_relaxed);
  }

  // The mutex/condvars only park idle threads; every data handoff above is
  // lock-free (see the class comment in parallel.h).
  Mutex mu{kLockRankRing};
  CondVar work_cv;   // workers: publication advanced / level done
  CondVar merge_cv;  // driver: a piece completed

  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  auto try_claim = [&]() -> std::uint64_t {
    std::uint64_t cur = next_piece.load(std::memory_order_relaxed);
    while (cur < piece_limit.load(std::memory_order_acquire)) {
      if (next_piece.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_relaxed)) {
        return cur;
      }
    }
    return kNone;
  };

  // Fills one claimed piece. Charges the piece's candidates with one
  // batched TickN first: a refused batch (guard trip) abandons the piece
  // and refunds the ticks, so the guard's tick total stays equal to the
  // candidates the sink will receive. Every terminal state (filled or
  // abandoned) is published so the merge head never waits forever.
  auto run_piece = [&](std::uint64_t index, WorkerScratch& ws) {
    const Piece& piece = pieces[static_cast<std::size_t>(index)];
    const std::uint32_t count = piece.end - piece.begin;
    bool filled = false;
    if (!stop.load(std::memory_order_relaxed) &&
        (guard == nullptr || guard->TickN(count))) {
      const JoinTask& task = tasks[piece.task];
      if (ws.suffixes.size() < count) {
        ws.suffixes.resize(count);
        ws.outputs.resize(count);
      }
      for (std::uint32_t k = 0; k < count; ++k) {
        const ArenaEntry& right =
            right_entries[pool[task.rights_begin + piece.begin + k]];
        ws.suffixes[k] =
            GroupSuffix{right_arena.Rows(right.span), right.span.len};
        ws.outputs[k] = GroupOutput{
            out_base + piece.out_offset + k * piece.left_len, 0, {}};
      }
      CombinePrefixGroupKernel(kernel,
                               left_arena.Rows(left_entries[task.left].span),
                               piece.left_len, gap, ws.suffixes.data(),
                               ws.outputs.data(), count, ws.kernel);
      for (std::uint32_t k = 0; k < count; ++k) {
        meta_lens[piece.meta_base + k] =
            static_cast<std::uint32_t>(ws.outputs[k].len);
        meta_supports[piece.meta_base + k] = ws.outputs[k].support;
      }
      filled = true;
    }
    piece_state[static_cast<std::size_t>(index)].store(
        filled ? kFilled : kAbandoned, std::memory_order_release);
    MutexLock lock(mu);
    merge_cv.notify_all();
  };

  std::uint64_t merge_head = 0;  // next piece to merge (plan order)
  std::uint64_t published = 0;   // driver's mirror of piece_limit
  std::uint64_t next_block = 0;
  std::uint64_t window_reserved = 0;  // absolute row bound of the window
  std::uint64_t window_meta = 0;      // metadata slots used in the window
  bool publish_stopped = false;       // guard trip: publish no further work
  Status sink_status = Status::OK();

  // Publishes blocks while they fit in the reserved window. When the
  // window is exhausted and drained (merge_head == published), recycles it:
  // truncate the dead scratch, Reserve a fresh window and resize the window
  // metadata. Truncation hands the dead rows back for reuse and the resize
  // may move the metadata arrays, so no piece may be in flight.
  auto publish_blocks = [&]() {
    bool any = false;
    while (!publish_stopped && next_block < blocks.size()) {
      if (guard != nullptr && guard->stopped()) {
        publish_stopped = true;
        break;
      }
      const Block& block = blocks[static_cast<std::size_t>(next_block)];
      if (out.size() + block.rows > window_reserved) {
        if (merge_head < published) break;  // ring busy: merge first
        out.TruncateToWatermark();
        std::uint64_t rows = 0;
        std::uint64_t cands = 0;
        for (std::uint64_t b = next_block;
             b < blocks.size() &&
             rows + blocks[static_cast<std::size_t>(b)].rows <= window_rows;
             ++b) {
          rows += blocks[static_cast<std::size_t>(b)].rows;
          cands += blocks[static_cast<std::size_t>(b)].cands;
        }
        if (!out.Reserve(static_cast<std::size_t>(
                out.size() + std::min(window_rows, rows_left)))) {
          // Memory trip. The guard latched with the pipeline empty, so the
          // delivered prefix — every candidate of the previous windows —
          // is exact and identical at every thread count.
          publish_stopped = true;
          break;
        }
        window_reserved = out.size() + rows;
        if (meta_lens.size() < cands) {
          meta_lens.resize(static_cast<std::size_t>(cands));
          meta_supports.resize(static_cast<std::size_t>(cands));
        }
        window_meta = 0;
        continue;
      }
      for (std::uint64_t p = block.piece_begin; p < block.piece_end; ++p) {
        Piece& piece = pieces[static_cast<std::size_t>(p)];
        piece.out_offset = out.Allocate(piece.rows).offset;
        piece.meta_base = window_meta;
        window_meta += piece.end - piece.begin;
      }
      published = block.piece_end;
      rows_left -= block.rows;
      ++next_block;
      any = true;
    }
    if (any) {
      MutexLock lock(mu);
      piece_limit.store(published, std::memory_order_release);
      work_cv.notify_all();
    }
  };

  // The driver (worker 0 = the caller thread): publish, merge in piece
  // order, and fill pieces itself whenever the merge head is waiting on a
  // piece some other worker owns. Claim order equals plan order, so the
  // driver's own claims are usually exactly the merge head.
  auto driver = [&]() {
    Stopwatch phase;
    while (true) {
      publish_blocks();
      if (merge_head >= published) {
        // Everything published is merged. Stop, or recycle the window on
        // the next publish_blocks pass.
        if (publish_stopped || next_block >= blocks.size()) break;
        continue;
      }
      const std::size_t head = static_cast<std::size_t>(merge_head);
      const std::uint8_t state =
          piece_state[head].load(std::memory_order_acquire);
      if (state == kPending) {
        const std::uint64_t claimed = try_claim();
        if (claimed != kNone) {
          phase.Reset();
          run_piece(claimed, scratch[0]);
          timing.fill_seconds += phase.ElapsedSeconds();
          continue;
        }
        phase.Reset();
        {
          MutexLock lock(mu);
          while (piece_state[head].load(std::memory_order_acquire) ==
                 kPending) {
            merge_cv.wait(mu);
          }
        }
        timing.stall_seconds += phase.ElapsedSeconds();
        continue;
      }
      if (state == kFilled) {
        // Merge the piece: the sink sees its candidates in plan order.
        // Abandoned pieces (kAbandoned) are skipped — their ticks were
        // refunded and their scratch dies with the window.
        phase.Reset();
        const Piece& piece = pieces[head];
        const JoinTask& task = tasks[piece.task];
        const std::uint32_t count = piece.end - piece.begin;
        for (std::uint32_t k = 0; k < count; ++k) {
          JoinedCandidate candidate;
          candidate.left = task.left;
          candidate.right = pool[task.rights_begin + piece.begin + k];
          candidate.span = PilSpan{piece.out_offset + k * piece.left_len,
                                   meta_lens[piece.meta_base + k]};
          candidate.support = meta_supports[piece.meta_base + k];
          Status status = sink(candidate);
          if (!status.ok()) {
            sink_status = std::move(status);
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          ++timing.candidates;
        }
        timing.merge_seconds += phase.ElapsedSeconds();
        if (!sink_status.ok()) break;
      }
      ++merge_head;
    }
    MutexLock lock(mu);
    level_done.store(true, std::memory_order_relaxed);
    work_cv.notify_all();
  };

  // Workers: claim and fill until the level is done and the published
  // pieces are drained. After a stop/trip, remaining claims resolve as
  // cheap abandons, so the drain is prompt.
  auto worker_loop = [&](std::size_t worker) {
    WorkerScratch& ws = scratch[worker];
    while (true) {
      const std::uint64_t claimed = try_claim();
      if (claimed != kNone) {
        run_piece(claimed, ws);
        continue;
      }
      MutexLock lock(mu);
      while (!level_done.load(std::memory_order_relaxed) &&
             next_piece.load(std::memory_order_relaxed) >=
                 piece_limit.load(std::memory_order_relaxed)) {
        work_cv.wait(mu);
      }
      if (level_done.load(std::memory_order_relaxed) &&
          next_piece.load(std::memory_order_relaxed) >=
              piece_limit.load(std::memory_order_relaxed)) {
        return;
      }
    }
  };

  if (pool_ == nullptr) {
    driver();
  } else {
    pool_->Execute([&](std::size_t worker) {
      if (worker == 0) {
        driver();
      } else {
        worker_loop(worker);
      }
    });
  }

  // Catch-all reclaim: on the sink-error path workers may have filled
  // pieces after the driver left; the pool has quiesced, so truncating
  // here leaves exactly the promoted spans (the invariant EndScratch
  // asserts).
  out.TruncateToWatermark();
  if (!sink_status.ok()) return sink_status;
  if (guard != nullptr && guard->stopped()) {
    *interrupted = true;
    return Status::OK();
  }
  // The level completed: top up to its order-independent bound (see
  // window_rows). The rows are never written, only charged.
  const std::uint64_t retained = out.watermark() - level_base;
  // (void): a trip here latches the guard after every candidate was
  // delivered, so the level stays complete and the caller's next guard
  // check unwinds; an overrun likewise only latches the guard.
  (void)out.Reserve(static_cast<std::size_t>(
      level_base + std::min(level_rows, retained + window_rows)));
  return Status::OK();
}

}  // namespace internal
}  // namespace pgm
