#include "core/kernel.h"

#include <algorithm>
#include <bit>

#include "util/saturating.h"

namespace pgm {

const char* KernelTierToString(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto:
      return "auto";
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kBits:
      return "bits";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "auto";
}

const char* KernelImplToString(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kScalar:
      return "scalar";
    case KernelImpl::kBits:
      return "bits";
    case KernelImpl::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  return internal::Avx2KernelCompiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

KernelImpl ResolveKernel(KernelTier tier, const GapRequirement& gap) {
  if (tier == KernelTier::kScalar) return KernelImpl::kScalar;
  // The bitset kernels pack one window into a 64-bit mask; wider windows
  // have no bit-parallel representation, so even an explicit kBits/kAvx2
  // request degrades to scalar rather than failing.
  if (gap.flexibility() > 64) return KernelImpl::kScalar;
  if (tier == KernelTier::kBits) return KernelImpl::kBits;
  // kAuto and kAvx2 both prefer the vector path when the hardware has it.
  return Avx2Available() ? KernelImpl::kAvx2 : KernelImpl::kBits;
}

namespace {

/// Final support clamp, shared by every non-oracle path and identical to
/// CombinePrefixGroup's: the exact 128-bit sum collapses to the saturated
/// sentinel at or above the clamp.
SupportInfo FinishSupport(unsigned __int128 sum, bool saturated) {
  SupportInfo info;
  if (saturated || sum >= static_cast<unsigned __int128>(kSaturatedCount)) {
    info.count = kSaturatedCount;
    info.saturated = true;
  } else {
    info.count = static_cast<std::uint64_t>(sum);
    info.saturated = false;
  }
  return info;
}

/// Per-pair scalar fallback: one suffix's slice of CombinePrefixGroup's
/// loop, operation-for-operation (same WindowSum, same emit test, same
/// clamp), so its rows and support are byte-identical to the oracle's.
void CombinePairScalar(const PilEntry* prefix_rows, std::size_t prefix_len,
                       std::int64_t min_gap, std::int64_t max_gap,
                       const GroupSuffix& suffix, GroupOutput& out) {
  internal::WindowSum window;
  std::size_t lo = 0;
  std::size_t hi = 0;
  unsigned __int128 support_sum = 0;
  bool support_saturated = false;
  std::size_t out_len = 0;
  const PilEntry* suffix_rows = suffix.rows;
  const std::size_t suffix_len = suffix.len;
  PilEntry* out_rows = out.rows;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const std::int64_t window_begin =
        static_cast<std::int64_t>(prefix_rows[i].pos) + min_gap + 1;
    const std::int64_t window_end =
        static_cast<std::int64_t>(prefix_rows[i].pos) + max_gap + 1;
    while (hi < suffix_len &&
           static_cast<std::int64_t>(suffix_rows[hi].pos) <= window_end) {
      window.Add(suffix_rows[hi].count);
      ++hi;
    }
    while (lo < hi &&
           static_cast<std::int64_t>(suffix_rows[lo].pos) < window_begin) {
      window.Remove(suffix_rows[lo].count);
      ++lo;
    }
    const std::uint64_t total = window.Total();
    if (total > 0) {
      out_rows[out_len++] = PilEntry{prefix_rows[i].pos, total};
      if (IsSaturated(total)) support_saturated = true;
      support_sum += total;
    }
  }
  out.len = out_len;
  out.support = FinishSupport(support_sum, support_saturated);
}

/// The bitset pair kernel (W = window width <= 64). Layout: a bitmap over
/// the pair's position span marks suffix positions; rank[w] counts set bits
/// in words [0, w); cum[i] prefix-sums the suffix counts. A prefix row x
/// then resolves in O(1): extract the W bits at offset x + min_gap + 1 -
/// base (two words, shift+OR+AND), popcount them for the number of suffix
/// rows in the window, rank + a masked popcount for the first such row, and
/// the window total is a cum difference. Returns false — caller falls back
/// to CombinePairScalar — when the pair is not exactly representable: a
/// saturated suffix count or total suffix mass at/above the clamp (the
/// plain uint64 sums would diverge from WindowSum's clamping), or a span so
/// sparse the O(span) bitmap pass would dominate the O(rows) scalar loop.
/// Eligibility depends only on the pair, never the schedule, so the
/// decision is thread-count independent.
bool CombinePairBits(KernelImpl impl, const PilEntry* prefix_rows,
                     std::size_t prefix_len, std::int64_t min_gap,
                     std::uint64_t wbits, const GroupSuffix& suffix,
                     GroupOutput& out, KernelScratch& scratch) {
  const PilEntry* suffix_rows = suffix.rows;
  const std::size_t suffix_len = suffix.len;
  unsigned __int128 mass = 0;
  for (std::size_t i = 0; i < suffix_len; ++i) {
    if (IsSaturated(suffix_rows[i].count)) return false;
    mass += suffix_rows[i].count;
  }
  if (mass >= static_cast<unsigned __int128>(kSaturatedCount)) return false;

  const std::int64_t shift = min_gap + 1;
  const std::uint64_t first_query = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(prefix_rows[0].pos) + shift);
  const std::uint64_t base =
      std::min<std::uint64_t>(suffix_rows[0].pos, first_query) &
      ~std::uint64_t{63};
  const std::uint64_t last_query =
      static_cast<std::uint64_t>(
          static_cast<std::int64_t>(prefix_rows[prefix_len - 1].pos) + shift) +
      (wbits - 1);
  const std::uint64_t span_hi =
      std::max<std::uint64_t>(suffix_rows[suffix_len - 1].pos, last_query);
  const std::uint64_t words = ((span_hi - base) >> 6) + 1;
  if (words > 4 * (prefix_len + suffix_len) + 64) return false;

  // One pad word so every query's second-word read stays in bounds.
  const std::size_t alloc = static_cast<std::size_t>(words) + 1;
  if (scratch.bitmap.size() < alloc) scratch.bitmap.resize(alloc);
  std::fill_n(scratch.bitmap.begin(), alloc, std::uint64_t{0});
  std::uint64_t* bitmap = scratch.bitmap.data();
  for (std::size_t i = 0; i < suffix_len; ++i) {
    const std::uint64_t bit = suffix_rows[i].pos - base;
    bitmap[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  if (scratch.rank.size() < alloc) scratch.rank.resize(alloc);
  std::uint64_t* rank = scratch.rank.data();
  std::uint64_t running = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    rank[w] = running;
    running += static_cast<std::uint64_t>(std::popcount(bitmap[w]));
  }
  rank[words] = running;
  if (scratch.cum.size() < suffix_len + 1) scratch.cum.resize(suffix_len + 1);
  std::uint64_t* cum = scratch.cum.data();
  cum[0] = 0;
  for (std::size_t i = 0; i < suffix_len; ++i) {
    cum[i + 1] = cum[i] + suffix_rows[i].count;
  }

  const std::uint64_t wmask =
      wbits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << wbits) - 1;
  PilEntry* out_rows = out.rows;
  std::size_t out_len = 0;
  unsigned __int128 support_sum = 0;

  std::uint64_t offs[internal::kKernelStrip];
  std::uint64_t masks[internal::kKernelStrip];
  std::uint64_t prelow[internal::kKernelStrip];
  std::uint64_t rankbase[internal::kKernelStrip];
  for (std::size_t begin = 0; begin < prefix_len;
       begin += internal::kKernelStrip) {
    const std::size_t n =
        std::min(internal::kKernelStrip, prefix_len - begin);
    for (std::size_t k = 0; k < n; ++k) {
      offs[k] = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(prefix_rows[begin + k].pos) +
                    shift) -
                base;
    }
    if (impl == KernelImpl::kAvx2) {
      internal::ExtractWindowsAvx2(bitmap, rank, offs, n, wmask, masks,
                                   prelow, rankbase);
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t word = offs[k] >> 6;
        const std::uint64_t bit = offs[k] & 63;
        const std::uint64_t w0 = bitmap[word];
        const std::uint64_t w1 = bitmap[word + 1];
        masks[k] =
            (bit == 0 ? w0 : (w0 >> bit) | (w1 << (64 - bit))) & wmask;
        prelow[k] = bit == 0 ? 0 : w0 & ((std::uint64_t{1} << bit) - 1);
        rankbase[k] = rank[word];
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t cnt =
          static_cast<std::uint64_t>(std::popcount(masks[k]));
      if (cnt == 0) continue;
      const std::uint64_t lo =
          rankbase[k] + static_cast<std::uint64_t>(std::popcount(prelow[k]));
      const std::uint64_t total = cum[lo + cnt] - cum[lo];
      out_rows[out_len++] = PilEntry{prefix_rows[begin + k].pos, total};
      support_sum += total;
    }
  }
  out.len = out_len;
  // No window clamps under the eligibility preconditions, so the only
  // saturation source left is the cross-row support sum.
  out.support = FinishSupport(support_sum, /*saturated=*/false);
  return true;
}

}  // namespace

void CombinePrefixGroupKernel(KernelImpl impl, const PilEntry* prefix_rows,
                              std::size_t prefix_len,
                              const GapRequirement& gap,
                              const GroupSuffix* suffixes,
                              GroupOutput* outputs, std::size_t group_size,
                              KernelScratch& scratch) {
  if (impl == KernelImpl::kScalar) {
    CombinePrefixGroup(prefix_rows, prefix_len, gap, suffixes, outputs,
                       group_size, scratch.scalar);
    return;
  }
  const std::int64_t min_gap = gap.min_gap();
  const std::int64_t max_gap = gap.max_gap();
  const std::uint64_t wbits = static_cast<std::uint64_t>(gap.flexibility());
  for (std::size_t j = 0; j < group_size; ++j) {
    GroupOutput& out = outputs[j];
    out.len = 0;
    out.support = SupportInfo{};
    if (prefix_len == 0 || suffixes[j].len == 0) continue;
    if (wbits <= 64 && CombinePairBits(impl, prefix_rows, prefix_len, min_gap,
                                       wbits, suffixes[j], out, scratch)) {
      continue;
    }
    CombinePairScalar(prefix_rows, prefix_len, min_gap, max_gap, suffixes[j],
                      out);
  }
}

}  // namespace pgm
