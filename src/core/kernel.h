#ifndef PGM_CORE_KERNEL_H_
#define PGM_CORE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gap.h"
#include "core/pil_arena.h"

namespace pgm {

/// User-facing join-kernel selection (MinerConfig::kernel_tier, --kernel).
/// The tiers differ only in speed: every tier produces byte-identical PIL
/// rows and support counts — the scalar kernel is the authoritative oracle
/// the others are differentially tested against (DESIGN.md §7e).
enum class KernelTier {
  /// Pick the fastest tier the window width and CPU allow: AVX2 when
  /// supported, otherwise the generic-64-bit bitset kernel, for
  /// W = max_gap - min_gap + 1 <= 64; scalar beyond.
  kAuto,
  /// Always the scalar sliding-window kernel (the oracle).
  kScalar,
  /// The generic-64-bit bitset kernel for W <= 64 (scalar beyond).
  kBits,
  /// The AVX2-vectorized bitset kernel for W <= 64 when the CPU supports
  /// it; degrades to kBits (no AVX2) and to scalar (W > 64).
  kAvx2,
};

/// The implementation actually resolved for one run: what ResolveKernel
/// picked from the tier, the gap's window width, and the CPU.
enum class KernelImpl { kScalar, kBits, kAvx2 };

/// "auto" | "scalar" | "bits" | "avx2" (parsed back by the "kernel"
/// ConfigField row, core/miner.h).
const char* KernelTierToString(KernelTier tier);
/// "scalar" | "bits" | "avx2" (the shard_timing trace field).
const char* KernelImplToString(KernelImpl impl);

/// True when the AVX2 kernel can run here: the CPU reports AVX2 at runtime
/// AND kernel_avx2.cc was compiled with AVX2 enabled (x86 builds only; on
/// other architectures this is false and kAvx2 degrades to kBits).
bool Avx2Available();

/// Maps a configured tier to the implementation a run with `gap` uses.
/// W = gap.flexibility() > 64 always resolves to scalar — the bitset
/// kernels pack one window into a 64-bit mask, so wider windows have no
/// bit-parallel representation; an explicit kBits/kAvx2 request falls back
/// rather than failing.
KernelImpl ResolveKernel(KernelTier tier, const GapRequirement& gap);

/// Reusable per-worker state for CombinePrefixGroupKernel: the scalar
/// kernel's window states plus the bitset kernel's position bitmap, word
/// ranks, and suffix-count prefix sums. Once warmed up to the largest pair
/// seen, the join performs no allocation (the same contract
/// GroupJoinScratch gives the scalar kernel).
struct KernelScratch {
  GroupJoinScratch scalar;
  std::vector<std::uint64_t> bitmap;
  std::vector<std::uint64_t> rank;
  std::vector<std::uint64_t> cum;
};

/// The dispatching join kernel: identical contract to CombinePrefixGroup
/// (core/pil_arena.h), with `impl` selecting the implementation.
/// kScalar delegates to CombinePrefixGroup verbatim. kBits/kAvx2 run each
/// (prefix, suffix) pair through the bitset kernel when the pair is exactly
/// representable (no saturated suffix counts, total suffix count below the
/// clamp, dense-enough position span) and fall back to a per-pair scalar
/// loop otherwise — every path reproduces the oracle's rows and supports
/// byte-for-byte, which the kernel test layer enforces rather than trusts.
void CombinePrefixGroupKernel(KernelImpl impl, const PilEntry* prefix_rows,
                              std::size_t prefix_len,
                              const GapRequirement& gap,
                              const GroupSuffix* suffixes,
                              GroupOutput* outputs, std::size_t group_size,
                              KernelScratch& scratch);

namespace internal {

/// Rows per window-extraction strip (the unit the AVX2 path vectorizes).
inline constexpr std::size_t kKernelStrip = 64;

/// Extracts `n` W-bit window masks from the pair's bitmap — one per query
/// bit offset offs[i] — together with each query's below-window bits of its
/// first word (`prelow`, popcounted by the caller into a row rank) and the
/// word-rank base (`rankbase`). Defined in kernel_avx2.cc: the AVX2 build
/// gathers bitmap/rank words for four queries at a time and extracts the
/// masks with variable vector shifts; non-AVX2 builds compile a portable
/// stub with the same semantics (a NEON variant would slot in there). Only
/// called when the resolved impl is kAvx2.
void ExtractWindowsAvx2(const std::uint64_t* bitmap, const std::uint64_t* rank,
                        const std::uint64_t* offs, std::size_t n,
                        std::uint64_t wmask, std::uint64_t* masks,
                        std::uint64_t* prelow, std::uint64_t* rankbase);

/// True when kernel_avx2.cc was compiled with AVX2 code generation (its
/// translation unit owns the answer; see Avx2Available).
bool Avx2KernelCompiled();

}  // namespace internal
}  // namespace pgm

#endif  // PGM_CORE_KERNEL_H_
