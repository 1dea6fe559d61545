#ifndef PGM_SERVE_CANONICAL_H_
#define PGM_SERVE_CANONICAL_H_

#include <cstdint>
#include <string>

#include "core/miner.h"
#include "seq/sequence.h"

namespace pgm {

/// Renders `algorithm` and every kSemantic ConfigField row (core/miner.h)
/// as a canonical string: `key=value;` pairs sorted by key, doubles in `%a`
/// hex-float form so the rendering is exact and locale-independent.
///
/// The rest of MinerConfig (kExecution rows, `threads`, `limits`, `cancel`,
/// `observer`) never changes a *completed* result (the guard only observes,
/// and the parallel merge is candidate-ordered), so requests that differ
/// only there share a cache entry. The cache in turn stores only completed
/// results, which is what makes the exclusion sound.
std::string CanonicalConfigString(const std::string& algorithm,
                                  const MinerConfig& config);

/// FNV-1a 64 digest of the sequence: alphabet characters, case flag, length,
/// then the encoded symbol bytes.
std::uint64_t SequenceDigest(const Sequence& sequence);

/// The ResultCache key: `<sequence digest hex>:<canonical config hex>` (two
/// 16-digit lowercase hex fields). Keeping the halves separate makes cache
/// keys greppable by input in traces and logs.
std::string CacheKey(const Sequence& sequence, const std::string& algorithm,
                     const MinerConfig& config);

}  // namespace pgm

#endif  // PGM_SERVE_CANONICAL_H_
