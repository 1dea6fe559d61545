#include "serve/canonical.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "util/digest.h"

namespace pgm {

std::string CanonicalConfigString(const std::string& algorithm,
                                  const MinerConfig& config) {
  std::vector<std::pair<std::string_view, std::string>> fields;
  fields.emplace_back("algorithm", algorithm);
  for (const ConfigField& field : MinerConfigFields()) {
    if (field.role == FieldRole::kSemantic) {
      fields.emplace_back(field.canonical, field.canonical_value(config));
    }
  }
  // The rows are in declaration order; the key is sorted by name, so a row
  // added anywhere in the table cannot reorder existing keys.
  std::sort(fields.begin(), fields.end());

  std::string out;
  for (const auto& [key, value] : fields) {
    out += key;
    out += '=';
    out += value;
    out += ';';
  }
  return out;
}

std::uint64_t SequenceDigest(const Sequence& sequence) {
  Digest64 digest;
  digest.Update(sequence.alphabet().symbols());
  digest.UpdateU64(sequence.alphabet().case_insensitive() ? 1 : 0);
  digest.UpdateU64(sequence.size());
  if (!sequence.symbols().empty()) {
    static_assert(sizeof(Symbol) == 1,
                  "SequenceDigest hashes the symbol array as raw bytes");
    digest.Update(sequence.symbols().data(), sequence.symbols().size());
  }
  return digest.value();
}

std::string CacheKey(const Sequence& sequence, const std::string& algorithm,
                     const MinerConfig& config) {
  return DigestToHex(SequenceDigest(sequence)) + ":" +
         DigestToHex(Fnv1a64(CanonicalConfigString(algorithm, config)));
}

}  // namespace pgm
