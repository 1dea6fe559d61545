// Compares a fresh bench_regression metrics file against the committed
// baseline and fails (exit 1) when any tracked metric regresses by more
// than the tolerance (default 10%). Usage:
//
//   bench_check <baseline.json> <current.json> [--tolerance 0.10]
//
// The files are the flat `"key": number` JSON bench_regression emits.
// Direction is inferred from the key: "*_ms" metrics regress by going up,
// "*_speedup" / "*_ratio" metrics regress by going down. Keys prefixed
// "info." are informational and never checked. A tracked baseline key
// whose direction cannot be inferred is a failure (a row the harness calls
// gated must actually be gated), and so is a tracked baseline key missing
// from the current file (a silently dropped metric is a regression of the
// harness itself). A baseline whose `info.abi_stamp`
// is missing or older than util/bench_abi.h's current stamp draws a
// deprecation warning (not a failure) asking for regeneration.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "util/bench_abi.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/status.h"

namespace pgm {
namespace {

// Parses the flat `{"key": number, ...}` subset of JSON that
// bench_regression emits. Anything structurally richer is a parse error —
// this is a regression gate, not a JSON library.
StatusOr<std::map<std::string, double>> ParseFlatMetrics(
    const std::string& text) {
  std::map<std::string, double> metrics;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t key_begin = ++i;
    while (i < text.size() && text[i] != '"') ++i;
    if (i >= text.size()) {
      return Status::Corruption("unterminated key in metrics JSON");
    }
    const std::string key = text.substr(key_begin, i - key_begin);
    ++i;  // closing quote
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == ':')) {
      ++i;
    }
    const std::size_t value_begin = i;
    while (i < text.size() && text[i] != ',' && text[i] != '\n' &&
           text[i] != '}') {
      ++i;
    }
    const std::string value = text.substr(value_begin, i - value_begin);
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) {
      return Status::Corruption("non-numeric value for key '" + key + "'");
    }
    metrics[key] = parsed;
  }
  if (metrics.empty()) {
    return Status::Corruption("no metrics found in JSON");
  }
  return metrics;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int Main(int argc, char** argv) {
  FlagSet flags(
      "Fails when any tracked metric of <current.json> regresses more than "
      "--tolerance relative to <baseline.json>.");
  double tolerance = 0.10;
  flags.AddDouble("tolerance", &tolerance,
                  "allowed relative regression (0.10 = 10%)");
  const Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.message().c_str());
    return parse_status.code() == StatusCode::kNotFound ? 0 : 2;
  }
  if (flags.positional_args().size() != 2) {
    std::fprintf(stderr, "usage: bench_check <baseline.json> <current.json>\n");
    return 2;
  }

  auto load = [](const std::string& path)
      -> StatusOr<std::map<std::string, double>> {
    StatusOr<std::string> text = ReadFileToString(path);
    if (!text.ok()) return text.status();
    return ParseFlatMetrics(*text);
  };
  StatusOr<std::map<std::string, double>> baseline =
      load(flags.positional_args()[0]);
  StatusOr<std::map<std::string, double>> current =
      load(flags.positional_args()[1]);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "bench_check: %s\n",
                 (!baseline.ok() ? baseline : current).status().ToString()
                     .c_str());
    return 2;
  }

  // Deprecation check, not a gate: a baseline measured under an older
  // benchmark ABI (or before stamps existed) still compares, but the
  // numbers may not mean what the current harness measures — warn so the
  // baseline gets regenerated.
  const auto stamp_it = baseline->find("info.abi_stamp");
  if (stamp_it == baseline->end()) {
    std::fprintf(stderr,
                 "WARNING: baseline %s predates ABI stamps (current stamp "
                 "%g); regenerate it with bench_regression\n",
                 flags.positional_args()[0].c_str(), kBenchAbiStamp);
  } else if (stamp_it->second < kBenchAbiStamp) {
    std::fprintf(stderr,
                 "WARNING: baseline %s has ABI stamp %g, older than the "
                 "current harness's %g; its tracked metrics are deprecated "
                 "-- regenerate it with bench_regression\n",
                 flags.positional_args()[0].c_str(), stamp_it->second,
                 kBenchAbiStamp);
  }

  int failures = 0;
  for (const auto& [key, base] : *baseline) {
    if (key.rfind("info.", 0) == 0) continue;
    const auto it = current->find(key);
    if (it == current->end()) {
      std::fprintf(stderr, "FAIL %s: tracked metric missing from current\n",
                   key.c_str());
      ++failures;
      continue;
    }
    const double now = it->second;
    const bool lower_is_better = EndsWith(key, "_ms");
    const bool higher_is_better =
        EndsWith(key, "_speedup") || EndsWith(key, "_ratio");
    if (!lower_is_better && !higher_is_better) {
      std::fprintf(stderr,
                   "FAIL %s: direction unknown (name it *_ms, *_speedup or "
                   "*_ratio, or prefix it info.)\n",
                   key.c_str());
      ++failures;
      continue;
    }
    const double limit =
        lower_is_better ? base * (1.0 + tolerance) : base * (1.0 - tolerance);
    const bool regressed = lower_is_better ? now > limit : now < limit;
    if (regressed) {
      std::fprintf(stderr, "FAIL %s: %g vs baseline %g (limit %g)\n",
                   key.c_str(), now, base, limit);
      ++failures;
    } else {
      std::printf("  ok  %s: %g vs baseline %g (limit %g)\n", key.c_str(),
                  now, base, limit);
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_check: %d tracked metric(s) failed (missing, "
                 "direction unknown, or regressed beyond %.0f%%)\n",
                 failures, tolerance * 100.0);
    return 1;
  }
  std::printf("bench_check: all tracked metrics within %.0f%% of baseline\n",
              tolerance * 100.0);
  return 0;
}

}  // namespace
}  // namespace pgm

int main(int argc, char** argv) { return pgm::Main(argc, argv); }
