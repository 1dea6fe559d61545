#include "util/flags.h"

#include "util/string_util.h"

namespace pgm {

FlagSet::FlagSet(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagSet::AddInt64(const std::string& name, std::int64_t* value,
                       const std::string& help) {
  Add(name, help, std::to_string(*value),
      [value](const std::string& text) -> Status {
        PGM_ASSIGN_OR_RETURN(*value, ParseInt64(text));
        return Status::OK();
      });
}

void FlagSet::AddDouble(const std::string& name, double* value,
                        const std::string& help) {
  Add(name, help, StrFormat("%g", *value),
      [value](const std::string& text) -> Status {
        PGM_ASSIGN_OR_RETURN(*value, ParseDouble(text));
        return Status::OK();
      });
}

void FlagSet::AddString(const std::string& name, std::string* value,
                        const std::string& help) {
  Add(name, help, *value, [value](const std::string& text) {
    *value = text;
    return Status::OK();
  });
}

void FlagSet::AddBool(const std::string& name, bool* value,
                      const std::string& help) {
  Add(name, help, *value ? "true" : "false",
      [value](const std::string& text) {
        const std::string lower = ToLower(text);
        if (lower == "true" || lower == "1" || lower.empty()) {
          *value = true;
        } else if (lower == "false" || lower == "0") {
          *value = false;
        } else {
          return Status::InvalidArgument("bad boolean value: '" + text +
                                         "'");
        }
        return Status::OK();
      });
  flags_[name].is_bool = true;
}

void FlagSet::Add(const std::string& name, const std::string& help,
                  std::string default_repr,
                  std::function<Status(const std::string&)> set) {
  flags_[name] = Flag{std::move(set), help, std::move(default_repr)};
}

Status FlagSet::SetFlag(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name + "\n" + Usage());
  }
  // Setters report only what is wrong with the text; the flag's name is
  // added here, once, so every value error says which flag it came from.
  const Status status = it->second.set(value);
  if (status.ok()) return status;
  return Status(status.code(), "--" + name + ": " + status.message());
}

Status FlagSet::Parse(const std::string& /*program_name*/,
                      const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      return Status::NotFound(Usage());
    }
    if (arg.rfind("--", 0) != 0) {
      positional_args_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      PGM_RETURN_IF_ERROR(SetFlag(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body + "\n" + Usage());
    }
    if (it->second.is_bool) {
      PGM_RETURN_IF_ERROR(SetFlag(body, "true"));
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag --" + body + " requires a value");
    }
    PGM_RETURN_IF_ERROR(SetFlag(body, args[++i]));
  }
  return Status::OK();
}

Status FlagSet::Parse(int argc, char** argv) {
  if (argc <= 0) return Parse("", {});
  return Parse(argv[0], std::vector<std::string>(argv + 1, argv + argc));
}

std::string FlagSet::Usage() const {
  std::string out = description_ + "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out += StrFormat("  --%-24s %s (default: %s)\n", name.c_str(),
                     flag.help.c_str(), flag.default_repr.c_str());
  }
  return out;
}

}  // namespace pgm
