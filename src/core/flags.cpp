#include "core/flags.hpp"

#include <charconv>
#include <cstdio>

namespace naas::core {

bool parse_uint(std::string_view text, std::uint64_t min, std::uint64_t max,
                std::uint64_t* out) {
  // from_chars alone would take a leading '-' for a signed type; reading
  // unsigned and requiring a leading digit leaves signs no way in.
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max)
    return false;
  *out = value;
  return true;
}

bool parse_double(std::string_view text, double min, double max,
                  double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= min && value <= max))
    return false;
  *out = value;
  return true;
}

Flag text_flag(std::string name, std::string placeholder, std::string* out,
               std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [out](const std::string& value) {
            *out = value;
            return std::string();
          }};
}

std::string Flags::parse(int argc, const char* const* argv,
                         std::vector<std::string>* positionals) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg.front() != '-') {
      if (positionals == nullptr) return "unexpected argument: " + arg;
      positionals->push_back(arg);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (f.name == arg) flag = &f;
    if (flag == nullptr) return "unknown flag: " + arg;
    const bool takes_value = !flag->placeholder.empty();
    if (takes_value && i + 1 >= argc)
      return arg + " needs a value " + flag->placeholder;
    const std::string why = flag->set(takes_value ? argv[++i] : "");
    if (!why.empty()) return why;
  }
  return "";
}

std::string Flags::usage() const {
  // Help starts in one column; a flag too wide for it puts its help on the
  // next line.
  constexpr std::size_t kHelpColumn = 26;
  std::string text = synopsis + "flags:\n";
  for (const Flag& f : flags) {
    std::string line = "  " + f.name;
    if (!f.placeholder.empty()) line += " " + f.placeholder;
    line += line.size() < kHelpColumn
                ? std::string(kHelpColumn - line.size(), ' ')
                : "\n" + std::string(kHelpColumn, ' ');
    text += line + f.help + "\n";
  }
  return text + notes;
}

int Flags::usage_error(const std::string& why) const {
  std::fprintf(stderr, "%s\n%s", why.c_str(), usage().c_str());
  return 2;
}

}  // namespace naas::core
