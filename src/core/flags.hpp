#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace naas::core {

/// Parses all of `text` as a base-10 integer in [min, max]. Only digits are
/// accepted: an empty string, a sign, blanks, trailing text and a value out
/// of range (overflow included) are rejected. Writes `*out` on success only.
bool parse_uint(std::string_view text, std::uint64_t min, std::uint64_t max,
                std::uint64_t* out);

/// The same for a decimal number (no '+' or blanks; NaN is in no range).
bool parse_double(std::string_view text, double min, double max,
                  double* out);

/// One command-line flag: its name ("--threads"), the placeholder of its
/// value ("<n>"; empty for a switch, which takes none), a help line, and
/// the setter that stores a parsed value where it goes. The setter returns
/// why it rejects a value, or "" to accept it (a switch gets "").
struct Flag {
  std::string name;
  std::string placeholder;
  std::string help;
  std::function<std::string(const std::string& value)> set;
};

/// A flag whose value is stored in `*out` as given.
Flag text_flag(std::string name, std::string placeholder, std::string* out,
               std::string help);

/// A flag whose value is an integer in [min, max] (see parse_uint; `min`
/// is never negative), stored in `*out`.
template <typename T>
Flag int_flag(std::string name, T* out, std::string help,
              std::type_identity_t<T> min = 0,
              std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>, "int_flag stores an integer");
  return {name, "<n>", std::move(help), [=](const std::string& value) {
            std::uint64_t parsed = 0;
            if (!parse_uint(value, static_cast<std::uint64_t>(min),
                            static_cast<std::uint64_t>(max), &parsed))
              return "bad " + name + ": need an integer in [" +
                     std::to_string(min) + ", " + std::to_string(max) +
                     "], got '" + value + "'";
            *out = static_cast<T>(parsed);
            return std::string();
          }};
}

/// A program's flag table, and the usage text rendered from it:
/// `synopsis` ("usage: ..." lines), one line per flag with its help, then
/// `notes`. Both texts end in a newline when not empty.
struct Flags {
  std::string synopsis;
  std::vector<Flag> flags;
  std::string notes = "";

  /// Parses argv[1..argc). Every argument that starts with '-' must name a
  /// flag of the table; a flag that takes a value reads the next argument.
  /// Flags may sit anywhere, also between positionals, which are appended
  /// to `*positionals` in order (a null `positionals` accepts none).
  /// Returns why the command line is rejected (an unknown flag, a missing
  /// or rejected value, an unexpected positional), or "" when it is not.
  std::string parse(int argc, const char* const* argv,
                    std::vector<std::string>* positionals) const;

  std::string usage() const;

  /// Prints `why` and the usage to stderr; returns 2, the usage exit code.
  int usage_error(const std::string& why) const;
};

}  // namespace naas::core
