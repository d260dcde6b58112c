// Strict command-line flags for the CLI tools.
//
// A command declares the flags it accepts once, as a list of FlagSpec: name,
// kind, default, accepted range or choices, and one line of help. Flags::Parse
// checks argv against that declaration and rejects, naming the offending
// argument, an undeclared flag, a positional argument, a missing value, and a
// value that is malformed or out of range. FlagsUsage prints the help text
// from the same declaration, so the two cannot drift apart.
//
// Syntax: `--name value` or `--name=value`; a repeated flag keeps its last
// value. A bool flag is written bare (`--name`) or as `--name=V` with V one
// of true|false|1|0|yes|no|on|off; it never takes the next argument as its
// value.
#ifndef QUADKDV_UTIL_FLAGS_H_
#define QUADKDV_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace kdv {

// A flag's value: none (a flag without a default, not given), a string (the
// kString and kChoice kinds), or the parsed bool or number.
using FlagValue =
    std::variant<std::monostate, std::string, bool, int, uint64_t, double>;

struct FlagSpec {
  enum class Kind { kString, kChoice, kBool, kInt, kUint64, kDouble };

  static FlagSpec String(const char* name, const char* help,
                         const char* def = "") {
    return {name, Kind::kString, help, std::string(def)};
  }
  // `choices` is '|'-separated, e.g. "on|off".
  static FlagSpec Choice(const char* name, const std::string& choices,
                         const char* help, const char* def) {
    return {name, Kind::kChoice, help, std::string(def), choices};
  }
  static FlagSpec Bool(const char* name, const char* help, bool def = false) {
    return {name, Kind::kBool, help, def};
  }
  // A number flag without a default reads as absent until given; the
  // command derives its value (from other flags or from its input).
  static FlagSpec Int(const char* name, const char* help,
                      std::optional<int> def = {}) {
    return {name, Kind::kInt, help, def ? FlagValue(*def) : FlagValue()};
  }
  static FlagSpec Uint64(const char* name, const char* help,
                         std::optional<uint64_t> def = {}) {
    return {name, Kind::kUint64, help, def ? FlagValue(*def) : FlagValue()};
  }
  static FlagSpec Double(const char* name, const char* help,
                         std::optional<double> def = {}) {
    return {name, Kind::kDouble, help, def ? FlagValue(*def) : FlagValue()};
  }

  // The accepted range of an int or double flag.
  FlagSpec AtLeast(double lo) const { return Range(lo, false, max); }
  FlagSpec Above(double lo) const { return Range(lo, true, max); }
  FlagSpec AtMost(double hi) const { return Range(min, min_exclusive, hi); }
  FlagSpec Range(double lo, bool lo_exclusive, double hi) const;
  // A double flag the command validates itself (ε, τ, γ): any text is
  // accepted, malformed text reads as NaN and non-finite values pass, so
  // the command's validator rejects them by name.
  FlagSpec CheckedByCommand() const {
    FlagSpec spec = *this;
    spec.checked_by_command = true;
    return spec;
  }

  std::string name;
  Kind kind = Kind::kString;
  std::string help;
  FlagValue default_value;
  std::string choices = "";  // kChoice
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
  bool checked_by_command = false;
};

class Flags {
 public:
  // Parses argv[1..argc) against `specs`. Returns false, with a message
  // naming the offending argument in *error, on any rejection listed above.
  static bool Parse(const std::vector<FlagSpec>& specs, int argc,
                    const char* const* argv, Flags* out, std::string* error);

  // True when the flag was given on the command line.
  bool Has(const std::string& name) const;

  // The given value, else the declared default. Reading an undeclared flag,
  // a flag of another kind, or an absent flag without a default is a
  // programming error (KDV_CHECK).
  const std::string& String(const std::string& name) const;  // and kChoice
  bool Bool(const std::string& name) const;
  int Int(const std::string& name) const;
  uint64_t Uint64(const std::string& name) const;
  double Double(const std::string& name) const;

 private:
  struct Entry {
    bool given = false;
    FlagValue value;
  };
  template <typename T>
  const T& Get(const std::string& name) const;

  std::map<std::string, Entry> entries_;
};

// The usage text of `specs`: per flag, one line of its name, a value
// placeholder, its help, range and default, prefixed by `indent`.
std::string FlagsUsage(const std::vector<FlagSpec>& specs,
                       const std::string& indent);

}  // namespace kdv

#endif  // QUADKDV_UTIL_FLAGS_H_
