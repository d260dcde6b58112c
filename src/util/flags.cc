#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace kdv {
namespace {

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// The accepted range of a number flag, e.g. ">= 1" or "in (0, 1]"; empty
// when unbounded.
std::string RangeText(const FlagSpec& spec) {
  const std::string lo = FormatNumber(spec.min);
  const std::string hi = FormatNumber(spec.max);
  if (std::isfinite(spec.min) && std::isfinite(spec.max)) {
    return (spec.min_exclusive ? "in (" : "in [") + lo + ", " + hi + "]";
  }
  if (std::isfinite(spec.min)) return (spec.min_exclusive ? "> " : ">= ") + lo;
  return std::isfinite(spec.max) ? "<= " + hi : "";
}

// Indexed by Kind, in its order: the usage text's value placeholder (a
// choice flag lists its choices instead) and what a value must be.
struct KindText {
  const char* placeholder;
  const char* expected;
};
constexpr KindText kKindText[] = {
    {" S", "a value"},    {"", "one of "},
    {"", "one of true|false|1|0|yes|no|on|off"},
    {" N", "an integer"}, {" N", "an unsigned 64-bit integer"},
    {" X", "a finite number"}};

std::string Expected(const FlagSpec& spec) {
  const std::string what = kKindText[static_cast<int>(spec.kind)].expected;
  const std::string range = RangeText(spec);
  if (spec.kind == FlagSpec::Kind::kChoice) return what + spec.choices;
  return range.empty() ? what : what + " " + range;
}

bool InRange(const FlagSpec& spec, double v) {
  return (spec.min_exclusive ? v > spec.min : v >= spec.min) && v <= spec.max;
}

// Parses `text` as a value of `spec` into *out. Returns false on malformed or
// out-of-range text.
bool ParseValue(const FlagSpec& spec, const std::string& text,
                FlagValue* out) {
  char* end = nullptr;
  errno = 0;
  switch (spec.kind) {
    case FlagSpec::Kind::kString:
      *out = text;
      return true;
    case FlagSpec::Kind::kChoice:
      *out = text;
      return text.find('|') == std::string::npos &&
             ("|" + spec.choices + "|").find("|" + text + "|") !=
                 std::string::npos;
    case FlagSpec::Kind::kBool: {
      const bool yes =
          text == "true" || text == "1" || text == "yes" || text == "on";
      *out = yes;
      return yes || text == "false" || text == "0" || text == "no" ||
             text == "off";
    }
    case FlagSpec::Kind::kInt: {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      *out = static_cast<int>(v);
      return !text.empty() && *end == '\0' && errno != ERANGE &&
             v >= std::numeric_limits<int>::min() &&
             v <= std::numeric_limits<int>::max() &&
             InRange(spec, static_cast<double>(v));
    }
    case FlagSpec::Kind::kUint64: {
      const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
      *out = static_cast<uint64_t>(v);
      // strtoull negates a leading '-' instead of rejecting it.
      return !text.empty() && *end == '\0' && errno != ERANGE &&
             text.find('-') == std::string::npos;
    }
    case FlagSpec::Kind::kDouble: {
      const double v = std::strtod(text.c_str(), &end);
      const bool well_formed = !text.empty() && *end == '\0';
      if (spec.checked_by_command) {
        *out = well_formed ? v : std::numeric_limits<double>::quiet_NaN();
        return true;
      }
      *out = v;
      return well_formed && std::isfinite(v) && InRange(spec, v);
    }
  }
  return false;
}

}  // namespace

FlagSpec FlagSpec::Range(double lo, bool lo_exclusive, double hi) const {
  KDV_CHECK(kind == Kind::kInt || kind == Kind::kDouble);
  FlagSpec spec = *this;
  spec.min = lo;
  spec.min_exclusive = lo_exclusive;
  spec.max = hi;
  return spec;
}

bool Flags::Parse(const std::vector<FlagSpec>& specs, int argc,
                  const char* const* argv, Flags* out, std::string* error) {
  std::map<std::string, const FlagSpec*> declared;
  out->entries_.clear();
  for (const FlagSpec& spec : specs) {
    KDV_CHECK_MSG(declared.emplace(spec.name, &spec).second,
                  "flag declared twice");
    out->entries_[spec.name].value = spec.default_value;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    std::string name = arg.substr(2);
    const size_t eq = name.find('=');
    std::string text = eq == std::string::npos ? "" : name.substr(eq + 1);
    name = name.substr(0, eq);
    const auto it = declared.find(name);
    if (it == declared.end()) {
      *error = "unknown flag --" + name;
      return false;
    }
    const FlagSpec& spec = *it->second;
    if (eq == std::string::npos) {
      if (spec.kind == FlagSpec::Kind::kBool) {
        text = "true";
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        text = argv[++i];
      } else {
        *error = "--" + name + " needs " + Expected(spec);
        return false;
      }
    }
    Entry& entry = out->entries_[name];
    if (!ParseValue(spec, text, &entry.value)) {
      *error = "--" + name + " must be " + Expected(spec) + ", got '" + text +
               "'";
      return false;
    }
    entry.given = true;
  }
  return true;
}

template <typename T>
const T& Flags::Get(const std::string& name) const {
  const auto it = entries_.find(name);
  KDV_CHECK_MSG(it != entries_.end(), "flag not declared");
  const T* v = std::get_if<T>(&it->second.value);
  KDV_CHECK_MSG(v != nullptr, "flag read as another kind, or without value");
  return *v;
}

bool Flags::Has(const std::string& name) const {
  const auto it = entries_.find(name);
  KDV_CHECK_MSG(it != entries_.end(), "flag not declared");
  return it->second.given;
}

const std::string& Flags::String(const std::string& name) const {
  return Get<std::string>(name);
}
bool Flags::Bool(const std::string& name) const { return Get<bool>(name); }
int Flags::Int(const std::string& name) const { return Get<int>(name); }
uint64_t Flags::Uint64(const std::string& name) const {
  return Get<uint64_t>(name);
}
double Flags::Double(const std::string& name) const {
  return Get<double>(name);
}

std::string FlagsUsage(const std::vector<FlagSpec>& specs,
                       const std::string& indent) {
  std::string out;
  for (const FlagSpec& spec : specs) {
    std::string line = indent + "--" + spec.name +
                       (spec.kind == FlagSpec::Kind::kChoice
                            ? " " + spec.choices
                            : kKindText[static_cast<int>(spec.kind)]
                                  .placeholder);
    line.resize(std::max(line.size() + 2, indent.size() + 24), ' ');
    line += spec.help;
    std::string notes = spec.checked_by_command ? "" : RangeText(spec);
    const FlagValue& d = spec.default_value;
    std::string def;
    if (const auto* s = std::get_if<std::string>(&d)) def = *s;
    if (const auto* b = std::get_if<bool>(&d); b && *b) def = "true";
    if (const auto* i = std::get_if<int>(&d)) def = std::to_string(*i);
    if (const auto* u = std::get_if<uint64_t>(&d)) def = std::to_string(*u);
    if (const auto* x = std::get_if<double>(&d)) def = FormatNumber(*x);
    if (!def.empty()) {
      notes += (notes.empty() ? "default " : ", default ") + def;
    }
    out += line + (notes.empty() ? "" : " (" + notes + ")") + "\n";
  }
  return out;
}

}  // namespace kdv
