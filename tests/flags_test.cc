#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"

namespace kdv {
namespace {

using F = FlagSpec;

// One declaration covering every kind, range form and default form.
const std::vector<FlagSpec>& Specs() {
  static const std::vector<FlagSpec> specs = {
      F::Double("eps", "error bound", 1.0).CheckedByCommand(),
      F::Double("gamma", "kernel scale", 0.0),
      F::Double("scale", "fraction", 0.01).Above(0).AtMost(1),
      F::Double("tau", "threshold").CheckedByCommand(),
      F::Int("width", "pixels", 77).AtLeast(1),
      F::Int("threads", "0: auto", 1).AtLeast(0),
      F::Int("height", "default from --width").AtLeast(1),
      F::Uint64("seed", "seed", 7),
      F::String("out", "output", "x.ppm"),
      F::String("kernel", "kernel"),
      F::Choice("tile-shared", "on|off", "shared traversal", "on"),
      F::Bool("verbose", "chatty"),
      F::Bool("faults", "arm faults", true),
  };
  return specs;
}

// Parses `args` (without the program name); *error gets the message.
bool TryParse(std::vector<const char*> args, Flags* flags,
              std::string* error) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(Specs(), static_cast<int>(args.size()), args.data(),
                      flags, error);
}

Flags Parse(std::vector<const char*> args) {
  Flags flags;
  std::string error;
  EXPECT_TRUE(TryParse(std::move(args), &flags, &error)) << error;
  return flags;
}

// Expects `args` to be rejected with a message that contains `mentions`.
void ExpectRejected(std::vector<const char*> args,
                    const std::string& mentions) {
  Flags flags;
  std::string error;
  EXPECT_FALSE(TryParse(args, &flags, &error));
  EXPECT_NE(error.find(mentions), std::string::npos) << error;
}

TEST(FlagsTest, KeyValuePairs) {
  Flags f = Parse({"--eps", "0.01", "--out", "x.ppm"});
  EXPECT_DOUBLE_EQ(f.Double("eps"), 0.01);
  EXPECT_EQ(f.String("out"), "x.ppm");
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = Parse({"--width=640", "--kernel=cosine"});
  EXPECT_EQ(f.Int("width"), 640);
  EXPECT_EQ(f.String("kernel"), "cosine");
}

TEST(FlagsTest, BooleanFlagWithoutValue) {
  Flags f = Parse({"--verbose", "--eps", "0.05"});
  EXPECT_TRUE(f.Bool("verbose"));
  EXPECT_DOUBLE_EQ(f.Double("eps"), 0.05);
}

TEST(FlagsTest, TrailingFlagIsBoolean) {
  Flags f = Parse({"--verbose"});
  EXPECT_TRUE(f.Bool("verbose"));
}

TEST(FlagsTest, NegativeNumberAsValue) {
  Flags f = Parse({"--gamma", "-1.5"});
  EXPECT_DOUBLE_EQ(f.Double("gamma"), -1.5);
}

TEST(FlagsTest, LastOccurrenceWins) {
  Flags f = Parse({"--eps", "0.1", "--eps", "0.2"});
  EXPECT_DOUBLE_EQ(f.Double("eps"), 0.2);
}

TEST(FlagsTest, BareDoubleDashFails) {
  Flags flags;
  std::string error;
  EXPECT_FALSE(TryParse({"--"}, &flags, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(TryParse({"--=1"}, &flags, &error));
}

TEST(FlagsTest, DefaultsWhenMissing) {
  Flags f = Parse({});
  EXPECT_DOUBLE_EQ(f.Double("eps"), 1.0);
  EXPECT_EQ(f.Int("width"), 77);
  EXPECT_EQ(f.Uint64("seed"), 7u);
  EXPECT_EQ(f.String("out"), "x.ppm");
  EXPECT_EQ(f.String("kernel"), "");
  EXPECT_EQ(f.String("tile-shared"), "on");
  EXPECT_FALSE(f.Bool("verbose"));
  EXPECT_TRUE(f.Bool("faults"));
  EXPECT_FALSE(f.Has("width"));
  // No default: absent until given, so the command derives it.
  EXPECT_FALSE(f.Has("height"));
  EXPECT_FALSE(f.Has("tau"));
  EXPECT_EQ(Parse({"--height", "9"}).Int("height"), 9);
}

TEST(FlagsTest, MalformedValuesAreRejected) {
  ExpectRejected({"--width", "abc"}, "--width");
  ExpectRejected({"--width", "12x"}, "--width");
  ExpectRejected({"--width="}, "--width");
  ExpectRejected({"--gamma", "abc"}, "--gamma");
  ExpectRejected({"--seed", "bogus"}, "--seed");
  ExpectRejected({"--verbose=banana"}, "--verbose");
  ExpectRejected({"--tile-shared", "maybe"}, "on|off");
  ExpectRejected({"--tile-shared", "on|off"}, "--tile-shared");
}

TEST(FlagsTest, NonFiniteDoublesAreRejected) {
  // A NaN threshold or scale would silently disable every comparison
  // downstream.
  ExpectRejected({"--gamma", "nan"}, "--gamma");
  ExpectRejected({"--gamma=inf"}, "--gamma");
  ExpectRejected({"--scale", "-inf"}, "--scale");
}

TEST(FlagsTest, OutOfRangeValuesAreRejected) {
  ExpectRejected({"--width", "0"}, "an integer >= 1");
  ExpectRejected({"--threads", "-3"}, "--threads");
  ExpectRejected({"--width", "4294967296"}, "--width");  // beyond int
  ExpectRejected({"--scale", "0"}, "in (0, 1]");
  ExpectRejected({"--scale", "2"}, "--scale");
  ExpectRejected({"--scale", "-1"}, "--scale");
  ExpectRejected({"--seed", "-1"}, "--seed");  // strtoull would wrap it
  ExpectRejected({"--seed", "18446744073709551616"}, "--seed");
  EXPECT_EQ(Parse({"--threads", "0"}).Int("threads"), 0);
  EXPECT_DOUBLE_EQ(Parse({"--scale", "1"}).Double("scale"), 1.0);
  EXPECT_EQ(Parse({"--seed", "18446744073709551615"}).Uint64("seed"),
            18446744073709551615ull);
  EXPECT_EQ(Parse({"--seed", "0x10"}).Uint64("seed"), 16u);
}

TEST(FlagsTest, UnknownFlagIsRejectedByName) {
  ExpectRejected({"--esp", "0.5"}, "unknown flag --esp");
  ExpectRejected({"--tau-sigmaa=2"}, "unknown flag --tau-sigmaa");
}

TEST(FlagsTest, PositionalArgumentsAreRejected) {
  ExpectRejected({"--eps", "0.01", "input.csv"}, "'input.csv'");
  // A bool never takes the next argument as its value.
  ExpectRejected({"--verbose", "maybe"}, "'maybe'");
  ExpectRejected({"--verbose", "false"}, "'false'");
}

TEST(FlagsTest, MissingValueIsRejected) {
  ExpectRejected({"--width"}, "--width needs");
  ExpectRejected({"--out", "--verbose"}, "--out needs");
}

TEST(FlagsTest, BoolParsingVariants) {
  Flags f = Parse({"--verbose=1", "--faults=off"});
  EXPECT_TRUE(f.Bool("verbose"));
  EXPECT_FALSE(f.Bool("faults"));
  for (const char* yes : {"true", "1", "yes", "on"}) {
    const std::string arg = std::string("--faults=") + yes;
    EXPECT_TRUE(Parse({"--faults=no", arg.c_str()}).Bool("faults")) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    const std::string arg = std::string("--faults=") + no;
    EXPECT_FALSE(Parse({arg.c_str()}).Bool("faults")) << no;
  }
}

TEST(FlagsTest, CommandCheckedDoublesPassEveryValueThrough) {
  // ε, τ and γ reach their validators: malformed text reads as NaN and
  // non-finite values pass, so the command rejects them by name.
  EXPECT_TRUE(std::isnan(Parse({"--eps", "abc"}).Double("eps")));
  EXPECT_TRUE(std::isnan(Parse({"--eps", "nan"}).Double("eps")));
  EXPECT_TRUE(std::isinf(Parse({"--tau=inf"}).Double("tau")));
  EXPECT_DOUBLE_EQ(Parse({"--tau", "-1"}).Double("tau"), -1.0);
  EXPECT_TRUE(Parse({"--tau", "x"}).Has("tau"));
}

TEST(FlagsTest, UsageListsEveryFlagWithItsRangeAndDefault) {
  const std::string usage = FlagsUsage(Specs(), "  ");
  for (const FlagSpec& spec : Specs()) {
    EXPECT_NE(usage.find("--" + spec.name), std::string::npos) << spec.name;
    EXPECT_NE(usage.find(spec.help), std::string::npos) << spec.name;
  }
  EXPECT_NE(usage.find("--scale X"), std::string::npos);
  EXPECT_NE(usage.find("in (0, 1], default 0.01"), std::string::npos);
  EXPECT_NE(usage.find(">= 1, default 77"), std::string::npos);
  EXPECT_NE(usage.find("--tile-shared on|off"), std::string::npos);
  EXPECT_NE(usage.find("default true"), std::string::npos);
}

}  // namespace
}  // namespace kdv
