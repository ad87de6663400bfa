#include <gtest/gtest.h>

#include <string>

#include "common/cli.hpp"

namespace capmem {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return Cli(static_cast<int>(v.size()), v.data());
}

TEST(Cli, EqualsAndSpaceForms) {
  Cli c = make({"--mode=SNC4", "--iters", "100"});
  EXPECT_EQ(c.get_string("mode", "QUAD"), "SNC4");
  EXPECT_EQ(c.get_int("iters", 1), 100);
  c.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  Cli c = make({});
  EXPECT_EQ(c.get_string("mode", "QUAD"), "QUAD");
  EXPECT_EQ(c.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(c.get_flag("fast"));
  c.finish();
}

TEST(Cli, BareFlagIsTrue) {
  Cli c = make({"--fast"});
  EXPECT_TRUE(c.get_flag("fast"));
  c.finish();
}

TEST(Cli, FlagFalseForms) {
  Cli c = make({"--fast=false", "--slow=0"});
  EXPECT_FALSE(c.get_flag("fast", true));
  EXPECT_FALSE(c.get_flag("slow", true));
  c.finish();
}

// Usage errors print the problem plus the full usage on stderr and exit 2
// from finish() — never an abort.
TEST(Cli, UnknownOptionExitsWithUsage) {
  Cli c = make({"--bogus=1"});
  c.get_int("real", 0, "a declared option");
  EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
              "unknown option --bogus.*usage: prog.*--real");
}

TEST(Cli, NonDashArgumentRejected) {
  Cli c = make({"positional"});
  EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
              "unexpected argument 'positional'");
}

TEST(Cli, MalformedNumbersExitWithUsage) {
  // The whole value must parse, so a trailing "x" is an error too.
  for (const std::string bad : {"abc", "5x"}) {
    const std::string arg = "--iters=" + bad;
    Cli c = make({arg.c_str()});
    EXPECT_EQ(c.get_int("iters", 21), 21);
    EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
                "--iters expects an integer, got '" + bad + "'");
  }
  Cli c = make({"--x", "3.25s"});
  c.get_double("x", 0);
  EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
              "--x expects a number, got '3.25s'");
}

// A value option given bare — last in argv, or followed by another --x —
// is a usage error, not the string "true"; bare flags stay booleans.
TEST(Cli, BareValueOptionExitsWithUsage) {
  {
    Cli c = make({"--metrics-out", "--log-level", "warn"});
    EXPECT_EQ(c.get_string("metrics-out", ""), "");
    EXPECT_EQ(c.get_string("log-level", ""), "warn");
    EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
                "--metrics-out expects a value.*usage: prog");
  }
  {
    Cli c = make({"--iters", "3", "--jobs"});
    EXPECT_EQ(c.get_int("iters", 1), 3);
    EXPECT_EQ(c.get_jobs(), 1);
    EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
                "--jobs expects a value");
  }
  {
    Cli c = make({"--x", "--fast"});
    EXPECT_DOUBLE_EQ(c.get_double("x", 1.5), 1.5);
    EXPECT_TRUE(c.get_flag("fast"));
    EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
                "--x expects a value");
  }
}

// --jobs must fit an int: a wider value is a usage error, never truncated
// (4294967298 would otherwise run 2 workers). Parsing fails before any
// worker could start.
TEST(Cli, JobsAboveIntMaxExitsWithUsage) {
  {
    Cli c = make({"--jobs=2147483647"});
    EXPECT_EQ(c.get_jobs(), 2147483647);
    c.finish();
  }
  Cli c = make({"--jobs", "4294967298"});
  EXPECT_EQ(c.get_jobs(), 1);
  EXPECT_EXIT(c.finish(), ::testing::ExitedWithCode(2),
              "--jobs 4294967298 exceeds 2147483647.*usage: prog");
}

TEST(Cli, ValueAfterBareFormWins) {
  Cli c = make({"--out", "--out=a.json"});
  EXPECT_EQ(c.get_string("out", ""), "a.json");
  c.finish();
}

TEST(Cli, DoubleParsing) {
  Cli c = make({"--x=3.25"});
  EXPECT_DOUBLE_EQ(c.get_double("x", 0), 3.25);
  c.finish();
}

}  // namespace
}  // namespace capmem
