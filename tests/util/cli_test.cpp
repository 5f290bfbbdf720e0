#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace taps::util {
namespace {

Cli make_cli() {
  Cli cli("prog", "test program");
  cli.add_flag("verbose", "more output");
  cli.add_option("seed", "rng seed", "42");
  cli.add_option("name", "a label", "default");
  return cli;
}

TEST(Cli, Defaults) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_EQ(cli.integer("seed"), 42);
  EXPECT_EQ(cli.str("name"), "default");
}

TEST(Cli, SpaceSeparatedValue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed", "7"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.integer("seed"), 7);
}

TEST(Cli, EqualsValue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed=9", "--name=bench"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.integer("seed"), 9);
  EXPECT_EQ(cli.str("name"), "bench");
}

TEST(Cli, Flag) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, UnknownOptionFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, MissingValueFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, PositionalRejected) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpStopsParsing) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, NumberParsing) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed", "2.5"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.num("seed"), 2.5);
}

TEST(Cli, BadNumberThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--name", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW((void)cli.num("name"), std::runtime_error);
}

TEST(Cli, MalformedNumbersThrowNamingTheOption) {
  for (const char* bad : {"1.0x", "nan", "inf", "-inf", "1e999", ""}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--name", bad};
    ASSERT_TRUE(cli.parse(3, argv));
    try {
      (void)cli.num("name");
      ADD_FAILURE() << "num() accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--name"), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, MalformedIntegersThrowNamingTheOption) {
  for (const char* bad : {"12abc", "1.5", "", "99999999999999999999"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--seed", bad};
    ASSERT_TRUE(cli.parse(3, argv));
    try {
      (void)cli.integer("seed");
      ADD_FAILURE() << "integer() accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, WholeNumbersStillParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--seed", "-7", "--name", "1e-3"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.integer("seed"), -7);
  EXPECT_EQ(cli.num("name"), 1e-3);
}

TEST(Cli, HelpTextListsOptions) {
  const Cli cli = make_cli();
  const std::string h = cli.help_text();
  EXPECT_NE(h.find("--seed"), std::string::npos);
  EXPECT_NE(h.find("--verbose"), std::string::npos);
  EXPECT_NE(h.find("default: 42"), std::string::npos);
}

}  // namespace
}  // namespace taps::util
