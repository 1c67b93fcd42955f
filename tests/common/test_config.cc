/**
 * @file
 * Config parsing unit tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hh"
#include "scratch_dir.hh"

namespace mopac
{
namespace
{

TEST(Config, ParseLineBasics)
{
    Config c;
    c.parseLine("foo = 12");
    c.parseLine("bar=hello");
    c.parseLine("  baz.qux =  -3 ");
    EXPECT_EQ(c.getInt("foo"), 12);
    EXPECT_EQ(c.getString("bar"), "hello");
    EXPECT_EQ(c.getInt("baz.qux"), -3);
}

TEST(Config, CommentsAndBlanksIgnored)
{
    Config c;
    c.parseLine("# a comment");
    c.parseLine("");
    c.parseLine("   ");
    c.parseLine("key = 5 # trailing comment");
    EXPECT_EQ(c.getInt("key"), 5);
    EXPECT_EQ(c.keys().size(), 1u);
}

TEST(Config, SetOverridesParsedValue)
{
    Config c;
    c.parseArgs({"a=1"});
    c.set("a", "2"); // Programmatic override is allowed...
    EXPECT_EQ(c.getInt("a"), 2);
}

TEST(ConfigDeathTest, DuplicateParsedKeyIsFatal)
{
    Config c;
    // ...but parsing the same key twice is a config bug.
    EXPECT_EXIT(c.parseArgs({"a=1", "a=2"}),
                ::testing::ExitedWithCode(1), "'a' set twice");
}

TEST(ConfigDeathTest, DuplicateNamesBothOrigins)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("dup.cfg");
    {
        std::ofstream out(path);
        out << "x = 1\n"
            << "x = 2\n";
    }
    Config c;
    EXPECT_EXIT(c.parseFile(path), ::testing::ExitedWithCode(1),
                ":1.*:2");
}

TEST(Config, RejectUnknownKeysPassesWhenAllConsumed)
{
    Config c;
    c.parseArgs({"a=1", "b=2"});
    (void)c.getInt("a");
    EXPECT_TRUE(c.has("b"));
    EXPECT_TRUE(c.unconsumedKeys().empty());
    c.rejectUnknownKeys("test"); // Must not exit.
}

TEST(ConfigDeathTest, RejectUnknownKeysIsFatal)
{
    Config c;
    c.parseArgs({"good=1", "tpyo=2"});
    (void)c.getInt("good");
    ASSERT_EQ(c.unconsumedKeys(),
              std::vector<std::string>{"tpyo"});
    EXPECT_EXIT(c.rejectUnknownKeys("test"),
                ::testing::ExitedWithCode(1), "unknown config key.*tpyo");
}

TEST(Config, Defaults)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_EQ(c.getUint("missing", 8u), 8u);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_EQ(c.getString("missing", "d"), "d");
}

TEST(Config, BooleanSpellings)
{
    Config c;
    c.parseArgs({"a=true", "b=1", "c=yes", "d=on", "e=false", "f=0",
                 "g=no", "h=off"});
    EXPECT_TRUE(c.getBool("a"));
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_TRUE(c.getBool("c"));
    EXPECT_TRUE(c.getBool("d"));
    EXPECT_FALSE(c.getBool("e"));
    EXPECT_FALSE(c.getBool("f"));
    EXPECT_FALSE(c.getBool("g"));
    EXPECT_FALSE(c.getBool("h"));
}

TEST(Config, NumericFormats)
{
    Config c;
    c.parseArgs({"hex=0x10", "fp=2.5e3"});
    EXPECT_EQ(c.getInt("hex"), 16);
    EXPECT_DOUBLE_EQ(c.getDouble("fp"), 2500.0);
}

TEST(Config, FileRoundTrip)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("test.cfg");
    {
        std::ofstream out(path);
        out << "# test config\n"
            << "dram.trh = 500\n"
            << "workload = mcf\n";
    }
    Config c;
    c.parseFile(path);
    EXPECT_EQ(c.getUint("dram.trh"), 500u);
    EXPECT_EQ(c.getString("workload"), "mcf");
}

TEST(ConfigDeathTest, MalformedEntryIsFatal)
{
    Config c;
    EXPECT_EXIT(c.parseLine("no_equals_here"),
                ::testing::ExitedWithCode(1), "expected key=value");
    EXPECT_EXIT(c.parseLine("= value"), ::testing::ExitedWithCode(1),
                "empty key");
}

TEST(ConfigDeathTest, TypeErrorsAreFatal)
{
    Config c;
    c.parseLine("word = hello");
    EXPECT_EXIT((void)c.getInt("word"), ::testing::ExitedWithCode(1),
                "not an integer");
    EXPECT_EXIT((void)c.getBool("word"), ::testing::ExitedWithCode(1),
                "not a boolean");
}

} // namespace
} // namespace mopac
