/** @file Unit tests for the stat registry. */

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "sim/stats.hpp"

using photon::StatRegistry;

TEST(Stats, AddAccumulates)
{
    StatRegistry s;
    s.add("x", 1);
    s.add("x", 2.5);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.5);
}

TEST(Stats, SetOverwrites)
{
    StatRegistry s;
    s.add("x", 10);
    s.set("x", 2);
    EXPECT_DOUBLE_EQ(s.get("x"), 2);
}

TEST(Stats, UnknownReadsZero)
{
    StatRegistry s;
    EXPECT_DOUBLE_EQ(s.get("nope"), 0.0);
    EXPECT_FALSE(s.has("nope"));
}

TEST(Stats, MergeSums)
{
    StatRegistry a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3);
    EXPECT_DOUBLE_EQ(a.get("y"), 3);
}

TEST(Stats, ClearEmpties)
{
    StatRegistry s;
    s.add("x", 1);
    s.clear();
    EXPECT_FALSE(s.has("x"));
}

TEST(Stats, PrintContainsAllNamesSorted)
{
    StatRegistry s;
    s.add("b.two", 2);
    s.add("a.one", 1);
    std::ostringstream os;
    s.print(os, "st.");
    std::string text = os.str();
    auto pa = text.find("st.a.one");
    auto pb = text.find("st.b.two");
    EXPECT_NE(pa, std::string::npos);
    EXPECT_NE(pb, std::string::npos);
    EXPECT_LT(pa, pb);

    // Counters print exactly, not at the default six significant
    // digits; fractional values keep the stream's formatting.
    StatRegistry big;
    big.set("bytes", 5729050);
    big.set("huge", 12345678901234.0);
    big.set("ratio", 0.25);
    std::ostringstream os2;
    big.print(os2);
    std::string text2 = os2.str();
    EXPECT_NE(text2.find(" 5729050\n"), std::string::npos) << text2;
    EXPECT_NE(text2.find(" 12345678901234\n"), std::string::npos) << text2;
    EXPECT_NE(text2.find(" 0.25\n"), std::string::npos) << text2;
    EXPECT_EQ(text2.find("e+"), std::string::npos) << text2;

    // The caller's stream is left as it was: still right-aligned.
    EXPECT_FALSE(os2.flags() & std::ios_base::left);
    os2.str("");
    os2 << std::setw(4) << 7;
    EXPECT_EQ(os2.str(), "   7");
}
