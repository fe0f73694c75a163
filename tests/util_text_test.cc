// Tests for string formatting, tables, CSV and ASCII charts.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

namespace sbqa::util {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(StrFormatTest, EmptyAndLongStrings) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  const std::string big(5000, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(ParseWholeTest, AcceptsOnlyWholeValues) {
  long count = 7;
  EXPECT_TRUE(ParseWhole("50", &count));
  EXPECT_EQ(count, 50);
  EXPECT_FALSE(ParseWhole("50x", &count));
  EXPECT_FALSE(ParseWhole("abc", &count));
  EXPECT_FALSE(ParseWhole("", &count));
  EXPECT_EQ(count, 50);  // untouched on failure
  uint32_t shards = 1;
  EXPECT_FALSE(ParseWhole("-2", &shards));
  EXPECT_FALSE(ParseWhole("99999999999", &shards));
  EXPECT_EQ(shards, 1u);
  double rate = 0;
  EXPECT_TRUE(ParseWhole("2.5e3", &rate));
  EXPECT_EQ(rate, 2500.0);
  EXPECT_FALSE(ParseWhole("inf", &rate));
  EXPECT_FALSE(ParseWhole("nan", &rate));
  EXPECT_FALSE(ParseWhole("1.5 ", &rate));
  EXPECT_EQ(rate, 2500.0);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.SetHeader({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Each line is equally wide for the shared columns (right-aligned col 2).
  EXPECT_NE(s.find("        1"), std::string::npos);
}

TEST(TextTableTest, NumericRowFormatting) {
  TextTable t;
  t.AddNumericRow("row", {1.23456, 2.0}, 2);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("2.00"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TextTableTest, CsvOutput) {
  TextTable t;
  t.SetHeader({"a", "b"});
  t.AddRow({"x,y", "2"});
  const std::string csv = t.ToCsv();
  EXPECT_EQ(csv, "a,b\nx;y,2\n");  // embedded comma sanitized
}

TEST(CsvWriterTest, WritesRowsToFile) {
  const std::string path = ::testing::TempDir() + "/sbqa_csv_test.csv";
  CsvWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.WriteRow({"t", "v"});
  w.WriteNumericRow({1.5, 2.25}, 2);
  w.Close();

  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "t,v");
  EXPECT_EQ(line2, "1.50,2.25");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, OpenFailureReported) {
  CsvWriter w;
  EXPECT_FALSE(w.Open("/nonexistent-dir-xyz/file.csv").ok());
}

TEST(AsciiChartTest, RendersSeriesAndLegend) {
  ChartSeries s1{"up", {0, 1, 2, 3, 4}};
  ChartSeries s2{"down", {4, 3, 2, 1, 0}};
  const std::string chart = RenderLineChart({s1, s2});
  EXPECT_NE(chart.find("* = up"), std::string::npos);
  EXPECT_NE(chart.find("+ = down"), std::string::npos);
  EXPECT_NE(chart.find('|'), std::string::npos);
}

TEST(AsciiChartTest, HandlesEmptySeries) {
  const std::string chart = RenderLineChart({ChartSeries{"none", {}}});
  EXPECT_FALSE(chart.empty());
}

TEST(AsciiChartTest, ConstantSeriesDoesNotDivideByZero) {
  const std::string chart =
      RenderLineChart({ChartSeries{"flat", {2, 2, 2, 2}}});
  EXPECT_FALSE(chart.empty());
}

TEST(AsciiChartTest, DownsamplesLongSeries) {
  std::vector<double> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  ChartOptions options;
  options.width = 40;
  const std::string chart =
      RenderLineChart({ChartSeries{"long", values}}, options);
  EXPECT_FALSE(chart.empty());
}

TEST(AsciiChartTest, FixedRangeRespected) {
  ChartOptions options;
  options.y_auto = false;
  options.y_min = 0;
  options.y_max = 1;
  const std::string chart =
      RenderLineChart({ChartSeries{"s", {0.5, 0.5}}}, options);
  EXPECT_NE(chart.find("1.000"), std::string::npos);
  EXPECT_NE(chart.find("0.000"), std::string::npos);
}

TEST(BarChartTest, RendersLabelsAndValues) {
  const std::string chart = RenderBarChart({"aa", "b"}, {2.0, 1.0}, 10);
  EXPECT_NE(chart.find("aa"), std::string::npos);
  EXPECT_NE(chart.find("2.000"), std::string::npos);
  // The larger value gets the full width of hashes.
  EXPECT_NE(chart.find("##########"), std::string::npos);
}

TEST(BarChartTest, AllZeroValues) {
  const std::string chart = RenderBarChart({"x"}, {0.0}, 10);
  EXPECT_NE(chart.find("0.000"), std::string::npos);
}

}  // namespace
}  // namespace sbqa::util
