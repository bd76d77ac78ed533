// Unit tests for the util substrate: units, RNG determinism, CSV,
// tables, charts, string formatting, and contract checks.
#include <gtest/gtest.h>

#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace wavm3::util {
namespace {

TEST(Units, ByteHelpers) {
  EXPECT_DOUBLE_EQ(kib(1), 1024.0);
  EXPECT_DOUBLE_EQ(mib(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gib(4), 4.0 * 1024 * 1024 * 1024);
}

TEST(Units, NetworkRates) {
  EXPECT_DOUBLE_EQ(gbit_per_s(1), 125e6);
  EXPECT_DOUBLE_EQ(mbit_per_s(100), 12.5e6);
}

TEST(Units, PageMath) {
  EXPECT_EQ(pages_for_bytes(4096.0), 1u);
  EXPECT_EQ(pages_for_bytes(4097.0), 2u);
  EXPECT_EQ(pages_for_bytes(gib(4)), (4ULL << 30) / 4096);
  EXPECT_DOUBLE_EQ(bytes_for_pages(2), 8192.0);
}

TEST(Units, EnergyAndTime) {
  EXPECT_DOUBLE_EQ(kilojoules(2.5), 2500.0);
  EXPECT_DOUBLE_EQ(to_kilojoules(2500.0), 2.5);
  EXPECT_DOUBLE_EQ(milliseconds(500), 0.5);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
}

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentKeysDecorrelated) {
  RngFactory f(7);
  RngStream a = f.stream("meter/a");
  RngStream b = f.stream("meter/b");
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, FactoryIsDeterministicAcrossInstances) {
  RngFactory f1(99);
  RngFactory f2(99);
  EXPECT_DOUBLE_EQ(f1.stream("x").uniform(), f2.stream("x").uniform());
}

TEST(Rng, GaussianMatchesMoments) {
  RngStream r(5);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.gaussian(10.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, GaussianZeroStddevIsDegenerate) {
  RngStream r(1);
  EXPECT_DOUBLE_EQ(r.gaussian(3.0, 0.0), 3.0);
}

TEST(Rng, UniformIntInRange) {
  RngStream r(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.118, 1), "11.8%");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row_text({"1", "2.5"});
  csv.row_text({"x,y", "plain"});
  const std::string s = out.str();
  EXPECT_NE(s.find("a,b\n"), std::string::npos);
  EXPECT_NE(s.find("1,2.5\n"), std::string::npos);
  EXPECT_NE(s.find("\"x,y\",plain\n"), std::string::npos);
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, HeaderTwiceThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"b"}), ContractError);
}

TEST(Table, RendersAllCells) {
  AsciiTable t({"Model", "NRMSE"});
  t.add_row({"WAVM3", "11.8%"});
  t.add_separator();
  t.add_row({"HUANG", "15.7%"});
  const std::string s = t.render();
  EXPECT_NE(s.find("WAVM3"), std::string::npos);
  EXPECT_NE(s.find("11.8%"), std::string::npos);
  EXPECT_NE(s.find("HUANG"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Chart, RendersSeriesAndLegend) {
  ChartSeries s;
  s.name = "power";
  for (int i = 0; i < 50; ++i) {
    s.x.push_back(i);
    s.y.push_back(400.0 + i);
  }
  ChartOptions opts;
  opts.x_label = "TIME";
  opts.y_label = "POWER";
  const std::string out = render_ascii_chart({s}, opts);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("power"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Chart, EmptyInputHandled) {
  const std::string out = render_ascii_chart({}, ChartOptions{});
  EXPECT_EQ(out, "(empty chart)\n");
}

TEST(Error, RequireMacroCarriesMessage) {
  try {
    WAVM3_REQUIRE(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace wavm3::util
