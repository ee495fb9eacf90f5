// The BENCH_*.json writer: escaping, non-finite handling, deterministic
// output, repeat aggregation, flag parsing. The emitted document's schema
// is additionally validated end-to-end by the bench_json_smoke CTest
// (scripts/validate_bench_json.py).
#include "report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

namespace mcsmr::bench {
namespace {

TEST(JsonEscape, PassesPlainStringsThrough) {
  EXPECT_EQ(json::escape("throughput req/s"), "throughput req/s");
  EXPECT_EQ(json::escape(""), "");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json::escape("\r\b\f"), "\\r\\b\\f");
}

TEST(JsonNumber, RoundTripsAndStaysShort) {
  EXPECT_EQ(json::number(0), "0");
  EXPECT_EQ(json::number(35), "35");
  EXPECT_EQ(json::number(-2.5), "-2.5");
  EXPECT_EQ(json::number(0.1), "0.1");  // shortest form, not 0.1000000000000001
  const double parsed = std::stod(json::number(123456.789012345));
  EXPECT_DOUBLE_EQ(parsed, 123456.789012345);
}

TEST(JsonNumber, NonFiniteSerializesAsNull) {
  EXPECT_EQ(json::number(std::nan("")), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, NestedStructuresAndTypes) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::string_view("x\"y"));
  w.key("b");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.key("c");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"a\": \"x\\\"y\",\n  \"b\": [\n    1.5,\n    true,\n    null\n  ],\n"
            "  \"c\": {}\n}");
}

BenchArgs test_args(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (auto& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(argv_strings.size());
  return BenchArgs::parse(argc, argv.data(), "figtest");
}

TEST(BenchArgs, ParsesSharedFlagsAndLeavesPassthrough) {
  std::istringstream line(
      "bench_figtest --json --repeat 3 --budget=7000 --set queue_impl=mutex --seed 42 --smoke "
      "--benchmark_list_tests --set=window_size=7 --calibrate --out /tmp/x --benchmark_filter=x");
  std::vector<std::string> argv_strings{std::istream_iterator<std::string>(line), {}};
  std::vector<char*> argv;
  for (auto& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(argv_strings.size());
  const auto args = BenchArgs::parse(argc, argv.data(), "figtest");

  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.repeat, 3);
  EXPECT_DOUBLE_EQ(args.budget_pps, 7000);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_TRUE(args.smoke);
  EXPECT_EQ(args.out, "/tmp/x");
  EXPECT_EQ(args.set.size(), 2u);
  EXPECT_EQ(args.set.at("queue_impl"), "mutex");
  EXPECT_EQ(args.set.at("window_size"), "7");
  EXPECT_TRUE(args.calibrate);
  EXPECT_TRUE(args.flag("--benchmark_list_tests"));
  EXPECT_FALSE(args.flag("--nope"));
  // argv was compacted to argv[0] + passthrough only.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--benchmark_list_tests");
  EXPECT_STREQ(argv[2], "--benchmark_filter=x");
}

TEST(BenchArgsDeathTest, SetRejectsWhatConfigRejects) {
  // Whatever Config rejects exits 2 with Config's own message.
  const auto set = [](const char* pair) { return test_args({"bench_figtest", "--set", pair}); };
  EXPECT_EXIT(set("bogus=1"), ::testing::ExitedWithCode(2), "unknown config key: bogus");
  EXPECT_EXIT(set("queue_impl=lockfree"), ::testing::ExitedWithCode(2), "must be mutex or ring");
  EXPECT_EXIT(set("executor_workers=-1"), ::testing::ExitedWithCode(2), "executor_workers");
  EXPECT_EXIT(set("num_partitions=4294967297"), ::testing::ExitedWithCode(2), "must be <=");
  EXPECT_EXIT(set("queue_impl"), ::testing::ExitedWithCode(2), "expected key=value");
}

TEST(BenchArgs, OutPathResolution) {
  auto args = test_args({"bench_figtest"});
  EXPECT_FALSE(args.emit_json());
  EXPECT_EQ(args.out_path(), "BENCH_figtest.json");

  args = test_args({"bench_figtest", "--out", "/tmp/dir/"});
  EXPECT_TRUE(args.emit_json());
  EXPECT_EQ(args.out_path(), "/tmp/dir/BENCH_figtest.json");

  // Without a .json suffix the path is a directory even if it does not
  // exist yet (finish() creates it).
  args = test_args({"bench_figtest", "--out", "results"});
  EXPECT_EQ(args.out_path(), "results/BENCH_figtest.json");

  args = test_args({"bench_figtest", "--out", "/tmp/exact.json"});
  EXPECT_EQ(args.out_path(), "/tmp/exact.json");
}

TEST(BenchReport, FinishCreatesMissingOutDirectory) {
  const std::string dir = ::testing::TempDir() + "bench_report_newdir";
  const std::string path = dir + "/BENCH_figtest.json";
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
  const auto args = test_args({"bench_figtest", "--out", dir});
  BenchReport report(args, "t");
  report.series("s [model]", "model", "m", "u", "x").point(1, 2);
  EXPECT_EQ(report.finish(), 0);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(BenchReport, DeterministicDocumentModuloEnv) {
  // Two reports built identically render byte-identical series sections
  // (env holds the only run-varying fields, e.g. the timestamp).
  const auto build = [] {
    const auto args = test_args({"bench_figtest", "--json"});
    BenchReport report(args, "test title");
    auto& s = report.series("zeta [real]", "real", "throughput", "req/s", "cores");
    s.config("n", 3).config("cluster", "edel");
    s.point(1, 100.0).point(2, 250.5);
    report.series("alpha [model]", "model", "speedup", "x", "cores").point(1, 1.0);
    const std::string doc = report.render();
    return doc.substr(0, doc.find("\"env\""));
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  // Series keep registration order; config keys are sorted.
  EXPECT_LT(first.find("zeta [real]"), first.find("alpha [model]"));
  EXPECT_LT(first.find("\"cluster\""), first.find("\"n\""));
}

TEST(BenchReport, NanPointSerializesAsNull) {
  const auto args = test_args({"bench_figtest", "--json"});
  BenchReport report(args, "t");
  report.series("s [real]", "real", "m", "u", "x").point(1, std::nan(""));
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"y\": null"), std::string::npos);
}

TEST(BenchReport, RepeatedPointsAggregateToMeanAndStderr) {
  const auto args = test_args({"bench_figtest", "--json"});
  BenchReport report(args, "t");
  auto& s = report.series("s [real]", "real", "m", "u", "x");
  s.point(5, 10.0).point(5, 14.0);  // mean 12, sample sd 2.83, stderr 2
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"y\": 12"), std::string::npos);
  EXPECT_NE(doc.find("\"stderr\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"repeat\": 2"), std::string::npos);
}

TEST(BenchReport, LabeledPointsGetSequentialIndices) {
  const auto args = test_args({"bench_figtest", "--json"});
  BenchReport report(args, "t");
  auto& s = report.series("s [real]", "real", "m", "u", "thread");
  s.labeled_point("Batcher", 0.5);
  s.labeled_point("Protocol", 0.25);
  s.labeled_point("Batcher", 0.7);  // aggregates into the first point
  const std::string doc = report.render();
  const auto first = doc.find("\"label\": \"Batcher\"");
  const auto second = doc.find("\"label\": \"Protocol\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(doc.find("\"y\": 0.6"), std::string::npos);  // Batcher mean
}

TEST(BenchReport, FinishWritesTheFile) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  std::remove(path.c_str());
  auto args = test_args({"bench_figtest", "--out", path});
  BenchReport report(args, "t");
  report.series("s [model]", "model", "m", "u", "x").point(1, 2);
  EXPECT_EQ(report.finish(), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report.render());
  EXPECT_NE(content.str().find("\"schema_version\": 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReport, FinishDisabledWritesNothing) {
  const auto args = test_args({"bench_figtest"});
  BenchReport report(args, "t");
  report.series("s [model]", "model", "m", "u", "x").point(1, 2);
  EXPECT_EQ(report.finish(), 0);
  std::ifstream in("BENCH_figtest.json");
  EXPECT_FALSE(in.good());
}

TEST(BenchReport, EnvRecordsSeedRepeatAndSmoke) {
  const auto args = test_args({"bench_figtest", "--json", "--seed", "7", "--repeat", "4"});
  BenchReport report(args, "t");
  report.series("s [model]", "model", "m", "u", "x").point(1, 2);
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"repeat\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"smoke\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"argv\": \"bench_figtest --json --seed 7 --repeat 4\""),
            std::string::npos);
  EXPECT_EQ(doc.find("\"set\""), std::string::npos);  // only when --set was passed
}

TEST(BenchReport, EnvRecordsSetPairsAsOneObject) {
  const auto args = test_args(
      {"bench_figtest", "--json", "--set", "num_partitions=4", "--set", "queue_impl=mutex"});
  BenchReport report(args, "t");
  report.series("s [model]", "model", "m", "u", "x").point(1, 2);
  const std::string doc = report.render();
  EXPECT_NE(doc.find("\"set\": {\n      \"num_partitions\": \"4\",\n"
                     "      \"queue_impl\": \"mutex\"\n    }"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("\"partitions\""), std::string::npos);  // no per-key copy
}

}  // namespace
}  // namespace mcsmr::bench
