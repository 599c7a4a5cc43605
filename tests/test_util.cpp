// Unit tests for the utility layer: RNG distributions, formatting, stats,
// tables, thread pool, INI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "util/fmt.hpp"
#include "util/ini.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace lattice::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(5))];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, n / 5, n / 50);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.exponential(4.0));
  EXPECT_NEAR(stat.mean(), 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(median(xs), std::exp(1.0), 0.1);
}

TEST(Rng, GammaMomentsMatchShapeScale) {
  Rng rng(23);
  RunningStat stat;
  const double shape = 2.5;
  const double scale = 1.5;
  for (int i = 0; i < 200000; ++i) stat.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stat.mean(), shape * scale, 0.05);
  EXPECT_NEAR(stat.variance(), shape * scale * scale, 0.3);
}

TEST(Rng, GammaShapeBelowOne) {
  Rng rng(29);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.gamma(0.5, 2.0));
  EXPECT_NEAR(stat.mean(), 1.0, 0.05);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(31);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    stat.add(static_cast<double>(rng.poisson(3.0)));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.1);
  EXPECT_NEAR(stat.variance(), 3.0, 0.2);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(37);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    stat.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(stat.mean(), 100.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> xs{1, 2, 3, 4, 5, 6};
  auto copy = xs;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, xs);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(43);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, StateRoundTrip) {
  Rng a(99);
  (void)a();
  Rng b(1);
  b.set_state(a.state());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Fmt, BasicSubstitution) {
  EXPECT_EQ(format("x={} y={}", 1, 2.5), "x=1 y=2.5");
  EXPECT_EQ(format("{}", std::string("abc")), "abc");
  EXPECT_EQ(format("{}", true), "true");
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(format("{:.0f}", 2.7), "3");
}

TEST(Fmt, LiteralBraces) {
  EXPECT_EQ(format("{{}} {}", 5), "{} 5");
}

TEST(Fmt, IntWidth) {
  EXPECT_EQ(format("{:4d}", 42), "  42");
}

TEST(Fmt, MismatchedArgumentsThrow) {
  EXPECT_THROW((void)format("{} {}", 1), std::runtime_error);
  EXPECT_THROW((void)format("{}", 1, 2), std::runtime_error);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_EQ(mean(xs), 0.0);
  EXPECT_EQ(variance(xs), 0.0);
  EXPECT_EQ(median(xs), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys.rbegin(), ys.rend());
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> obs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r_squared(obs, obs), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r_squared(obs, mean_pred), 0.0, 1e-12);
}

TEST(Stats, ErrorMetrics) {
  const std::vector<double> obs{1, 2, 4};
  const std::vector<double> pred{2, 2, 2};
  EXPECT_NEAR(mean_squared_error(obs, pred), (1.0 + 0.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(mean_absolute_error(obs, pred), 1.0, 1e-12);
  EXPECT_NEAR(mean_absolute_percentage_error(obs, pred),
              (1.0 + 0.0 + 0.5) / 3.0, 1e-12);
}

TEST(Stats, RunningStatMatchesBatch) {
  Rng rng(5);
  std::vector<double> xs;
  RunningStat stat;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    xs.push_back(x);
    stat.add(x);
  }
  EXPECT_NEAR(stat.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(stat.variance(), variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(stat.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(stat.max(), max_of(xs));
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), 10.25});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1.500"), std::string::npos);
  EXPECT_NE(rendered.find("10.250"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a,b", "c"});
  t.add_row({std::string("x\"y"), static_cast<long long>(3)});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
}

TEST(Table, PrecisionSetting) {
  Table t({"v"});
  t.set_precision(1);
  t.add_row({2.345});
  EXPECT_NE(t.to_string().find("2.3"), std::string::npos);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  // The shutdown contract (threadpool.hpp): every future handed out before
  // shutdown resolves, because workers drain the queue before exiting.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&ran] { ran++; }));
  }
  pool.shutdown();
  for (auto& f : futures) f.get();  // all ready, none abandoned
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, EnqueueAfterStopThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
  // Idempotent second shutdown (the destructor will be the third).
  pool.shutdown();
}

TEST(Ini, ParseSectionsAndValues) {
  const auto ini = IniFile::parse(
      "# comment\n[general]\nkey = value\nnum = 42\n\n[model]\nrate = 2.5\n"
      "flag = true\n");
  EXPECT_TRUE(ini.has_section("general"));
  EXPECT_EQ(ini.get_or("general", "key", ""), "value");
  EXPECT_EQ(ini.get_int("general", "num", 0), 42);
  EXPECT_DOUBLE_EQ(ini.get_double("model", "rate", 0.0), 2.5);
  EXPECT_TRUE(ini.get_bool("model", "flag", false));
}

TEST(Ini, MissingKeysUseFallbacks) {
  const auto ini = IniFile::parse("[s]\na = 1\n");
  EXPECT_EQ(ini.get_int("s", "missing", 7), 7);
  EXPECT_EQ(ini.get_or("other", "a", "d"), "d");
  EXPECT_FALSE(ini.get("s", "b").has_value());
}

TEST(Ini, MalformedInputThrows) {
  EXPECT_THROW(IniFile::parse("key = value\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[sec\nk = v\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[s]\nnot a pair\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[s]\n= v\n"), std::runtime_error);
}

TEST(Ini, TypedGetterErrors) {
  const auto ini =
      IniFile::parse("[s]\nn = abc\nb = maybe\nx = nan\ny = -inf\n");
  EXPECT_THROW((void)ini.get_int("s", "n", 0), std::runtime_error);
  EXPECT_THROW((void)ini.get_double("s", "n", 0.0), std::runtime_error);
  EXPECT_THROW((void)ini.get_double("s", "x", 0.0), std::runtime_error);
  EXPECT_THROW((void)ini.get_double("s", "y", 0.0), std::runtime_error);
  EXPECT_THROW((void)ini.get_bool("s", "b", false), std::runtime_error);
}

TEST(Ini, RoundTrip) {
  IniFile ini;
  ini.set("a", "k1", "v1");
  ini.set("a", "k2", "v2");
  ini.set("b", "k", "3");
  const auto reparsed = IniFile::parse(ini.to_string());
  EXPECT_EQ(reparsed.get_or("a", "k1", ""), "v1");
  EXPECT_EQ(reparsed.get_or("a", "k2", ""), "v2");
  EXPECT_EQ(reparsed.get_int("b", "k", 0), 3);
}

TEST(Ini, ErrorsNameSourceAndLine) {
  const auto ini = IniFile::parse("[s]\n\nn = abc\n", "plan.ini");
  try {
    (void)ini.get_int("s", "n", 0);
    FAIL() << "unparsable value accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("plan.ini: line 3: [s] n"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(IniFile::load("no/such/file.ini"), std::runtime_error);
}

TEST(Ini, CheckAllReadFlagsWhatNoLookupTouched) {
  const auto ini =
      IniFile::parse("[used]\na = 1\ntypo = 2\n[unused]\nb = 3\n", "x.ini");
  (void)ini.get_int("used", "a", 0);
  (void)ini.has_section("unused");
  try {
    ini.check_all_read();
    FAIL() << "unread key accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "x.ini: line 3: unknown key 'typo' in [used]");
  }
  (void)ini.get("used", "typo");
  try {
    ini.check_all_read();
    FAIL() << "unread key accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "x.ini: line 5: unknown key 'b' in [unused]");
  }
  (void)ini.get("unused", "b");
  EXPECT_NO_THROW(ini.check_all_read());
  EXPECT_THROW(IniFile::parse("[never]\n").check_all_read(),
               std::runtime_error);
}

TEST(Ini, SetOverwrites) {
  IniFile ini;
  ini.set("s", "k", "1");
  ini.set("s", "k", "2");
  EXPECT_EQ(ini.get_or("s", "k", ""), "2");
}

TEST(Log, RespectsLevelAndStream) {
  std::ostringstream captured;
  set_log_stream(&captured);
  set_log_level(LogLevel::kWarn);
  log_info("test", "hidden {}", 1);
  log_warn("test", "visible {}", 2);
  set_log_stream(nullptr);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(captured.str().find("hidden"), std::string::npos);
  EXPECT_NE(captured.str().find("visible 2"), std::string::npos);
}

}  // namespace
}  // namespace lattice::util
