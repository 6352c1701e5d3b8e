/**
 * @file
 * Unit tests for the util library: RNG, bit utilities, histograms,
 * stats, tables and option parsing.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyzer.hh"
#include "sim/campaign.hh"
#include "util/bitutil.hh"
#include "util/histogram.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ipref;

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsIndependentAndStable)
{
    Rng root(42);
    Rng f1 = root.fork("alpha");
    Rng f2 = root.fork("alpha");
    Rng f3 = root.fork("beta");
    EXPECT_EQ(f1.next(), f2.next());
    Rng f4 = root.fork("beta");
    EXPECT_EQ(f3.next(), f4.next());
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.geometric(0.5));
    EXPECT_NEAR(sum / 20000, 1.0, 0.1); // mean (1-p)/p = 1
}

TEST(Zipf, RankZeroMostPopular)
{
    ZipfSampler zipf(100, 1.0);
    Rng rng(17);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[99]);
    // zipf(1.0): p(0)/p(9) == 10
    EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0,
                3.0);
}

TEST(Zipf, SingleItem)
{
    ZipfSampler zipf(1, 1.0);
    Rng rng(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, GuidedRankMatchesLowerBound)
{
    for (std::size_t n : {1u, 2u, 3u, 127u, 2507u, 4096u, 262144u}) {
        for (double alpha : {0.46, 0.9, 1.28, 1.35}) {
            SCOPED_TRACE(testing::Message() << "n=" << n
                                            << " alpha=" << alpha);
            ZipfSampler zipf(n, alpha);
            ASSERT_EQ(zipf.size(), n);
            EXPECT_LE(zipf.guideBytes(), n * sizeof(double) / 16);

            // The CDF by its definition, and the rank it gives u.
            std::vector<double> cdf(n);
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
                cdf[i] = sum;
            }
            for (auto &v : cdf)
                v /= sum;
            cdf.back() = 1.0;
            auto expected = [&](double u) {
                auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
                if (it == cdf.end())
                    --it;
                return static_cast<std::size_t>(it - cdf.begin());
            };

            // Each sample takes exactly one uniform() from the stream.
            Rng rng(n * 131 + static_cast<std::uint64_t>(alpha * 100));
            Rng twin = rng;
            std::size_t mismatches = 0;
            for (int k = 0; k < 1'000'000; ++k)
                mismatches += zipf.sample(rng) != expected(twin.uniform());
            EXPECT_EQ(mismatches, 0u);
            EXPECT_EQ(rng.next(), twin.next());

            // Every bucket edge, and the largest double below it.
            const std::size_t buckets = zipf.guideBytes() / 4;
            std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0)};
            for (std::size_t j = 1; j < buckets; ++j) {
                const double u = static_cast<double>(j) /
                                 static_cast<double>(buckets);
                edges.push_back(u);
                edges.push_back(std::nextafter(u, 0.0));
            }
            for (double u : edges)
                ASSERT_EQ(zipf.rank(u), expected(u)) << "u=" << u;
        }
    }
}

TEST(BitUtil, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitUtil, Align)
{
    EXPECT_EQ(alignDown(0x12345, 64), 0x12340u);
    EXPECT_EQ(alignUp(0x12345, 64), 0x12380u);
    EXPECT_EQ(alignUp(0x12340, 64), 0x12340u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
    EXPECT_EQ(bits(0b1010, 3, 1), 0b101u);
}

TEST(Histogram, MeanAndCount)
{
    Log2Histogram h;
    h.add(1);
    h.add(3);
    h.add(8);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 12u);
    EXPECT_NEAR(h.mean(), 4.0, 1e-9);
    EXPECT_EQ(h.max(), 8u);
}

TEST(Histogram, BucketsAndReset)
{
    Log2Histogram h;
    for (int i = 0; i < 10; ++i)
        h.add(100);
    EXPECT_EQ(h.buckets()[7], 10u); // 100 in (64,128]
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, Quantile)
{
    Log2Histogram h;
    for (int i = 0; i < 90; ++i)
        h.add(2);
    for (int i = 0; i < 10; ++i)
        h.add(1024);
    EXPECT_LE(h.quantile(0.5), 4u);
    EXPECT_GE(h.quantile(0.99), 512u);
}

TEST(Histogram, QuantileEmpty)
{
    Log2Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p95(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, QuantileSingleBucket)
{
    Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(7); // all samples land in the (4,8] bucket
    // Every quantile strictly below 1 resolves to that bucket's
    // upper boundary.
    EXPECT_EQ(h.quantile(0.0), 8u);
    EXPECT_EQ(h.p50(), 8u);
    EXPECT_EQ(h.p95(), 8u);
    EXPECT_EQ(h.p99(), 8u);
    // q = 1: the target rank is past every bucket — the exact max.
    EXPECT_EQ(h.quantile(1.0), 7u);
}

TEST(Histogram, QuantileBounds)
{
    Log2Histogram h;
    h.add(1);
    h.add(1000);
    // q=0 returns the first occupied bucket's boundary; q=1 the max.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
    EXPECT_EQ(h.p50(), h.quantile(0.5));
    EXPECT_EQ(h.p95(), h.quantile(0.95));
    EXPECT_EQ(h.p99(), h.quantile(0.99));
}

namespace
{

/** Find the dump line for @p name; @return its value token. */
std::string
dumpValue(const std::string &dump, const std::string &name)
{
    std::istringstream lines(dump);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream tokens(line);
        std::string n, v;
        tokens >> n >> v;
        if (n == name)
            return v;
    }
    return "";
}

} // namespace

TEST(Stats, DumpFormat)
{
    Counter c;
    c += 41;
    ++c;
    StatGroup g("grp");
    g.addCounter("answer", &c, "the answer");
    g.addFormula("half", [&] { return c.value() / 2.0; });
    std::ostringstream os;
    g.dump(os, "top");
    std::string s = os.str();
    EXPECT_EQ(dumpValue(s, "top.grp.answer"), "42");
    EXPECT_EQ(dumpValue(s, "top.grp.half"), "21");
    EXPECT_NE(s.find("# the answer"), std::string::npos);
}

TEST(Stats, DumpAlignsValuesAndSanitizesDescriptions)
{
    Counter a, b;
    a += 7;
    StatGroup g("grp");
    g.addCounter("x", &a, "multi\nline\rdesc");
    g.addCounter("much_longer_name", &b);
    std::ostringstream os;
    g.dump(os);
    std::string s = os.str();
    // Newlines in descriptions must not split the stat line.
    EXPECT_EQ(s.find("multi\nline"), std::string::npos);
    EXPECT_NE(s.find("# multi line desc"), std::string::npos);
    // Short names are padded so values line up with the widest name.
    std::istringstream lines(s);
    std::string first, second;
    std::getline(lines, first);
    std::getline(lines, second);
    EXPECT_EQ(first.find('7'), second.find('0'));
}

TEST(Stats, ResetAllRecursesIntoChildren)
{
    Counter a, b;
    Log2Histogram h;
    a += 5;
    b += 9;
    h.add(100);
    StatGroup parent("p"), child("c");
    parent.addCounter("a", &a);
    parent.addHistogram("h", &h);
    child.addCounter("b", &b);
    parent.addChild(&child);
    parent.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, NestedGroups)
{
    Counter c;
    StatGroup parent("p"), child("c");
    child.addCounter("x", &c);
    parent.addChild(&child);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("p.c.x 0"), std::string::npos);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", Table::num(1.5, 2)});
    t.row({"longer", Table::pct(0.123, 1)});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Csv)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Options, ParseForms)
{
    const char *argv[] = {"prog", "pos1", "--alpha", "3",
                          "--beta=x", "--gamma", "2.5", "--flag"};
    Options o(8, const_cast<char **>(argv));
    EXPECT_EQ(o.getInt("alpha", 0), 3);
    EXPECT_EQ(o.getString("beta"), "x");
    EXPECT_TRUE(o.getBool("flag"));
    EXPECT_FALSE(o.getBool("missing"));
    EXPECT_DOUBLE_EQ(o.getDouble("gamma", 0), 2.5);
    ASSERT_EQ(o.positional().size(), 1u);
    EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, NumbersMustParseWhole)
{
    const char *argv[] = {"prog",        "--jobs",   "abc",
                          "--seed",      "12x",      "--retries",
                          "-1",          "--scale",  "0.5s",
                          "--mask",      "0x1f",     "--delta",
                          "-3",          "--gamma",  "-2.5",
                          "--empty=",    "--huge",   "99999999999999999999",
                          "--spaced",    " 4",       "--octal",
                          "010",         "--nan",    "nan",
                          "--inf",       "-inf",     "--plus",
                          "+4"};
    Options o(28, const_cast<char **>(argv));
    test::expectThrows<ConfigError>([&] { o.getUint("jobs", 0); },
                                    "--jobs");
    test::expectThrows<ConfigError>([&] { o.getUint("seed", 1); },
                                    "--seed");
    test::expectThrows<ConfigError>([&] { o.getInt("seed", 1); },
                                    "--seed");
    test::expectThrows<ConfigError>([&] { o.getUint("retries", 1); },
                                    "--retries");
    test::expectThrows<ConfigError>([&] { o.getDouble("scale", 1); },
                                    "--scale");
    test::expectThrows<ConfigError>([&] { o.getUint("empty", 0); },
                                    "--empty");
    test::expectThrows<ConfigError>([&] { o.getDouble("empty", 0); },
                                    "--empty");
    test::expectThrows<ConfigError>([&] { o.getUint("huge", 0); },
                                    "--huge");
    test::expectThrows<ConfigError>([&] { o.getInt("spaced", 0); },
                                    "--spaced");
    test::expectThrows<ConfigError>([&] { o.getDouble("nan", 0); },
                                    "--nan: \"nan\"");
    test::expectThrows<ConfigError>([&] { o.getDouble("inf", 0); },
                                    "--inf: \"-inf\"");
    for (const char *plus : {"plus", "spaced"}) {
        test::expectThrows<ConfigError>([&] { o.getUint(plus, 0); },
                                        plus);
        test::expectThrows<ConfigError>([&] { o.getDouble(plus, 0); },
                                        plus);
    }

    // Hex prefixes (no octal) and signed values where a sign is
    // allowed.
    EXPECT_EQ(o.getUint("octal", 0), 10u);
    EXPECT_EQ(o.getInt("octal", 0), 10);
    EXPECT_EQ(o.getUint("mask", 0), 31u);
    EXPECT_EQ(o.getInt("mask", 0), 31);
    EXPECT_EQ(o.getInt("retries", 0), -1);
    EXPECT_EQ(o.getInt("delta", 0), -3);
    EXPECT_DOUBLE_EQ(o.getDouble("gamma", 0), -2.5);
}

TEST(Options, Defaults)
{
    const char *argv[] = {"prog"};
    Options o(1, const_cast<char **>(argv));
    EXPECT_EQ(o.getInt("n", 7), 7);
    EXPECT_EQ(o.getString("s", "d"), "d");
    EXPECT_FALSE(o.has("n"));
}

TEST(Options, EqualsAndSpaceFormsAreEquivalent)
{
    const char *argv1[] = {"prog", "--alpha=3", "--beta=x",
                           "--gamma=2.5"};
    const char *argv2[] = {"prog", "--alpha", "3", "--beta", "x",
                           "--gamma", "2.5"};
    Options eq(4, const_cast<char **>(argv1));
    Options sp(7, const_cast<char **>(argv2));
    EXPECT_EQ(eq.getInt("alpha", 0), sp.getInt("alpha", 0));
    EXPECT_EQ(eq.getString("beta"), sp.getString("beta"));
    EXPECT_DOUBLE_EQ(eq.getDouble("gamma", 0),
                     sp.getDouble("gamma", 0));
}

TEST(Options, KnownMapAcceptsBothForms)
{
    std::map<std::string, std::string> known{{"stats-json", ""},
                                             {"stats-interval", ""}};
    const char *argv[] = {"prog", "--stats-json=out.json",
                          "--stats-interval", "100000"};
    Options o(4, const_cast<char **>(argv), known);
    EXPECT_EQ(o.getString("stats-json"), "out.json");
    EXPECT_EQ(o.getUint("stats-interval", 0), 100000u);
}

TEST(Options, BoolForms)
{
    const char *argv[] = {"prog",         "--on",     "--off=0",
                          "--no=false",   "--yes=1",  "--word=on",
                          "--maybe=maybe", "--operand", "x.trace"};
    Options o(9, const_cast<char **>(argv));
    EXPECT_TRUE(o.getBool("on"));
    EXPECT_FALSE(o.getBool("off"));
    EXPECT_FALSE(o.getBool("no"));
    EXPECT_TRUE(o.getBool("yes"));
    EXPECT_TRUE(o.getBool("word"));
    EXPECT_TRUE(o.getBool("missing", true));
    test::expectThrows<ConfigError>([&] { o.getBool("maybe"); },
                                    "--maybe: \"maybe\"");
    test::expectThrows<ConfigError>([&] { o.getBool("operand"); },
                                    "--operand: \"x.trace\"");
}

TEST(Options, UnknownOptionThrows)
{
    std::map<std::string, std::string> known{{"ok", "help"}};
    const char *argv[] = {"prog", "--bad", "1"};
    test::expectThrows<ConfigError>(
        [&] { Options opts(3, const_cast<char **>(argv), known); },
        "unknown option");
}

TEST(Options, UnknownEqualsFormThrows)
{
    std::map<std::string, std::string> known{{"ok", "help"}};
    const char *argv[] = {"prog", "--bad=1"};
    test::expectThrows<ConfigError>(
        [&] { Options opts(2, const_cast<char **>(argv), known); },
        "unknown option --bad");
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(hashString("abc"), hashString("abc"));
    EXPECT_NE(hashString("abc"), hashString("abd"));
}

TEST(ThreadPool, ResultsMatchSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] {
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 10));
            return i * i;
        }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    // threads <= 1 executes at submit() time on the calling thread.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 0u);
    std::thread::id caller = std::this_thread::get_id();
    auto fut = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(fut.get(), caller);
}

TEST(ThreadPool, RunsAllTasksAcrossWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&count] { ++count; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 50);
}

// --- JSON counters ----------------------------------------------------

TEST(Json, AsUintAcceptsIntegralNumbersAndHexCounters)
{
    EXPECT_EQ(parseJson("0").asUint(), 0u);
    EXPECT_EQ(parseJson("4096").asUint(), 4096u);
    EXPECT_EQ(parseJson("\"0x0\"").asUint(), 0u);
    EXPECT_EQ(parseJson("\"0xdeadBEEF\"").asUint(), 0xdeadbeefu);
    EXPECT_EQ(parseJson("\"0xffffffffffffffff\"").asUint(),
              ~std::uint64_t{0});
    EXPECT_EQ(parseJson(jsonString(jsonHex(0x123456789abcdefULL)))
                  .asUint(),
              0x123456789abcdefULL);
}

TEST(Json, AsUintRejectsMalformedCounters)
{
    for (const char *text :
         {"\"0x-1\"", "\"0x12zz\"", "\"0x 7\"", "\"0x\"", "\"0x+7\"",
          "\"0x0x1\"", "\"12\"", "\"0X12\"", "\"0x10000000000000000\"",
          "-1", "1e30", "18446744073709551616", "1.5", "true", "null",
          "[1]"})
        EXPECT_THROW(parseJson(text).asUint(), std::runtime_error)
            << text;
}

TEST(Json, IntOrRangeChecksToTheFieldType)
{
    JsonValue v = parseJson(
        "{\"u\": 4294967295, \"big\": 4294967296, \"hex\": \"0x10\", "
        "\"neg\": -2147483648, \"low\": -2147483649, \"half\": 4.5, "
        "\"huge\": 1e30, \"id\": -1, \"i64\": 9223372036854775808}");
    EXPECT_EQ(v.intOr("absent", 7u), 7u);
    EXPECT_EQ(v.intOr("u", 0u), 4294967295u);
    EXPECT_EQ(v.intOr("hex", 0u), 16u);
    EXPECT_EQ(v.intOr("neg", 0), -2147483647 - 1);
    EXPECT_EQ(v.intOr<std::int64_t>("id", 0), -1);
    EXPECT_EQ(v.intOr<std::int64_t>("low", 0), -2147483649LL);
    EXPECT_THROW(v.intOr<std::int64_t>("i64", 0), std::runtime_error);
    const std::pair<const char *, bool> bad[] = {
        {"big", false}, {"neg", false}, {"half", false}, {"huge", false},
        {"low", true},  {"hex", true},  {"half", true},  {"huge", true}};
    for (const auto &[key, isSigned] : bad) {
        try {
            if (isSigned)
                v.intOr(key, 0);
            else
                v.intOr(key, 0u);
            ADD_FAILURE() << key << " read";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(Json, UntrustedReadersRefuseNonIntegers)
{
    // Every integer a telemetry line, an event trace line or a
    // manifest header carries is read strictly: a negative, a
    // fractional or an out-of-range value is an error naming its key.
    auto snapshot = [](const std::string &key, const char *v) {
        std::string field = "\"" + key + "\": " + v;
        if (key == "runs_total")
            field = "\"counters\": {" + field + "}";
        else if (key == "active_runs")
            field = "\"gauges\": {" + field + "}";
        metrics::parseSnapshotLine("{" + field + "}");
    };
    auto event = [](const std::string &key, const char *v) {
        std::istringstream in("{\"type\": \"x\", \"" + key + "\": " +
                              v + "}\n");
        readTraceJsonLines(in);
    };
    auto manifest = [](const std::string &key, const char *v) {
        std::string path = ::testing::TempDir() + "strict_version.json";
        std::ofstream(path) << "{\"" << key << "\": " << v << "}\n";
        Expected<CampaignManifest> m = CampaignManifest::load(path);
        if (!m.ok())
            throw m.error();
    };
    using Reader = std::function<void(const std::string &, const char *)>;
    const struct
    {
        Reader read;
        std::string key;
        std::vector<const char *> bad;
    } cases[] = {
        {snapshot, "seq", {"-1", "1.5", "1e300"}},
        {snapshot, "unix_ms", {"-1", "1.5", "1e300"}},
        {snapshot, "runs_total", {"-1", "1.5", "1e300"}},
        {snapshot, "active_runs", {"1.5", "1e300"}}, // may be negative
        {event, "cycle", {"-1", "1.5", "1e300"}},
        {event, "core", {"-1", "1.5", "70000"}},
        {event, "arg", {"-1", "1.5", "1e300"}},
        {event, "detail", {"-1", "1.5", "256"}},
        {manifest, "version", {"-1", "1.5", "1e300"}},
    };
    for (const auto &c : cases)
        for (const char *v : c.bad) {
            SCOPED_TRACE(c.key + " = " + v);
            try {
                c.read(c.key, v);
                ADD_FAILURE() << "accepted";
            } catch (const std::exception &e) {
                EXPECT_NE(std::string(e.what()).find(c.key),
                          std::string::npos)
                    << e.what();
            }
        }
    // The same readers still take in-range integers.
    EXPECT_NO_THROW(snapshot("active_runs", "-5"));
    EXPECT_NO_THROW(event("core", "65535"));
}
