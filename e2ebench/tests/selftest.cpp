// Self-tests of the benchmark's own arithmetic and input generation:
// percentile and share math on hand-built samples, argument parsing, and
// seed determinism of every workload's generated inputs. Exits nonzero on
// the first failed expectation. The smoke runs of each workload are
// separate ctest entries (see ../CMakeLists.txt).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "src/util/hash.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using e2e::percentile_sorted;
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT(near(percentile_sorted(ten, 0.5), 5));   // rank ceil(5) = 5
  EXPECT(near(percentile_sorted(ten, 0.9), 9));   // rank 9
  EXPECT(near(percentile_sorted(ten, 0.99), 10)); // rank ceil(9.9) = 10
  EXPECT(near(percentile_sorted(ten, 0.0), 1));
  EXPECT(near(percentile_sorted(ten, 1.0), 10));
  EXPECT(near(percentile_sorted({}, 0.5), 0));
  EXPECT(near(percentile_sorted({7}, 0.9), 7));
  // 0.9 * 1000 must not round up past rank 900.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT(near(percentile_sorted(thousand, 0.9), 900));
  EXPECT(e2e::beyond_rank(1000, 0.9) == 100);
  EXPECT(e2e::beyond_rank(1000, 0.99) == 10);
  EXPECT(e2e::beyond_rank(10, 0.9) == 1);
  EXPECT(e2e::beyond_rank(0, 0.9) == 0);
  EXPECT(e2e::beyond_rank(1, 0.9) == 0);

  const e2e::Summary s = e2e::summarize({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT(s.n == 10);
  EXPECT(near(s.mean, 5.5));
  EXPECT(near(s.p50, 5) && near(s.p90, 9) && near(s.p99, 10));
  EXPECT(near(s.max, 10));
  EXPECT(s.beyond_p90 == 1 && s.beyond_p99 == 0);
  EXPECT(e2e::summarize({}).n == 0);

  EXPECT(near(e2e::median({3, 1, 2}), 2));
  EXPECT(near(e2e::median({4, 1, 3, 2}), 2));  // nearest rank, lower middle
}

void test_shares_and_bands() {
  EXPECT(near(e2e::share(3, 4), 0.75));
  EXPECT(near(e2e::share(0, 0), 0.0));
  EXPECT(near(e2e::share(5, 5), 1.0));

  // Totals 1..20, parts split each total 1:3; the p45..p55 band is ranks
  // 9..11 (totals 9, 10, 11).
  std::vector<double> total, a, b;
  for (int i = 20; i >= 1; --i) {
    total.push_back(i);
    a.push_back(i * 0.25);
    b.push_back(i * 0.75);
  }
  const std::vector<double> m = e2e::band_means(total, {a, b}, 0.45, 0.55);
  EXPECT(m.size() == 3);
  EXPECT(near(m[2], 10.0));
  EXPECT(near(m[0], 2.5) && near(m[1], 7.5));
  EXPECT(near(m[0] + m[1], m[2]));

  // A 10 s phase has two 5 s windows (p50 2 and 20); a window whose host
  // steal passed the limit is left out, unless every window did.
  const std::vector<e2e::Stamped> w = {{0.5, 1}, {1.0, 2}, {4.0, 3},
                                       {5.5, 10}, {7.0, 20}, {12.0, 30}};
  EXPECT(e2e::window_count(10.0) == 2 && e2e::window_count(1.0) == 1);
  EXPECT(near(e2e::windowed_percentile(w, 10.0, 0.5, {0.5, 0.01}), 20));
  EXPECT(near(e2e::windowed_percentile(w, 10.0, 0.5, {0.01, 0.5}), 2));
  EXPECT(near(e2e::windowed_percentile(w, 10.0, 0.5, {}), 2));  // all
  EXPECT(near(e2e::windowed_percentile(w, 10.0, 0.5, {0.5, 0.1}), 2));
  // Under the limit, a window's steal does not pick it: both count.
  EXPECT(near(e2e::windowed_percentile(w, 10.0, 0.5, {0.001, 0.01}), 2));
  EXPECT(near(e2e::windowed(w, 10.0, {0.5, 0.01}).p90, 30));
  // Empty windows are skipped, not read as 0.
  EXPECT(near(e2e::windowed_percentile({{6.0, 7}}, 10.0, 0.5, {}), 7));
}

bool parses(const std::vector<std::string>& argv) {
  try {
    (void)e2e::parse_args(argv);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

void test_args() {
  const e2e::Args a = e2e::parse_args(
      {"--workload", "mlp_serve", "--seed", "42", "--seconds", "10",
       "--trace", "1"});
  EXPECT(a.workload == "mlp_serve" && a.seed == 42 && a.seconds == 10 &&
         a.trace && !a.list_metrics);
  // Order does not matter.
  const e2e::Args b = e2e::parse_args(
      {"--trace", "0", "--seconds", "1", "--seed", "0", "--workload",
       "mt_beam"});
  EXPECT(b.workload == "mt_beam" && b.seed == 0 && !b.trace);
  EXPECT(e2e::parse_args({"--list-metrics"}).list_metrics);

  EXPECT(!parses({}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1", "--seconds", "5"}));
  EXPECT(!parses({"--workload", "nope", "--seed", "1", "--seconds", "5",
                  "--trace", "0"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "-1", "--seconds", "5",
                  "--trace", "0"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1", "--seconds", "0",
                  "--trace", "0"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1", "--seconds", "5",
                  "--trace", "2"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1", "--seconds", "5",
                  "--trace", "0", "--seed", "2"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1", "--seconds", "5",
                  "--trace", "0", "--extra", "1"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed"}));
  EXPECT(!parses({"--workload", "mt_stream", "--seed", "1x", "--seconds", "5",
                  "--trace", "0"}));
}

void test_result_line() {
  e2e::Result r;
  r.attempted = 3;
  r.failed = 1;
  r.set("a", 1.5);
  r.set("b", 2.0);
  r.set("a", 0.25);  // overwrite keeps one entry
  const std::vector<e2e::MetricSpec> specs = {{"a", "ms"}, {"b", "s"}};
  EXPECT(e2e::result_line(r, specs, false) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
         "{\"a\": {\"value\": 0.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, "
         "\"unit\": \"s\"}}}");
  const std::vector<e2e::MetricSpec> more = {{"a", "ms"}, {"c", "count"}};
  bool threw = false;
  try {
    (void)e2e::result_line(r, more, false);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
  EXPECT(e2e::result_line(r, more, true).find("\"c\": {\"value\": 0") !=
         std::string::npos);
  r.check_failed("x");
  EXPECT(e2e::result_line(r, specs, false).rfind("{\"correct\": false", 0) ==
         0);
}

// ----- seed determinism -------------------------------------------------------

std::uint64_t digest_streams(std::uint64_t seed) {
  e2e::Pcg32 rng(seed, 0x5717);
  const auto specs = e2e::make_streams(500, 5.0, rng, 24);
  std::uint64_t h = af::kFnvOffset;
  for (const auto& s : specs) {
    h = af::fnv1a64(s.src.data(), s.src.size() * sizeof(std::int64_t), h);
    h = af::fnv1a64(&s.out_len, sizeof(s.out_len), h);
    h = af::fnv1a64(&s.due_s, sizeof(s.due_s), h);
  }
  return h;
}

std::uint64_t digest_traffic(std::uint64_t seed) {
  e2e::Pcg32 rng(seed, 0x5718);
  const e2e::Traffic t = e2e::make_traffic(2.0, rng);
  std::uint64_t h = af::kFnvOffset;
  for (const af::Tensor& x : t.pool) {
    h = af::fnv1a64(x.data(), static_cast<std::size_t>(x.numel()) * 4, h);
  }
  h = af::fnv1a64(t.due_s.data(), t.due_s.size() * sizeof(double), h);
  h = af::fnv1a64(t.input.data(), t.input.size() * sizeof(std::size_t), h);
  return h;
}

std::uint64_t digest_sources(std::uint64_t seed) {
  e2e::Pcg32 rng(seed, 0x5719);
  std::uint64_t h = af::kFnvOffset;
  for (const auto& s : e2e::make_sources(16, rng, 24)) {
    h = af::fnv1a64(s.data(), s.size() * sizeof(std::int64_t), h);
  }
  return h;
}

void test_inputs() {
  EXPECT(digest_streams(7) == digest_streams(7));
  EXPECT(digest_streams(7) != digest_streams(8));
  EXPECT(digest_traffic(7) == digest_traffic(7));
  EXPECT(digest_traffic(7) != digest_traffic(8));
  EXPECT(digest_sources(7) == digest_sources(7));
  EXPECT(digest_sources(7) != digest_sources(8));
  // Every seed decodes the same multiset of source lengths.
  const auto lengths = [](std::uint64_t seed) {
    e2e::Pcg32 rng(seed, 0x5719);
    std::vector<std::size_t> lens;
    for (const auto& s : e2e::make_sources(16, rng, 24)) {
      lens.push_back(s.size());
    }
    std::sort(lens.begin(), lens.end());
    return lens;
  };
  EXPECT(lengths(7) == lengths(8));
  EXPECT(lengths(7).front() == 8 && lengths(7).back() == 38);

  e2e::Pcg32 rng(11, 0x5717);
  const auto specs = e2e::make_streams(300, 3.0, rng, 24);
  bool ranges_ok = specs.size() == 300;
  double prev = 0.0;
  for (const auto& s : specs) {
    ranges_ok = ranges_ok && s.due_s >= prev && s.due_s < 3.0 &&
                s.src.size() >= 8 && s.src.size() <= 40 && s.out_len >= 8 &&
                s.out_len <= 40;
    for (auto w : s.src) ranges_ok = ranges_ok && w >= 3 && w < 24;
    prev = s.due_s;
  }
  EXPECT(ranges_ok);

  e2e::Pcg32 trng(11, 0x5718);
  const e2e::Traffic t = e2e::make_traffic(3.0, trng);
  bool traffic_ok = t.due_s.size() == t.input.size() &&
                    t.due_s.size() >= static_cast<std::size_t>(
                                          e2e::kMlpBaseRate * 3.0);
  for (std::size_t i = 1; i < t.due_s.size(); ++i) {
    traffic_ok = traffic_ok && t.due_s[i] >= t.due_s[i - 1];
  }
  for (const af::Tensor& x : t.pool) {
    traffic_ok = traffic_ok && x.dim(0) >= 1 && x.dim(0) <= e2e::kMlpMaxRows &&
                 x.dim(1) == e2e::kMlpIn;
  }
  EXPECT(traffic_ok);
}

}  // namespace

int main() {
  test_percentiles();
  test_shares_and_bands();
  test_args();
  test_result_line();
  test_inputs();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all expectations passed\n");
  return 0;
}
