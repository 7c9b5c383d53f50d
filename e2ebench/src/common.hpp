// Shared pieces of the end-to-end benchmark: argument parsing, percentile
// and share arithmetic, the metric registry, the result line and the run
// manifest. Everything here is pure or process-local so the self-tests can
// exercise it without building a model.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline Clock::time_point at_offset(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

// ----- arguments ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool list_metrics = false;  ///< print the metric registry and exit
};

/// The workloads the benchmark knows, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Parses `--workload W --seed N --seconds S --trace 0|1` (every flag
/// required, each once) or the lone `--list-metrics`. Throws
/// std::invalid_argument naming the offending flag.
Args parse_args(const std::vector<std::string>& argv);

// ----- statistics -----------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least q of the samples at or below it. Empty -> 0.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-percentile position — what a
/// tail figure rests on (n - ceil(q*n)).
std::size_t beyond_rank(std::size_t n, double q);

struct Summary {
  std::size_t n = 0;
  double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
  std::size_t beyond_p90 = 0;  ///< samples beyond the p90 rank
  std::size_t beyond_p99 = 0;
};

Summary summarize(std::vector<double> samples);

/// part / whole; a workload with nothing attempted scores 0, never NaN.
double share(std::int64_t part, std::int64_t whole);

double median(std::vector<double> v);

/// Gated end-to-end percentiles are medians over windows of about this
/// many seconds of the timed phase.
inline constexpr double kWindowS = 5.0;

/// A sample stamped with its offset, in seconds, into the timed phase.
struct Stamped {
  double t_s = 0.0;
  double v = 0.0;
};

/// Number of equal windows a phase of `phase_s` seconds is cut into.
std::size_t window_count(double phase_s);

/// The nearest-rank q-percentile of each window of [0, phase_s) (samples
/// at or past the end fall in the last window); 0 for an empty window.
std::vector<double> window_percentiles(const std::vector<Stamped>& samples,
                                       double phase_s, double q);

/// A window in which the host stole more than this share of the machine's
/// CPU time is left out of a windowed percentile.
inline constexpr double kMaxWindowSteal = 0.02;

/// Median of the per-window q-percentiles over the non-empty windows in
/// which the host stole at most kMaxWindowSteal, given one steal share per
/// window; over every non-empty window when none qualifies or `steal` does
/// not have one entry per window. The host of this VM steals in bursts
/// lasting seconds, and a window it stole from measures the neighbours
/// rather than the program. Windows below the limit all count: picking
/// among them by steal shares of a tenth of a percent only halved the
/// sample. A change that slows every window moves the result fully.
double windowed_percentile(const std::vector<Stamped>& samples,
                           double phase_s, double q,
                           const std::vector<double>& steal);

/// The gated pair of a metric: windowed p50 and p90.
struct Gated {
  double p50 = 0.0, p90 = 0.0;
};
Gated windowed(const std::vector<Stamped>& samples, double phase_s,
               const std::vector<double>& steal);

/// One note line: each window's p50/p90 of `samples` and its host steal.
std::string window_text(const std::string& name,
                        const std::vector<Stamped>& samples, double phase_s,
                        const std::vector<double>& steal);

/// Mean of each component over the samples whose `total` lies in the
/// [lo_q, hi_q] nearest-rank band — decomposes the median of `total` into
/// its parts. Returns one mean per component plus the band's mean total
/// as the last element.
std::vector<double> band_means(const std::vector<double>& total,
                               const std::vector<std::vector<double>>& parts,
                               double lo_q, double hi_q);

// ----- metrics and the result line ------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> notes;  ///< human-readable lines for stdout

  void set(const std::string& name, double value);
  void note(const std::string& line) { notes.push_back(line); }
  /// An output check failed: the run is not correct.
  void check_failed(const std::string& why);
  /// The run cannot be trusted (the load generator fell behind): it is
  /// reported, but not as a valid measurement.
  void invalid(const std::string& why);
};

/// The final stdout line: exactly {correct, attempted, failed, metrics}
/// with every metric of `specs` (missing values are an error, except that
/// per-layer metrics a workload does not touch read 0).
std::string result_line(const Result& r, const std::vector<MetricSpec>& specs,
                        bool missing_is_zero);

std::string json_escape(const std::string& s);
std::string fmt_num(double v);

// ----- environment ----------------------------------------------------------

/// Peak resident set of the process in MB since start or the last
/// reset_peak_rss().
double peak_rss_mb();

/// Returns freed heap to the system and restarts the peak RSS count from
/// the current resident set, so peak_rss_mb() describes the served run
/// rather than the set-up's transient peak.
void reset_peak_rss();

/// Machine-wide CPU time from /proc/stat, in clock ticks. On a VM, `steal`
/// is time the host ran something else while a vCPU wanted to run — the
/// main source of run-to-run noise on a shared box.
struct CpuTimes {
  std::uint64_t steal = 0, total = 0;
};
CpuTimes cpu_times();
/// Steal share of all CPU time between two readings (0 when unknown).
double steal_share(const CpuTimes& before, const CpuTimes& after);

/// Host steal per window of a timed phase (the windows of window_count).
/// The client calls tick() from its loop; it reads /proc/stat only when a
/// window boundary has passed. finish() closes the last window.
class StealWindows {
 public:
  StealWindows() = default;
  StealWindows(Clock::time_point t0, double phase_s);
  void tick(Clock::time_point now);
  void finish();
  const std::vector<double>& shares() const { return shares_; }

 private:
  Clock::time_point t0_;
  double window_s_ = 0.0;
  std::size_t windows_ = 0;
  CpuTimes last_;
  std::vector<double> shares_;
};

/// One JSON object describing the run: seed, workload, threads, backend,
/// CPU, compiler and source identity — the whole configuration as one
/// record, so any two results can be compared on what produced them.
/// `backend` is the resolved kernel backend name; the source identity comes
/// from E2EBENCH_GIT_SHA / E2EBENCH_SRC_DIGEST, which run.py exports.
std::string manifest_json(const Args& a, const std::string& backend,
                          int client_threads, int server_workers,
                          int pool_threads);

}  // namespace e2e
