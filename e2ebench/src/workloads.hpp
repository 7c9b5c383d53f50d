// The three workloads and the pieces they share.
//
// Every workload follows one shape: set up (timed, repeated, median
// reported), run an open-loop or fixed-work timed phase that only records,
// then check every output against a serial reference outside the timed
// window. A traced run splits the timed phase into an untraced half and a
// traced half on the same set-up, so tracing overhead is the difference
// between the two halves' medians.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/kernels/backend.hpp"
#include "src/serve/server.hpp"

namespace e2e {

/// Serving thread budget: one load-generating client thread plus two
/// server workers and the server's watchdog stay within a 4-core box.
inline constexpr int kServerWorkers = 2;
/// AF_THREADS of the offline mt_beam workload's timed phase.
inline constexpr int kBeamThreads = 2;

/// Set-up is timed this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 9;

/// A client that starts a scheduled unit later than this past its due time
/// at p90 has fallen behind its schedule: the run is reported invalid.
inline constexpr double kMaxLatenessP90Ms = 1.0;

Result run_mt_stream(const Args& args, const std::string& out_dir);
Result run_mlp_serve(const Args& args, const std::string& out_dir);
Result run_mt_beam(const Args& args, const std::string& out_dir);

/// The client's wait after a loop pass that found nothing to do. With
/// units in flight it only yields, so responses are seen within
/// microseconds; with none it sleeps until shortly before `next_due`, so an
/// idle client does not hold a core.
void idle_wait(bool in_flight, Clock::time_point next_due);

/// Sum of both kernel backends' dispatch counters.
std::uint64_t total_dispatches();

/// Server counters the per-layer output reports, as a delta over a phase.
struct ServeCounters {
  std::int64_t rejected = 0, shed = 0, failed = 0, decode_evicted = 0;
};
ServeCounters serve_delta(const af::StatsSnapshot& before,
                          const af::StatsSnapshot& after);

/// Adds the shared per-layer loadgen/serve metrics and the notes that state
/// each percentile's sample count.
void note_summary(Result& r, const std::string& name, const Summary& s,
                  const char* unit);

/// Notes the server's health after the timed phase (workers, wedged
/// workers, breaker states) and the peak RSS before and after it.
void note_health(Result& r, const af::HealthReport& h, double rss_setup_mb,
                 double rss_served_mb);

/// Marks the run invalid when the open-loop client ran late.
void check_lateness(Result& r, const Summary& lateness_ms);

/// In the child process repeated_setup starts: how many set-ups it is to
/// time (E2EBENCH_SETUP_ONLY). 0 in the measured process.
int setup_only_reps();

/// Runs this binary again, with the same arguments, as a set-up child that
/// sets up `reps` times; waits for it and returns its set-up durations in
/// seconds. Throws std::runtime_error when the child fails.
std::vector<double> child_setup_seconds(int reps);

/// The set-up child's exit: prints one "setup_s <seconds>" line per set-up.
[[noreturn]] void finish_setup_child(const std::vector<double>& secs);

/// Times kSetupReps set-ups and returns the last, which the run keeps;
/// `median_s` receives the median duration in seconds. All but the kept
/// set-up run in a child process, so the measured process holds one
/// set-up only: the freed heaps of discarded set-ups stayed resident in the
/// server threads' malloc arenas and moved peak_rss_mb by up to 40%
/// between runs.
template <class F>
auto repeated_setup(F once, double* median_s) {
  const int child_reps = setup_only_reps();
  const bool child = child_reps > 0;
  std::vector<double> secs;
  if (!child) secs = child_setup_seconds(kSetupReps - 1);
  decltype(once()) kept{};
  for (int i = 0; i < (child ? child_reps : 1); ++i) {
    kept = decltype(once()){};  // tear the previous set-up down first
    const auto t0 = Clock::now();
    kept = once();
    secs.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  if (child) {
    kept = decltype(once()){};
    finish_setup_child(secs);
  }
  *median_s = median(secs);
  reset_peak_rss();
  return kept;
}

}  // namespace e2e
