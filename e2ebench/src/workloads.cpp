#include "workloads.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace e2e {

namespace {

constexpr const char* kSetupOnlyEnv = "E2EBENCH_SETUP_ONLY";

/// This process's arguments, argv[0] included, from /proc/self/cmdline.
std::vector<std::string> own_argv() {
  std::ifstream in("/proc/self/cmdline", std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\0') {
      out.push_back(raw.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

int setup_only_reps() {
  const char* v = std::getenv(kSetupOnlyEnv);
  return v != nullptr ? std::max(0, std::atoi(v)) : 0;
}

std::vector<double> child_setup_seconds(int reps) {
  std::vector<std::string> args = own_argv();
  if (args.empty()) throw std::runtime_error("cannot read /proc/self/cmdline");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::string marker = std::string(kSetupOnlyEnv) + "=" + std::to_string(reps);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  envp.push_back(marker.data());
  envp.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up child: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t got = read(fds[0], buf, sizeof(buf));
      if (got > 0) {
        out.append(buf, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("set-up child: spawn failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  std::vector<double> secs;
  std::istringstream lines(out);
  std::string key;
  double v = 0.0;
  while (lines >> key >> v) {
    if (key == "setup_s") secs.push_back(v);
  }
  if (secs.size() != static_cast<std::size_t>(reps)) {
    throw std::runtime_error("set-up child reported " +
                             std::to_string(secs.size()) + " of " +
                             std::to_string(reps) + " set-ups");
  }
  return secs;
}

void finish_setup_child(const std::vector<double>& secs) {
  for (double s : secs) std::printf("setup_s %.9f\n", s);
  std::fflush(stdout);
  std::exit(0);
}

void idle_wait(bool in_flight, Clock::time_point next_due) {
  constexpr auto kMargin = std::chrono::microseconds(300);
  if (!in_flight && next_due - Clock::now() > 2 * kMargin) {
    std::this_thread::sleep_until(next_due - kMargin);
    return;
  }
  std::this_thread::yield();
}

std::uint64_t total_dispatches() {
  return af::backend_dispatch_count(af::BackendKind::kScalar) +
         af::backend_dispatch_count(af::BackendKind::kAvx2);
}

ServeCounters serve_delta(const af::StatsSnapshot& before,
                          const af::StatsSnapshot& after) {
  ServeCounters c;
  c.rejected = (after.rejected_overload - before.rejected_overload) +
               (after.rejected_open - before.rejected_open) +
               (after.rejected_shutdown - before.rejected_shutdown);
  c.shed = after.shed_deadline - before.shed_deadline;
  c.failed = after.failed - before.failed;
  c.decode_evicted = after.decode_evicted - before.decode_evicted;
  return c;
}

void note_summary(Result& r, const std::string& name, const Summary& s,
                  const char* unit) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu p50=%.4f p90=%.4f (%zu samples beyond) "
                "p99=%.4f (%zu beyond) max=%.4f %s",
                name.c_str(), s.n, s.p50, s.p90, s.beyond_p90, s.p99,
                s.beyond_p99, s.max, unit);
  r.note(buf);
}

void note_health(Result& r, const af::HealthReport& h, double rss_setup_mb,
                 double rss_served_mb) {
  std::string line = "health: workers " + std::to_string(h.workers) +
                     ", wedged " + std::to_string(h.workers_wedged) +
                     ", queue " + std::to_string(h.queue_depth) + "/" +
                     std::to_string(h.queue_capacity);
  for (const af::TenantHealth& t : h.tenants) {
    line += ", tenant " + t.name + " level " + std::to_string(t.level) +
            " (" + af::resilience_policy_name(t.policy) + ")";
  }
  r.note(line);
  r.note("peak RSS " + fmt_num(rss_setup_mb) + " MB after set-up, " +
         fmt_num(rss_served_mb) + " MB after the timed phase");
}

void check_lateness(Result& r, const Summary& lateness_ms) {
  if (lateness_ms.p90 > kMaxLatenessP90Ms) {
    r.invalid("load generator fell behind its schedule: lateness p90 " +
              fmt_num(lateness_ms.p90) + " ms > limit " +
              fmt_num(kMaxLatenessP90Ms) + " ms");
  }
}

}  // namespace e2e
