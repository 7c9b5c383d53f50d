#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>

namespace e2e {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"mt_stream", "mlp_serve",
                                                  "mt_beam"};
  return kNames;
}

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" +
                                v + "'");
  }
  return std::stoull(v);
}

}  // namespace

Args parse_args(const std::vector<std::string>& argv) {
  Args a;
  if (argv.size() == 1 && argv[0] == "--list-metrics") {
    a.list_metrics = true;
    return a;
  }
  std::set<std::string> seen;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (i + 1 >= argv.size()) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string& v = argv[i + 1];
    if (!seen.insert(flag).second) {
      throw std::invalid_argument(flag + " given twice");
    }
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), v) == names.end()) {
        throw std::invalid_argument("unknown workload '" + v + "'");
      }
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) {
        throw std::invalid_argument("--seconds must be in [1, 600]");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  for (const char* req : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(req) == 0) {
      throw std::invalid_argument(std::string("missing ") + req);
    }
  }
  return a;
}

// ----- statistics -----------------------------------------------------------

namespace {

std::size_t rank_index(std::size_t n, double q) {
  // Nearest rank: ceil(q * n), 1-based, clamped to [1, n].
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, r));
  return std::min(rank, n) - 1;
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t beyond_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  s.max = samples.back();
  s.beyond_p90 = beyond_rank(s.n, 0.90);
  s.beyond_p99 = beyond_rank(s.n, 0.99);
  return s;
}

double share(std::int64_t part, std::int64_t whole) {
  if (whole <= 0) return 0.0;
  return static_cast<double>(part) / static_cast<double>(whole);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

std::size_t window_count(double phase_s) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(phase_s / kWindowS)));
}

std::vector<double> window_percentiles(const std::vector<Stamped>& samples,
                                       double phase_s, double q) {
  const std::size_t windows = window_count(phase_s);
  std::vector<std::vector<double>> per(windows);
  for (const Stamped& s : samples) {
    const double w = phase_s > 0.0 ? s.t_s / phase_s * windows : 0.0;
    const auto idx = static_cast<std::size_t>(
        std::clamp(w, 0.0, static_cast<double>(windows - 1)));
    per[idx].push_back(s.v);
  }
  std::vector<double> stat;
  for (auto& v : per) {
    std::sort(v.begin(), v.end());
    stat.push_back(v.empty() ? std::nan("") : percentile_sorted(v, q));
  }
  return stat;
}

double windowed_percentile(const std::vector<Stamped>& samples,
                           double phase_s, double q,
                           const std::vector<double>& steal) {
  const std::vector<double> stat = window_percentiles(samples, phase_s, q);
  std::vector<double> all, clean;
  for (std::size_t w = 0; w < stat.size(); ++w) {
    if (std::isnan(stat[w])) continue;
    all.push_back(stat[w]);
    if (steal.size() == stat.size() && steal[w] <= kMaxWindowSteal) {
      clean.push_back(stat[w]);
    }
  }
  return median(clean.empty() ? all : clean);
}

Gated windowed(const std::vector<Stamped>& samples, double phase_s,
               const std::vector<double>& steal) {
  return {windowed_percentile(samples, phase_s, 0.50, steal),
          windowed_percentile(samples, phase_s, 0.90, steal)};
}

std::string window_text(const std::string& name,
                        const std::vector<Stamped>& samples, double phase_s,
                        const std::vector<double>& steal) {
  const std::vector<double> p50 = window_percentiles(samples, phase_s, 0.5);
  const std::vector<double> p90 = window_percentiles(samples, phase_s, 0.9);
  std::string out = name;
  out += " p50/p90 per window (ms, host steal):";
  for (std::size_t w = 0; w < p50.size(); ++w) {
    out += ' ';
    out += fmt_num(p50[w]);
    out += '/';
    out += fmt_num(p90[w]);
    if (w < steal.size()) {
      out += " (";
      out += fmt_num(100.0 * steal[w]);
      out += "%)";
    }
  }
  return out;
}

std::vector<double> band_means(const std::vector<double>& total,
                               const std::vector<std::vector<double>>& parts,
                               double lo_q, double hi_q) {
  std::vector<double> out(parts.size() + 1, 0.0);
  if (total.empty()) return out;
  std::vector<std::size_t> order(total.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return total[a] < total[b]; });
  const std::size_t lo = rank_index(total.size(), lo_q);
  const std::size_t hi = rank_index(total.size(), hi_q);
  for (std::size_t r = lo; r <= hi; ++r) {
    const std::size_t i = order[r];
    for (std::size_t p = 0; p < parts.size(); ++p) out[p] += parts[p][i];
    out.back() += total[i];
  }
  const double n = static_cast<double>(hi - lo + 1);
  for (double& v : out) v /= n;
  return out;
}

// ----- metrics --------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_share", "ratio"},
      {"slo_met_share", "ratio"},
      {"ttft_p50_ms", "ms"},
      {"ttft_p90_ms", "ms"},
      {"gap_p50_ms", "ms"},
      {"gap_p90_ms", "ms"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"tokens_per_s", "1/s"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"loadgen.lateness_p90_ms", "ms"},
      {"loadgen.tail_samples", "count"},
      {"serve.admission_us_p50", "us"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p90", "ms"},
      {"serve.coalesce_us_mean", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.overhead_us_p50", "us"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.failed", "count"},
      {"serve.decode_evicted", "count"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.gap_p99_ms", "ms"},
      {"runtime.forward_ms_p50", "ms"},
      {"runtime.forward_ms_p90", "ms"},
      {"runtime.forward_rows_mean", "count"},
      {"runtime.steady_allocs", "count"},
      {"runtime.step_arena_bytes", "bytes"},
      {"models.decoder_build_us_p50", "us"},
      {"models.prefill_ms_p50", "ms"},
      {"models.step_us_p50", "us"},
      {"models.step_us_p90", "us"},
      {"models.beam_sentence_ms_p50", "ms"},
      {"nn.kv_bytes_per_token", "bytes"},
      {"nn.kv_bytes_live_peak", "bytes"},
      {"kernels.dispatches_per_unit", "count"},
      {"kernels.code_bytes_decoded_per_unit", "bytes"},
      {"kernels.flops_per_unit", "count"},
      {"resilience.tensors_checked", "count"},
      {"resilience.abft_verifies", "count"},
      {"resilience.abft_detected", "count"},
      {"resilience.reruns", "count"},
      {"resilience.degraded_share", "ratio"},
      {"snapshot.write_ms", "ms"},
      {"snapshot.open_ms", "ms"},
      {"snapshot.repairs", "count"},
      {"trace.unit_p50_ms", "ms"},
      {"trace.admission_ms", "ms"},
      {"trace.queue_ms", "ms"},
      {"trace.coalesce_ms", "ms"},
      {"trace.forward_ms", "ms"},
      {"trace.remainder_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kSpecs;
}

void Result::set(const std::string& name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

void Result::check_failed(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

void Result::invalid(const std::string& why) {
  correct = false;
  notes.push_back("INVALID RUN: " + why);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string result_line(const Result& r, const std::vector<MetricSpec>& specs,
                        bool missing_is_zero) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : specs) {
    double value = 0.0;
    bool found = false;
    for (const auto& [n, v] : r.values) {
      if (n == m.name) {
        value = v;
        found = true;
      }
    }
    if (!found && !missing_is_zero) {
      throw std::logic_error(std::string("metric not produced: ") + m.name);
    }
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += m.name;
    out += "\": {\"value\": ";
    out += fmt_num(value);
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

// ----- environment ----------------------------------------------------------

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the fallback.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

StealWindows::StealWindows(Clock::time_point t0, double phase_s)
    : t0_(t0),
      window_s_(phase_s / static_cast<double>(window_count(phase_s))),
      windows_(window_count(phase_s)),
      last_(cpu_times()) {}

void StealWindows::tick(Clock::time_point now) {
  while (shares_.size() + 1 < windows_ &&
         now >= at_offset(t0_, window_s_ * (shares_.size() + 1))) {
    const CpuTimes c = cpu_times();
    shares_.push_back(steal_share(last_, c));
    last_ = c;
  }
}

void StealWindows::finish() {
  // The last window runs to the end of the drain.
  const CpuTimes c = cpu_times();
  const double share = steal_share(last_, c);
  while (shares_.size() < windows_) shares_.push_back(share);
  last_ = c;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

std::string manifest_json(const Args& a, const std::string& backend,
                          int client_threads, int server_workers,
                          int pool_threads) {
  std::string out = "{\"manifest\": {";
  out += "\"workload\": \"" + json_escape(a.workload) + "\"";
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"seconds\": " + std::to_string(a.seconds);
  out += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  out += ", \"client_threads\": " + std::to_string(client_threads);
  out += ", \"server_workers\": " + std::to_string(server_workers);
  out += ", \"pool_threads\": " + std::to_string(pool_threads);
  out += ", \"af_backend_env\": \"" +
         json_escape(env_or("AF_BACKEND", "")) + "\"";
  out += ", \"backend\": \"" + json_escape(backend) + "\"";
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"compiler\": \"" + json_escape(E2EBENCH_COMPILER) + "\"";
  out += ", \"git_sha\": \"" +
         json_escape(env_or("E2EBENCH_GIT_SHA", "unknown")) + "\"";
  out += ", \"src_digest\": \"" +
         json_escape(env_or("E2EBENCH_SRC_DIGEST", "unknown")) + "\"";
  out += "}}";
  return out;
}

}  // namespace e2e
