#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2e {

namespace {

struct Parts {
  double admission, queue, coalesce, forward, total;
};

Parts parts_of(const RequestTrace& r) {
  Parts p{};
  p.admission = ms_between(r.submit0, r.submit1);
  const double coalesce_us = std::min(r.coalesce_us, r.queue_us);
  p.coalesce = coalesce_us / 1000.0;
  p.queue = (r.queue_us - coalesce_us) / 1000.0;
  p.forward = r.has_forward ? ms_between(r.fwd0, r.fwd1) : 0.0;
  p.total = ms_between(r.due, r.observed);
  return p;
}

}  // namespace

Breakdown TraceLog::breakdown(const char* kind) const {
  std::vector<double> total;
  std::vector<std::vector<double>> parts(5);
  for (const RequestTrace& r : reqs_) {
    if (kind != nullptr && std::strcmp(kind, r.kind) != 0) continue;
    const Parts p = parts_of(r);
    total.push_back(p.total);
    parts[0].push_back(p.admission);
    parts[1].push_back(p.queue);
    parts[2].push_back(p.coalesce);
    parts[3].push_back(p.forward);
    parts[4].push_back(p.total - p.admission - p.queue - p.coalesce -
                       p.forward);
  }
  Breakdown b;
  b.n = total.size();
  if (total.empty()) return b;
  b.unit_p50_ms = median(total);
  const std::vector<double> m = band_means(total, parts, 0.45, 0.55);
  b.admission_ms = m[0];
  b.queue_ms = m[1];
  b.coalesce_ms = m[2];
  b.forward_ms = m[3];
  b.remainder_ms = m[4];
  b.band_ms = m[5];
  return b;
}

bool TraceLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[320];
  auto emit = [&](const RequestTrace& r, const char* name, const char* parent,
                  Clock::time_point t0, Clock::time_point t1) {
    const double ts = us_between(epoch_, t0);
    const double dur = std::max(0.0, us_between(t0, t1));
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                  "\"args\": {\"id\": %llu, \"parent\": \"%s\"}}",
                  first ? "" : ",\n", name, r.kind, ts, dur,
                  static_cast<unsigned long long>(r.lane),
                  static_cast<unsigned long long>(r.id), parent);
    out << buf;
    first = false;
  };
  for (const RequestTrace& r : reqs_) {
    emit(r, "request", "", r.due, r.observed);
    emit(r, "admission", "request", r.submit0, r.submit1);
    const double coalesce_us = std::min(r.coalesce_us, r.queue_us);
    const auto queue_end =
        r.submit1 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            r.queue_us - coalesce_us));
    const auto exec_start =
        r.submit1 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(r.queue_us));
    emit(r, "queue", "request", r.submit1, queue_end);
    if (coalesce_us > 0.0) {
      emit(r, "coalesce", "request", queue_end, exec_start);
    }
    if (r.has_forward) emit(r, "forward", "request", r.fwd0, r.fwd1);
    emit(r, "remainder", "request", r.has_forward ? r.fwd1 : exec_start,
         r.observed);
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string breakdown_text(const std::string& label, const Breakdown& b) {
  char buf[512];
  const double sum = b.admission_ms + b.queue_ms + b.coalesce_ms +
                     b.forward_ms + b.remainder_ms;
  std::snprintf(
      buf, sizeof(buf),
      "breakdown %s (n=%zu, median %.4f ms; p45..p55 band mean %.4f ms): "
      "admission %.4f + queue %.4f + coalesce %.4f + forward %.4f + "
      "remainder %.4f = %.4f ms",
      label.c_str(), b.n, b.unit_p50_ms, b.band_ms, b.admission_ms,
      b.queue_ms, b.coalesce_ms, b.forward_ms, b.remainder_ms, sum);
  return buf;
}

}  // namespace e2e
