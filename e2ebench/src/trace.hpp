// In-memory request spans for the traced run.
//
// The benchmark records spans from its own side of each layer boundary: it
// times the submit() call (admission), reads the server-stamped queue and
// coalesce waits off the Response, and times the wrapped forward or decode
// step. Nothing is written while the workload runs; the spans are exported
// as Chrome trace-event JSON and summarized when the run ends.
//
// Per request the spans are, all sharing the request id:
//   request    due time -> response observed by the client (root)
//   admission  the submit() call
//   queue      admission -> worker pickup (Response::queue_us minus coalesce)
//   coalesce   the worker widening the batch (Response::coalesce_us)
//   forward    the wrapped ForwardFn call or StreamDecoder::step/open
//   remainder  forward end -> response observed (scatter, completion,
//              client polling)
// The breakdown's remainder is the root minus the four timed parts, so
// client lateness and batch pack also land there.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

struct RequestTrace {
  std::uint64_t id = 0;
  std::uint64_t lane = 0;  ///< display row: stream or request index
  const char* kind = "request";
  Clock::time_point due, submit0, submit1, observed;
  double queue_us = 0.0;     ///< server-stamped admission -> execution start
  double coalesce_us = 0.0;  ///< server-stamped batch widening
  double server_us = 0.0;    ///< server-stamped admission -> completion
  bool has_forward = false;
  Clock::time_point fwd0, fwd1;
};

struct Breakdown {
  std::size_t n = 0;
  double unit_p50_ms = 0.0;  ///< median request latency
  double band_ms = 0.0;      ///< mean latency of the p45..p55 band
  double admission_ms = 0.0, queue_ms = 0.0, coalesce_ms = 0.0;
  double forward_ms = 0.0, remainder_ms = 0.0;
};

class TraceLog {
 public:
  explicit TraceLog(Clock::time_point epoch) : epoch_(epoch) {}

  void add(const RequestTrace& r) { reqs_.push_back(r); }

  /// Decomposes the median latency of the requests of `kind` (nullptr =
  /// all): component means over the p45..p55 latency band, whose sum is
  /// the band's mean latency by construction of the remainder.
  Breakdown breakdown(const char* kind) const;

  /// Writes Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<RequestTrace> reqs_;
};

/// Text rendering of a breakdown for the summary file and stdout.
std::string breakdown_text(const std::string& label, const Breakdown& b);

}  // namespace e2e
