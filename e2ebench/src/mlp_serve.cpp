// mlp_serve: packed AdaptivFloat MLP serving with micro-batching.
//
// The paper's deployment and resilience path: an AdaptivFloat<8,3>
// QuantizedMlp is written to an AFSNAP01 snapshot during set-up and every
// server worker boots from the mapped snapshot. Workers coalesce queued
// requests (max_batch 8) into one packed forward under the tenant ladder
// abft+guard -> guard. One client thread offers open-loop Poisson arrivals
// plus seeded heavy-tail bursts at about half the server's capacity; every
// response is compared byte for byte with a serial single-request forward
// of its input after the timed phase.
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "src/models/quantized_mlp.hpp"
#include "src/nn/linear.hpp"
#include "src/resilience/guard.hpp"
#include "src/serve/server.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/util/hash.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr std::uint64_t kModelSeed = 71;  // the served model is fixed
constexpr std::int64_t kIn = kMlpIn, kHidden = 256, kOut = 32;
constexpr int kBits = 8, kExpBits = 3;
constexpr int kMaxBatch = 8;
constexpr double kLatencyLimitMs = 20.0;  // the SLO, judged by the client
// The tenant deadline sits above the SLO: this VM stalls a thread for
// 10-20 ms now and then, and a deadline at the SLO shed requests in about
// one run in ten. Requests between the two still count as SLO misses.
constexpr double kDeadlineMs = 5.0 * kLatencyLimitMs;
constexpr int kWarmupRequests = 64;
constexpr double kDrainLimitS = 20.0;

std::int64_t weight_code_bytes() {
  return (kIn * kHidden + kHidden * kOut) * kBits / 8;
}

// ----- set-up ---------------------------------------------------------------

struct ForwardCall {
  Clock::time_point t0, t1;
  std::int64_t rows = 0;
  bool abft = false;  ///< ABFT forwards multiply the cached fp32 weights
};

std::uint64_t digest(const af::Tensor& t) {
  return af::fnv1a64(t.data(),
                     static_cast<std::size_t>(t.numel()) * sizeof(float));
}

/// One worker's record, written only by that worker's thread.
struct WorkerLog {
  std::vector<ForwardCall> calls;
  af::ResilienceReport report;
};

struct MlpSetup {
  double write_ms = 0.0, open_ms = 0.0;
  std::int64_t repairs = 0;
  std::shared_ptr<af::MappedSnapshot> snap;
  std::shared_ptr<af::LayerGuard> guard;
  std::shared_ptr<std::atomic<bool>> tracing =
      std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::mutex> logs_mu = std::make_shared<std::mutex>();
  std::shared_ptr<std::vector<std::shared_ptr<WorkerLog>>> logs =
      std::make_shared<std::vector<std::shared_ptr<WorkerLog>>>();
  std::unique_ptr<af::InferenceServer> server;  // last: destroyed first
};

af::TenantConfig tenant_config(const af::LayerGuard* guard) {
  af::TenantConfig t;
  t.name = "mlp";
  t.ladder = {af::ResiliencePolicy::kAbftGuard, af::ResiliencePolicy::kGuard};
  t.guard = guard;
  t.default_deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(kDeadlineMs * 1000.0));
  return t;
}

struct RequestRun {
  bool ok = false, degraded = false;
  std::string error;
  /// The response payload, recorded as its shape and an FNV-1a digest of
  /// its bytes (keeping every payload would make the benchmark's own
  /// memory dominate peak_rss_mb).
  std::int64_t out_rows = 0, out_cols = 0;
  std::uint64_t out_digest = 0;
  int batch_size = 1;
  RequestTrace rt;
};

struct Phase {
  double seconds = 0.0;  ///< length of the arrival schedule
  Clock::time_point t0;
  Traffic traffic;
  std::vector<RequestRun> runs;
  StealWindows steal;
};

void drive(af::InferenceServer& server, Phase& ph) {
  struct Pending {
    std::size_t idx;
    std::future<af::Response> fut;
  };
  const std::size_t n = ph.traffic.due_s.size();
  ph.runs.assign(n, RequestRun{});
  ph.steal = StealWindows(ph.t0, ph.seconds);
  std::vector<Pending> pending;
  pending.reserve(256);
  const auto at = [&](double s) { return at_offset(ph.t0, s); };
  const auto abort_at = at((n > 0 ? ph.traffic.due_s.back() : 0.0) +
                           kDrainLimitS);
  std::size_t next = 0;
  while (next < n || !pending.empty()) {
    const Clock::time_point now = Clock::now();
    ph.steal.tick(now);
    if (now > abort_at) {
      for (Pending& p : pending) ph.runs[p.idx].error = "drain limit passed";
      break;
    }
    bool progressed = false;
    while (next < n && at(ph.traffic.due_s[next]) <= now) {
      RequestRun& run = ph.runs[next];
      run.rt.id = next;
      run.rt.lane = next;
      run.rt.due = at(ph.traffic.due_s[next]);
      af::Request req;
      req.tenant = "mlp";
      req.input = ph.traffic.pool[ph.traffic.input[next]];
      run.rt.submit0 = Clock::now();
      try {
        pending.push_back({next, server.submit(std::move(req))});
      } catch (const std::exception& e) {
        run.error = e.what();
      }
      run.rt.submit1 = Clock::now();
      ++next;
      progressed = true;
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      progressed = true;
      af::Response r = pending[i].fut.get();
      RequestRun& run = ph.runs[pending[i].idx];
      run.rt.observed = Clock::now();
      run.rt.queue_us = static_cast<double>(r.queue_us.count());
      run.rt.coalesce_us = static_cast<double>(r.coalesce_us.count());
      run.rt.server_us = static_cast<double>(r.total_us.count());
      run.ok = r.ok;
      run.degraded = r.degraded;
      run.batch_size = r.batch_size;
      run.error = r.error;
      if (r.ok && r.output.rank() == 2) {
        run.out_rows = r.output.dim(0);
        run.out_cols = r.output.dim(1);
        run.out_digest = digest(r.output);
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    if (!progressed) {
      idle_wait(!pending.empty(), next < n ? at(ph.traffic.due_s[next])
                                           : Clock::time_point::max());
    }
  }
  ph.steal.finish();
}

std::unique_ptr<MlpSetup> make_setup(std::uint64_t seed,
                                     const std::string& out_dir) {
  auto s = std::make_unique<MlpSetup>();
  const std::string path = out_dir + "/mlp_serve.afsnap";
  {
    Pcg32 r1(kModelSeed, 1), r2(kModelSeed, 2);
    af::Linear fc1(kIn, kHidden, r1, true, "fc1");
    af::Linear fc2(kHidden, kOut, r2, true, "fc2");
    af::QuantizedMlp built(fc1, fc2, kBits, kExpBits);
    const auto t0 = Clock::now();
    built.save(path);
    s->write_ms = ms_between(t0, Clock::now());
  }
  const auto t0 = Clock::now();
  s->snap = std::make_shared<af::MappedSnapshot>(af::MappedSnapshot::open(path));
  s->open_ms = ms_between(t0, Clock::now());
  s->repairs = s->snap->report().words_repaired;
  s->guard = std::make_shared<af::LayerGuard>(
      "mlp", af::GuardConfig{af::RecoveryPolicy::kDegradeToZero, 1, 0.0f});

  af::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.queue_capacity = 1024;
  cfg.batch.max_batch = kMaxBatch;
  cfg.batch.coalesce_window = std::chrono::microseconds(0);
  cfg.batch.plan_rows = kMaxBatch * kMlpMaxRows;
  auto snap = s->snap;
  auto tracing = s->tracing;
  auto logs_mu = s->logs_mu;
  auto logs = s->logs;
  auto factory = [snap, tracing, logs_mu,
                  logs](int worker) -> af::InferenceSession::ForwardFn {
    auto model = std::make_shared<af::QuantizedMlp>(*snap);
    auto log = std::make_shared<WorkerLog>();
    {
      std::lock_guard<std::mutex> lk(*logs_mu);
      if (logs->size() <= static_cast<std::size_t>(worker)) {
        logs->resize(static_cast<std::size_t>(worker) + 1);
      }
      (*logs)[static_cast<std::size_t>(worker)] = log;
    }
    return [model, log, tracing](const af::Tensor& x,
                                 af::ExecutionContext& ctx) {
      if (!tracing->load(std::memory_order_relaxed)) {
        return model->forward(x, ctx);
      }
      const auto t0 = Clock::now();
      af::Tensor y = model->forward(x, ctx);
      log->calls.push_back({t0, Clock::now(), x.dim(0), ctx.wants_abft()});
      if (ctx.report != nullptr) log->report.merge(*ctx.report);
      return y;
    };
  };
  s->server = std::make_unique<af::InferenceServer>(factory, cfg);
  s->server->add_tenant(tenant_config(s->guard.get()));

  // Warm-up: a burst that plans both workers and exercises coalescing.
  Pcg32 rng(seed, 0x3a12);
  Phase warm;
  warm.traffic = make_traffic(0.0, rng);
  for (int i = 0; i < kWarmupRequests; ++i) {
    warm.traffic.due_s.push_back(0.0);
    warm.traffic.input.push_back(static_cast<std::size_t>(i) % kMlpInputPool);
  }
  warm.t0 = Clock::now();
  drive(*s->server, warm);
  for (const RequestRun& r : warm.runs) {
    if (!r.ok) throw std::runtime_error("warm-up request failed: " + r.error);
  }
  return s;
}

// ----- checks and metrics ---------------------------------------------------

struct ReferenceCheck {
  std::int64_t mismatched = 0;
  std::int64_t steady_allocs = 0;
  std::int64_t arena_bytes = 0;
};

/// Serial single-request forwards of every pool input through one
/// InferenceSession at the tenant's first ladder level, then a comparison
/// of every response's shape and byte digest against its input's reference.
ReferenceCheck check_responses(const MlpSetup& s, Phase& ph) {
  ReferenceCheck c;
  af::QuantizedMlp model(*s.snap);
  af::SessionConfig scfg;
  scfg.ctx.resilience = af::ResiliencePolicy::kAbftGuard;
  scfg.ctx.guard = s.guard.get();
  af::InferenceSession session(
      [&model](const af::Tensor& x, af::ExecutionContext& ctx) {
        return model.forward(x, ctx);
      },
      scfg);
  session.plan(af::Tensor({kMaxBatch * kMlpMaxRows, kIn}));
  std::vector<std::uint64_t> ref;
  for (const af::Tensor& x : ph.traffic.pool) {
    const af::Tensor& y = session.run(x);
    c.steady_allocs = std::max(c.steady_allocs, session.last_run_heap_allocs());
    ref.push_back(y.dim(0) == x.dim(0) && y.dim(1) == kOut ? digest(y) : 0);
  }
  c.arena_bytes = session.arena_stats().peak_bytes;
  for (std::size_t i = 0; i < ph.runs.size(); ++i) {
    RequestRun& run = ph.runs[i];
    if (!run.ok) continue;
    const std::size_t in = ph.traffic.input[i];
    const bool same = !run.degraded &&
                      run.out_rows == ph.traffic.pool[in].dim(0) &&
                      run.out_cols == kOut && run.out_digest == ref[in];
    if (!same) {
      run.ok = false;
      run.error = "response differs from the serial forward";
      ++c.mismatched;
    }
  }
  return c;
}

struct PhaseStats {
  std::int64_t attempted = 0, ok = 0, slo_ok = 0, degraded = 0, rows = 0;
  Summary latency, service, lateness;  ///< whole phase, for the notes
  Gated w_latency, w_service;          ///< windowed, for the metrics
  std::string window_note;
  double tokens_per_s = 0.0;
};

PhaseStats phase_stats(const Phase& ph) {
  PhaseStats s;
  std::vector<double> latency, service, lateness;
  std::vector<Stamped> w_latency, w_service;
  Clock::time_point last = ph.t0;
  for (std::size_t i = 0; i < ph.runs.size(); ++i) {
    const RequestRun& r = ph.runs[i];
    ++s.attempted;
    lateness.push_back(ms_between(r.rt.due, r.rt.submit0));
    if (r.degraded) ++s.degraded;
    if (!r.ok) continue;
    ++s.ok;
    s.rows += ph.traffic.pool[ph.traffic.input[i]].dim(0);
    const double ms = ms_between(r.rt.due, r.rt.observed);
    const double service_ms = (r.rt.server_us - r.rt.queue_us) / 1000.0;
    latency.push_back(ms);
    service.push_back(service_ms);
    w_latency.push_back({ph.traffic.due_s[i], ms});
    w_service.push_back({ph.traffic.due_s[i], service_ms});
    if (ms <= kLatencyLimitMs) ++s.slo_ok;
    last = std::max(last, r.rt.observed);
  }
  s.latency = summarize(latency);
  s.service = summarize(service);
  s.lateness = summarize(lateness);
  s.w_latency = windowed(w_latency, ph.seconds, ph.steal.shares());
  s.w_service = windowed(w_service, ph.seconds, ph.steal.shares());
  s.window_note =
      window_text("latency", w_latency, ph.seconds, ph.steal.shares());
  const double secs = ms_between(ph.t0, last) / 1000.0;
  s.tokens_per_s = secs > 0.0 ? static_cast<double>(s.rows) / secs : 0.0;
  return s;
}

}  // namespace

Result run_mlp_serve(const Args& args, const std::string& out_dir) {
  Result res;
  double setup_s = 0.0;
  auto setup = repeated_setup([&] { return make_setup(args.seed, out_dir); },
                              &setup_s);
  af::InferenceServer& server = *setup->server;

  Pcg32 rng(args.seed, 0x5718);
  const double secs_a = args.trace ? args.seconds / 2.0 : args.seconds;
  const double secs_b = args.seconds - secs_a;
  Phase a, b;
  a.seconds = secs_a;
  b.seconds = secs_b;
  a.traffic = make_traffic(secs_a, rng);
  if (args.trace) b.traffic = make_traffic(secs_b, rng);

  const double rss_setup = peak_rss_mb();
  a.t0 = Clock::now();
  drive(server, a);
  const af::StatsSnapshot s1 = server.stats();
  const std::uint64_t d1 = total_dispatches();
  if (args.trace) {
    setup->tracing->store(true);
    b.t0 = Clock::now();
    drive(server, b);
    setup->tracing->store(false);
  }
  const std::uint64_t d2 = total_dispatches();
  const af::StatsSnapshot s2 = server.stats();
  const std::int64_t server_allocs = server.max_steady_state_allocs();
  const double rss_served = peak_rss_mb();
  note_health(res, server.health(), rss_setup, rss_served);
  server.shutdown();

  // Output checks, outside the timed window.
  ReferenceCheck chk = check_responses(*setup, a);
  if (args.trace) {
    const ReferenceCheck cb = check_responses(*setup, b);
    chk.mismatched += cb.mismatched;
  }
  if (chk.mismatched > 0) {
    res.check_failed(std::to_string(chk.mismatched) +
                     " responses differ from the serial forward");
  }
  const std::int64_t steady = std::max(chk.steady_allocs, server_allocs);
  if (steady != 0) {
    res.check_failed("steady-state heap allocations: " +
                     std::to_string(steady));
  }

  Phase& m = args.trace ? b : a;
  const PhaseStats sa = phase_stats(a);
  const PhaseStats sm = phase_stats(m);
  res.attempted = sa.attempted + (args.trace ? sm.attempted : 0);
  res.failed = res.attempted - sa.ok - (args.trace ? sm.ok : 0);
  if (res.failed > 0) {
    res.note(std::to_string(res.failed) + " requests failed (see ok_share)");
  }
  check_lateness(res, sa.lateness);
  if (args.trace) check_lateness(res, sm.lateness);
  note_summary(res, "latency_ms", sm.latency, "ms");
  note_summary(res, "service_ms", sm.service, "ms");
  note_summary(res, "lateness_ms", sm.lateness, "ms");
  res.note(sm.window_note);

  if (!args.trace) {
    res.set("setup_s", setup_s);
    res.set("peak_rss_mb", rss_served);
    res.set("ok_share", share(sa.ok, sa.attempted));
    res.set("slo_met_share", share(sa.slo_ok, sa.attempted));
    // One response per request: its first output is its only output.
    res.set("ttft_p50_ms", sa.w_latency.p50);
    res.set("ttft_p90_ms", sa.w_latency.p90);
    res.set("gap_p50_ms", sa.w_service.p50);
    res.set("gap_p90_ms", sa.w_service.p90);
    res.set("latency_p50_ms", sa.w_latency.p50);
    res.set("latency_p90_ms", sa.w_latency.p90);
    res.set("tokens_per_s", sa.tokens_per_s);
    return res;
  }

  // ----- traced half: per-layer metrics ----------------------------------
  std::vector<ForwardCall> calls;
  af::ResilienceReport report;
  for (const auto& log : *setup->logs) {
    if (log == nullptr) continue;
    calls.insert(calls.end(), log->calls.begin(), log->calls.end());
    report.merge(log->report);
  }
  std::sort(calls.begin(), calls.end(),
            [](const ForwardCall& x, const ForwardCall& y) { return x.t0 < y.t0; });
  // Attach each request to the forward that started closest to its
  // server-stamped execution start (forwards carry no request id).
  TraceLog trace(b.t0);
  std::vector<double> admission_us, queue_ms, overhead_us, coalesce_us,
      batch, fwd_ms, fwd_rows;
  const auto slack = std::chrono::microseconds(50);
  for (RequestRun& run : b.runs) {
    RequestTrace& rt = run.rt;
    admission_us.push_back(us_between(rt.submit0, rt.submit1));
    if (!run.ok) continue;
    queue_ms.push_back(rt.queue_us / 1000.0);
    coalesce_us.push_back(rt.coalesce_us);
    batch.push_back(run.batch_size);
    const auto exec0 = rt.submit1 + std::chrono::microseconds(
                                        static_cast<std::int64_t>(rt.queue_us));
    const auto exec1 = rt.submit1 + std::chrono::microseconds(
                                        static_cast<std::int64_t>(rt.server_us));
    auto it = std::lower_bound(
        calls.begin(), calls.end(), exec0 - slack,
        [](const ForwardCall& c, Clock::time_point t) { return c.t0 < t; });
    for (; it != calls.end() && it->t0 <= exec1 + slack; ++it) {
      if (it->t1 <= exec1 + slack) {
        rt.has_forward = true;
        rt.fwd0 = it->t0;
        rt.fwd1 = it->t1;
        overhead_us.push_back(rt.server_us - rt.queue_us -
                              us_between(it->t0, it->t1));
        break;
      }
    }
    trace.add(rt);
  }
  double rows_total = 0.0, packed_forwards = 0.0;
  for (const ForwardCall& c : calls) {
    fwd_ms.push_back(ms_between(c.t0, c.t1));
    fwd_rows.push_back(static_cast<double>(c.rows));
    rows_total += static_cast<double>(c.rows);
    // Below the ABFT rungs the fused packed GEMM decodes every weight code
    // once per forward; ABFT forwards reuse the layer's cached fp32 decode.
    if (!c.abft) packed_forwards += 1.0;
  }
  const double units = static_cast<double>(std::max<std::int64_t>(1, sm.attempted));
  const Summary adm = summarize(admission_us), qw = summarize(queue_ms),
                ov = summarize(overhead_us), fw = summarize(fwd_ms);

  res.set("loadgen.lateness_p90_ms", sm.lateness.p90);
  res.set("loadgen.tail_samples",
          static_cast<double>(std::min(sm.latency.beyond_p90,
                                       sm.service.beyond_p90)));
  res.set("serve.admission_us_p50", adm.p50);
  res.set("serve.queue_wait_ms_p50", qw.p50);
  res.set("serve.queue_wait_ms_p90", qw.p90);
  res.set("serve.coalesce_us_mean", summarize(coalesce_us).mean);
  res.set("serve.batch_size_mean", summarize(batch).mean);
  res.set("serve.overhead_us_p50", ov.p50);
  const ServeCounters sc = serve_delta(s1, s2);
  res.set("serve.rejected", static_cast<double>(sc.rejected));
  res.set("serve.shed", static_cast<double>(sc.shed));
  res.set("serve.failed", static_cast<double>(sc.failed));
  res.set("serve.decode_evicted", static_cast<double>(sc.decode_evicted));
  res.set("serve.latency_p99_ms", sm.latency.p99);
  res.set("serve.gap_p99_ms", sm.service.p99);
  res.set("runtime.forward_ms_p50", fw.p50);
  res.set("runtime.forward_ms_p90", fw.p90);
  res.set("runtime.forward_rows_mean", summarize(fwd_rows).mean);
  res.set("runtime.steady_allocs", static_cast<double>(steady));
  res.set("runtime.step_arena_bytes", static_cast<double>(chk.arena_bytes));
  res.set("kernels.dispatches_per_unit", static_cast<double>(d2 - d1) / units);
  res.set("kernels.code_bytes_decoded_per_unit",
          packed_forwards * static_cast<double>(weight_code_bytes()) / units);
  res.set("kernels.flops_per_unit",
          2.0 * rows_total * static_cast<double>(kIn * kHidden + kHidden * kOut) /
              units);
  res.set("resilience.tensors_checked", static_cast<double>(report.tensors_checked));
  res.set("resilience.abft_verifies", static_cast<double>(report.abft.verifies));
  res.set("resilience.abft_detected", static_cast<double>(report.abft.detected));
  res.set("resilience.reruns", static_cast<double>(report.reruns));
  res.set("resilience.degraded_share", share(sm.degraded, sm.attempted));
  res.set("snapshot.write_ms", setup->write_ms);
  res.set("snapshot.open_ms", setup->open_ms);
  res.set("snapshot.repairs", static_cast<double>(setup->repairs));

  const Breakdown bd = trace.breakdown(nullptr);
  res.set("trace.unit_p50_ms", bd.unit_p50_ms);
  res.set("trace.admission_ms", bd.admission_ms);
  res.set("trace.queue_ms", bd.queue_ms);
  res.set("trace.coalesce_ms", bd.coalesce_ms);
  res.set("trace.forward_ms", bd.forward_ms);
  res.set("trace.remainder_ms", bd.remainder_ms);
  res.set("trace.overhead_ms", sm.w_latency.p50 - sa.w_latency.p50);
  res.note(breakdown_text("request", bd));
  res.note("tracing overhead: windowed latency p50 traced " +
           fmt_num(sm.w_latency.p50) + " ms vs untraced " +
           fmt_num(sa.w_latency.p50) + " ms");
  res.note("kernels.code_bytes_decoded_per_unit and kernels.flops_per_unit "
           "are computed from tensor shapes, not counted; ABFT forwards "
           "decode no codes (they multiply the cached fp32 weights)");
  const std::string path = out_dir + "/mlp_serve.trace.json";
  if (trace.write_chrome(path)) res.note("chrome trace: " + path);
  return res;
}

}  // namespace e2e
