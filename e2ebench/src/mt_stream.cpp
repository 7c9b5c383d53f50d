// mt_stream: Transformer decode streams through InferenceServer.
//
// The paper's headline model as a user sees it: the default
// TransformerConfig (seeded, untrained) with an 8-bit AdaptivFloat KV
// cache calibrated by calibrate_transformer_kv, served as decode streams.
// One client thread offers Poisson stream arrivals at a fixed rate; each
// stream opens on its source, steps until the client stops at its output
// length (EOS is ignored), then closes. Every stream's tokens are checked
// against a direct TransformerDecoder greedy decode after the timed phase.
#include <atomic>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "src/data/translation_task.hpp"
#include "src/models/trainer.hpp"
#include "src/models/transformer.hpp"
#include "src/serve/server.hpp"
#include "src/tensor/ops.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using af::TranslationTask;

constexpr std::uint64_t kModelSeed = 1909;  // the served model is fixed
constexpr double kTtftLimitMs = 25.0, kGapLimitMs = 5.0;
constexpr std::size_t kWarmupStreams = 16;
constexpr int kKvCalibBatches = 4;
constexpr int kKvBits = 8;
constexpr double kDrainLimitS = 20.0;

// ----- tracing decorator ----------------------------------------------------

struct DecoderLog {
  std::vector<std::int64_t> src;
  double build_us = 0.0;
  Clock::time_point open0, open1, closed;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> steps;
  std::vector<std::size_t> cache_bytes;  ///< after open, then per step
};

class DecoderRegistry {
 public:
  void add(std::shared_ptr<DecoderLog> log) {
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(std::move(log));
  }
  std::vector<std::shared_ptr<DecoderLog>> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(logs_);
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<DecoderLog>> logs_;
};

/// StreamDecoder decorator timing open() and step() from outside.
class TracedStreamDecoder final : public af::StreamDecoder {
 public:
  TracedStreamDecoder(std::unique_ptr<af::StreamDecoder> inner,
                      std::shared_ptr<DecoderLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {
    log_->steps.reserve(kSeqLenMax + 1);
    log_->cache_bytes.reserve(kSeqLenMax + 2);
  }
  ~TracedStreamDecoder() override { log_->closed = Clock::now(); }

  void open(const std::vector<std::int64_t>& src) override {
    log_->src = src;
    log_->open0 = Clock::now();
    inner_->open(src);
    log_->open1 = Clock::now();
    log_->cache_bytes.push_back(inner_->cache_bytes());
  }
  std::int64_t step(std::int64_t last_token) override {
    const auto t0 = Clock::now();
    const std::int64_t tok = inner_->step(last_token);
    log_->steps.emplace_back(t0, Clock::now());
    log_->cache_bytes.push_back(inner_->cache_bytes());
    return tok;
  }
  std::int64_t bos_token() const override { return inner_->bos_token(); }
  std::int64_t eos_token() const override { return inner_->eos_token(); }
  std::size_t cache_bytes() const override { return inner_->cache_bytes(); }

 private:
  std::unique_ptr<af::StreamDecoder> inner_;
  std::shared_ptr<DecoderLog> log_;
};

// ----- set-up ---------------------------------------------------------------

af::TransformerDecoder::Options decoder_options() {
  af::TransformerDecoder::Options opts;
  opts.kv.quantized = true;
  opts.kv.kind = af::FormatKind::kAdaptivFloat;
  opts.kv.bits = kKvBits;
  return opts;
}

struct StreamSetup {
  std::unique_ptr<af::TransformerBundle> bundle;
  std::shared_ptr<DecoderRegistry> registry =
      std::make_shared<DecoderRegistry>();
  std::shared_ptr<std::atomic<bool>> tracing =
      std::make_shared<std::atomic<bool>>(false);
  std::unique_ptr<af::InferenceServer> server;  // last: destroyed first
};

// ----- the client -----------------------------------------------------------

struct StreamRun {
  bool ok = false;
  std::string error;
  std::vector<std::int64_t> tokens;
  Clock::time_point due, first, last;
  double lateness_ms = 0.0;
  std::vector<Stamped> gaps;  ///< ms, stamped at the later token
  std::vector<RequestTrace> reqs;  ///< traced phase only
};

struct Phase {
  double seconds = 0.0;  ///< length of the arrival schedule
  Clock::time_point t0;
  std::vector<StreamSpec> specs;
  std::vector<StreamRun> runs;
  StealWindows steal;
};

/// Drives every stream of `ph.specs` open loop from `ph.t0` and waits for
/// all of them to finish (or the drain limit to pass).
void drive(af::InferenceServer& server, const std::string& tag, Phase& ph,
           bool record, std::uint64_t& next_id) {
  enum class Stage { kOpening, kStepping, kClosing };
  struct Live {
    std::size_t idx = 0;
    Stage stage = Stage::kOpening;
    bool failed = false;
    std::future<af::Response> fut;
    RequestTrace rt;
  };
  const std::size_t n = ph.specs.size();
  ph.runs.assign(n, StreamRun{});
  ph.steal = StealWindows(ph.t0, ph.seconds);
  std::vector<Live> live;
  live.reserve(64);

  auto submit = [&](Live& l, af::DecodeOp op, std::int64_t last,
                    Clock::time_point due) {
    af::DecodeRequest req;
    req.tenant = "mt";
    req.stream = tag + std::to_string(l.idx);
    req.op = op;
    if (op == af::DecodeOp::kOpen) req.src = ph.specs[l.idx].src;
    req.last_token = last;
    l.rt = RequestTrace{};
    l.rt.id = next_id++;
    l.rt.lane = l.idx;
    l.rt.kind = op == af::DecodeOp::kOpen   ? "open"
                : op == af::DecodeOp::kStep ? "step"
                                            : "close";
    l.rt.due = due;
    l.rt.submit0 = Clock::now();
    try {
      l.fut = server.submit_decode(std::move(req));
    } catch (const std::exception& e) {
      ph.runs[l.idx].error = e.what();
      return false;
    }
    l.rt.submit1 = Clock::now();
    return true;
  };

  const auto due_at = [&](std::size_t i) {
    return at_offset(ph.t0, ph.specs[i].due_s);
  };
  const auto abort_at =
      at_offset(ph.t0, (n > 0 ? ph.specs.back().due_s : 0.0) + kDrainLimitS);
  std::size_t next = 0;
  while (next < n || !live.empty()) {
    const Clock::time_point now = Clock::now();
    ph.steal.tick(now);
    if (now > abort_at) {
      for (Live& l : live) ph.runs[l.idx].error = "drain limit passed";
      break;
    }
    bool progressed = false;
    while (next < n) {
      const auto due = due_at(next);
      if (due > now) break;
      Live l;
      l.idx = next++;
      ph.runs[l.idx].due = due;
      if (submit(l, af::DecodeOp::kOpen, -1, due)) {
        ph.runs[l.idx].lateness_ms = ms_between(due, l.rt.submit0);
        live.push_back(std::move(l));
      }
      progressed = true;
    }
    for (std::size_t i = 0; i < live.size();) {
      Live& l = live[i];
      if (l.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      progressed = true;
      const af::Response r = l.fut.get();
      const Clock::time_point t = Clock::now();
      StreamRun& o = ph.runs[l.idx];
      if (record) {
        l.rt.observed = t;
        l.rt.queue_us = static_cast<double>(r.queue_us.count());
        l.rt.coalesce_us = static_cast<double>(r.coalesce_us.count());
        l.rt.server_us = static_cast<double>(r.total_us.count());
        o.reqs.push_back(l.rt);
      }
      bool done = false;
      if (!r.ok) {
        if (o.error.empty()) o.error = r.error;
        if (l.stage == Stage::kClosing) {
          done = true;
        } else {
          l.failed = true;
          l.stage = Stage::kClosing;
          done = !submit(l, af::DecodeOp::kClose, -1, t);
        }
      } else if (l.stage == Stage::kOpening) {
        l.stage = Stage::kStepping;
        done = !submit(l, af::DecodeOp::kStep, r.token, t);
      } else if (l.stage == Stage::kStepping) {
        if (o.tokens.empty()) {
          o.first = t;
        } else {
          o.gaps.push_back({ms_between(ph.t0, t) / 1000.0,
                            ms_between(o.last, t)});
        }
        o.last = t;
        o.tokens.push_back(r.token);
        if (o.tokens.size() == ph.specs[l.idx].out_len) {
          l.stage = Stage::kClosing;
          done = !submit(l, af::DecodeOp::kClose, -1, t);
        } else {
          done = !submit(l, af::DecodeOp::kStep, r.token, t);
        }
      } else {
        o.ok = !l.failed && o.error.empty();
        done = true;
      }
      if (done) {
        live[i] = std::move(live.back());
        live.pop_back();
      } else {
        ++i;
      }
    }
    if (!progressed) {
      idle_wait(!live.empty(),
                next < n ? due_at(next) : Clock::time_point::max());
    }
  }
  ph.steal.finish();
}

std::unique_ptr<StreamSetup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<StreamSetup>();
  s->bundle = std::make_unique<af::TransformerBundle>(kModelSeed);
  af::calibrate_transformer_kv(*s->bundle, kKvCalibBatches, kModelSeed);

  af::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.queue_capacity = 1024;
  af::TransformerMT* model = &s->bundle->model;
  const auto opts = decoder_options();
  auto registry = s->registry;
  auto tracing = s->tracing;
  cfg.decoder_factory = [model, opts, registry,
                         tracing]() -> std::unique_ptr<af::StreamDecoder> {
    const auto t0 = Clock::now();
    auto inner = std::make_unique<af::TransformerStreamDecoder>(
        *model, opts, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos);
    if (!tracing->load(std::memory_order_relaxed)) return inner;
    auto log = std::make_shared<DecoderLog>();
    log->build_us = us_between(t0, Clock::now());
    registry->add(log);
    return std::make_unique<TracedStreamDecoder>(std::move(inner), log);
  };
  // Decode streams never call the batch forward; the server still needs
  // one per worker.
  auto identity = [](int) -> af::InferenceSession::ForwardFn {
    return [](const af::Tensor& x, af::ExecutionContext&) { return x; };
  };
  s->server = std::make_unique<af::InferenceServer>(identity, cfg);
  af::TenantConfig tenant;
  tenant.name = "mt";
  tenant.ladder = {af::ResiliencePolicy::kNone};
  s->server->add_tenant(tenant);

  // Warm-up: a burst of streams through the full path. Source and output
  // lengths are spread evenly over their range, so the warm-up, and with
  // it setup_s, is the same work for every seed.
  Pcg32 rng(seed, 0x3a11);
  Phase warm;
  const std::vector<af::TokenSeq> srcs =
      make_sources(kWarmupStreams, rng, s->bundle->cfg.src_vocab);
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    StreamSpec w;
    w.src = srcs[i];
    w.out_len = srcs[srcs.size() - 1 - i].size();
    warm.specs.push_back(w);
  }
  warm.t0 = Clock::now();
  std::uint64_t ids = 0;
  drive(*s->server, "w", warm, false, ids);
  for (const StreamRun& r : warm.runs) {
    if (!r.ok) throw std::runtime_error("warm-up stream failed: " + r.error);
  }
  return s;
}

// ----- checks and metrics ---------------------------------------------------

struct ReferenceCheck {
  std::int64_t mismatched = 0;
  std::int64_t steady_allocs = 0;
  std::int64_t step_arena_bytes = 0;
  std::size_t kv_bytes_per_token = 0;
};

/// Greedy-decodes every stream directly with one TransformerDecoder (same
/// model, same KV options) and compares token for token. Streams that
/// failed in serving are not compared (they already count as failed).
ReferenceCheck check_streams(af::TransformerMT& model, Phase& ph) {
  ReferenceCheck c;
  af::TransformerDecoder ref(model, decoder_options());
  c.kv_bytes_per_token = ref.kv_bytes_per_step();
  bool first = true;
  for (std::size_t i = 0; i < ph.runs.size(); ++i) {
    StreamRun& run = ph.runs[i];
    if (!run.ok) continue;
    ref.begin(ph.specs[i].src, TranslationTask::kPad);
    std::int64_t tok = TranslationTask::kBos;
    bool same = run.tokens.size() == ph.specs[i].out_len;
    for (std::size_t k = 0; k < ph.specs[i].out_len && same; ++k) {
      tok = af::argmax_rows(ref.step({tok}))[0];
      same = tok == run.tokens[k];
      if (!first) {
        c.steady_allocs =
            std::max(c.steady_allocs, ref.session().last_step_heap_allocs());
      }
    }
    first = false;
    if (!same) {
      run.ok = false;
      run.error = "tokens differ from the direct greedy decode";
      ++c.mismatched;
    }
  }
  c.step_arena_bytes = ref.session().step_arena_stats().peak_bytes;
  return c;
}

struct PhaseStats {
  std::int64_t attempted = 0, ok = 0, slo_ok = 0, tokens = 0;
  Summary ttft, gap, latency, lateness;  ///< whole phase, for the notes
  Gated w_ttft, w_gap, w_latency;        ///< windowed, for the metrics
  std::string window_note;
  double tokens_per_s = 0.0;
};

PhaseStats phase_stats(const Phase& ph) {
  PhaseStats s;
  std::vector<double> lateness;
  std::vector<Stamped> ttft, gap, latency;
  for (std::size_t i = 0; i < ph.runs.size(); ++i) {
    const StreamRun& r = ph.runs[i];
    ++s.attempted;
    lateness.push_back(r.lateness_ms);
    if (!r.ok) continue;
    ++s.ok;
    s.tokens += static_cast<std::int64_t>(r.tokens.size());
    const double due_s = ph.specs[i].due_s;
    const double t = ms_between(r.due, r.first);
    ttft.push_back({due_s, t});
    latency.push_back({due_s, ms_between(r.due, r.last)});
    double worst_gap = 0.0;
    for (const Stamped& g : r.gaps) {
      gap.push_back(g);
      worst_gap = std::max(worst_gap, g.v);
    }
    if (t <= kTtftLimitMs && worst_gap <= kGapLimitMs) ++s.slo_ok;
  }
  const auto values = [](const std::vector<Stamped>& v) {
    std::vector<double> out;
    out.reserve(v.size());
    for (const Stamped& x : v) out.push_back(x.v);
    return out;
  };
  s.ttft = summarize(values(ttft));
  s.gap = summarize(values(gap));
  s.latency = summarize(values(latency));
  s.lateness = summarize(lateness);
  const std::vector<double>& steal = ph.steal.shares();
  s.w_ttft = windowed(ttft, ph.seconds, steal);
  s.w_gap = windowed(gap, ph.seconds, steal);
  s.w_latency = windowed(latency, ph.seconds, steal);
  s.window_note = window_text("gap", gap, ph.seconds, steal);
  Clock::time_point last = ph.t0;
  for (const StreamRun& r : ph.runs) {
    if (r.ok) last = std::max(last, r.last);
  }
  const double secs = ms_between(ph.t0, last) / 1000.0;
  s.tokens_per_s = secs > 0.0 ? static_cast<double>(s.tokens) / secs : 0.0;
  return s;
}

/// KV bytes held by live streams, maximized over the phase (from the
/// decorator's cache_bytes() readings at open, every step and close).
double live_kv_peak(const std::vector<std::shared_ptr<DecoderLog>>& logs) {
  std::vector<std::pair<Clock::time_point, double>> events;
  for (const auto& log : logs) {
    if (log->cache_bytes.empty()) continue;
    double held = static_cast<double>(log->cache_bytes[0]);
    events.emplace_back(log->open1, held);
    for (std::size_t k = 0; k < log->steps.size(); ++k) {
      const double now = static_cast<double>(log->cache_bytes[k + 1]);
      events.emplace_back(log->steps[k].second, now - held);
      held = now;
    }
    events.emplace_back(log->closed, -held);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double cur = 0.0, peak = 0.0;
  for (const auto& [t, d] : events) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return peak;
}

/// Shape-derived work per stream: GEMM flops and KV code bytes decoded
/// (8-bit codes; every cached row is decoded by each attend).
void stream_work(const af::TransformerConfig& cfg, const StreamSpec& s,
                 double* flops, double* code_bytes) {
  const double d = static_cast<double>(cfg.d_model);
  const double f = static_cast<double>(cfg.d_ffn);
  const double ts = static_cast<double>(s.src.size());
  double fl = 0.0, cb = 0.0;
  // Encoder over the source; cross K/V projected once at prefill.
  fl += static_cast<double>(cfg.enc_layers) * ts *
        (8.0 * d * d + 4.0 * ts * d + 4.0 * d * f);
  fl += static_cast<double>(cfg.dec_layers) * ts * 4.0 * d * d;
  for (std::size_t k = 1; k <= s.out_len; ++k) {
    const double t = static_cast<double>(k);
    fl += static_cast<double>(cfg.dec_layers) *
          (8.0 * d * d + 4.0 * t * d + 4.0 * d * d + 4.0 * ts * d +
           4.0 * d * f);
    fl += 2.0 * d * static_cast<double>(cfg.tgt_vocab);
    cb += static_cast<double>(cfg.dec_layers) * 2.0 * (t + ts) * d *
          kKvBits / 8.0;
  }
  *flops += fl;
  *code_bytes += cb;
}

}  // namespace

Result run_mt_stream(const Args& args, const std::string& out_dir) {
  Result res;
  double setup_s = 0.0;
  auto setup = repeated_setup([&] { return make_setup(args.seed); }, &setup_s);
  af::InferenceServer& server = *setup->server;
  const af::TransformerConfig& mcfg = setup->bundle->cfg;

  Pcg32 rng(args.seed, 0x5717);
  std::uint64_t ids = 0;
  // A traced run measures an untraced half, then a traced half.
  const double secs_a = args.trace ? args.seconds / 2.0 : args.seconds;
  const double secs_b = args.seconds - secs_a;
  Phase a, b;
  a.seconds = secs_a;
  b.seconds = secs_b;
  a.specs = make_streams(
      static_cast<std::size_t>(kStreamsPerSecond * secs_a + 0.5), secs_a, rng,
      mcfg.src_vocab);
  if (args.trace) {
    b.specs = make_streams(
        static_cast<std::size_t>(kStreamsPerSecond * secs_b + 0.5), secs_b,
        rng, mcfg.src_vocab);
  }

  const double rss_setup = peak_rss_mb();
  a.t0 = Clock::now();
  drive(server, "a", a, false, ids);
  const std::uint64_t d1 = total_dispatches();
  const af::StatsSnapshot s1 = server.stats();
  std::vector<std::shared_ptr<DecoderLog>> logs;
  if (args.trace) {
    setup->tracing->store(true);
    b.t0 = Clock::now();
    drive(server, "b", b, true, ids);
    setup->tracing->store(false);
    logs = setup->registry->take();
  }
  const std::uint64_t d2 = total_dispatches();
  const af::StatsSnapshot s2 = server.stats();
  const std::int64_t server_allocs = server.max_steady_state_allocs();
  const double rss_served = peak_rss_mb();
  note_health(res, server.health(), rss_setup, rss_served);
  setup->server->shutdown();

  // Output checks, outside the timed window.
  Phase& m = args.trace ? b : a;  // the phase whose metrics are reported
  ReferenceCheck chk = check_streams(setup->bundle->model, a);
  if (args.trace) {
    const ReferenceCheck cb = check_streams(setup->bundle->model, b);
    chk.mismatched += cb.mismatched;
    chk.steady_allocs = std::max(chk.steady_allocs, cb.steady_allocs);
  }
  if (chk.mismatched > 0) {
    res.check_failed(std::to_string(chk.mismatched) +
                     " streams differ from the direct greedy decode");
  }
  const std::int64_t steady = std::max(chk.steady_allocs, server_allocs);
  if (steady != 0) {
    res.check_failed("steady-state heap allocations: " +
                     std::to_string(steady));
  }

  const PhaseStats sa = phase_stats(a);
  const PhaseStats sm = phase_stats(m);
  res.attempted = sa.attempted + (args.trace ? sm.attempted : 0);
  res.failed = res.attempted - sa.ok - (args.trace ? sm.ok : 0);
  if (res.failed > 0) {
    res.note(std::to_string(res.failed) + " streams failed (see ok_share)");
  }
  check_lateness(res, sa.lateness);
  if (args.trace) check_lateness(res, sm.lateness);
  note_summary(res, "ttft_ms", sm.ttft, "ms");
  note_summary(res, "gap_ms", sm.gap, "ms");
  note_summary(res, "stream_latency_ms", sm.latency, "ms");
  note_summary(res, "lateness_ms", sm.lateness, "ms");
  res.note(sm.window_note);

  if (!args.trace) {
    res.set("setup_s", setup_s);
    res.set("peak_rss_mb", rss_served);
    res.set("ok_share", share(sa.ok, sa.attempted));
    res.set("slo_met_share", share(sa.slo_ok, sa.attempted));
    res.set("ttft_p50_ms", sa.w_ttft.p50);
    res.set("ttft_p90_ms", sa.w_ttft.p90);
    res.set("gap_p50_ms", sa.w_gap.p50);
    res.set("gap_p90_ms", sa.w_gap.p90);
    res.set("latency_p50_ms", sa.w_latency.p50);
    res.set("latency_p90_ms", sa.w_latency.p90);
    res.set("tokens_per_s", sa.tokens_per_s);
    return res;
  }

  // ----- traced half: per-layer metrics ----------------------------------
  // Attach each decoder's log to its stream: same source, in open order.
  std::map<std::vector<std::int64_t>, std::deque<const DecoderLog*>> by_src;
  std::sort(logs.begin(), logs.end(),
            [](const auto& x, const auto& y) { return x->open0 < y->open0; });
  for (const auto& log : logs) by_src[log->src].push_back(log.get());
  TraceLog trace(b.t0);
  std::vector<double> admission_us, queue_ms, overhead_us, build_us,
      prefill_ms, step_us;
  std::vector<std::size_t> order(b.runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return b.specs[x].due_s < b.specs[y].due_s;
  });
  for (const std::size_t i : order) {
    auto& q = by_src[b.specs[i].src];
    const DecoderLog* log = nullptr;
    if (!q.empty()) {
      log = q.front();
      q.pop_front();
    }
    std::size_t step = 0;
    for (RequestTrace& rt : b.runs[i].reqs) {
      admission_us.push_back(us_between(rt.submit0, rt.submit1));
      queue_ms.push_back(rt.queue_us / 1000.0);
      if (log != nullptr && std::string(rt.kind) == "open") {
        rt.has_forward = true;
        rt.fwd0 = log->open0 - std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       log->build_us));
        rt.fwd1 = log->open1;
      } else if (log != nullptr && std::string(rt.kind) == "step" &&
                 step < log->steps.size()) {
        rt.has_forward = true;
        rt.fwd0 = log->steps[step].first;
        rt.fwd1 = log->steps[step].second;
        ++step;
        overhead_us.push_back(rt.server_us - rt.queue_us -
                              us_between(rt.fwd0, rt.fwd1));
      }
      trace.add(rt);
    }
  }
  double flops = 0.0, code_bytes = 0.0;
  for (const auto& log : logs) {
    build_us.push_back(log->build_us);
    prefill_ms.push_back(ms_between(log->open0, log->open1));
    for (const auto& [t0, t1] : log->steps) step_us.push_back(us_between(t0, t1));
  }
  for (const StreamSpec& s : b.specs) stream_work(mcfg, s, &flops, &code_bytes);
  const double units = static_cast<double>(std::max<std::int64_t>(1, sm.attempted));

  const Summary adm = summarize(admission_us), qw = summarize(queue_ms),
                ov = summarize(overhead_us), st = summarize(step_us);
  res.set("loadgen.lateness_p90_ms", sm.lateness.p90);
  res.set("loadgen.tail_samples",
          static_cast<double>(std::min({sm.ttft.beyond_p90,
                                        sm.gap.beyond_p90,
                                        sm.latency.beyond_p90})));
  res.set("serve.admission_us_p50", adm.p50);
  res.set("serve.queue_wait_ms_p50", qw.p50);
  res.set("serve.queue_wait_ms_p90", qw.p90);
  res.set("serve.coalesce_us_mean", 0.0);
  res.set("serve.batch_size_mean", 1.0);  // decode requests never coalesce
  res.set("serve.overhead_us_p50", ov.p50);
  const ServeCounters sc = serve_delta(s1, s2);
  res.set("serve.rejected", static_cast<double>(sc.rejected));
  res.set("serve.shed", static_cast<double>(sc.shed));
  res.set("serve.failed", static_cast<double>(sc.failed));
  res.set("serve.decode_evicted", static_cast<double>(sc.decode_evicted));
  res.set("serve.latency_p99_ms", sm.latency.p99);
  res.set("serve.gap_p99_ms", sm.gap.p99);
  res.set("runtime.steady_allocs", static_cast<double>(steady));
  res.set("runtime.step_arena_bytes", static_cast<double>(chk.step_arena_bytes));
  res.set("models.decoder_build_us_p50", summarize(build_us).p50);
  res.set("models.prefill_ms_p50", summarize(prefill_ms).p50);
  res.set("models.step_us_p50", st.p50);
  res.set("models.step_us_p90", st.p90);
  res.set("nn.kv_bytes_per_token", static_cast<double>(chk.kv_bytes_per_token));
  res.set("nn.kv_bytes_live_peak", live_kv_peak(logs));
  res.set("kernels.dispatches_per_unit", static_cast<double>(d2 - d1) / units);
  res.set("kernels.code_bytes_decoded_per_unit", code_bytes / units);
  res.set("kernels.flops_per_unit", flops / units);

  const Breakdown bd = trace.breakdown("step");
  res.set("trace.unit_p50_ms", bd.unit_p50_ms);
  res.set("trace.admission_ms", bd.admission_ms);
  res.set("trace.queue_ms", bd.queue_ms);
  res.set("trace.coalesce_ms", bd.coalesce_ms);
  res.set("trace.forward_ms", bd.forward_ms);
  res.set("trace.remainder_ms", bd.remainder_ms);
  res.set("trace.overhead_ms", sm.w_gap.p50 - sa.w_gap.p50);
  res.note(breakdown_text("step (one token gap)", bd));
  res.note(breakdown_text("open (decoder build + prefill)",
                          trace.breakdown("open")));
  res.note("tracing overhead: windowed gap p50 traced " +
           fmt_num(sm.w_gap.p50) + " ms vs untraced " + fmt_num(sa.w_gap.p50) +
           " ms");
  res.note("kernels.code_bytes_decoded_per_unit and kernels.flops_per_unit "
           "are computed from tensor shapes, not counted");
  const std::string path = out_dir + "/mt_stream.trace.json";
  if (trace.write_chrome(path)) res.note("chrome trace: " + path);
  return res;
}

}  // namespace e2e
