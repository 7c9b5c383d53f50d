// mt_beam: offline beam decode, one client thread, no server.
//
// transformer_beam_decode (width 4, 40 steps) over a fixed seeded source
// set, repeated pass after pass for the run's seconds with AF_THREADS=2.
// The serving layer does nothing here, so a serve-layer change must predict
// no change on it. It drives the same attention/KV layer as mt_stream
// differently: 4-lane steps, KvState::reorder every step, per-sentence
// decoder planning, and the pool's parallel_for overhead. Each pass's
// hypotheses are checked against a single-thread decode of the same
// sources after the timed phase.
#include <algorithm>

#include "src/data/translation_task.hpp"
#include "src/models/beam_search.hpp"
#include "src/models/trainer.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using af::TranslationTask;

constexpr std::uint64_t kModelSeed = 1909;  // the served model is fixed
constexpr int kWidth = 4;
constexpr std::int64_t kMaxSteps = 40;
constexpr double kSentenceLimitMs = 250.0;
constexpr int kAllocProbeSentences = 3;

af::BeamConfig beam_config() {
  af::BeamConfig cfg;
  cfg.beam_size = kWidth;
  cfg.max_steps = kMaxSteps;
  return cfg;
}

/// Lane-steps per sentence: the search runs all kMaxSteps steps (the
/// default max_len 48 is never reached, and with 24 vocabulary entries the
/// top 2*width candidates always leave `width` live hypotheses); the first
/// step expands one hypothesis, every later one `width`.
constexpr double kLaneStepsPerSentence = 1.0 + (kMaxSteps - 1) * kWidth;

std::uint64_t digest(const af::TokenSeq& hyp) {
  return af::fnv1a64(hyp.data(), hyp.size() * sizeof(std::int64_t));
}

af::TokenSeq decode(af::TransformerMT& model, const af::TokenSeq& src) {
  return af::transformer_beam_decode(model, src, TranslationTask::kPad,
                                     TranslationTask::kBos,
                                     TranslationTask::kEos, beam_config());
}

struct BeamSetup {
  std::unique_ptr<af::TransformerBundle> bundle;
};

std::unique_ptr<BeamSetup> make_setup(const std::vector<af::TokenSeq>& srcs) {
  auto s = std::make_unique<BeamSetup>();
  s->bundle = std::make_unique<af::TransformerBundle>(kModelSeed);
  // Warm-up: the shortest and the longest source, the same work for every
  // seed, so setup_s does not move with the seeded source order.
  const auto [shortest, longest] = std::minmax_element(
      srcs.begin(), srcs.end(),
      [](const af::TokenSeq& x, const af::TokenSeq& y) {
        return x.size() < y.size();
      });
  (void)decode(s->bundle->model, *shortest);
  (void)decode(s->bundle->model, *longest);
  return s;
}

struct Sentence {
  std::size_t idx = 0;
  std::uint64_t digest = 0;
  double ms = 0.0;
  RequestTrace rt;
};

struct Phase {
  Clock::time_point t0;
  std::vector<Sentence> sentences;
  std::size_t passes = 0;
  double elapsed_s = 0.0;  ///< wall time of the whole passes
};

/// Whole passes over the source set until `seconds` have elapsed.
void drive(af::TransformerMT& model, const std::vector<af::TokenSeq>& srcs,
           double seconds, bool record, Phase& ph) {
  ph.t0 = Clock::now();
  const auto stop = at_offset(ph.t0, seconds);
  ph.sentences.reserve(kBeamSentences * 512);
  std::uint64_t id = 0;
  do {
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      Sentence s;
      s.idx = i;
      const auto t0 = Clock::now();
      const af::TokenSeq hyp = decode(model, srcs[i]);
      const auto t1 = Clock::now();
      s.digest = digest(hyp);
      s.ms = ms_between(t0, t1);
      if (record) {
        s.rt.id = id;
        s.rt.lane = i;
        s.rt.kind = "sentence";
        s.rt.due = s.rt.submit0 = s.rt.submit1 = t0;
        s.rt.has_forward = true;
        s.rt.fwd0 = t0;
        s.rt.fwd1 = t1;
        s.rt.observed = Clock::now();
      }
      ++id;
      ph.sentences.push_back(s);
    }
    ++ph.passes;
  } while (Clock::now() < stop);
  ph.elapsed_s = ms_between(ph.t0, Clock::now()) / 1000.0;
}

struct PhaseStats {
  std::int64_t attempted = 0, ok = 0, slo_ok = 0;
  Summary sentence, step;  ///< every sentence, for the notes
  Gated by_source;         ///< over the sources' mean times, for the metrics
  std::string source_note;
  double tokens_per_s = 0.0;
};

PhaseStats phase_stats(const Phase& ph, const std::vector<std::uint64_t>& ref) {
  PhaseStats s;
  std::vector<double> sentence, step;
  std::vector<std::vector<double>> per_source(ref.size());
  for (const Sentence& x : ph.sentences) {
    ++s.attempted;
    if (x.digest != ref[x.idx]) continue;
    ++s.ok;
    if (x.ms <= kSentenceLimitMs) ++s.slo_ok;
    sentence.push_back(x.ms);
    step.push_back(x.ms / static_cast<double>(kMaxSteps));
    per_source[x.idx].push_back(x.ms);
  }
  s.sentence = summarize(sentence);
  s.step = summarize(step);
  // A pass mixes short and long sources, so a percentile over every
  // sentence reads the VM's slow stretches as long sentences. Each
  // source's mean over the phase is one source length at the phase's
  // average speed; the gated percentiles are taken over those means. A
  // median would jump between this VM's fast and slow states where the
  // mean moves with the share of the phase spent in each.
  std::vector<double> means;
  for (const std::vector<double>& v : per_source) {
    if (!v.empty()) means.push_back(summarize(v).mean);
  }
  std::sort(means.begin(), means.end());
  s.by_source = {percentile_sorted(means, 0.50),
                 percentile_sorted(means, 0.90)};
  s.source_note = "mean sentence ms per source, ascending:";
  for (double m : means) {
    s.source_note += ' ';
    s.source_note += fmt_num(m);
  }
  // Work over wall time of the whole phase, for the same reason.
  s.tokens_per_s = kLaneStepsPerSentence *
                   static_cast<double>(ph.sentences.size()) / ph.elapsed_s;
  return s;
}

/// Shape-derived GEMM flops of one beam sentence: the source is replicated
/// across the lanes, so the encoder runs `width` rows per position.
double sentence_flops(const af::TransformerConfig& cfg, std::size_t src_len) {
  const double d = static_cast<double>(cfg.d_model);
  const double f = static_cast<double>(cfg.d_ffn);
  const double ts = static_cast<double>(src_len);
  double fl = static_cast<double>(cfg.enc_layers) * ts *
              (8.0 * d * d + 4.0 * ts * d + 4.0 * d * f);
  fl += static_cast<double>(cfg.dec_layers) * ts * 4.0 * d * d;
  for (std::int64_t k = 1; k <= kMaxSteps; ++k) {
    const double t = static_cast<double>(k);
    fl += static_cast<double>(cfg.dec_layers) *
              (12.0 * d * d + 4.0 * t * d + 4.0 * ts * d + 4.0 * d * f) +
          2.0 * d * static_cast<double>(cfg.tgt_vocab);
  }
  return fl * kWidth;
}

}  // namespace

Result run_mt_beam(const Args& args, const std::string& out_dir) {
  Result res;
  af::set_num_threads(kBeamThreads);
  Pcg32 rng(args.seed, 0x5719);
  const std::int64_t vocab = af::TransformerConfig{}.src_vocab;
  const std::vector<af::TokenSeq> srcs = make_sources(kBeamSentences, rng, vocab);

  double setup_s = 0.0;
  auto setup = repeated_setup([&] { return make_setup(srcs); }, &setup_s);
  af::TransformerMT& model = setup->bundle->model;

  const double secs_a = args.trace ? args.seconds / 2.0 : args.seconds;
  Phase a, b;
  const double rss_setup = peak_rss_mb();
  drive(model, srcs, secs_a, false, a);
  const std::uint64_t d1 = total_dispatches();
  if (args.trace) drive(model, srcs, args.seconds - secs_a, true, b);
  const std::uint64_t d2 = total_dispatches();
  const double rss_served = peak_rss_mb();
  res.note("peak RSS " + fmt_num(rss_setup) + " MB after set-up, " +
           fmt_num(rss_served) + " MB after the timed phase");

  // Output checks, outside the timed window: single-thread reference.
  af::set_num_threads(1);
  std::vector<std::uint64_t> ref;
  for (const af::TokenSeq& src : srcs) ref.push_back(digest(decode(model, src)));
  // Zero steady-state allocations of the 4-lane decode path (beam search
  // plans a fresh decoder per sentence, so probe one persistent decoder).
  af::TransformerDecoder::Options opts;
  opts.batch = kWidth;
  opts.max_steps = kMaxSteps;
  af::TransformerDecoder probe(model, opts);
  std::int64_t steady = 0;
  const std::vector<std::size_t> identity = {0, 1, 2, 3};
  for (int sent = 0; sent < kAllocProbeSentences; ++sent) {
    probe.begin(srcs[static_cast<std::size_t>(sent) % srcs.size()],
                TranslationTask::kPad);
    std::vector<std::int64_t> last(kWidth, TranslationTask::kBos);
    for (std::int64_t k = 0; k < kMaxSteps; ++k) {
      last = af::argmax_rows(probe.step(last));
      if (sent > 0) {
        steady = std::max(steady, probe.session().last_step_heap_allocs());
      }
      probe.reorder(identity);
    }
  }
  if (steady != 0) {
    res.check_failed("steady-state heap allocations: " + std::to_string(steady));
  }

  const PhaseStats sa = phase_stats(a, ref);
  const PhaseStats sm = args.trace ? phase_stats(b, ref) : sa;
  res.attempted = sa.attempted + (args.trace ? sm.attempted : 0);
  res.failed = res.attempted - sa.ok - (args.trace ? sm.ok : 0);
  if (res.failed > 0) {
    res.check_failed(std::to_string(res.failed) +
                     " hypotheses differ from the single-thread decode");
  }
  note_summary(res, "sentence_ms", sm.sentence, "ms");
  note_summary(res, "step_ms", sm.step, "ms");
  res.note(sm.source_note);
  res.note("passes: " + std::to_string(a.passes) + " of " +
           std::to_string(kBeamSentences) + " sentences, " +
           fmt_num(kLaneStepsPerSentence) + " lane-steps each");

  if (!args.trace) {
    res.set("setup_s", setup_s);
    res.set("peak_rss_mb", rss_served);
    res.set("ok_share", share(sa.ok, sa.attempted));
    res.set("slo_met_share", share(sa.slo_ok, sa.attempted));
    // Beam search releases its hypothesis only when the search ends.
    const double steps = static_cast<double>(kMaxSteps);
    res.set("ttft_p50_ms", sa.by_source.p50);
    res.set("ttft_p90_ms", sa.by_source.p90);
    res.set("gap_p50_ms", sa.by_source.p50 / steps);
    res.set("gap_p90_ms", sa.by_source.p90 / steps);
    res.set("latency_p50_ms", sa.by_source.p50);
    res.set("latency_p90_ms", sa.by_source.p90);
    res.set("tokens_per_s", sa.tokens_per_s);
    return res;
  }

  TraceLog trace(b.t0);
  double flops = 0.0;
  for (const Sentence& x : b.sentences) {
    trace.add(x.rt);
    flops += sentence_flops(setup->bundle->cfg, srcs[x.idx].size());
  }
  const double units =
      static_cast<double>(std::max<std::int64_t>(1, sm.attempted));
  res.set("loadgen.lateness_p90_ms", 0.0);  // closed loop: nothing is due
  res.set("loadgen.tail_samples", static_cast<double>(std::min(
                                      sm.sentence.beyond_p90,
                                      sm.step.beyond_p90)));
  res.set("runtime.steady_allocs", static_cast<double>(steady));
  res.set("runtime.step_arena_bytes",
          static_cast<double>(probe.session().step_arena_stats().peak_bytes));
  res.set("models.beam_sentence_ms_p50", sm.sentence.p50);
  res.set("nn.kv_bytes_per_token", static_cast<double>(probe.kv_bytes_per_step()));
  res.set("nn.kv_bytes_live_peak", static_cast<double>(probe.kv_bytes()));
  res.set("kernels.dispatches_per_unit", static_cast<double>(d2 - d1) / units);
  res.set("kernels.code_bytes_decoded_per_unit", 0.0);  // fp32 weights and KV
  res.set("kernels.flops_per_unit", flops / units);
  const Breakdown bd = trace.breakdown("sentence");
  res.set("trace.unit_p50_ms", bd.unit_p50_ms);
  res.set("trace.admission_ms", bd.admission_ms);
  res.set("trace.queue_ms", bd.queue_ms);
  res.set("trace.coalesce_ms", bd.coalesce_ms);
  res.set("trace.forward_ms", bd.forward_ms);
  res.set("trace.remainder_ms", bd.remainder_ms);
  res.set("trace.overhead_ms", sm.by_source.p50 - sa.by_source.p50);
  res.note(breakdown_text("sentence", bd));
  res.note("tracing overhead: sentence p50 over the sources traced " +
           fmt_num(sm.by_source.p50) + " ms vs untraced " +
           fmt_num(sa.by_source.p50) + " ms");
  res.note("kernels.flops_per_unit is computed from tensor shapes, not "
           "counted; no packed codes are decoded on this path");
  const std::string path = out_dir + "/mt_beam.trace.json";
  if (trace.write_chrome(path)) res.note("chrome trace: " + path);
  return res;
}

}  // namespace e2e
