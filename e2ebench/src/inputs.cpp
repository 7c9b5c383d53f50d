#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "src/data/translation_task.hpp"

namespace e2e {

std::vector<double> poisson_offsets(std::size_t n, double seconds, Pcg32& rng) {
  std::vector<double> out(n);
  for (double& t : out) t = rng.next_double() * seconds;
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

std::vector<std::int64_t> words(std::size_t len, Pcg32& rng,
                                std::int64_t vocab) {
  const auto span =
      static_cast<std::uint32_t>(vocab - af::TranslationTask::kFirstWord);
  std::vector<std::int64_t> out(len);
  for (auto& w : out) w = af::TranslationTask::kFirstWord + rng.next_below(span);
  return out;
}

std::size_t seq_len(Pcg32& rng) {
  return kSeqLenMin +
         rng.next_below(static_cast<std::uint32_t>(kSeqLenMax - kSeqLenMin + 1));
}

}  // namespace

std::vector<StreamSpec> make_streams(std::size_t n, double seconds,
                                     Pcg32& rng, std::int64_t vocab) {
  const std::vector<double> due = poisson_offsets(n, seconds, rng);
  std::vector<StreamSpec> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].src = words(seq_len(rng), rng, vocab);
    out[i].out_len = seq_len(rng);
    out[i].due_s = due[i];
  }
  return out;
}

Traffic make_traffic(double seconds, Pcg32& rng) {
  Traffic t;
  // Every row count 1..kMlpMaxRows appears equally often in the pool, so
  // the offered work does not drift with the seed; which pool entry each
  // request sends is seeded below.
  for (std::size_t i = 0; i < kMlpInputPool; ++i) {
    const auto rows = static_cast<std::int64_t>(i) % kMlpMaxRows + 1;
    t.pool.push_back(af::Tensor::randn({rows, kMlpIn}, rng));
  }
  t.due_s = poisson_offsets(
      static_cast<std::size_t>(kMlpBaseRate * seconds + 0.5), seconds, rng);
  const std::vector<double> bursts = poisson_offsets(
      static_cast<std::size_t>(kMlpBurstRate * seconds + 0.5), seconds, rng);
  for (const double at : bursts) {
    // Pareto(kMlpBurstMin, kMlpBurstAlpha) by inversion, capped.
    const double u = 1.0 - rng.next_double();
    const int size = std::min(
        kMlpBurstMax,
        static_cast<int>(kMlpBurstMin * std::pow(u, -1.0 / kMlpBurstAlpha)));
    for (int k = 0; k < size; ++k) {
      t.due_s.push_back(at + k * kMlpBurstSpacingS);
    }
  }
  std::sort(t.due_s.begin(), t.due_s.end());
  for (std::size_t i = 0; i < t.due_s.size(); ++i) {
    t.input.push_back(
        rng.next_below(static_cast<std::uint32_t>(kMlpInputPool)));
  }
  return t;
}

std::vector<af::TokenSeq> make_sources(std::size_t n, Pcg32& rng,
                                       std::int64_t vocab) {
  // Lengths spread evenly over kSeqLenMin..kSeqLenMax in a seeded order:
  // a pass costs the same work for every seed (encoder and cross-attention
  // cost grow with the source length), only the tokens and order differ.
  const std::size_t span = kSeqLenMax - kSeqLenMin + 1;
  std::vector<std::size_t> lens(n);
  for (std::size_t i = 0; i < n; ++i) lens[i] = kSeqLenMin + i * span / n;
  rng.shuffle(lens);
  std::vector<af::TokenSeq> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = words(lens[i], rng, vocab);
  return out;
}

}  // namespace e2e
