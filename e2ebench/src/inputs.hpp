// Seeded input generation for the three workloads. Every input a run
// feeds the program comes from here, as a pure function of the seed, so
// the same seed always offers the same traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/rng.hpp"

namespace e2e {

using af::Pcg32;

/// Open-loop schedule: `n` Poisson arrivals conditioned on landing inside
/// [0, seconds) — sorted uniform offsets, in seconds. Fixing the count
/// keeps the offered load identical across seeds.
std::vector<double> poisson_offsets(std::size_t n, double seconds, Pcg32& rng);

// ----- mt_stream ------------------------------------------------------------

inline constexpr double kStreamsPerSecond = 80.0;
inline constexpr int kSeqLenMin = 8, kSeqLenMax = 40;  // source and output

struct StreamSpec {
  std::vector<std::int64_t> src;
  std::size_t out_len = 0;
  double due_s = 0.0;
};

/// `n` streams due over [0, seconds): sources of kSeqLenMin..kSeqLenMax
/// word tokens (no specials) and output lengths in the same range.
std::vector<StreamSpec> make_streams(std::size_t n, double seconds,
                                     Pcg32& rng, std::int64_t vocab);

// ----- mlp_serve ------------------------------------------------------------

inline constexpr std::int64_t kMlpIn = 128;
inline constexpr std::int64_t kMlpMaxRows = 16;  // rows per request: 1..16
inline constexpr std::size_t kMlpInputPool = 256;
inline constexpr double kMlpBaseRate = 2800.0;  // Poisson arrivals per second
inline constexpr double kMlpBurstRate = 40.0;   // bursts per second
inline constexpr double kMlpBurstAlpha = 1.5;   // Pareto tail of burst size
inline constexpr int kMlpBurstMin = 2, kMlpBurstMax = 32;
inline constexpr double kMlpBurstSpacingS = 20e-6;

struct Traffic {
  std::vector<af::Tensor> pool;    ///< distinct seeded inputs [rows, kMlpIn]
  std::vector<double> due_s;       ///< ascending
  std::vector<std::size_t> input;  ///< pool index per request
};

/// Poisson arrivals at kMlpBaseRate plus Poisson-timed bursts whose sizes
/// follow a capped Pareto tail; each request sends one pool input.
Traffic make_traffic(double seconds, Pcg32& rng);

// ----- mt_beam --------------------------------------------------------------

inline constexpr std::size_t kBeamSentences = 16;  // one pass

/// `n` sources whose lengths are spread evenly over kSeqLenMin..kSeqLenMax
/// (the same multiset for every seed) in a seeded order, with seeded words.
std::vector<af::TokenSeq> make_sources(std::size_t n, Pcg32& rng,
                                       std::int64_t vocab);

}  // namespace e2e
