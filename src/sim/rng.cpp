#include "sim/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FDGM_RNG_AVX512 1
#include <cstring>
#endif

namespace fdgm::sim {

namespace {

#ifdef FDGM_RNG_AVX512
/// Eight 64-bit lanes: one AVX-512 register, where a lane-wise multiply
/// is one vpmullq (AVX-512 DQ).
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

/// Chains per group: eight registers, so that the multiplies of
/// independent chains hide each other's latency.
constexpr std::size_t kVecs = 8;
constexpr std::size_t kGroup = 8 * kVecs;

/// Steps the seeding chains of kGroup seeds (Rng::seeding_step in every
/// lane) and finishes each one with Rng::first_output_from_chain.
__attribute__((target("avx512f,avx512dq"))) void first_outputs_group(const std::uint64_t* seeds,
                                                                     std::uint64_t* out) {
  using E = std::mt19937_64;
  U64x8 x[kVecs] = {};
  std::memcpy(x, seeds, sizeof x);
  std::uint64_t x1[kGroup] = {};
  for (std::uint64_t i = 1; i <= E::shift_size; ++i) {
    for (U64x8& v : x) v = E::initialization_multiplier * (v ^ (v >> (E::word_size - 2))) + i;
    if (i == 1) std::memcpy(x1, x, sizeof x);
  }
  std::uint64_t xm[kGroup] = {};
  std::memcpy(xm, x, sizeof x);
  for (std::size_t j = 0; j < kGroup; ++j)
    out[j] = Rng::first_output_from_chain(seeds[j], x1[j], xm[j]);
}

void first_outputs_avx512(const std::uint64_t* seeds, std::size_t count, std::uint64_t* out) {
  std::size_t i = 0;
  for (; i + kGroup <= count; i += kGroup) first_outputs_group(seeds + i, out + i);
  if (i == count) return;
  // A short tail runs as one group padded with zero seeds.
  std::uint64_t tail_seeds[kGroup] = {};
  std::uint64_t tail_out[kGroup] = {};
  std::copy(seeds + i, seeds + count, tail_seeds);
  first_outputs_group(tail_seeds, tail_out);
  std::copy(tail_out, tail_out + (count - i), out + i);
}
#endif

}  // namespace

void Rng::first_outputs_scalar(const std::uint64_t* seeds, std::size_t count,
                               std::uint64_t* out) {
  constexpr std::size_t kLanes = 4;
  for (std::size_t i = 0; i < count; i += kLanes) {
    const std::size_t k = std::min(kLanes, count - i);
    std::array<std::uint64_t, kLanes> s{};
    std::copy(seeds + i, seeds + i + k, s.begin());
    const std::array<std::uint64_t, kLanes> words = first_outputs(s);
    std::copy(words.begin(), words.begin() + static_cast<std::ptrdiff_t>(k), out + i);
  }
}

Rng::FirstOutputsKernel Rng::first_outputs_vector() {
#ifdef FDGM_RNG_AVX512
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
    return &first_outputs_avx512;
#endif
  return nullptr;
}

void Rng::first_outputs(const std::uint64_t* seeds, std::size_t count, std::uint64_t* out) {
  static const FirstOutputsKernel kernel = [] {
    const FirstOutputsKernel vector = first_outputs_vector();
    return vector != nullptr ? vector : &first_outputs_scalar;
  }();
  kernel(seeds, count, out);
}

}  // namespace fdgm::sim
