// Deterministic random-number streams.
//
// Every source of randomness in a simulation (workload arrivals, failure
// detector mistakes, ...) gets its own named sub-stream forked from one
// master seed, so adding a consumer never perturbs the draws seen by the
// others and every experiment is exactly reproducible.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string_view>

namespace fdgm::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix(seed)), seed_base_(seed) {}

  /// Derive an independent stream identified by (this stream, tag).
  [[nodiscard]] Rng fork(std::uint64_t tag) const { return Rng(fork_seed(tag)); }

  /// Derive an independent stream from a human-readable label.
  [[nodiscard]] Rng fork(std::string_view label) const { return fork(fnv1a(label)); }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential variate with the given mean (mean 0 returns 0).
  double exponential(double mean) {
    if (mean <= 0.0) return 0.0;
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// fork(tag).exponential(mean), bit for bit, without building the
  /// fork's engine: its one word comes from first_output().
  [[nodiscard]] double fork_first_exponential(std::uint64_t tag, double mean) const {
    if (mean <= 0.0) return 0.0;
    OneWord word(first_output(splitmix(fork_seed(tag))));
    return std::exponential_distribution<double>(1.0 / mean)(word);
  }

  /// Seeds per block of the first-output kernels: what
  /// fork_first_exponentials computes at once, and the block size
  /// callers that batch first draws use.
  static constexpr std::size_t kFirstOutputsBlock = 64;

  /// out[i] = fork_first_exponential(tags[i], mean) for i < count, bit
  /// for bit.  The forks' first words come from first_outputs(), in
  /// blocks of kFirstOutputsBlock seeds.
  void fork_first_exponentials(const std::uint64_t* tags, std::size_t count, double mean,
                               double* out) const {
    if (mean <= 0.0) {
      std::fill(out, out + count, 0.0);
      return;
    }
    for (std::size_t i = 0; i < count; i += kFirstOutputsBlock) {
      const std::size_t k = std::min(kFirstOutputsBlock, count - i);
      std::array<std::uint64_t, kFirstOutputsBlock> seeds{};
      std::array<std::uint64_t, kFirstOutputsBlock> words{};
      for (std::size_t j = 0; j < k; ++j) seeds[j] = splitmix(fork_seed(tags[i + j]));
      first_outputs(seeds.data(), k, words.data());
      for (std::size_t j = 0; j < k; ++j) {
        OneWord word(words[j]);
        out[i + j] = std::exponential_distribution<double>(1.0 / mean)(word);
      }
    }
  }

  /// The first output of std::mt19937_64(seed).  It tempers the twisted
  /// x[0], which reads only x[0], x[1] and x[shift_size] of the seeded
  /// state: shift_size seeding steps instead of the engine's full seeding
  /// and twist of state_size words.
  static std::uint64_t first_output(std::uint64_t seed) {
    return first_outputs(std::array<std::uint64_t, 1>{seed})[0];
  }

  /// first_output of each seed, the K seeding chains stepped in lockstep:
  /// the scalar reference of the block kernels.
  template <std::size_t K>
  static std::array<std::uint64_t, K> first_outputs(const std::array<std::uint64_t, K>& seed) {
    std::array<std::uint64_t, K> x1;
    for (std::size_t j = 0; j < K; ++j) x1[j] = seeding_step(seed[j], 1);
    std::array<std::uint64_t, K> xm = x1;
    for (std::uint64_t i = 2; i <= std::mt19937_64::shift_size; ++i)
      for (std::size_t j = 0; j < K; ++j) xm[j] = seeding_step(xm[j], i);
    std::array<std::uint64_t, K> out;
    for (std::size_t j = 0; j < K; ++j) out[j] = first_output_from_chain(seed[j], x1[j], xm[j]);
    return out;
  }

  /// Word i of std::mt19937_64's seeded state from word i - 1.
  static constexpr std::uint64_t seeding_step(std::uint64_t x, std::uint64_t i) {
    using E = std::mt19937_64;
    return E::initialization_multiplier * (x ^ (x >> (E::word_size - 2))) + i;
  }

  /// first_output(seed) from words 1 (`x1`) and shift_size (`xm`) of the
  /// seeded state: the twist of x[0], then the tempering.
  static constexpr std::uint64_t first_output_from_chain(std::uint64_t seed, std::uint64_t x1,
                                                         std::uint64_t xm) {
    using E = std::mt19937_64;
    constexpr std::uint64_t upper = ~std::uint64_t{0} << E::mask_bits;
    const std::uint64_t y = (seed & upper) | (x1 & ~upper);
    std::uint64_t z = xm ^ (y >> 1) ^ ((y & 1) != 0 ? E::xor_mask : 0);
    z ^= (z >> E::tempering_u) & E::tempering_d;
    z ^= (z << E::tempering_s) & E::tempering_b;
    z ^= (z << E::tempering_t) & E::tempering_c;
    return z ^ (z >> E::tempering_l);
  }

  /// A block kernel: out[i] = first_output(seeds[i]) for i < count.
  using FirstOutputsKernel = void (*)(const std::uint64_t* seeds, std::size_t count,
                                      std::uint64_t* out);

  /// The scalar block kernel, first_outputs<4> over the block: the
  /// fallback where the CPU has no vector kernel.
  static void first_outputs_scalar(const std::uint64_t* seeds, std::size_t count,
                                   std::uint64_t* out);

  /// The vector block kernel (AVX-512: the seeding chains eight to a
  /// register), or nullptr where the CPU lacks AVX-512 F and DQ or the
  /// build is not for x86-64.
  [[nodiscard]] static FirstOutputsKernel first_outputs_vector();

  /// The block kernel chosen once from the CPU's features: the vector
  /// one where it runs, else the scalar one.
  static void first_outputs(const std::uint64_t* seeds, std::size_t count, std::uint64_t* out);

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return engine_(); }

 private:
  /// A generator with the engine's range that yields one given word; a
  /// distribution that asks for a second one is a bug.
  struct OneWord {
    using result_type = std::mt19937_64::result_type;
    explicit OneWord(result_type w) : word(w) {}
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() {
      if (used) throw std::logic_error("Rng: one-word generator asked for a second word");
      used = true;
      return word;
    }
    result_type word;
    bool used = false;
  };

  /// Seed of fork(tag); its engine is seeded with splitmix of it.
  [[nodiscard]] std::uint64_t fork_seed(std::uint64_t tag) const {
    return splitmix(seed_base_ ^ splitmix(tag + 0x51ed2701));
  }

  static std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_base_ = 0;
};

}  // namespace fdgm::sim
