// Tiny built-in timing harness for micro_kernel: a subset of the Google
// Benchmark API (State iteration, BENCHMARK()->Arg() registration,
// DoNotOptimize, SetItemsProcessed, counters, --benchmark_format=json), so
// the kernels need no external library and every machine times them the
// same way.
//
// Methodology: each benchmark is calibrated to run for ~0.25 s of wall
// time (one probe iteration sizes the batch), then timed over the whole
// batch with steady_clock; reported real_time is ns per iteration.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace benchmark {

class State;
using Function = void (*)(State&);

namespace detail {

struct Registration {
  std::string name;
  Function fn = nullptr;
  std::vector<std::int64_t> args;  // one run per entry; empty = one run, no arg
};

inline std::vector<Registration>& registry() {
  static std::vector<Registration> r;
  return r;
}

}  // namespace detail

/// GB-compatible counter: implicitly convertible from/to double.
struct Counter {
  double value = 0.0;
  Counter() = default;
  Counter(double v) : value(v) {}  // NOLINT(google-explicit-constructor)
  operator double() const { return value; }  // NOLINT(google-explicit-constructor)
};

class State {
 public:
  explicit State(std::int64_t iterations, std::int64_t arg, bool has_arg)
      : target_(iterations), arg_(arg), has_arg_(has_arg) {}

  /// Minimal range-for protocol: `for (auto _ : state)` runs target_ times.
  /// operator* yields a class type so the unused loop variable does not
  /// trigger -Wunused-variable (mirrors Google Benchmark).
  struct [[maybe_unused]] Tick {};  // attribute silences the unused `_`
  struct iterator {
    std::int64_t left;
    bool operator!=(const iterator& o) const { return left != o.left; }
    void operator++() { --left; }
    Tick operator*() const { return {}; }
  };
  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    return iterator{target_};
  }
  iterator end() { return iterator{0}; }

  [[nodiscard]] std::int64_t range(std::size_t /*i*/ = 0) const { return has_arg_ ? arg_ : 0; }
  [[nodiscard]] std::int64_t iterations() const { return target_; }
  void SetItemsProcessed(std::int64_t n) { items_ = n; }
  [[nodiscard]] std::int64_t items_processed() const { return items_; }
  [[nodiscard]] double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  std::map<std::string, Counter> counters;

 private:
  std::int64_t target_;
  std::int64_t arg_;
  bool has_arg_;
  std::int64_t items_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}

class RegistrationHandle {
 public:
  explicit RegistrationHandle(std::size_t index) : index_(index) {}
  RegistrationHandle* Arg(std::int64_t a) {
    detail::registry()[index_].args.push_back(a);
    return this;
  }

 private:
  std::size_t index_;
};

inline RegistrationHandle* RegisterBenchmark(const char* name, Function fn) {
  detail::registry().push_back(detail::Registration{name, fn, {}});
  // Handles only feed ->Arg() chains during static init; leak them.
  return new RegistrationHandle(detail::registry().size() - 1);
}

#define BENCHMARK(fn)                                         \
  static ::benchmark::RegistrationHandle* fn##_registration = \
      ::benchmark::RegisterBenchmark(#fn, fn)

namespace detail {

struct Result {
  std::string name;
  double ns_per_iter = 0.0;
  double items_per_second = 0.0;
  std::int64_t iterations = 0;
  std::map<std::string, Counter> counters;
};

inline Result run_one(const Registration& reg, std::int64_t arg, bool has_arg,
                      const std::string& name) {
  // Probe with one iteration, then size a batch for ~0.25 s of wall time.
  State probe(1, arg, has_arg);
  reg.fn(probe);
  const double probe_ns = std::max(probe.elapsed_ns(), 1.0);
  const auto iters =
      std::clamp<std::int64_t>(static_cast<std::int64_t>(250e6 / probe_ns), 1, 10'000'000);

  State state(iters, arg, has_arg);
  reg.fn(state);
  const double total_ns = state.elapsed_ns();

  Result res;
  res.name = name;
  res.iterations = iters;
  res.ns_per_iter = total_ns / static_cast<double>(iters);
  if (state.items_processed() > 0)
    res.items_per_second = static_cast<double>(state.items_processed()) / (total_ns * 1e-9);
  res.counters = state.counters;
  return res;
}

}  // namespace detail

inline int RunAll(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--benchmark_format=json") == 0) json = true;

  std::vector<detail::Result> results;
  for (const auto& reg : detail::registry()) {
    if (reg.args.empty()) {
      results.push_back(detail::run_one(reg, 0, false, reg.name));
    } else {
      for (std::int64_t a : reg.args)
        results.push_back(detail::run_one(reg, a, true, reg.name + "/" + std::to_string(a)));
    }
  }

  if (json) {
    std::printf("{\n  \"context\": {\"library\": \"fdgm-microbench-fallback\"},\n");
    std::printf("  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::printf("    {\"name\": \"%s\", \"iterations\": %lld, \"real_time\": %.2f, "
                  "\"time_unit\": \"ns\", \"items_per_second\": %.2f",
                  r.name.c_str(), static_cast<long long>(r.iterations), r.ns_per_iter,
                  r.items_per_second);
      for (const auto& [k, v] : r.counters) std::printf(", \"%s\": %.4f", k.c_str(), v.value);
      std::printf("}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    for (const auto& r : results) {
      std::printf("%-40s %12.2f ns %14.0f items/s", r.name.c_str(), r.ns_per_iter,
                  r.items_per_second);
      for (const auto& [k, v] : r.counters) std::printf("  %s=%.4f", k.c_str(), v.value);
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace benchmark

#define BENCHMARK_MAIN() \
  int main(int argc, char** argv) { return ::benchmark::RunAll(argc, argv); }
