// Ablation A6: google-benchmark microbenchmarks of the functional
// kernels (host execution speed) and of the simulator itself (cost of
// one timed block simulation) — keeps the library honest about its own
// overheads and provides a regression baseline for the numeric kernels.
#include <benchmark/benchmark.h>

#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "model/config.hpp"
#include "partition/plan.hpp"
#include "quant/int_kernels.hpp"
#include "runtime/timed_simulation.hpp"
#include "util/rng.hpp"

using namespace distmcu;

namespace {
std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}
}  // namespace

static void BM_GemmFloat(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const auto a = random_vec(static_cast<std::size_t>(d * d), 1);
  const auto b = random_vec(static_cast<std::size_t>(d * d), 2);
  std::vector<float> c(static_cast<std::size_t>(d * d));
  for (auto _ : state) {
    kernels::gemm(a, b, c, d, d, d);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d) * d * d);
}
BENCHMARK(BM_GemmFloat)->Arg(64)->Arg(128)->Arg(256);

// One per-chip shard GEMM at m = 1 (a decode row), 4 and 8 (stacked
// decode rows or a prompt chunk): the shapes the stacked forward runs.
static void BM_GemmShard(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    kernels::gemm(a, b, c, m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) * n * k);
}
BENCHMARK(BM_GemmShard)->Apply([](benchmark::internal::Benchmark* b) {
  // {n, k}: TinyLlama-42M on 8 chips (Q/K/V, WO, W1, W2), then the
  // fleet bench's E = 32 decoder on 4 chips.
  const int shapes[][2] = {{64, 512}, {512, 64}, {256, 512}, {512, 256},
                           {8, 32},   {32, 8},   {16, 32},   {32, 16}};
  for (const auto& s : shapes) {
    for (const int m : {1, 4, 8}) b->Args({m, s[0], s[1]});
  }
});

static void BM_GemmInt8(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<std::int8_t> a(static_cast<std::size_t>(d * d), 3);
  std::vector<std::int8_t> b(static_cast<std::size_t>(d * d), -5);
  std::vector<std::int32_t> c(static_cast<std::size_t>(d * d));
  for (auto _ : state) {
    quant::gemm_i8_i32(a, b, c, d, d, d);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d) * d * d);
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

static void BM_Softmax(benchmark::State& state) {
  const int rows = 128, cols = static_cast<int>(state.range(0));
  auto x = random_vec(static_cast<std::size_t>(rows * cols), 3);
  for (auto _ : state) {
    auto copy = x;
    kernels::softmax_rows(copy, rows, cols);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(512);

static void BM_AttentionHead(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0)), p = 64;
  const auto q = random_vec(static_cast<std::size_t>(s * p), 4);
  const auto k = random_vec(static_cast<std::size_t>(s * p), 5);
  const auto v = random_vec(static_cast<std::size_t>(s * p), 6);
  std::vector<float> out(static_cast<std::size_t>(s * p));
  for (auto _ : state) {
    kernels::attention_head(q, k, v, out, s, s, p, true, 0);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionHead)->Arg(16)->Arg(128);

static void BM_TimedBlockSimulation(benchmark::State& state) {
  const int chips = static_cast<int>(state.range(0));
  const auto cfg = chips > 8 ? model::TransformerConfig::tiny_llama_scaled(64)
                             : model::TransformerConfig::tiny_llama_42m();
  const auto plan = partition::PartitionPlan::create(cfg, chips);
  const runtime::TimedBlockSimulation sim(runtime::SystemConfig::siracusa_system());
  for (auto _ : state) {
    auto rep = sim.run(plan, model::Mode::autoregressive);
    benchmark::DoNotOptimize(&rep);
  }
}
BENCHMARK(BM_TimedBlockSimulation)->Arg(1)->Arg(8)->Arg(64);

BENCHMARK_MAIN();
