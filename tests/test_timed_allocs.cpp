// Allocation bounds of the timed block simulation, measured with a
// counting global operator new (this test is its own executable, so the
// counter sees only this program). The block program holds one op list
// per chip class and phase, so lowering and pricing allocate the same
// count at 8 and at 64 chips; what still grows with the chip count is
// the reduction topology's stage schedule. The bounds are the measured
// counts; a change that allocates more fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "model/config.hpp"
#include "partition/plan.hpp"
#include "runtime/timed_simulation.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using partition::PartitionPlan;
using runtime::SystemConfig;
using runtime::TimedBlockSimulation;

namespace {

/// Allocations of one untraced run(), after a first run of the same
/// point so that nothing lazily initialized is counted.
std::uint64_t run_allocs(const TransformerConfig& cfg, int chips, Mode mode) {
  const auto plan = PartitionPlan::create(cfg, chips);
  const TimedBlockSimulation sim(SystemConfig::siracusa_system());
  const Cycles warm = sim.run(plan, mode).block_cycles;
  const std::uint64_t before = g_allocs;
  const Cycles cycles = sim.run(plan, mode).block_cycles;
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_EQ(cycles, warm);
  return allocs;
}

}  // namespace

TEST(TimedAllocs, TinyLlamaAutoregressiveEightChips) {
  EXPECT_LE(run_allocs(TransformerConfig::tiny_llama_42m(), 8, Mode::autoregressive), 39u);
}

TEST(TimedAllocs, ScaledSixtyFourChips) {
  EXPECT_LE(run_allocs(TransformerConfig::tiny_llama_scaled(64), 64, Mode::autoregressive),
            56u);
}
