// Deployment-planning tool: prints the partition plan, per-chip shard
// shapes, the L2 memory plan with the residency decision, and the
// communication schedule for a model/chip-count pair — the "why does my
// deployment behave like this" debugging view.
//
//   ./examples/partition_inspector [model] [num_chips]
//     model: tinyllama | mobilebert | scaled64
#include <cstdlib>
#include <iostream>
#include <string>

#include "model/config.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "runtime/block_program.hpp"
#include "util/table.hpp"

using namespace distmcu;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "tinyllama";
  const int n_chips = argc > 2 ? std::atoi(argv[2]) : 8;

  model::TransformerConfig cfg;
  if (which == "mobilebert") {
    cfg = model::TransformerConfig::mobile_bert();
  } else if (which == "scaled64") {
    cfg = model::TransformerConfig::tiny_llama_scaled(64);
  } else {
    cfg = model::TransformerConfig::tiny_llama_42m();
  }

  const auto plan = partition::PartitionPlan::create(cfg, n_chips);
  std::cout << "=== partition plan: " << cfg.name << " on " << n_chips
            << " chips ===\n";
  util::Table slices({"chip", "heads", "proj width", "FFN cols", "shard KiB/block"});
  for (int c = 0; c < n_chips; ++c) {
    const auto& s = plan.slice(c);
    slices.row()
        .add(c)
        .add("[" + std::to_string(s.head_begin) + "," + std::to_string(s.head_end) + ")")
        .add(plan.proj_width(c))
        .add("[" + std::to_string(s.f_begin) + "," + std::to_string(s.f_end) + ")")
        .add(static_cast<double>(plan.chip_block_weight_elems(c) * 2) / 1024.0, 1);
  }
  slices.print(std::cout);
  std::cout << "zero-duplication check: shards sum to "
            << plan.config().block_weight_elems() << " elements (exact)\n\n";

  const partition::MemoryPlanner planner(chip::ChipConfig::siracusa(),
                                         partition::PrecisionConfig{});
  for (const auto mode : {model::Mode::autoregressive, model::Mode::prompt}) {
    std::cout << "=== memory plan (" << model::mode_name(mode) << ") ===\n"
              << planner.plan(plan, mode).describe() << "\n";
  }

  const auto prog = runtime::build_block_program(plan, partition::PrecisionConfig{},
                                                 model::Mode::autoregressive);
  std::cout << "=== block program (chip 0, autoregressive) ===\n";
  util::Table ops({"phase", "op", "m", "n", "k", "weight KiB", "kv KiB"});
  for (const auto& op : prog.mhsa_phase[0]) {
    ops.row().add("mhsa").add(op.name()).add(op.m).add(op.n).add(op.k)
        .add(static_cast<double>(op.weight_bytes) / 1024.0, 1)
        .add(static_cast<double>(op.kv_bytes) / 1024.0, 1);
  }
  for (const auto& op : prog.ffn_phase[0]) {
    ops.row().add("ffn").add(op.name()).add(op.m).add(op.n).add(op.k)
        .add(static_cast<double>(op.weight_bytes) / 1024.0, 1)
        .add(static_cast<double>(op.kv_bytes) / 1024.0, 1);
  }
  ops.print(std::cout);
  std::cout << "\nsynchronizations per block: " << partition::PartitionPlan::kSyncsPerBlock
            << " (reduce+broadcast each), payload " << prog.sync_payload_bytes
            << " B\n";
  return 0;
}
