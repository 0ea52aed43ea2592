#ifndef DISTMCU_MEM_ARENA_HPP
#define DISTMCU_MEM_ARENA_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mem/memory_level.hpp"
#include "util/units.hpp"

namespace distmcu::mem {

/// One named allocation inside an arena. Offsets are byte offsets from
/// the arena base; the planner uses them only for fit accounting and
/// human-readable memory maps, never for host pointers.
struct Allocation {
  std::string name;
  Bytes offset = 0;
  Bytes size = 0;
};

/// Bump allocator over a fixed-capacity memory tier, in the style of the
/// static memory planners used by TinyML deployment flows (Deeploy/TVM):
/// allocations are named, aligned, never freed individually, and the high
/// -water mark decides whether a deployment plan fits. `try_allocate`
/// reports failure instead of throwing so the memory planner can probe
/// residency regimes cheaply.
class Arena {
 public:
  static constexpr Bytes kDefaultAlignment = 8;

  /// Round `size` up to a multiple of `alignment` (power of two) — the
  /// padding every allocation in an arena with that alignment consumes,
  /// exposed so callers can size an arena to fit N allocations exactly.
  /// Saturates at the largest aligned Bytes value: a `size` within
  /// `alignment - 1` of the Bytes max must not wrap to a tiny request
  /// that then "fits" anywhere.
  [[nodiscard]] static constexpr Bytes align_up(Bytes size, Bytes alignment) {
    const Bytes mask = alignment - 1;
    if (size > std::numeric_limits<Bytes>::max() - mask) {
      return std::numeric_limits<Bytes>::max() & ~mask;
    }
    return (size + mask) & ~mask;  // guarded above; lint-domain: allow
  }

  Arena(std::string name, Bytes capacity, Bytes alignment = kDefaultAlignment);

  /// Attempt an allocation; returns false (and leaves the arena
  /// unchanged) when it would exceed capacity.
  [[nodiscard]] bool try_allocate(const std::string& name, Bytes size);

  /// Allocation that throws PlanError on failure.
  Allocation allocate(const std::string& name, Bytes size);

  /// Release everything (new block / new plan probe).
  void reset();

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes remaining() const { return capacity_ - used_; }
  [[nodiscard]] Bytes high_water() const { return high_water_; }
  [[nodiscard]] const std::vector<Allocation>& allocations() const { return allocations_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Multi-line human-readable memory map (used by partition_inspector).
  [[nodiscard]] std::string memory_map() const;

 private:
  [[nodiscard]] Bytes aligned(Bytes size) const;

  std::string name_;
  Bytes capacity_;
  Bytes alignment_;
  Bytes used_ = 0;
  Bytes high_water_ = 0;
  std::vector<Allocation> allocations_;
};

}  // namespace distmcu::mem

#endif  // DISTMCU_MEM_ARENA_HPP
