#include "mem/arena.hpp"

#include <sstream>

#include "util/check.hpp"

namespace distmcu::mem {

Arena::Arena(std::string name, Bytes capacity, Bytes alignment)
    : name_(std::move(name)), capacity_(capacity), alignment_(alignment) {
  DISTMCU_CHECK(alignment_ > 0 && (alignment_ & (alignment_ - 1)) == 0,
              "Arena alignment must be a power of two");
}

Bytes Arena::aligned(Bytes size) const { return align_up(size, alignment_); }

bool Arena::try_allocate(const std::string& name, Bytes size) {
  const Bytes padded = aligned(size);
  // Compared against the remaining headroom (not `used_ + padded`) so a
  // near-max `size` cannot wrap the sum and sneak past the capacity check.
  if (padded > capacity_ - used_) return false;
  allocations_.push_back(Allocation{name, used_, size});
  used_ += padded;
  if (used_ > high_water_) high_water_ = used_;
  return true;
}

Allocation Arena::allocate(const std::string& name, Bytes size) {
  DISTMCU_CHECK_PLAN(try_allocate(name, size),
                   "Arena '" + name_ + "': allocation '" + name + "' of " +
                       util::format_bytes(size) + " exceeds capacity (" +
                       util::format_bytes(remaining()) + " free of " +
                       util::format_bytes(capacity_) + ")");
  return allocations_.back();
}

void Arena::reset() {
  used_ = 0;
  allocations_.clear();
}

std::string Arena::memory_map() const {
  std::ostringstream os;
  os << name_ << ": " << util::format_bytes(used_) << " / "
     << util::format_bytes(capacity_) << " used\n";
  for (const auto& a : allocations_) {
    os << "  [0x" << std::hex << a.offset << std::dec << "] " << a.name << " ("
       << util::format_bytes(a.size) << ")\n";
  }
  return os.str();
}

}  // namespace distmcu::mem
