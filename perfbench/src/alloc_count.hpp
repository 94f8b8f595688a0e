#pragma once

#include <cstdint>

namespace perfbench {
/// Heap allocations (operator new calls) since the process started.
std::uint64_t allocCount();
}  // namespace perfbench
