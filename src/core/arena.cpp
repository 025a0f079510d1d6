#include "core/arena.hpp"

#include "util/check.hpp"

namespace odenet::core {

void ScratchArena::frame(std::size_t total_floats) {
  if (total_floats > storage_.size()) {
    storage_.resize(total_floats);
    ++growths_;
  }
  limit_ = total_floats;
  used_ = 0;
  ++frames_;
}

float* ScratchArena::alloc(std::size_t floats) {
  ODENET_CHECK(used_ + floats <= limit_,
               "scratch arena frame overflow: " << used_ << " + " << floats
                                                << " exceeds declared frame of "
                                                << limit_ << " floats");
  float* span = storage_.data() + used_;
  used_ += floats;
  return span;
}

}  // namespace odenet::core
