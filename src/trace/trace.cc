#include "trace/trace.h"

namespace liberate::trace {

ApplicationTrace ApplicationTrace::bit_inverted() const {
  ApplicationTrace out = *this;
  for (auto& m : out.messages) {
    for (auto& b : m.payload) b = static_cast<std::uint8_t>(~b);
  }
  return out;
}

}  // namespace liberate::trace
