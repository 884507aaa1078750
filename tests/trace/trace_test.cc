#include "trace/trace.h"

#include <gtest/gtest.h>

#include "trace/generators.h"

namespace liberate::trace {
namespace {

TEST(Trace, BitInversionIsInvolutive) {
  auto t = economist_trace();
  auto inv = t.bit_inverted();
  ASSERT_EQ(inv.messages.size(), t.messages.size());
  for (std::size_t i = 0; i < t.messages.size(); ++i) {
    ASSERT_EQ(inv.messages[i].payload.size(), t.messages[i].payload.size());
    for (std::size_t j = 0; j < t.messages[i].payload.size(); ++j) {
      EXPECT_EQ(inv.messages[i].payload[j],
                static_cast<std::uint8_t>(~t.messages[i].payload[j]));
    }
  }
  auto back = inv.bit_inverted();
  for (std::size_t i = 0; i < t.messages.size(); ++i) {
    EXPECT_EQ(back.messages[i].payload, t.messages[i].payload);
  }
}

TEST(Trace, InvertedContainsNoKeyword) {
  auto inv = economist_trace().bit_inverted();
  std::string first = to_string(BytesView(inv.messages[0].payload));
  EXPECT_EQ(first.find("economist.com"), std::string::npos);
  EXPECT_EQ(first.find("GET"), std::string::npos);
}

TEST(Trace, ByteCounts) {
  auto t = economist_trace();
  EXPECT_GT(t.total_bytes(), t.client_bytes());
  EXPECT_EQ(t.client_messages(), 1u);
}

}  // namespace
}  // namespace liberate::trace
