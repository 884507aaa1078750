// Digest streaming edge cases.
#include "util/digest.h"

#include <gtest/gtest.h>

namespace liberate {
namespace {

// An empty span carries a null pointer; with a partial block pending, the
// update must not hand it to memcpy (undefined behaviour under UBSan).
TEST(Digest, EmptyUpdateAfterPartialBlockIsANoOp) {
  const Bytes three{1, 2, 3};
  Digest streamed;
  streamed.update(BytesView(three));
  streamed.update(BytesView{});
  Digest whole;
  whole.update(BytesView(three));
  EXPECT_EQ(streamed.finish(), whole.finish());
}

}  // namespace
}  // namespace liberate
