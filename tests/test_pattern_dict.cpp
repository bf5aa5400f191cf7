// What the retired cross-block pattern dictionary (container v4) leaves
// behind: writers still emit the v3 bytes that a dictionary-off writer
// produced (the golden digest holds), and the C API still names its
// status codes and rejects bad parameters with a message.
#include <gtest/gtest.h>

#include <string>

#include "core/pastri.h"
#include "core/pastri_capi.h"
#include "test_util.h"

namespace pastri {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// The format-stability golden input (same recipe as
/// test_format_stability.cpp): 4 noisy 6x6 pattern blocks.
std::vector<double> golden_input() {
  const BlockSpec spec{6, 6};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto block = testutil::noisy_pattern_block(spec, 1e-7, b + 1);
    for (double& v : block) v *= 1e-5;
    data.insert(data.end(), block.begin(), block.end());
  }
  return data;
}

TEST(PatternDict, DictOffKeepsGoldenDigest) {
  // The dictionary-off v3 golden digest: with the dictionary gone, the
  // default writer must still produce these exact bytes, and the stream
  // must say version 3.
  const BlockSpec spec{6, 6};
  const auto def = compress(golden_input(), spec, Params{});
  EXPECT_EQ(def.size(), 183u);
  EXPECT_EQ(fnv1a(def), 0x4caa9961110d33c5ull);
  ASSERT_GT(def.size(), 4u);
  EXPECT_EQ(def[4], 3);
}

TEST(PatternDict, CApiStatusNamesAndValidation) {
  EXPECT_STREQ(pastri_status_name(PASTRI_OK), "PASTRI_OK");
  EXPECT_STREQ(pastri_status_name(PASTRI_ERR_CORRUPT_STREAM),
               "PASTRI_ERR_CORRUPT_STREAM");
  EXPECT_STREQ(pastri_status_name(static_cast<pastri_status>(-99)),
               "PASTRI_ERR_UNKNOWN");
  // Out-of-range parameters are an invalid argument, with a message.
  const auto data = golden_input();
  pastri_params cp;
  pastri_params_init(&cp);
  cp.error_bound = -1.0;
  unsigned char* out = nullptr;
  size_t out_size = 0;
  EXPECT_EQ(pastri_compress_buffer(data.data(), data.size(), 6, 6, &cp,
                                   &out, &out_size),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(out, nullptr);
  EXPECT_NE(std::string(pastri_last_error_message()), "");
}

}  // namespace
}  // namespace pastri
