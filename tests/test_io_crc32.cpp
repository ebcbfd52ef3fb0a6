// io::crc32 (slicing-by-8) against the CRC-32 check value and a
// bytewise reference kept here: every length 0..300 at every offset
// 0..7 from an 8-byte boundary, so each word/tail split and alignment
// is covered, plus chaining through the seed argument.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "io/crc32.hpp"
#include "util/random.hpp"

namespace rumor::io {
namespace {

/// Bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320), no tables.
std::uint32_t bytewise_crc32(std::span<const std::byte> data,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const std::byte> bytes_of(const char* text) {
  return {reinterpret_cast<const std::byte*>(text), std::strlen(text)};
}

TEST(IoCrc32, CheckValue) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(IoCrc32, ChainsThroughTheSeed) {
  util::Xoshiro256 rng(4242);
  std::vector<std::byte> data(700);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFFu);
  const std::span<const std::byte> all(data);
  for (const std::size_t split : {0UL, 1UL, 7UL, 8UL, 13UL, 256UL, 699UL,
                                  700UL}) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32(b, crc32(a)), crc32(all)) << "split " << split;
  }
}

TEST(IoCrc32, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  util::Xoshiro256 rng(777);
  // 8-byte aligned storage, so offset k starts k bytes past a boundary.
  std::vector<std::uint64_t> storage(48);
  for (auto& word : storage) word = rng();
  const auto* base = reinterpret_cast<const std::byte*>(storage.data());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::span<const std::byte> data(base + offset, length);
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc32(data), bytewise_crc32(data))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32(data, seed), bytewise_crc32(data, seed))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace rumor::io
