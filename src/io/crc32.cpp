#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace rumor::io {

namespace {

// Slicing-by-8 tables: kTables[0] is the bytewise table, and
// kTables[k][b] is the CRC register after byte b followed by k zero
// bytes, so one 8-byte word folds in with eight independent lookups.
using Table = std::array<std::uint32_t, 256>;

constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

// The word loop takes the stream's first byte from the word's low bits.
static_assert(std::endian::native == std::endian::little,
              "crc32 reads 8-byte words as little-endian");

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= c;
    c = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
        kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
        kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
        kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rumor::io
