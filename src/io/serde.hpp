// Bounds-checked primitive (de)serialization for container sections.
//
// Every multi-byte value is stored little-endian with an explicit width
// (u8/u32/u64/f64); the container header carries a byte-order marker so
// a loader on a foreign-endian host fails with a typed error instead of
// silently misreading. ByteReader never reads past the section payload:
// a truncated or overlong section throws util::IoError naming the
// section, which is what makes corrupted snapshots fail loudly rather
// than produce a partial load.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace rumor::io {

static_assert(std::endian::native == std::endian::little,
              "the rumor binary container is little-endian; big-endian "
              "hosts need byte-swapping read/write paths");

/// Append-only byte buffer with typed put operations.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }

  void bytes(std::span<const std::byte> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  /// u64 element count followed by the raw elements. T must be
  /// trivially copyable with a fixed on-disk width (use the fixed-width
  /// integer types or double).
  template <typename T>
  void vec(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    raw(values.data(), values.size() * sizeof(T));
  }

  const std::vector<std::byte>& buffer() const { return buffer_; }
  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }

  std::vector<std::byte> buffer_;
};

/// Sequential reader over one section payload. All reads are
/// bounds-checked against the payload span; violations throw
/// util::IoError naming the section and, when known, the file it came
/// from (`origin`), so a corrupted artifact in a multi-file run is
/// attributable without re-running under a debugger.
class ByteReader {
 public:
  ByteReader(std::span<const std::byte> data, std::string section,
             std::string origin = {})
      : data_(data), section_(std::move(section)),
        origin_(std::move(origin)) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    require_count<T>(count);
    std::vector<T> values(count);
    // An empty vector's data() may be null, and memcpy's pointers must
    // not be, whatever the size.
    if (count != 0) {
      std::memcpy(values.data(), data_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return values;
  }

  /// A raw view of `count` elements without copying (used by the mmap
  /// graph path). The view aliases the underlying buffer — the caller
  /// must keep the container alive.
  template <typename T>
  std::span<const T> view(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_count<T>(count);
    const void* p = data_.data() + pos_;
    pos_ += count * sizeof(T);
    return {static_cast<const T*>(p), static_cast<std::size_t>(count)};
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Assert the payload was fully consumed — catches sections written
  /// by a newer layout being read with an older one.
  void expect_end() const {
    if (pos_ != data_.size()) {
      throw util::IoError(where() + ": " +
                          std::to_string(data_.size() - pos_) +
                          " trailing bytes after the expected payload");
    }
  }

 private:
  std::string where() const {
    std::string out = "section '" + section_ + "'";
    if (!origin_.empty()) out += " in " + origin_;
    return out;
  }

  template <typename T>
  T get() {
    require_remaining(sizeof(T), "value");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Overflow-safe size check for `count` elements of T.
  template <typename T>
  void require_count(std::uint64_t count) const {
    if (count > (data_.size() - pos_) / sizeof(T)) {
      throw util::IoError(where() + ": truncated array (" +
                          std::to_string(count) + " elements of " +
                          std::to_string(sizeof(T)) + " bytes exceed the " +
                          std::to_string(data_.size() - pos_) +
                          " bytes remaining)");
    }
  }

  void require_remaining(std::uint64_t need, const char* what) const {
    if (need > data_.size() - pos_) {
      throw util::IoError(where() + ": truncated " + what +
                          " (need " + std::to_string(need) + " bytes, have " +
                          std::to_string(data_.size() - pos_) + ")");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::string section_;
  std::string origin_;  ///< file the section came from ("" = in-memory)
};

}  // namespace rumor::io
