#pragma once

// Little-endian byte serialization for checkpoint images.
//
// ByteSink appends fixed-width scalars to a growable buffer; ByteSource reads
// them back with sticky-failure semantics: any out-of-bounds read marks the
// source failed and returns zeros instead of aborting, so a truncated or
// corrupt checkpoint file is rejected gracefully by the caller (checking
// ok()) rather than crashing the restore path.
//
// The on-disk format is explicitly little-endian regardless of host order so
// images are portable across machines. Doubles travel as their IEEE-754 bit
// pattern; a bit-exact round trip is required for determinism (timestamps are
// part of the event ordering key).

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace hp::util {

class ByteSink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class ByteSource {
 public:
  ByteSource(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit ByteSource(const std::vector<std::uint8_t>& v) noexcept
      : ByteSource(v.data(), v.size()) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }

  // Copies n bytes out, or zero-fills and marks the source failed if fewer
  // than n remain. A zero-length read touches nothing: `out` may be null
  // (an empty vector's data()), and memcpy/memset with a null pointer is
  // undefined even for n == 0.
  void bytes(void* out, std::size_t n) {
    if (n == 0) return;
    if (n > size_ - pos_) {
      failed_ = true;
      std::memset(out, 0, n);
      pos_ = size_;
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool ok() const noexcept { return !failed_; }
  // A well-formed read should consume the payload exactly.
  bool exhausted() const noexcept { return !failed_ && pos_ == size_; }

 private:
  template <typename T>
  T take() {
    if (sizeof(T) > size_ - pos_) {
      failed_ = true;
      pos_ = size_;
      return T{};
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace hp::util
