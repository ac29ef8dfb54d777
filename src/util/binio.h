// Byte-level serialization for the recovery WAL (and any other binary
// persistence): explicit little-endian packing of fixed-width integers,
// IEEE-754 bit patterns for doubles, and length-prefixed strings.
//
// Every field is little-endian on the wire — never the memcpy of a
// struct — so the format is identical on every platform and compiler,
// which is what lets a WAL written on one host resume on another and lets
// tests pin record bytes. Doubles travel as their exact bit pattern: a
// value decoded from a WAL is the *same double*, bit for bit, the writer
// had, the property the resume-bit-identically contract rests on.
//
// Runs of u32 or f64 values (a cut's per-client paths and per-path flow)
// move as one block with one bounds check: on a little-endian host the
// wire bytes ARE the array's memory, so the block is a single copy; on a
// big-endian host it falls back to the per-element encoding. Either way
// the bytes equal those of the element-by-element calls.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace staleflow::binio {

/// True where the wire order is the host's memory order, so an array of
/// fixed-width values can be copied as one block.
inline constexpr bool kBlockCopy = std::endian::native == std::endian::little;

/// Appends fixed-width fields to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

  void u32(std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_.push_back(static_cast<char>((value >> shift) & 0xFF));
    }
  }

  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      buf_.push_back(static_cast<char>((value >> shift) & 0xFF));
    }
  }

  /// Exact bit pattern — round-trips any double, including -0.0 and the
  /// results of platform-specific libm calls.
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  /// u64 length prefix + raw bytes.
  void str(std::string_view value) {
    u64(value.size());
    buf_.append(value.data(), value.size());
  }

  /// The same bytes as u32() per element, appended as one block.
  void u32s(std::span<const std::uint32_t> values) { append_block(values); }

  /// The same bytes as f64() per element, appended as one block.
  void f64s(std::span<const double> values) { append_block(values); }

  const std::string& data() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }

 private:
  template <class T>
  void append_block(std::span<const T> values) {
    if constexpr (kBlockCopy) {
      buf_.append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    } else {
      for (const T value : values) {
        if constexpr (sizeof(T) == 4) {
          u32(value);
        } else {
          f64(value);
        }
      }
    }
  }

  std::string buf_;
};

/// Reads fields back in write order. Underrun (a truncated or corrupt
/// payload) throws std::runtime_error rather than reading garbage — the
/// recovery scanner treats that as a torn record.
class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(need(1)[0]); }

  std::uint32_t u32() {
    const std::string_view bytes = need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() {
    const std::string_view bytes = need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * i);
    }
    return value;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t size = u64();
    if (size > remaining()) {
      throw std::runtime_error("binio: truncated payload (string)");
    }
    return std::string(need(static_cast<std::size_t>(size)));
  }

  /// Fills `out` with the next out.size() u32 values: one bounds check
  /// for the whole run, then one block copy.
  void u32s(std::span<std::uint32_t> out) { read_block(out); }

  /// Fills `out` with the next out.size() f64 values, as u32s() does.
  void f64s(std::span<double> out) { read_block(out); }

  /// Steps over the next `size` bytes without reading them.
  void skip(std::size_t size) { need(size); }

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  template <class T>
  void read_block(std::span<T> out) {
    if (out.size() > remaining() / sizeof(T)) {
      throw std::runtime_error("binio: truncated payload (array)");
    }
    const std::string_view bytes = need(out.size_bytes());
    if constexpr (kBlockCopy) {
      if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    } else {
      Reader block(bytes);
      for (T& value : out) {
        if constexpr (sizeof(T) == 4) {
          value = block.u32();
        } else {
          value = std::bit_cast<T>(block.u64());
        }
      }
    }
  }

  std::string_view need(std::size_t size) {
    if (size > remaining()) {
      throw std::runtime_error("binio: truncated payload");
    }
    const std::string_view bytes = data_.substr(offset_, size);
    offset_ += size;
    return bytes;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace staleflow::binio
