#pragma once
/// \file snapshot_io.hpp
/// \brief Bounds-checked binary writer/reader for versioned snapshots.
///
/// The serving layer serializes live filter state (FilterState snapshots,
/// session eviction records) into compact binary blobs that must restore
/// BIT-IDENTICALLY: a restored session's trace has to continue exactly
/// where the snapshotted one left off. Decimal text round-trips cannot
/// guarantee that for floats, so every float/double travels as its raw
/// IEEE bit pattern (the binary equivalent of the repo's hexfloat trace
/// convention). Blobs are little-endian. Every target the repo builds is
/// little-endian too (asserted below), so a value's native bytes are its
/// blob bytes: each field, and each whole array, is appended or read in
/// bulk, with one size check and one copy.
///
/// The reader is defensive: every accessor bounds-checks and throws
/// common::IoError on truncation, so a corrupt or version-skewed blob is
/// rejected instead of read out of bounds. Version negotiation itself is
/// the caller's job.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "fp16/half.hpp"

namespace tofmcl::map {

static_assert(std::endian::native == std::endian::little,
              "snapshot blobs are little-endian and copied as native bytes");
static_assert(sizeof(Half) == 2 && std::is_trivially_copyable_v<Half>,
              "a Half travels as its two binary16 bytes");

/// Append-only little-endian binary writer backing a snapshot blob.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { append(&v, sizeof v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  /// Raw IEEE-754 bit patterns: exact round-trip by construction.
  void f32(float v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// The values back to back, exactly as that many scalar calls write them.
  void array(std::span<const float> v) { append(v.data(), v.size_bytes()); }
  void array(std::span<const Half> v) { append(v.data(), v.size_bytes()); }
  void array(std::span<const double> v) { append(v.data(), v.size_bytes()); }

  /// Grows the capacity to hold `n` more bytes without reallocating.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(src);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a snapshot blob. Throws IoError on any
/// read past the end (truncated or corrupt snapshot).
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  float f32() { return read<float>(); }
  double f64() { return read<double>(); }
  /// An f64 the format requires to be finite: NaN or ±inf is an IoError.
  double finite_f64() {
    const double v = f64();
    if (!std::isfinite(v)) throw IoError("snapshot holds a non-finite value");
    return v;
  }
  /// An f64 the format requires to be a duration in seconds: a negative
  /// or non-finite value is an IoError.
  double duration_f64() { return checked_duration(f64()); }
  bool boolean() { return u8() != 0; }
  /// Fills `out` with what array() wrote for that many values.
  void array(std::span<float> out) { copy(out.data(), out.size_bytes()); }
  void array(std::span<Half> out) { copy(out.data(), out.size_bytes()); }
  void array(std::span<double> out) { copy(out.data(), out.size_bytes()); }
  /// array() of durations, refused as duration_f64() refuses one.
  void durations(std::span<double> out) {
    array(out);
    for (const double v : out) checked_duration(v);
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  static double checked_duration(double v) {
    if (!(v >= 0.0 && std::isfinite(v))) {
      throw IoError("snapshot holds a negative or non-finite duration");
    }
    return v;
  }

  template <typename T>
  T read() {
    T v{};
    copy(&v, sizeof v);
    return v;
  }

  void copy(void* dst, std::size_t n) {
    require(n);
    // An empty array's data() may be null, which memcpy must not see.
    if (n != 0) std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  /// Throws IoError unless `n` more bytes remain. Tested as n > size − pos:
  /// an array's byte count can be large enough to wrap pos + n.
  void require(std::size_t n) const {
    if (n > remaining()) throw_truncated(n);
  }

  [[noreturn]] void throw_truncated(std::size_t n) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tofmcl::map
