// Byte-level codec primitives shared by the frame wire codec
// (telemetry/frame.cpp) and the historian's block codec (store/block.cpp):
// CRC-32, zigzag signed mapping, LEB128 varints, and little-endian
// fixed-width put/get helpers.  Everything is host-order-independent: values
// travel little-endian, doubles as IEEE-754 bit patterns.
//
// The varint reader and the fixed-width getters are bounds-checked against
// the caller's buffer and report failure instead of reading past the end —
// both codecs promise "malformed input maps to a status, never UB", and that
// promise starts here.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace tsvpt::telemetry {

/// Map a signed delta onto an unsigned value with small magnitudes staying
/// small (…, -2 -> 3, -1 -> 1, 0 -> 0, 1 -> 2, 2 -> 4, …), so varint
/// encoding of near-zero deltas costs one byte regardless of sign.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1u);
}

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = continuation;
/// 1 byte for values < 128, at most 10 for a full u64).
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Read a varint at data[pos]; advances pos and returns true on success,
/// false (pos unspecified) on truncation or an over-long (> 10 byte)
/// encoding.
inline bool get_varint(const std::uint8_t* data, std::size_t size,
                       std::size_t& pos, std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= size) return false;
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      out = v;
      return true;
    }
  }
  return false;  // 10 continuation bytes: not a canonical u64
}

// --- little-endian fixed-width writers ---
//
// Each writer copies the value's little-endian bytes out with one memcpy (a
// big-endian host reverses them first) and appends them with one range
// insert, so the vector grows once per value.  (A resize and a memcpy into
// the vector zero-fill the new bytes first, and timed about half as fast.)

namespace detail {

template <typename T>
inline void put_le(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      swapped = static_cast<T>((swapped << 8) | ((v >> (8 * i)) & 0xFFu));
    }
    v = swapped;
  }
  std::uint8_t bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.insert(out.end(), bytes, bytes + sizeof v);
}

}  // namespace detail

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  detail::put_le(out, v);
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  detail::put_le(out, v);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  detail::put_le(out, v);
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

// --- little-endian fixed-width readers (unchecked: caller verifies size) ---

[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* data) {
  return static_cast<std::uint16_t>(
      data[0] | (static_cast<std::uint16_t>(data[1]) << 8));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* data) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* data) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline double get_f64(const std::uint8_t* data) {
  return std::bit_cast<double>(get_u64(data));
}

namespace detail {

/// Slice-by-8 tables for the reflected IEEE polynomial: [0] is the
/// byte-at-a-time table, and [k][b] advances byte b's CRC past k more zero
/// bytes.
[[nodiscard]] inline const std::array<std::array<std::uint32_t, 256>, 8>&
crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace detail

/// CRC-32 (reflected 0xEDB88320, init/final 0xFFFFFFFF — the zlib CRC),
/// eight bytes per step: the next eight bytes are folded into the register
/// and each is looked up in the table that carries it past the rest.
[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t size) {
  const auto& t = detail::crc32_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ get_u32(data);
    const std::uint32_t hi = get_u32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Bounds-checked cursor over a byte buffer: every read either succeeds and
/// advances or returns false leaving the cursor untouched, so decoders can
/// bail with a status instead of reading out of bounds.
class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  bool u8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& out) {
    if (remaining() < 2) return false;
    out = get_u16(data_ + pos_);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = get_u32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = get_u64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  bool f64(double& out) {
    if (remaining() < 8) return false;
    out = get_f64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  bool varint(std::uint64_t& out) {
    return get_varint(data_, size_, pos_, out);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tsvpt::telemetry
