#pragma once

/// \file le_bytes.h
/// Little-endian fixed-width integers in byte strings: the one encoding of
/// every binary header and record the fleet layer puts on disk or on the
/// wire (snapshot frames, protocol frames, mutation-log records).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ash::util {

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

/// The caller guarantees `at + 4 <= bytes.size()`.
inline std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

/// The caller guarantees `at + 8 <= bytes.size()`.
inline std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

}  // namespace ash::util
