// Little-endian binary stream primitives shared by the checkpoint writer
// (core/checkpoint.hpp) and every component's save_state/load_state blob.
//
// All multi-byte integers are written least-significant byte first,
// independent of host endianness, so a checkpoint taken on one machine
// restores on any other.  Readers throw std::runtime_error on truncation —
// callers (the checkpoint layer) wrap that into a CheckpointError with
// context.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace lgg::binio {

inline void write_bytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

inline void read_bytes(std::istream& is, void* data, std::size_t n) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw std::runtime_error("binio: truncated stream");
  }
}

inline void write_u8(std::ostream& os, std::uint8_t v) {
  write_bytes(os, &v, 1);
}

inline void write_u32(std::ostream& os, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(os, b, 4);
}

inline void write_u64(std::ostream& os, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(os, b, 8);
}

inline void write_i64(std::ostream& os, std::int64_t v) {
  write_u64(os, static_cast<std::uint64_t>(v));
}

inline void write_f64(std::ostream& os, double v) {
  write_u64(os, std::bit_cast<std::uint64_t>(v));
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  write_bytes(os, s.data(), s.size());
}

inline std::uint8_t read_u8(std::istream& is) {
  std::uint8_t v = 0;
  read_bytes(is, &v, 1);
  return v;
}

inline std::uint32_t read_u32(std::istream& is) {
  std::uint8_t b[4];
  read_bytes(is, b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
  return v;
}

inline std::uint64_t read_u64(std::istream& is) {
  std::uint8_t b[8];
  read_bytes(is, b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

inline std::int64_t read_i64(std::istream& is) {
  return static_cast<std::int64_t>(read_u64(is));
}

inline double read_f64(std::istream& is) {
  return std::bit_cast<double>(read_u64(is));
}

inline std::string read_string(std::istream& is, std::size_t max_size = 1u << 30) {
  const std::uint32_t n = read_u32(is);
  if (n > max_size) throw std::runtime_error("binio: oversized string");
  std::string s(n, '\0');
  read_bytes(is, s.data(), n);
  return s;
}

/// Bytes left in `is` when it is seekable, else UINT64_MAX.  Lets a reader
/// reject a count the stream cannot hold before it sizes anything from it.
inline std::uint64_t remaining(std::istream& is) {
  constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) {
    is.clear();
    return kUnknown;
  }
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1)) {
    is.clear();
    return kUnknown;
  }
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace lgg::binio
