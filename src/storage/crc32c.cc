#include <array>
#include <bit>
#include <cstring>
#include <string_view>

#include "storage/crc32c_internal.h"
#include "storage/format.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace orpheus::storage {

namespace crc32c_internal {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 kernel folds the CRC into the low bytes of a "
              "native 64-bit load");

using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table for the reflected
/// Castagnoli polynomial; tables[k][b] advances tables[k-1][b] by one more
/// zero byte, so one lookup per byte lane folds a whole 8-byte word.
constexpr SliceTables MakeSliceTables() {
  constexpr uint32_t kPoly = 0x82F63B78;
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr SliceTables kTables = MakeSliceTables();

}  // namespace

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t state = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= state;
    state = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
            kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
            kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
            kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) state = (state >> 8) ^ kTables[0][(state ^ *p++) & 0xFF];
  return ~state;
}

#if defined(__x86_64__)

bool HasSse42() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t state = static_cast<uint32_t>(~crc);
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  uint32_t state32 = static_cast<uint32_t>(state);
  while (n-- > 0) state32 = _mm_crc32_u8(state32, *p++);
  return ~state32;
}

#else

bool HasSse42() { return false; }

uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n) {
  return ExtendPortable(crc, data, n);
}

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  static const auto kExtend = crc32c_internal::HasSse42()
                                  ? &crc32c_internal::ExtendSse42
                                  : &crc32c_internal::ExtendPortable;
  return kExtend(crc, data.data(), data.size());
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace orpheus::storage
