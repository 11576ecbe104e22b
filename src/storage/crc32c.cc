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

namespace {

/// The GF(2) operator that feeds `len` zero bytes through the raw
/// (uninverted) CRC register, as four byte-lane tables: a register `c`
/// advanced past `len` zero bytes is the XOR of table[k][byte k of c].
/// Combining two streams is then "shift the first past the second's
/// length, XOR the second", by linearity of the CRC.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;
using Gf2Matrix = std::array<uint32_t, 32>;  // column i = image of bit i

constexpr uint32_t Gf2Apply(const Gf2Matrix& m, uint32_t v) {
  uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) out ^= m[i];
  }
  return out;
}

constexpr Gf2Matrix Gf2Multiply(const Gf2Matrix& a, const Gf2Matrix& b) {
  Gf2Matrix out{};
  for (int i = 0; i < 32; ++i) out[i] = Gf2Apply(a, b[i]);
  return out;
}

constexpr ShiftTable MakeShiftTable(size_t len) {
  // One zero bit: bit 0 falls off and folds in the reflected polynomial,
  // every other bit moves down by one.
  Gf2Matrix bit{};
  bit[0] = 0x82F63B78;
  for (int i = 1; i < 32; ++i) bit[i] = 1u << (i - 1);
  Gf2Matrix op{};
  for (int i = 0; i < 32; ++i) op[i] = 1u << i;
  for (size_t bits = len * 8; bits != 0; bits >>= 1) {
    if (bits & 1) op = Gf2Multiply(bit, op);
    bit = Gf2Multiply(bit, bit);
  }
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) table[k][b] = Gf2Apply(op, b << (8 * k));
  }
  return table;
}

constexpr ShiftTable kShortShift = MakeShiftTable(kShortBlock);
constexpr ShiftTable kLongShift = MakeShiftTable(kLongBlock);

uint64_t Shift(const ShiftTable& t, uint64_t crc) {
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
         t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
}

uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Three `crc32` chains over three adjacent blocks of `kBlock` bytes: the
/// instruction has a latency of three cycles but issues one per cycle, so
/// independent chains keep it busy where one chain waits.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t ThreeStreams(
    uint64_t crc, const unsigned char* p, const ShiftTable& shift) {
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  for (size_t i = 0; i < kBlock; i += 8) {
    crc = _mm_crc32_u64(crc, Load64(p + i));
    c1 = _mm_crc32_u64(c1, Load64(p + kBlock + i));
    c2 = _mm_crc32_u64(c2, Load64(p + 2 * kBlock + i));
  }
  crc = Shift(shift, crc) ^ c1;
  return Shift(shift, crc) ^ c2;
}

}  // namespace

bool HasSse42() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t state = static_cast<uint32_t>(~crc);
  for (; n >= 3 * kLongBlock; p += 3 * kLongBlock, n -= 3 * kLongBlock) {
    state = ThreeStreams<kLongBlock>(state, p, kLongShift);
  }
  for (; n >= 3 * kShortBlock; p += 3 * kShortBlock, n -= 3 * kShortBlock) {
    state = ThreeStreams<kShortBlock>(state, p, kShortShift);
  }
  for (; n >= 8; p += 8, n -= 8) state = _mm_crc32_u64(state, Load64(p));
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
