#ifndef ORPHEUS_STORAGE_CRC32C_INTERNAL_H_
#define ORPHEUS_STORAGE_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

/// The two CRC32C kernels behind storage::Crc32cExtend (format.h), exposed
/// so tests can check each one against a reference on any host. Production
/// code calls Crc32cExtend, which picks the hardware kernel once per
/// process when the CPU has it. Both kernels take and return the finalized
/// CRC (the ~state convention of Crc32cExtend), so they are interchangeable
/// mid-stream.
namespace orpheus::storage::crc32c_internal {

/// Slicing-by-8 table kernel: eight table lookups per 8-byte word.
uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n);

/// Block sizes of the SSE4.2 kernel's three-stream loops (bytes per stream).
inline constexpr size_t kLongBlock = 8192;
inline constexpr size_t kShortBlock = 256;

/// True when the CPU has the SSE4.2 crc32 instruction (x86-64 only).
bool HasSse42();

/// The SSE4.2 `crc32` kernel: three interleaved instruction chains over
/// adjacent blocks of kLongBlock bytes, then of kShortBlock bytes, whose
/// CRCs are combined through precomputed shift tables; the remainder runs
/// one chain. Only call it when HasSse42() is true; on other architectures
/// it forwards to ExtendPortable.
uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n);

}  // namespace orpheus::storage::crc32c_internal

#endif  // ORPHEUS_STORAGE_CRC32C_INTERNAL_H_
