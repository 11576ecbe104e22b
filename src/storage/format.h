#ifndef ORPHEUS_STORAGE_FORMAT_H_
#define ORPHEUS_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/cvd.h"

namespace orpheus::storage {

/// Versioned binary on-disk format shared by snapshots and the WAL
/// (DESIGN.md §10.2). All integers are little-endian fixed-width; strings
/// are length-prefixed; doubles are IEEE-754 bit patterns. Every frame is
/// length-prefixed and CRC32C-checksummed so corruption is detected at the
/// frame that contains it, with a byte offset in the error.

/// Version 3 is the only format: rid lists (version membership and
/// kIntArray values) are tagged payloads — raw i64 lists for short or
/// unsorted arrays, packed RidSet chunk blobs (common/ridset.h) otherwise —
/// and logical-clock fields are i64. Readers accept exactly kFormatVersion
/// and refuse every other version with DataLoss; the v2 format (double
/// clocks, zero header checksum) is no longer readable.
inline constexpr uint32_t kFormatVersion = 3;

/// CRC32C (Castagnoli, the checksum RocksDB/ext4/iSCSI use).
/// Crc32c("123456789") == 0xE3069283. Computed with the SSE4.2 `crc32`
/// instruction when the CPU has it, else a slicing-by-8 table kernel
/// (storage/crc32c.cc); both produce the same values.
uint32_t Crc32c(std::string_view data);

/// Continue a checksum over more bytes: Crc32cExtend(Crc32c(a), b) ==
/// Crc32c(a + b), and Crc32cExtend(0, a) == Crc32c(a).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// Checksum of a snapshot/WAL file header (magic | version | seq), stored
/// in the header's u32 after the version, so a bit flip anywhere in the
/// header is caught before the payload is decoded.
uint32_t HeaderCrc(std::string_view magic, uint32_t version, uint64_t seq);

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutDouble(double v);
  void PutString(std::string_view s);
  /// Append raw bytes (no length prefix).
  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  /// Append `n` zero bytes and return where they start, for the caller to
  /// fill in place (valid until the next append).
  char* Extend(size_t n) {
    const size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }
  /// Grow the buffer's capacity for `n` more bytes.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader. Every getter returns DataLoss with the absolute
/// byte offset (`base_offset` + local position) on truncation, so callers
/// can report exactly where a file went bad.
class Decoder {
 public:
  explicit Decoder(std::string_view data, uint64_t base_offset = 0)
      : data_(data), base_(base_offset) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<int32_t> GetI32();
  Result<double> GetDouble();
  Result<std::string> GetString();
  /// A u32 element count, refused (DataLoss) when `count * min_elem_bytes`
  /// exceeds the bytes left — so a corrupt count cannot drive a huge
  /// allocation before the truncation is noticed.
  Result<uint32_t> GetCount(size_t min_elem_bytes);
  /// The next `n` raw bytes, as a view into the decoded buffer.
  Result<std::string_view> GetBytes(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }
  uint64_t file_offset() const { return base_ + pos_; }

 private:
  Status Truncated(const char* what, size_t need) const;

  std::string_view data_;
  uint64_t base_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Checksummed frames
// ---------------------------------------------------------------------------

enum class FrameType : uint8_t {
  kCvdState = 1,   // snapshot: one serialized CvdState
  kFooter = 2,     // snapshot: trailing frame carrying the CVD count
  kWalCreate = 3,  // WAL: CVD created (payload: CvdState)
  kWalCommit = 4,  // WAL: one commit (payload: name + CvdCommitRecord)
  kWalDrop = 5,    // WAL: CVD dropped (payload: name)
};

/// Wire layout of one frame:
///   u32 payload_size | u32 crc32c(type byte + payload) | u8 type | payload
inline constexpr size_t kFrameHeaderSize = 9;

/// The checksum a frame header carries: crc32c(type byte + payload).
uint32_t FrameChecksum(uint8_t type, std::string_view payload);

/// The kFrameHeaderSize-byte header of a frame carrying `payload`.
std::string FrameHeader(uint8_t type, std::string_view payload);

void AppendFrame(std::string* out, FrameType type, std::string_view payload);

struct Frame {
  FrameType type = FrameType::kCvdState;
  std::string_view payload;
  uint64_t offset = 0;  // where the frame header starts in the file
};

/// Read one frame from `data` at `*pos` (advancing it past the frame).
/// Outcomes:
///  - frame parsed: returns OK, fills `*frame`;
///  - the frame extends past end-of-data, or its checksum fails *and* it is
///    the final bytes: returns OK with `*torn_tail` = true (an interrupted
///    append — recoverable by truncating at `*pos`);
///  - checksum failure with more data after the frame: DataLoss at the
///    offending offset (silent mid-file corruption — not recoverable).
/// Callers must check `*pos < data.size()` before calling (clean EOF).
Status ReadFrame(std::string_view data, uint64_t base_offset, size_t* pos,
                 Frame* frame, bool* torn_tail);

// ---------------------------------------------------------------------------
// Domain encoding
// ---------------------------------------------------------------------------

void EncodeCvdState(const core::CvdState& state, Encoder* enc);
Result<core::CvdState> DecodeCvdState(Decoder* dec);

void EncodeCommitRecord(const core::CvdCommitRecord& record, Encoder* enc);
Result<core::CvdCommitRecord> DecodeCommitRecord(Decoder* dec);

void EncodeValue(const minidb::Value& value, Encoder* enc);
Result<minidb::Value> DecodeValue(Decoder* dec);

/// A kIntArray value without EncodeValue's type tag: the rid-list payload
/// below, with compressed cells written from their packed form directly.
/// Decoding yields a compressed cell for every packed blob.
void EncodeIntArray(const minidb::Value& value, Encoder* enc);
Result<minidb::Value> DecodeIntArray(Decoder* dec);

/// Rid-list payload: u8 tag — 0 = raw (u32 count + i64 each, the defensive
/// encoding for short or non-sorted-unique lists), 1 = packed RidSet chunk
/// blob. The choice is a deterministic function of the list contents, so
/// the bytes written do not depend on the in-memory representation.
/// Decoding refuses (DataLoss) a packed blob of more than `max_rids` rids,
/// so one from an untrusted peer cannot expand past what the caller can
/// hold (a raw list is bounded by its own bytes).
void EncodeRidList(const std::vector<int64_t>& rids, Encoder* enc);
Result<std::vector<int64_t>> DecodeRidList(Decoder* dec,
                                           size_t max_rids = SIZE_MAX);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_FORMAT_H_
